// Fixture: lexed as crates/dsm/src/protocol/op_log.rs — a cut runs on
// every node at every all-up settle; rebuilding the retained state
// (a fresh ordered map, a copied tail) must fire `no-alloc-in-hot-path`.
fn checkpoint(&mut self) {
    let tail = self.log[self.stable..].to_vec();
    self.log = tail;
    self.winners = BTreeMap::new();
    self.cuts += 1;
}
