// Fixture: lexed as crates/dsm/src/protocol/op_log.rs — the runtime calls
// `checkpoint` on every node at every all-up settle, so a cut that can
// panic (an unwrap, an assert, slice indexing) must fire
// `no-panic-in-delivery`.
fn checkpoint(&mut self) {
    let stable = self.acked.iter().min().unwrap();
    assert!(*stable <= self.log.len(), "acknowledged past the log");
    let last = self.log[*stable - 1].seq;
    self.log.drain(..*stable);
    self.base = last;
}
