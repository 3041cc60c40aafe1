// Fixture: lexed as crates/dsm/src/protocol/op_log.rs — clearing in place
// keeps the allocation for the next round and must stay silent; building
// the table at construction time is outside the scoped functions.
fn checkpoint(&mut self) {
    self.winners.clear();
    self.cuts += 1;
}

fn cut(&mut self) {
    self.base += self.entries.len() as u64;
    self.entries.clear();
    self.cuts += 1;
}

fn new(me: ProcId) -> Self {
    OpLogNode { me, winners: BTreeMap::new(), cuts: 0 }
}
