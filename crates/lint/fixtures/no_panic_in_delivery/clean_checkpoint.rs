// Fixture: lexed as crates/dsm/src/protocol/op_log.rs — dropping what is
// retained and counting the cut cannot fail, and must stay silent; so
// must an `expect` in a helper outside the scoped functions.
fn checkpoint(&mut self) {
    debug_assert!(self.outstanding.is_empty(), "cut at a quiescent settle");
    self.winners.clear();
    self.cuts += 1;
}

fn winner_of(&self, var: VarId) -> (u64, usize, i64) {
    *self.winners.get(&var).expect("test helper: var was sequenced")
}
