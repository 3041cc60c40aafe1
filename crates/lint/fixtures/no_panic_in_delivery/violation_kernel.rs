// Fixture: lexed as crates/dsm/src/protocol/causal.rs — every causal
// delivery runs the in-order check and the receive path, so a check that
// indexes the clocks and a receive that unwraps the parked list must fire
// `no-panic-in-delivery`.
fn deliverable_at(&self, local: &VectorClock, writer: usize) -> bool {
    if !self.own_step {
        return local.deliverable_from(&self.vc, writer);
    }
    local.entries[writer] + 1 == self.vc.entries[writer]
}

fn receive(&mut self, writer: usize, var: VarId, value: Option<i64>, stamp: &Arc<Stamp>) -> bool {
    if self.already_seen(writer, stamp) {
        return false;
    }
    self.pending.push(Parked::new(writer, var, value, stamp));
    let first = self.pending.first().unwrap();
    assert!(first.stamp.deliverable_at(&self.vc, first.writer), "head of line is in order");
    self.drain();
    true
}
