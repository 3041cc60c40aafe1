// Fixture: lexed as crates/dsm/src/protocol/causal.rs — an in-order check
// that reads entries through accessors and asserts only in debug builds,
// and a receive path that parks by push and drains by position, cannot
// panic and must stay silent; so must indexing in a test helper outside
// the scoped functions.
fn deliverable_at(&self, local: &VectorClock, writer: usize) -> bool {
    if !self.own_step {
        return local.deliverable_from(&self.vc, writer);
    }
    let next = writer < local.len()
        && self.vc.len() == local.len()
        && local.get(writer) + 1 == self.vc.get(writer);
    debug_assert_eq!(next, local.deliverable_from(&self.vc, writer));
    next
}

fn drain(&mut self) {
    while let Some(i) = self.pending.iter().position(|p| p.stamp.deliverable_at(&self.vc, p.writer)) {
        let p = self.pending.remove(i);
        self.apply(p.writer, p.var, p.value, &p.stamp);
    }
}

fn stamp_of(stamps: &[Arc<Stamp>], k: usize) -> &Stamp {
    &stamps[k]
}
