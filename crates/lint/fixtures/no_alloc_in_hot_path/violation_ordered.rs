// Fixture: lexed as crates/simnet/src/sim.rs — an ordered container built
// per event inside the hot fn `flush_context` must fire
// `no-alloc-in-hot-path`: constructed empty, collected through a `let`
// annotation, collected through a turbofish.
fn flush_context(&mut self, id: NodeId, ctx: NodeContext<P>) {
    let (outbox, timers) = ctx.into_parts();
    let mut by_hop = BTreeMap::new();
    for outgoing in outbox {
        by_hop.entry(outgoing.to).or_insert(outgoing.payload);
    }
    let seen: BTreeSet<NodeId> = by_hop.keys().copied().collect();
    let again = seen.iter().copied().collect::<BTreeSet<_>>();
    self.timer_pool.release(timers);
    drop(again);
}
