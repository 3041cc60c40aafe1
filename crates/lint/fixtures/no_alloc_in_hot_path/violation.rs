// Fixture: lexed as crates/simnet/src/sim.rs — per-event allocations
// inside the hot fn `flush_context` must fire `no-alloc-in-hot-path`.
fn flush_context(&mut self, id: NodeId, ctx: NodeContext<P>) {
    let (outbox, timers) = ctx.into_parts();
    for outgoing in outbox {
        let copies = outgoing.destinations.to_vec();
        let staged = vec![outgoing.payload.clone(); copies.len()];
        for (to, payload) in copies.into_iter().zip(staged) {
            self.send_many(id, &[to], Box::new(payload));
        }
    }
    drop(timers);
}
