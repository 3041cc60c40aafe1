// Fixture: lexed as crates/simnet/src/sim.rs — lent buffers handed back
// and a fan-out scheduled as one entry holding its payload once in the
// hot fn, plus allocations in a fn outside the delivery spine, must stay
// silent.
fn flush_context(&mut self, id: NodeId, ctx: NodeContext<P>) {
    let (mut outbox, timers) = ctx.into_parts();
    for outgoing in outbox.drain(..) {
        self.send_many(id, &outgoing.destinations, outgoing.payload);
    }
    self.outbox = outbox;
    self.timers = timers;
}

fn report(&self) -> Vec<String> {
    // Not a delivery hot path: allocating a report here is out of scope.
    vec![format!("{} events", self.events)]
}
