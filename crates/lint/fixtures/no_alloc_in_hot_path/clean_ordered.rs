// Fixture: lexed as crates/simnet/src/sim.rs — reading an ordered
// container the hot fn was handed, and building one in a fn outside the
// delivery spine, must stay silent.
fn flush_context(&mut self, id: NodeId, ctx: NodeContext<P>) {
    let (outbox, timers) = ctx.into_parts();
    let replicas: &BTreeSet<NodeId> = self.placement.replicas_of(id);
    for outgoing in outbox {
        if replicas.contains(&outgoing.to) {
            self.send_message(id, outgoing.to, outgoing.payload);
        }
    }
    self.timer_pool.release(timers);
}

fn summary(&self) -> BTreeMap<NodeId, u64> {
    // Not a delivery hot path: a report may build whatever it likes.
    let mut per_node = BTreeMap::new();
    for (node, count) in self.counts.iter().enumerate() {
        per_node.insert(NodeId(node), *count);
    }
    per_node
}
