// Fixture: lexed as crates/simnet/src/route.rs — a sort that keys each
// destination once into scratch the relay keeps, then writes the order
// back in place, must stay silent; so must a test helper outside the
// scoped functions that copies the sorted list.
fn sort_for_multicast(&self, src: NodeId, dsts: &mut [NodeId], keys: &mut Vec<(u32, NodeId)>) {
    keys.clear();
    keys.extend(
        (dsts.iter()).map(|&d| (self.subtree_span(src, d).map_or(u32::MAX, |s| s.0), d)),
    );
    keys.sort_unstable();
    for (d, &(_, sorted)) in dsts.iter_mut().zip(keys.iter()) {
        *d = sorted;
    }
}

fn euler_sorted(&self, src: NodeId, dsts: &[NodeId]) -> Vec<NodeId> {
    let mut all = dsts.to_vec();
    self.sort_for_multicast(src, &mut all, &mut Vec::new());
    all
}
