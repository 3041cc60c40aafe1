// Fixture: lexed as crates/simnet/src/route.rs — every multicast a relay
// sends is sorted into Euler-tour order, so a sort that builds its keys in
// a fresh `vec![..]` and copies the destinations out with `.to_vec()` must
// fire `no-alloc-in-hot-path`.
fn sort_for_multicast(&self, src: NodeId, dsts: &mut [NodeId], keys: &mut Vec<(u32, NodeId)>) {
    let mut keyed = vec![(u32::MAX, NodeId(0)); dsts.len()];
    for (key, &d) in keyed.iter_mut().zip(dsts.iter()) {
        *key = (self.subtree_span(src, d).map_or(u32::MAX, |s| s.0), d);
    }
    keyed.sort_unstable();
    let sorted: Vec<NodeId> = keyed.iter().map(|&(_, d)| d).collect();
    dsts.copy_from_slice(&sorted.to_vec());
}
