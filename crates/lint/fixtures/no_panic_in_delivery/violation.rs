// Fixture: lexed as crates/simnet/src/sim.rs — panicking constructs and
// slice indexing inside the hot fn `step` must fire
// `no-panic-in-delivery`.
fn step(&mut self) -> Result<bool, NetError> {
    let event = self.queue.pop().unwrap();
    let node = &mut self.nodes[event.to.index()];
    if node.is_none() {
        panic!("no node registered");
    }
    Ok(true)
}
