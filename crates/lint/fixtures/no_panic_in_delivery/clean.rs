// Fixture: lexed as crates/simnet/src/sim.rs — checked access plus
// debug_assert! in the hot fn, and an unwrap in a fn outside the
// delivery spine, must stay silent.
fn step(&mut self) -> Result<bool, NetError> {
    let Some(event) = self.queue.pop() else {
        return Ok(false);
    };
    debug_assert!(event.at >= self.now, "time went backwards");
    let node = self
        .nodes
        .get_mut(event.to.index())
        .ok_or(SendError::UnknownNode { node: event.to })?;
    node.deliver(event.payload);
    Ok(true)
}

pub fn stats_snapshot(&self) -> Stats {
    // Not a delivery hot path: unwrap here is out of scope.
    self.stats.lock().unwrap().clone()
}
