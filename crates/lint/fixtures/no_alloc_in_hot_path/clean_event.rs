// Fixture: lexed as crates/simnet/src/event.rs — a fan-out push that
// hands its receivers to a recycled cell, whose buffer keeps its capacity
// from entry to entry, must stay silent; so must a test helper outside
// the scoped functions that copies them out.
pub fn push_fan_out(&mut self, at: SimTime, first: EventKind<P>, rest: &[(NodeId, u64)]) {
    let order = self.next_order;
    self.next_order += 1 + rest.len() as u64;
    let cell = self.store(Event { at, order, kind: first }, rest);
    self.runs.push(Reverse((at, order, cell)));
}

fn store(&mut self, event: Event<P>, rest: &[(NodeId, u64)]) -> u32 {
    let index = self.free;
    if let Some(cell) = self.cells.get_mut(index as usize) {
        self.free = cell.next;
        cell.event = Some(event);
        cell.rest.clear();
        cell.rest.extend_from_slice(rest);
    }
    index
}

fn receivers(&self, index: u32) -> Vec<(NodeId, u64)> {
    self.cells[index as usize].rest.to_vec()
}
