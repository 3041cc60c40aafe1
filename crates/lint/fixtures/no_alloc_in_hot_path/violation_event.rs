// Fixture: lexed as crates/simnet/src/event.rs — a fan-out push that
// copies its receivers into a fresh list and boxes the entry, and a store
// that builds a new cell buffer per entry, allocate per event and must
// fire `no-alloc-in-hot-path`.
pub fn push_fan_out(&mut self, at: SimTime, first: EventKind<P>, rest: &[(NodeId, u64)]) {
    let order = self.next_order;
    self.next_order += 1 + rest.len() as u64;
    let receivers = rest.to_vec();
    let entry = Box::new(Event { at, order, kind: first });
    let cell = self.store(*entry, &receivers);
    self.runs.push(Reverse((at, order, cell)));
}

fn store(&mut self, event: Event<P>, rest: &[(NodeId, u64)]) -> u32 {
    self.cells.push(Cell {
        event: Some(event),
        next: NIL,
        rest: vec![(NodeId(0), 0); rest.len()],
        cursor: 0,
    });
    (self.cells.len() - 1) as u32
}
