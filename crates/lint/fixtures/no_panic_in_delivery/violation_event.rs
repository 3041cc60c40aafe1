// Fixture: lexed as crates/simnet/src/event.rs — every delivery is
// popped, and every fan-out pushed, through the queue, so a hand-out
// that indexes the slab and the entry's receivers and unwraps its event,
// and a fan-out push that indexes the open run's tail, must fire
// `no-panic-in-delivery`.
fn hand_out(&mut self, at: SimTime, index: u32) -> Option<Event<P>> {
    let cell = &mut self.cells[index as usize];
    let (to, seq) = cell.rest[cell.cursor as usize];
    let event = cell.event.as_mut().unwrap();
    let copy = event.clone();
    if let EventKind::Deliver { to: next, seq: next_seq, .. } = &mut event.kind {
        (*next, *next_seq) = (to, seq);
    }
    cell.cursor += 1;
    self.walking = Some((at, index));
    Some(copy)
}

pub fn push_fan_out(&mut self, at: SimTime, first: EventKind<P>, rest: &[(NodeId, u64)]) {
    let order = self.next_order;
    self.next_order += 1 + rest.len() as u64;
    let cell = self.store(Event { at, order, kind: first }, rest);
    if let Some((_, last)) = self.open {
        self.cells[last as usize].next = cell;
    }
    self.open = Some((at, cell));
}
