// Fixture: lexed as crates/simnet/src/event.rs — a hand-out that
// reaches the slab, the entry's receivers and its event through
// `get`/`get_mut` and `?`, and a fan-out push that links the open run's
// tail the same way, cannot panic and must stay silent; so must indexing
// in a helper outside the scoped functions.
fn hand_out(&mut self, at: SimTime, index: u32) -> Option<Event<P>> {
    let cell = self.cells.get_mut(index as usize)?;
    let &(to, seq) = cell.rest.get(cell.cursor as usize)?;
    let event = cell.event.as_mut()?;
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
    if let Some(tail) = self.open.and_then(|(_, last)| self.cells.get_mut(last as usize)) {
        tail.next = cell;
    }
    self.open = Some((at, cell));
}

fn receivers_left(&self, index: u32) -> usize {
    let cell = &self.cells[index as usize];
    cell.rest.len() - cell.cursor as usize
}
