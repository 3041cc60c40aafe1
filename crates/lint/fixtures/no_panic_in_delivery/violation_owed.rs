// Fixture: lexed as crates/dsm/src/protocol/owed.rs — every batching
// write logs its record and serves the variable's replicas, and the grouped
// flush drains the log, so a push that expects the writer's cursor, a serve
// that indexes the cursors and the log, and a flush that unwraps a group
// must fire `no-panic-in-delivery`.
pub(crate) fn push(&mut self, entry: T) {
    self.entries.push(entry);
    *self.next.get_mut(self.me).expect("the writer has a cursor") = self.entries.len();
}

pub(crate) fn serve(&mut self, d: usize) -> &[T] {
    let from = std::mem::replace(&mut self.next[d], self.entries.len());
    &self.entries[from..self.entries.len() - 1]
}

pub(crate) fn flush(&mut self, at_least: usize, mut send: impl FnMut(Arc<[T]>, Vec<NodeId>)) {
    let len = self.entries.len();
    let from = self.next.iter().copied().min().unwrap();
    if len - from >= at_least {
        send(self.entries[from..].into(), self.owed_by(from));
    }
}
