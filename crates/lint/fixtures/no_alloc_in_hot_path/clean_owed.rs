// Fixture: lexed as crates/dsm/src/protocol/owed.rs — a push that appends
// the record once and a serve that lends a slice of the log must stay
// silent; so must the grouped flush, which builds its group list once per
// window and sits outside this rule's scope.
pub(crate) fn push(&mut self, entry: T) {
    self.entries.push(entry);
    if let Some(mine) = self.next.get_mut(self.me) {
        *mine = self.entries.len();
    }
}

pub(crate) fn serve(&mut self, d: usize) -> &[T] {
    let len = self.entries.len();
    let Some(next) = self.next.get_mut(d) else {
        return &[];
    };
    let from = std::mem::replace(next, len);
    self.entries.get(from..len.saturating_sub(1)).unwrap_or_default()
}

pub(crate) fn flush(&mut self, at_least: usize, mut send: impl FnMut(Arc<[T]>, Vec<NodeId>)) {
    let len = self.entries.len();
    for (d, next) in self.next.iter_mut().enumerate() {
        if len - *next >= at_least.max(1) {
            send(self.entries.get(*next..).unwrap_or_default().into(), vec![NodeId(d)]);
            *next = len;
        }
    }
}
