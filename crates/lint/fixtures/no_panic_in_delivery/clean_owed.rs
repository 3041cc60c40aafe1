// Fixture: lexed as crates/dsm/src/protocol/owed.rs — a push, serve and
// flush that reach the cursors and the log through `get`/`get_mut` and fall
// back to an empty slice cannot panic and must stay silent; so must
// indexing in a helper outside the scoped functions.
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
    let mut groups: Vec<(usize, Vec<NodeId>)> = Vec::new();
    for (d, next) in self.next.iter_mut().enumerate() {
        if len - *next >= at_least.max(1) {
            groups.push((*next, vec![NodeId(d)]));
            *next = len;
        }
    }
    for (from, dests) in groups {
        send(self.entries.get(from..).unwrap_or_default().into(), dests);
    }
}

fn first_owed(&self, d: usize) -> usize {
    self.next[d]
}
