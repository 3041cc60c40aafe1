// Fixture: lexed as crates/dsm/src/protocol/owed.rs — every batching
// write logs its record once and serves the variable's replicas, so a push
// that copies the record into a boxed slot per destination and a serve that
// hands out a fresh `.to_vec()` must fire `no-alloc-in-hot-path`.
pub(crate) fn push(&mut self, entry: T) {
    for slot in self.copies.iter_mut() {
        slot.push(Box::new(entry.clone()));
    }
    self.entries.push(entry);
}

pub(crate) fn serve(&mut self, d: usize) -> Vec<T> {
    let len = self.entries.len();
    let from = self.next.get_mut(d).map_or(len, |next| std::mem::replace(next, len));
    self.entries.get(from..len.saturating_sub(1)).unwrap_or_default().to_vec()
}
