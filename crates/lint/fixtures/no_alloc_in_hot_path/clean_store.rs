// Fixture: lexed as crates/dsm/src/protocol/store.rs — growing the slot
// vector in place and reading by index must stay silent; building a map
// for a report, outside the scoped accessors, is fine too.
fn insert(&mut self, var: VarId, value: T) {
    match self.slots.get_mut(var.index()) {
        Some(slot) => *slot = Some(value),
        None => {
            self.slots.resize_with(var.index(), || None);
            self.slots.push(Some(value));
        }
    }
}

fn get(&self, var: VarId) -> Option<&T> {
    self.slots.get(var.index()).and_then(Option::as_ref)
}

fn as_map(&self) -> BTreeMap<VarId, &T> {
    self.iter().collect()
}
