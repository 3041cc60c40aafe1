// Fixture: lexed as crates/dsm/src/protocol/store.rs — every delivery
// reads or writes the dense store, so an insert that grows it through a
// fresh `vec![..]` copy, and a lookup that falls back to an ordered map
// built per call, must fire `no-alloc-in-hot-path`.
fn insert(&mut self, var: VarId, value: T) {
    if var.index() >= self.slots.len() {
        let mut grown = vec![None; var.index() + 1];
        grown[..self.slots.len()].clone_from_slice(&self.slots);
        self.slots = grown;
    }
    self.slots[var.index()] = Some(value);
}

fn get(&self, var: VarId) -> Option<&T> {
    let spill: BTreeMap<VarId, &T> = self.iter().collect();
    spill.get(&var).copied()
}
