// Fixture: lexed as crates/dsm/src/clock.rs — every causal delivery whose
// stamp is no own step runs the delivery condition, so a scan that indexes
// both clocks by position and unwraps the sender's entry must fire
// `no-panic-in-delivery`.
pub fn deliverable_from(&self, msg: &VectorClock, sender: usize) -> bool {
    let mut ahead = 0;
    for k in 0..self.entries.len() {
        ahead += u64::from(msg.entries[k] > self.entries[k]);
    }
    let mine = self.entries.get(sender).unwrap();
    msg.entries[sender] == mine + 1 && ahead == 1
}
