// Fixture: lexed as crates/dsm/src/clock.rs — a scan that zips the two
// slices, reads the sender's entry through `get` and asserts only in debug
// builds cannot panic and must stay silent; so must indexing in a clock
// method outside the delivery condition.
pub fn deliverable_from(&self, msg: &VectorClock, sender: usize) -> bool {
    let (mine, theirs) = (self.entries.as_slice(), msg.entries.as_slice());
    let next = (mine.get(sender).zip(theirs.get(sender))).is_some_and(|(m, t)| *t == m + 1);
    debug_assert!(mine.iter().chain(theirs).all(|&e| e < 1 << 63));
    let ahead = || (mine.iter().zip(theirs)).map(|(m, t)| m.wrapping_sub(*t) >> 63);
    next && mine.len() == theirs.len() && ahead().sum::<u64>() == 1
}

pub fn increment(&mut self, i: usize) -> u64 {
    self.entries[i] += 1;
    self.entries[i]
}
