//! Host-time watchdogs — the one module in `simnet` allowed to read the
//! wall clock.
//!
//! The threaded backend hosts nodes on preemptively scheduled OS
//! threads, where virtual time has no meaning; its blocking waits
//! (free-running quiescence spins, a replaying site's wait for the
//! arrival its schedule names next, lane drains) must be bounded in
//! host time or a lost wakeup hangs the process. Everything
//! protocol-visible still flows through the simnet schedule — host time
//! here only turns "hang forever" into "panic with a message".
//!
//! The `disallowed_types` waiver below is scoped to exactly this file, so
//! any other `Instant` use in the backend fails clippy.
#![expect(
    clippy::disallowed_types,
    reason = "the threaded backend's stall watchdogs must bound waiting in host time, where virtual time has no meaning across preemptive scheduling; all of that reading is quarantined here, and protocol-visible timing still flows through the replayed simnet schedule"
)]

use std::time::{Duration, Instant};

/// Default limit a blocking wait may stall before the backend panics
/// instead of hanging the process.
pub(crate) const WATCHDOG: Duration = Duration::from_secs(60);

/// A deadline on host time: armed at construction, queried with
/// [`Watchdog::expired`].
#[derive(Debug)]
pub(crate) struct Watchdog {
    start: Instant,
    limit: Duration,
}

impl Watchdog {
    /// Arm a watchdog with the standard [`WATCHDOG`] limit.
    pub(crate) fn standard() -> Self {
        Watchdog {
            start: Instant::now(),
            limit: WATCHDOG,
        }
    }

    /// Whether the limit has elapsed since arming.
    pub(crate) fn expired(&self) -> bool {
        self.start.elapsed() >= self.limit
    }
}
