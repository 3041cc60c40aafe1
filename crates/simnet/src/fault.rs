//! The fault layer: deterministic message drop/duplication schedules and
//! the down-node policy beneath the protocols.
//!
//! The paper's system model assumes reliable FIFO channels. This module
//! relaxes that assumption *without* changing what the protocols observe
//! in content or per-writer order, so the fault-free differential oracles
//! (the `histories` checkers, the equivalence proptests) remain the
//! arbiter of every fault schedule:
//!
//! * **Drops** are modelled together with the ack/retransmit handshake a
//!   reliable transport runs on a lossy wire: a dropped transmission is
//!   retransmitted after [`FaultPlan::retransmit_delay`] until it gets
//!   through. On the simulated wire this collapses to a *delayed*
//!   delivery whose extra attempts are counted ([`crate::stats::LinkStats::drops`])
//!   and re-charged (every retransmission pays the payload bytes again).
//!   The per-channel monotonic delivery clamp covers the retransmit
//!   delay, so FIFO per (src, dst) — and therefore FIFO per writer along
//!   routed and multicast paths, which follow one physical path per pair
//!   — survives any drop schedule.
//! * **Duplicates** model the other half of the same handshake: a
//!   retransmission whose original was *not* lost arrives twice. The
//!   receiver's link layer discards the second copy by sequence number
//!   (any ack/retransmit scheme must, or acked traffic would replay), so
//!   protocols never see it; the duplicate still pays wire bytes and is
//!   counted ([`crate::stats::LinkStats::duplicates`]). Protocol nodes
//!   additionally carry their own idempotence guards (stale sequence
//!   numbers and already-covered vector clocks are discarded), which the
//!   crash-recovery path exercises for real.
//! * **Crashes** take a node down at runtime
//!   ([`crate::transport::NetCore::set_down`]) until it is brought back
//!   ([`crate::transport::NetCore::set_up`]). What happens to traffic
//!   addressed to a down node is the node's own policy
//!   ([`crate::node::Node::while_down`]): protocol deliveries are **lost**
//!   (the MCS process is dead; its catch-up handshake re-requests them on
//!   restart), while a [`crate::route::Relay`] **parks** transit traffic
//!   for redelivery at restart — third-party envelopes are never dropped
//!   on the floor. Timers pending at a down node are lost with it.
//!
//! All fault randomness is drawn from a dedicated per-link RNG seeded
//! from `(FaultPlan::seed, from, to)` — the latency RNG is untouched, so
//! a trivial plan is bit-identical to the pre-fault simulator, and the
//! same plan seed reproduces the same fault schedule run after run.

use crate::time::SimDuration;

/// Upper bound on consecutive drops of one transmission: a safety valve
/// so a pathological drop rate cannot loop forever (2^-16 residual odds
/// at rate 0.5).
pub(crate) const MAX_CONSECUTIVE_DROPS: u32 = 16;

/// A deterministic fault schedule for a simulation run: seeded per-link
/// drop/duplicate rates. The default plan is trivial (no faults) and
/// leaves the simulator bit-identical to the reliable-channel model.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability that a transmission is dropped (and retransmitted),
    /// sampled independently per attempt from the link's fault RNG.
    pub drop_rate: f64,
    /// Probability that a delivered transmission arrives twice; the
    /// second copy is discarded by the receiver's link layer.
    pub duplicate_rate: f64,
    /// Extra delay a retransmission pays on top of a fresh latency
    /// sample.
    pub retransmit_delay: SimDuration,
    /// Seed of the per-link fault RNGs (mixed with the link endpoints, so
    /// distinct links draw independent but reproducible schedules).
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            retransmit_delay: SimDuration::from_micros(25),
            seed: 0xFA_17,
        }
    }
}

impl FaultPlan {
    /// A plan that drops (and retransmits) each transmission with
    /// probability `drop_rate`.
    pub fn lossy(drop_rate: f64, seed: u64) -> Self {
        FaultPlan {
            drop_rate,
            seed,
            ..FaultPlan::default()
        }
    }

    /// A plan that duplicates each transmission with probability
    /// `duplicate_rate`.
    pub fn duplicating(duplicate_rate: f64, seed: u64) -> Self {
        FaultPlan {
            duplicate_rate,
            seed,
            ..FaultPlan::default()
        }
    }

    /// Whether the plan injects link faults (drops or duplicates).
    pub fn has_link_faults(&self) -> bool {
        self.drop_rate > 0.0 || self.duplicate_rate > 0.0
    }
}

/// What to do with a message delivered to a node that is down.
///
/// Chosen per payload by [`crate::node::Node::while_down`]: protocol
/// deliveries default to [`DownAction::Lose`] (the process is dead and
/// recovery is the protocol's catch-up obligation), while relays choose
/// [`DownAction::Park`] for transit traffic so third-party envelopes
/// survive the outage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DownAction {
    /// The message is lost (counted per node, never delivered).
    Lose,
    /// The message is held and redelivered when the node restarts.
    Park,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_trivial() {
        assert!(!FaultPlan::default().has_link_faults());
    }

    #[test]
    fn lossy_and_duplicating_constructors_set_one_rate() {
        let lossy = FaultPlan::lossy(0.25, 7);
        assert!(lossy.has_link_faults());
        assert_eq!(lossy.drop_rate, 0.25);
        assert_eq!(lossy.duplicate_rate, 0.0);
        assert_eq!(lossy.seed, 7);
        let dup = FaultPlan::duplicating(0.5, 9);
        assert_eq!(dup.drop_rate, 0.0);
        assert_eq!(dup.duplicate_rate, 0.5);
        assert!(dup.has_link_faults());
    }
}
