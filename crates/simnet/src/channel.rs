//! Reliable FIFO point-to-point channels with pluggable latency models.
//!
//! The paper's system model requires channels that are *reliable* (no loss,
//! no duplication, no corruption) and, for the protocols we implement on
//! top, *FIFO* per sender-receiver pair. [`Channel`] guarantees both: a
//! message is delivered exactly once, and never before any message sent
//! earlier on the same channel, even if the latency model would reorder
//! them (delivery times are monotonically clamped).
//!
//! Under a non-trivial [`FaultPlan`] the channel
//! additionally models a lossy wire beneath the reliable abstraction:
//! dropped transmissions are retransmitted (extra delay + extra counted
//! attempts) and duplicated transmissions schedule a second copy the
//! receiver's link layer will discard. The fault randomness comes from a
//! dedicated per-link RNG, so a trivial plan leaves the latency sequence
//! — and therefore the whole simulation — bit-identical to the reliable
//! model.

use crate::fault::{FaultPlan, MAX_CONSECUTIVE_DROPS};
use crate::message::NodeId;
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Latency model applied to each message on a channel.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Uniform latency in `[min, max]`, drawn from a per-channel seeded RNG.
    Uniform {
        /// Minimum latency.
        min: SimDuration,
        /// Maximum latency (inclusive).
        max: SimDuration,
    },
    /// Base latency plus a per-byte transmission cost, modelling bandwidth.
    PerByte {
        /// Fixed propagation delay.
        base: SimDuration,
        /// Additional nanoseconds per payload byte.
        nanos_per_byte: u64,
    },
    /// Base latency plus a cost proportional to the "distance" between the
    /// endpoints (the absolute difference of their node indices), modelling
    /// a cluster laid out on a line or racks numbered by locality.
    Distance {
        /// Fixed propagation delay on every link.
        base: SimDuration,
        /// Additional delay per unit of index distance.
        per_unit: SimDuration,
    },
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Constant(SimDuration::from_micros(10))
    }
}

#[deny(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]
impl LatencyModel {
    /// Sample the latency for a message of `bytes` payload bytes travelling
    /// `distance` units (the absolute difference of the endpoint indices;
    /// only the [`LatencyModel::Distance`] variant looks at it).
    #[inline]
    pub(crate) fn sample(&self, rng: &mut SmallRng, bytes: usize, distance: usize) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                if max <= min {
                    min
                } else {
                    SimDuration::from_nanos(rng.gen_range(min.as_nanos()..=max.as_nanos()))
                }
            }
            LatencyModel::PerByte {
                base,
                nanos_per_byte,
            } => base.saturating_add(SimDuration::from_nanos(
                nanos_per_byte.saturating_mul(bytes as u64),
            )),
            LatencyModel::Distance { base, per_unit } => base.saturating_add(
                SimDuration::from_nanos(per_unit.as_nanos().saturating_mul(distance as u64)),
            ),
        }
    }
}

/// The outcome of scheduling one transmission on a (possibly faulty)
/// channel: when the message finally gets through, how many attempts were
/// dropped and retransmitted on the way, and whether a duplicate copy
/// will arrive as well.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transmission {
    /// Virtual time at which the message is delivered (after any
    /// retransmissions; monotone per channel, so FIFO holds under drops).
    pub delivery: SimTime,
    /// Number of dropped-and-retransmitted attempts before the one that
    /// got through (0 on a reliable channel).
    pub drops: u32,
    /// Delivery time of a duplicate copy, if the fault schedule produced
    /// one. The receiver's link layer discards it on arrival.
    pub duplicate_at: Option<SimTime>,
}

/// Per-link fault state: the rates from the [`FaultPlan`] plus the
/// dedicated RNG all fault randomness is drawn from.
#[derive(Clone, Debug)]
struct LinkFaults {
    drop_rate: f64,
    duplicate_rate: f64,
    retransmit_delay: SimDuration,
    rng: SmallRng,
}

/// State of a reliable FIFO channel from one node to another.
///
/// The channel does not itself store in-flight messages (the simulator's
/// event queue does); it only tracks the bookkeeping needed to enforce FIFO
/// delivery and to sample latencies deterministically.
#[derive(Clone, Debug)]
pub struct Channel {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    latency: LatencyModel,
    rng: SmallRng,
    faults: Option<LinkFaults>,
    /// Delivery time of the most recently scheduled message, used to clamp
    /// later messages so FIFO order is preserved.
    last_delivery: SimTime,
    /// Number of messages scheduled on this channel so far.
    sent: u64,
}

fn link_mix(seed: u64, from: NodeId, to: NodeId) -> u64 {
    seed ^ (from.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (to.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

impl Channel {
    /// Create a channel with the given latency model. The RNG is seeded from
    /// `(seed, from, to)` so that distinct channels draw independent but
    /// reproducible latency sequences.
    pub fn new(from: NodeId, to: NodeId, latency: LatencyModel, seed: u64) -> Self {
        Channel {
            from,
            to,
            latency,
            rng: SmallRng::seed_from_u64(link_mix(seed, from, to)),
            faults: None,
            last_delivery: SimTime::ZERO,
            sent: 0,
        }
    }

    /// Create a channel whose transmissions follow `plan`'s drop/duplicate
    /// schedule. The fault RNG is seeded from `(plan.seed, from, to)` —
    /// independent of the latency RNG, so a trivial plan draws exactly the
    /// sequence [`Channel::new`] would.
    pub(crate) fn with_faults(
        from: NodeId,
        to: NodeId,
        latency: LatencyModel,
        seed: u64,
        plan: &FaultPlan,
    ) -> Self {
        let mut channel = Channel::new(from, to, latency, seed);
        if plan.has_link_faults() {
            channel.faults = Some(LinkFaults {
                drop_rate: plan.drop_rate.clamp(0.0, 1.0),
                duplicate_rate: plan.duplicate_rate.clamp(0.0, 1.0),
                retransmit_delay: plan.retransmit_delay,
                rng: SmallRng::seed_from_u64(link_mix(
                    plan.seed.wrapping_mul(0x5851_F42D_4C95_7F2D),
                    from,
                    to,
                )),
            });
        }
        channel
    }

    /// Schedule a message of `bytes` payload bytes sent at `now`, applying
    /// the channel's fault schedule: each drop retransmits after the plan's
    /// delay plus a fresh latency sample, and a duplicate (if drawn) is
    /// delivered one extra latency sample after the real copy. The final
    /// delivery time is monotonically clamped, so FIFO per channel holds
    /// under any schedule.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub fn transmit(&mut self, now: SimTime, bytes: usize) -> Transmission {
        let distance = self.from.index().abs_diff(self.to.index());
        let mut delivery = now + self.latency.sample(&mut self.rng, bytes, distance);
        let mut drops = 0u32;
        let mut duplicate_at = None;
        if let Some(f) = &mut self.faults {
            while f.drop_rate > 0.0 && drops < MAX_CONSECUTIVE_DROPS && f.rng.gen_bool(f.drop_rate)
            {
                drops += 1;
                delivery = delivery
                    + f.retransmit_delay
                    + self.latency.sample(&mut f.rng, bytes, distance);
            }
            if f.duplicate_rate > 0.0 && f.rng.gen_bool(f.duplicate_rate) {
                duplicate_at = Some(delivery + self.latency.sample(&mut f.rng, bytes, distance));
            }
        }
        if delivery < self.last_delivery {
            delivery = self.last_delivery;
        }
        self.last_delivery = delivery;
        self.sent += 1;
        Transmission {
            delivery,
            drops,
            duplicate_at: duplicate_at.map(|d| d.max(delivery)),
        }
    }

    /// Messages scheduled on this channel so far.
    pub(crate) fn sent_count(&self) -> u64 {
        self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(model: LatencyModel) -> Channel {
        Channel::new(NodeId(0), NodeId(1), model, 42)
    }

    #[test]
    fn constant_latency_is_exact() {
        let mut c = chan(LatencyModel::Constant(SimDuration::from_micros(5)));
        let d = c.transmit(SimTime::from_micros(1), 100).delivery;
        assert_eq!(d, SimTime::from_micros(6));
    }

    #[test]
    fn fifo_order_is_preserved_under_jitter() {
        let mut c = chan(LatencyModel::Uniform {
            min: SimDuration::from_micros(1),
            max: SimDuration::from_micros(100),
        });
        let mut last = SimTime::ZERO;
        for i in 0..200 {
            let d = c.transmit(SimTime::from_micros(i), 16).delivery;
            assert!(d >= last, "FIFO violated: {d:?} < {last:?}");
            last = d;
        }
        assert_eq!(c.sent_count(), 200);
    }

    #[test]
    fn per_byte_latency_scales_with_size() {
        let mut c = chan(LatencyModel::PerByte {
            base: SimDuration::from_micros(1),
            nanos_per_byte: 10,
        });
        let small = c.transmit(SimTime::ZERO, 10).delivery;
        let mut c2 = chan(LatencyModel::PerByte {
            base: SimDuration::from_micros(1),
            nanos_per_byte: 10,
        });
        let big = c2.transmit(SimTime::ZERO, 1000).delivery;
        assert!(big > small);
        assert_eq!(small.as_nanos(), 1_000 + 100);
        assert_eq!(big.as_nanos(), 1_000 + 10_000);
    }

    #[test]
    fn uniform_with_degenerate_range_returns_min() {
        let mut c = chan(LatencyModel::Uniform {
            min: SimDuration::from_micros(3),
            max: SimDuration::from_micros(3),
        });
        assert_eq!(
            c.transmit(SimTime::ZERO, 1).delivery,
            SimTime::from_micros(3)
        );
    }

    #[test]
    fn channels_with_same_seed_are_reproducible() {
        let model = LatencyModel::Uniform {
            min: SimDuration::from_nanos(10),
            max: SimDuration::from_micros(10),
        };
        let mut a = Channel::new(NodeId(2), NodeId(5), model.clone(), 7);
        let mut b = Channel::new(NodeId(2), NodeId(5), model, 7);
        for i in 0..50 {
            assert_eq!(
                a.transmit(SimTime::from_micros(i), 64).delivery,
                b.transmit(SimTime::from_micros(i), 64).delivery
            );
        }
    }

    #[test]
    fn distinct_channels_draw_independent_sequences() {
        let model = LatencyModel::Uniform {
            min: SimDuration::from_nanos(0),
            max: SimDuration::from_micros(1000),
        };
        let mut a = Channel::new(NodeId(0), NodeId(1), model.clone(), 7);
        let mut b = Channel::new(NodeId(1), NodeId(0), model, 7);
        let seq_a: Vec<_> = (0..20)
            .map(|_| a.transmit(SimTime::ZERO, 1).delivery)
            .collect();
        let seq_b: Vec<_> = (0..20)
            .map(|_| b.transmit(SimTime::ZERO, 1).delivery)
            .collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn distance_latency_scales_with_index_separation() {
        let model = LatencyModel::Distance {
            base: SimDuration::from_micros(2),
            per_unit: SimDuration::from_micros(3),
        };
        let mut near = Channel::new(NodeId(4), NodeId(5), model.clone(), 1);
        let mut far = Channel::new(NodeId(0), NodeId(7), model, 1);
        assert_eq!(
            near.transmit(SimTime::ZERO, 8).delivery,
            SimTime::from_micros(2 + 3)
        );
        assert_eq!(
            far.transmit(SimTime::ZERO, 8).delivery,
            SimTime::from_micros(2 + 3 * 7)
        );
    }

    #[test]
    fn default_latency_model_is_constant() {
        assert_eq!(
            LatencyModel::default(),
            LatencyModel::Constant(SimDuration::from_micros(10))
        );
    }

    #[test]
    fn trivial_fault_plan_matches_the_reliable_channel_exactly() {
        let model = LatencyModel::Uniform {
            min: SimDuration::from_nanos(10),
            max: SimDuration::from_micros(10),
        };
        let mut plain = Channel::new(NodeId(1), NodeId(3), model.clone(), 7);
        let mut faulted =
            Channel::with_faults(NodeId(1), NodeId(3), model, 7, &FaultPlan::default());
        for i in 0..50 {
            let t = faulted.transmit(SimTime::from_micros(i), 64);
            assert_eq!(
                t.delivery,
                plain.transmit(SimTime::from_micros(i), 64).delivery
            );
            assert_eq!(t.drops, 0);
            assert_eq!(t.duplicate_at, None);
        }
    }

    #[test]
    fn drops_delay_delivery_and_are_counted() {
        let plan = FaultPlan::lossy(0.5, 3);
        let mut c = Channel::with_faults(
            NodeId(0),
            NodeId(1),
            LatencyModel::Constant(SimDuration::from_micros(10)),
            1,
            &plan,
        );
        let mut total_drops = 0u32;
        let mut last = SimTime::ZERO;
        for i in 0..200 {
            let t = c.transmit(SimTime::from_micros(i * 5), 16);
            assert!(t.delivery >= last, "FIFO violated under drops");
            if t.drops > 0 {
                // Every retransmission pays the fixed delay plus a fresh
                // latency sample on top of the base delivery.
                assert!(t.delivery >= SimTime::from_micros(i * 5 + 10 + 35));
            }
            last = t.delivery;
            total_drops += t.drops;
        }
        assert!(total_drops > 50, "rate 0.5 must drop often: {total_drops}");
    }

    #[test]
    fn duplicates_arrive_after_the_real_copy() {
        let plan = FaultPlan::duplicating(0.5, 9);
        let mut c = Channel::with_faults(
            NodeId(0),
            NodeId(1),
            LatencyModel::Constant(SimDuration::from_micros(10)),
            1,
            &plan,
        );
        let mut dups = 0;
        for i in 0..100 {
            let t = c.transmit(SimTime::from_micros(i * 30), 16);
            if let Some(d) = t.duplicate_at {
                assert!(d >= t.delivery);
                dups += 1;
            }
            assert_eq!(t.drops, 0);
        }
        assert!(dups > 20, "rate 0.5 must duplicate often: {dups}");
    }

    #[test]
    fn fault_schedules_are_reproducible_per_seed() {
        let run = |plan_seed: u64| {
            let plan = FaultPlan {
                drop_rate: 0.3,
                duplicate_rate: 0.3,
                seed: plan_seed,
                ..FaultPlan::default()
            };
            let mut c =
                Channel::with_faults(NodeId(2), NodeId(5), LatencyModel::default(), 7, &plan);
            (0..50)
                .map(|i| c.transmit(SimTime::from_micros(i * 20), 64))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn consecutive_drops_are_capped() {
        // Rate 1.0 would loop forever without the cap.
        let plan = FaultPlan::lossy(1.0, 1);
        let mut c = Channel::with_faults(
            NodeId(0),
            NodeId(1),
            LatencyModel::Constant(SimDuration::from_micros(1)),
            1,
            &plan,
        );
        let t = c.transmit(SimTime::ZERO, 8);
        assert_eq!(t.drops, MAX_CONSECUTIVE_DROPS);
    }
}
