//! Property tests for the protocol metadata types: vector clocks, the
//! causal-broadcast delivery condition, FIFO sequence tracking, and the
//! control-information accounting.

use dsm::{ControlStats, ControlSummary, DeltaVc, SequenceTracker, VectorClock};
use histories::{ProcId, VarId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn clock(entries: Vec<u64>) -> VectorClock {
    let mut vc = VectorClock::new(entries.len());
    for (i, n) in entries.iter().enumerate() {
        for _ in 0..*n {
            vc.increment(i);
        }
    }
    vc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merge is commutative, associative, idempotent, and dominates both
    /// inputs — the lattice-join properties causal delivery relies on.
    #[test]
    fn merge_is_a_join(
        a in proptest::collection::vec(0u64..6, 1..6),
        b in proptest::collection::vec(0u64..6, 1..6),
        c in proptest::collection::vec(0u64..6, 1..6),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let (a, b, c) = (clock(a[..n].to_vec()), clock(b[..n].to_vec()), clock(c[..n].to_vec()));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "associative");

        let mut aa = a.clone();
        aa.merge(&a);
        prop_assert_eq!(&aa, &a, "idempotent");

        prop_assert!(a.dominated_by(&ab), "join dominates left input");
        prop_assert!(b.dominated_by(&ab), "join dominates right input");
    }

    /// causal_cmp is consistent with dominated_by and antisymmetric.
    #[test]
    fn causal_cmp_consistency(
        a in proptest::collection::vec(0u64..6, 1..6),
        b in proptest::collection::vec(0u64..6, 1..6),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (clock(a[..n].to_vec()), clock(b[..n].to_vec()));
        use std::cmp::Ordering::*;
        match a.causal_cmp(&b) {
            Some(Equal) => { prop_assert!(a.dominated_by(&b) && b.dominated_by(&a)); }
            Some(Less) => { prop_assert!(a.dominated_by(&b) && !b.dominated_by(&a)); }
            Some(Greater) => { prop_assert!(b.dominated_by(&a) && !a.dominated_by(&b)); }
            None => { prop_assert!(!a.dominated_by(&b) && !b.dominated_by(&a)); }
        }
        prop_assert_eq!(a.causal_cmp(&a), Some(Equal));
    }

    /// The delivery condition accepts exactly the next message from a
    /// sender whose other dependencies are already satisfied, and a
    /// sequence of deliveries never gets stuck when messages arrive in the
    /// sender's order.
    #[test]
    fn delivery_condition_progress(writes in proptest::collection::vec(0usize..3, 1..12)) {
        let n = 3;
        // One writer stream per process, messages carry the writer's clock.
        let mut writer_clocks = vec![VectorClock::new(n); n];
        let mut messages = Vec::new();
        for w in writes {
            writer_clocks[w].increment(w);
            messages.push((w, writer_clocks[w].clone()));
        }
        // A receiver that applies them in send order must always find each
        // message deliverable... once the sender's previous messages are in
        // (they are, because we process in order) and other entries are
        // bounded by what it has merged. Deliver greedily and check that
        // nothing is ever permanently stuck.
        let mut local = VectorClock::new(n);
        let mut pending = messages.clone();
        let mut progress = true;
        while progress && !pending.is_empty() {
            progress = false;
            let mut i = 0;
            while i < pending.len() {
                let (sender, vc) = &pending[i];
                if local.deliverable_from(vc, *sender) {
                    local.merge(vc);
                    pending.remove(i);
                    progress = true;
                } else {
                    i += 1;
                }
            }
        }
        prop_assert!(pending.is_empty(), "causal delivery must not deadlock");
        prop_assert_eq!(local.total(), messages.len() as u64);
    }

    /// The one-pass delivery condition is the textbook one, and whenever it
    /// holds the merge a delivery performs is exactly an increment of the
    /// sender's entry — what lets `VectorClock::deliver` skip the O(n) join.
    #[test]
    fn deliverable_means_merge_is_an_increment(
        local in proptest::collection::vec(0u64..4, 1..8),
        bumps in proptest::collection::vec(0u64..3, 1..8),
        sender in 0usize..8,
    ) {
        let n = local.len().min(bumps.len());
        let local = clock(local[..n].to_vec());
        // A message clock near the local one: mostly behind or equal, the
        // sender's entry often exactly one ahead.
        let msg = clock((0..n).map(|k| (local.get(k) + bumps[k]).saturating_sub(1)).collect());
        let sender = sender % n;
        let textbook = msg.get(sender) == local.get(sender) + 1
            && (0..n).all(|k| k == sender || msg.get(k) <= local.get(k));
        prop_assert_eq!(local.deliverable_from(&msg, sender), textbook);
        if textbook {
            let (mut merged, mut incremented, mut delivered) =
                (local.clone(), local.clone(), local.clone());
            merged.merge(&msg);
            incremented.increment(sender);
            delivered.deliver(&msg, sender);
            prop_assert_eq!(&merged, &incremented);
            prop_assert_eq!(&merged, &delivered);
        }
    }

    /// Clocks over different process sets are never deliverable — and the
    /// check says so instead of indexing out of bounds, whichever side is
    /// the shorter one and wherever the sender lies.
    #[test]
    fn clocks_of_different_lengths_are_not_deliverable(
        a in 0usize..6,
        longer_by in 1usize..4,
        swap in any::<bool>(),
        sender in 0usize..8,
    ) {
        let (a, b) = if swap { (a + longer_by, a) } else { (a, a + longer_by) };
        let local = VectorClock::new(a);
        let mut msg = VectorClock::new(b);
        if sender < b {
            msg.increment(sender);
        }
        prop_assert!(!local.deliverable_from(&msg, sender));
        // Same length, sender outside the process set: not deliverable either.
        prop_assert!(!local.deliverable_from(&VectorClock::new(a), a + sender));
    }

    /// Sequence trackers accept monotonically increasing (possibly gappy)
    /// sequences and reject regressions.
    #[test]
    fn sequence_tracker_monotonicity(seqs in proptest::collection::vec(1u64..50, 1..20)) {
        let mut t = SequenceTracker::new(1);
        let mut highest = 0u64;
        for s in seqs {
            let accepted = t.observe(0, s);
            if s > highest {
                prop_assert!(accepted);
                highest = s;
            } else {
                prop_assert!(!accepted, "regression to {s} after {highest} must be rejected");
            }
            prop_assert_eq!(t.expected(0), highest + 1);
        }
    }

    /// Delta encoding is lossless and never dearer than the dense wire:
    /// `decode(prev)` of `encode(prev, next)` reproduces `next` exactly
    /// (so compare/merge semantics on the decoded clock are identical to
    /// the original), and the encoded size never exceeds the dense size.
    #[test]
    fn delta_vc_round_trips_and_never_exceeds_dense(
        prev in proptest::collection::vec(0u64..6, 1..24),
        bumps in proptest::collection::vec((0usize..24, 1u64..5), 0..8),
        probe in proptest::collection::vec(0u64..6, 1..24),
    ) {
        let n = prev.len();
        let prev = clock(prev);
        // `next` evolves from `prev` the way a writer's clock does: a few
        // entries grow, the rest stay put.
        let mut next = prev.clone();
        for (i, by) in bumps {
            for _ in 0..by {
                next.increment(i % n);
            }
        }
        let delta = DeltaVc::encode(&prev, &next);
        let decoded = delta.decode(&prev);
        prop_assert_eq!(&decoded, &next, "decode must reproduce the encoded clock");
        // The size-only shortcut the write path charges with agrees with
        // the encoding it skips building.
        prop_assert_eq!(DeltaVc::encoded_bytes(&prev, &next), delta.wire_bytes());
        prop_assert!(
            delta.wire_bytes() <= next.wire_bytes(),
            "delta wire size {} exceeds dense {}",
            delta.wire_bytes(),
            next.wire_bytes()
        );
        // The decoded clock is semantically indistinguishable from the
        // original: same causal comparison and same merge result against
        // an arbitrary third clock (padded/truncated to n entries).
        let mut probe = probe;
        probe.resize(n, 0);
        let probe = clock(probe);
        prop_assert_eq!(decoded.causal_cmp(&probe), next.causal_cmp(&probe));
        let mut merged_decoded = decoded.clone();
        merged_decoded.merge(&probe);
        let mut merged_next = next.clone();
        merged_next.merge(&probe);
        prop_assert_eq!(merged_decoded, merged_next);
        // An identical clock encodes to the empty (4-byte) sparse delta.
        prop_assert_eq!(DeltaVc::encode(&next, &next).wire_bytes(), 4);
    }

    /// The crash-recovery path charges its catch-up resends through the
    /// same cheaper-of-two encoder, *chained*: the first delta is decoded
    /// against the requester's restored clock (carried by the catch-up
    /// request), each later one against the previous resend on the same
    /// FIFO link. The whole chain round-trips losslessly from exactly the
    /// state the requester holds at each step, and its total wire cost
    /// never exceeds the dense resends it replaced.
    #[test]
    fn delta_vc_chained_recovery_resends_round_trip_and_never_exceed_dense(
        restored in proptest::collection::vec(0u64..6, 2..12),
        writer_runs in proptest::collection::vec(1u64..4, 1..8),
        merges in proptest::collection::vec((0usize..12, 0u64..3), 0..8),
    ) {
        let n = restored.len();
        let restored = clock(restored);
        // The writer's missing log suffix: every entry grows the previous
        // clock by the writer's own increments plus whatever it merged
        // from others between writes.
        let mut log: Vec<VectorClock> = Vec::new();
        let mut cur = restored.clone();
        let writer = 0usize;
        let mut merges = merges.into_iter();
        for own in writer_runs {
            for _ in 0..own {
                cur.increment(writer);
            }
            if let Some((i, by)) = merges.next() {
                for _ in 0..by {
                    cur.increment(i % n);
                }
            }
            log.push(cur.clone());
        }
        // Chain exactly like the protocols' CatchupReq handlers do.
        let mut base = restored.clone();
        let mut chained = 0usize;
        let mut dense = 0usize;
        for next in &log {
            let delta = DeltaVc::encode(&base, next);
            prop_assert_eq!(
                &delta.decode(&base), next,
                "each resend must decode from the requester's running state"
            );
            prop_assert!(delta.wire_bytes() <= next.wire_bytes());
            chained += delta.wire_bytes();
            dense += next.wire_bytes();
            base.clone_from(next);
        }
        prop_assert!(
            chained <= dense,
            "chained recovery wire {chained} exceeds dense {dense}"
        );
    }

    /// Control accounting: totals equal the sum of per-variable charges and
    /// the relevant-node sets are exactly the nodes that tracked a variable.
    #[test]
    fn control_accounting_sums(
        charges in proptest::collection::vec((0usize..4, 0usize..3, 1usize..100), 0..30)
    ) {
        let mut per_node = vec![ControlStats::new(); 4];
        let mut expected_total = 0u64;
        for (node, var, bytes) in &charges {
            per_node[*node].charge_sent(VarId(*var), *bytes);
            expected_total += *bytes as u64;
        }
        let summary = ControlSummary::new(per_node.clone());
        prop_assert_eq!(summary.total_control_bytes(), expected_total);
        prop_assert_eq!(summary.total_control_entries(), charges.len() as u64);
        for var in 0..3 {
            let relevant = summary.relevant_nodes(VarId(var));
            for (node, stats) in per_node.iter().enumerate() {
                prop_assert_eq!(relevant.contains(&ProcId(node)), stats.tracks(VarId(var)));
            }
        }
    }
    /// The dense ledger against the map-based one it replaced: any
    /// sequence of `track` / `charge_sent` / `charge_received` leaves every
    /// per-variable getter, every total and the tracked set equal to the
    /// model's, and a ledger rebuilt from its own getters in another
    /// order (so grown differently) compares equal.
    #[test]
    fn control_ledger_matches_the_map_model(
        ops in proptest::collection::vec((0u8..3, 0usize..24, 0usize..200), 0..60)
    ) {
        #[derive(Default)]
        struct Model {
            tracked: BTreeSet<VarId>,
            sent: BTreeMap<VarId, (u64, u64)>,
            received: BTreeMap<VarId, (u64, u64)>,
        }
        let mut ledger = ControlStats::new();
        let mut model = Model::default();
        for &(op, var, bytes) in &ops {
            let x = VarId(var);
            model.tracked.insert(x);
            match op {
                0 => ledger.track(x),
                1 => {
                    ledger.charge_sent(x, bytes);
                    let e = model.sent.entry(x).or_default();
                    *e = (e.0 + bytes as u64, e.1 + 1);
                }
                _ => {
                    ledger.charge_received(x, bytes);
                    let e = model.received.entry(x).or_default();
                    *e = (e.0 + bytes as u64, e.1 + 1);
                }
            }
        }
        // Variables 24..32 were never touched: reads of them see zeroes.
        for var in 0..32 {
            let x = VarId(var);
            let (sent_bytes, sent_entries) = model.sent.get(&x).copied().unwrap_or_default();
            let (recv_bytes, recv_entries) = model.received.get(&x).copied().unwrap_or_default();
            prop_assert_eq!(ledger.tracks(x), model.tracked.contains(&x));
            prop_assert_eq!(ledger.sent_bytes(x), sent_bytes);
            prop_assert_eq!(ledger.sent_entries(x), sent_entries);
            prop_assert_eq!(ledger.received_bytes(x), recv_bytes);
            prop_assert_eq!(ledger.received_entries(x), recv_entries);
        }
        prop_assert_eq!(ledger.tracked_vars(), model.tracked.clone());
        prop_assert_eq!(ledger.tracked_count(), model.tracked.len());
        prop_assert_eq!(ledger.total_sent_bytes(), model.sent.values().map(|e| e.0).sum::<u64>());
        prop_assert_eq!(ledger.total_sent_entries(), model.sent.values().map(|e| e.1).sum::<u64>());
        prop_assert_eq!(
            ledger.total_received_bytes(),
            model.received.values().map(|e| e.0).sum::<u64>()
        );
        prop_assert_eq!(
            ledger.total_received_entries(),
            model.received.values().map(|e| e.1).sum::<u64>()
        );
        // Rebuild from the getters, variables in descending order so the
        // copy's slots are allocated differently: still equal. `entries`
        // charges summing to `bytes`: the first carries the bytes.
        let mut rebuilt = ControlStats::new();
        for x in ledger.tracked_vars().into_iter().rev() {
            rebuilt.track(x);
            for i in 0..ledger.sent_entries(x) {
                rebuilt.charge_sent(x, if i == 0 { ledger.sent_bytes(x) as usize } else { 0 });
            }
            for i in 0..ledger.received_entries(x) {
                rebuilt.charge_received(x, if i == 0 { ledger.received_bytes(x) as usize } else { 0 });
            }
        }
        prop_assert_eq!(&rebuilt, &ledger);
        // Reading an untouched variable grows nothing; touching it does.
        let mut probe = ledger.clone();
        prop_assert_eq!(probe.sent_bytes(VarId(99)), 0);
        prop_assert_eq!(&probe, &ledger);
        probe.charge_sent(VarId(40), 0);
        prop_assert!(probe != ledger, "a charge, even of 0 bytes, is an entry");
    }

}
