//! Distributed Bellman-Ford over a partially replicated PRAM memory
//! (paper §6.1, Figures 7–9).
//!
//! Each network node `i` runs an application process `ap_i` that repeatedly
//! recomputes its tentative distance
//! `x_i := min_{j ∈ Γ⁻¹(i)} (x_j + w(j, i))`
//! and advances its iteration counter `k_i`. The counters act as a weak
//! barrier: a process starts iteration `k` only once every predecessor's
//! counter has reached `k` (line 6 of Figure 7). Because every shared
//! variable (`x_i`, `k_i`) has a **single writer** and each reader only
//! needs that writer's updates in program order, PRAM consistency is
//! sufficient for both safety and liveness — and the variable distribution
//! of §6.1 (a process replicates only its own and its predecessors'
//! variables) makes partial replication effective.
//!
//! The driver below runs the computation over any [`ProtocolKind`] chosen
//! at runtime, so the benchmarks can compare the PRAM-partial deployment
//! the paper advocates against causal-full / causal-partial / sequencer
//! deployments on the same workload without monomorphizing one driver per
//! protocol.

use crate::graphs::{Network, INFINITY};
use crate::scenario::RunReport;
use dsm::{DsmError, DynDsm, ProtocolKind};
use histories::{Distribution, ProcId, Value, VarId};
use simnet::SimConfig;

/// Result of one distributed run.
#[derive(Clone, Debug)]
pub struct BellmanFordRun {
    /// Final distance estimates, one per node (`INFINITY` if unreachable).
    pub distances: Vec<i64>,
    /// Scheduler rounds executed before every process finished.
    pub rounds: usize,
    /// Whether every process completed its `N` iterations.
    pub converged: bool,
    /// What the run cost: messages, bytes, operations and the history.
    pub report: RunReport,
}

/// The variable ids used by the computation: `x_i` is `VarId(i)`, `k_i` is
/// `VarId(n + i)`.
pub fn distance_var(i: usize) -> VarId {
    VarId(i)
}

/// The iteration-counter variable of node `i` in an `n`-node network.
pub fn counter_var(n: usize, i: usize) -> VarId {
    VarId(n + i)
}

/// The variable distribution of §6.1: process `i` replicates `x_h` and
/// `k_h` for `h = i` and for every predecessor `h ∈ Γ⁻¹(i)`.
pub fn bellman_ford_distribution(net: &Network) -> Distribution {
    let n = net.node_count();
    let mut dist = Distribution::new(n, 2 * n);
    for i in 0..n {
        dist.assign(ProcId(i), distance_var(i));
        dist.assign(ProcId(i), counter_var(n, i));
        for h in net.predecessors(i) {
            dist.assign(ProcId(i), distance_var(h));
            dist.assign(ProcId(i), counter_var(n, h));
        }
    }
    dist
}

fn value_or_infinity(v: Value) -> i64 {
    v.as_int().unwrap_or(INFINITY)
}

/// Run the distributed Bellman-Ford of Figure 7 from `source` over the MCS
/// protocol selected by `kind`.
///
/// The scheduler emulates the per-process polling loop: in every round each
/// process whose barrier condition holds executes one iteration (lines 6–8
/// of Figure 7), then all in-flight updates are delivered. A process stops
/// after `N` iterations; the run aborts (with `converged = false`) if it
/// exceeds `4·N + 8` rounds, which cannot happen with reliable delivery.
/// A `source` outside the network is [`DsmError::UnknownProcess`].
pub fn run_bellman_ford(
    kind: ProtocolKind,
    net: &Network,
    source: usize,
    config: SimConfig,
) -> Result<BellmanFordRun, DsmError> {
    let n = net.node_count();
    if source >= n {
        let proc = ProcId(source);
        return Err(DsmError::UnknownProcess { proc });
    }
    let dist = bellman_ford_distribution(net);
    let mut dsm = DynDsm::try_with_config(kind, dist, config)?;

    // Line 1-4 of Figure 7: initialize k_i and x_i.
    for i in 0..n {
        let x0 = if i == source { 0 } else { INFINITY };
        dsm.write(ProcId(i), distance_var(i), x0)?;
        dsm.write(ProcId(i), counter_var(n, i), 0)?;
    }
    dsm.try_settle()?;

    let mut k = vec![0i64; n];
    let max_rounds = 4 * n + 8;
    let mut rounds = 0;
    while k.iter().any(|&ki| ki < n as i64) && rounds < max_rounds {
        rounds += 1;
        for (i, ki) in k.iter_mut().enumerate() {
            if *ki >= n as i64 {
                continue;
            }
            // Line 6: wait until every predecessor's counter has caught up.
            // A counter that has never been received reads as ⊥ and counts
            // as "not yet started" (-1).
            let preds = net.predecessors(i);
            let mut ready = true;
            for &h in &preds {
                let kh = dsm.read(ProcId(i), counter_var(n, h))?.as_int();
                ready = kh.unwrap_or(-1) >= *ki;
                if !ready {
                    break;
                }
            }
            if !ready {
                continue;
            }
            // Line 7: recompute x_i from the predecessors' current estimates.
            if i != source {
                let mut best = INFINITY;
                for &h in &preds {
                    let xh = value_or_infinity(dsm.read(ProcId(i), distance_var(h))?);
                    best = best.min(xh.saturating_add(net.weight(h, i)));
                }
                dsm.write(ProcId(i), distance_var(i), best)?;
            }
            // Line 8: advance the iteration counter.
            *ki += 1;
            dsm.write(ProcId(i), counter_var(n, i), *ki)?;
        }
        dsm.try_settle()?;
    }

    let distances = (0..n)
        .map(|i| value_or_infinity(dsm.peek(ProcId(i), distance_var(i))))
        .collect();
    Ok(BellmanFordRun {
        distances,
        rounds,
        converged: k.iter().all(|&ki| ki >= n as i64),
        report: RunReport::of(&dsm, 0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::shortest_paths_reference;

    /// Bellman-Ford from node 0 under `kind` on the default network.
    fn on_mesh(kind: ProtocolKind, net: &Network) -> BellmanFordRun {
        run_bellman_ford(kind, net, 0, SimConfig::default()).unwrap()
    }

    #[test]
    fn distribution_matches_the_papers_example() {
        let net = Network::fig8();
        let d = bellman_ford_distribution(&net);
        let n = 5;
        // X_1 = {x1, k1}
        assert_eq!(d.vars_of(ProcId(0)).len(), 2);
        // X_2 = {x1, x2, x3, k1, k2, k3}
        let x2: Vec<VarId> = d.vars_of(ProcId(1)).iter().copied().collect();
        assert!(x2.contains(&distance_var(0)));
        assert!(x2.contains(&distance_var(1)));
        assert!(x2.contains(&distance_var(2)));
        assert!(x2.contains(&counter_var(n, 0)));
        assert_eq!(x2.len(), 6);
        // X_5 = {x3, x4, x5, k3, k4, k5}
        let x5 = d.vars_of(ProcId(4));
        assert_eq!(x5.len(), 6);
        assert!(!x5.contains(&distance_var(0)));
    }

    #[test]
    fn fig8_distances_match_the_reference_under_pram_partial() {
        let net = Network::fig8();
        let run = on_mesh(ProtocolKind::PramPartial, &net);
        assert!(run.converged);
        assert_eq!(run.distances, shortest_paths_reference(&net, 0));
        assert_eq!(run.distances, vec![0, 2, 1, 3, 4]);
        assert!(run.report.messages() > 0);
    }

    #[test]
    fn all_protocols_compute_the_same_distances() {
        let net = Network::fig8();
        let reference = shortest_paths_reference(&net, 0);
        for kind in ProtocolKind::ALL {
            let run = on_mesh(kind, &net);
            assert_eq!(run.distances, reference, "{kind}");
        }
    }

    #[test]
    fn pram_partial_sends_less_control_than_causal_variants() {
        let net = Network::fig8();
        let [pram, cfull, cpart] = [
            ProtocolKind::PramPartial,
            ProtocolKind::CausalFull,
            ProtocolKind::CausalPartial,
        ]
        .map(|kind| on_mesh(kind, &net).report);
        let control = [
            pram.control_bytes(),
            cfull.control_bytes(),
            cpart.control_bytes(),
        ];
        assert!(control[0] < control[1], "pram vs causal-full: {control:?}");
        assert!(
            control[0] < control[2],
            "pram vs causal-partial: {control:?}"
        );
        assert!(pram.messages() < cfull.messages());
    }

    #[test]
    fn larger_random_networks_converge_to_the_reference() {
        for seed in [1, 2, 3] {
            let net = Network::random_reachable(9, 12, 7, seed);
            let run = on_mesh(ProtocolKind::PramPartial, &net);
            assert!(run.converged, "seed {seed}");
            assert_eq!(
                run.distances,
                shortest_paths_reference(&net, 0),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn unreachable_nodes_keep_infinite_distance() {
        let mut net = Network::new(4);
        net.add_edge(0, 1, 2);
        net.add_edge(1, 2, 2);
        // Node 3 is isolated.
        let run = on_mesh(ProtocolKind::PramPartial, &net);
        assert!(run.converged);
        assert_eq!(run.distances, vec![0, 2, 4, INFINITY]);
    }

    #[test]
    fn sparse_physical_topologies_compute_the_same_distances() {
        // The computation graph (Fig. 8) stays the same; only the physical
        // network the MCS runs over changes. Every variable has a single
        // writer, so the overlay-routed runs reproduce the mesh exactly.
        let net = Network::fig8();
        let reference = shortest_paths_reference(&net, 0);
        let mesh = on_mesh(ProtocolKind::PramPartial, &net);
        for topology in [
            simnet::Topology::ring(5),
            simnet::Topology::star(5),
            simnet::Topology::line(5),
        ] {
            let config = SimConfig {
                topology: Some(topology.clone()),
                ..SimConfig::default()
            };
            let run = run_bellman_ford(ProtocolKind::PramPartial, &net, 0, config).unwrap();
            assert!(run.converged, "{topology:?}");
            assert_eq!(run.distances, reference, "{topology:?}");
            let (run, mesh) = (&run.report, &mesh.report);
            assert_eq!(run.operations, mesh.operations, "{topology:?}");
            // Relaying pays on the wire but never changes the result.
            assert!(run.messages() >= mesh.messages(), "{topology:?}");
        }
    }

    #[test]
    fn ring_network_distances() {
        let net = Network::ring(7);
        let run = on_mesh(ProtocolKind::PramPartial, &net);
        assert_eq!(run.distances, shortest_paths_reference(&net, 0));
        assert!(run.rounds <= 4 * 7 + 8);
        assert!(run.report.operations > 0);
    }
}
