//! Differential property tests of the overlay routing layer.
//!
//! Three invariants, from strongest to weakest:
//!
//! 1. **Routed full mesh ≡ direct full mesh, exactly.** Every route on a
//!    mesh is the single direct link and the relay envelope accounts the
//!    same bytes, so forced routing must reproduce direct sends bit for
//!    bit — histories, settled values, control summaries *and* network
//!    statistics. This pins the paper's baseline numbers.
//! 2. **Sparse topologies reproduce the full-mesh outcome for race-free
//!    scripts.** When each variable has a single writer (the
//!    producer/consumer regime), replica contents at every settle point
//!    are a function of each writer's FIFO prefix, independent of how
//!    long individual hops take — so histories, control summaries, and
//!    settled values on ring/grid/star/line equal the full-mesh run.
//! 3. **Control accounting is topology-independent for *any* script.**
//!    When different writers race on one variable inside a settle window,
//!    PRAM and causal consistency both *allow* replicas to apply the
//!    concurrent updates in arrival order, and arrival order legitimately
//!    depends on hop latencies — so replica contents may differ. What
//!    cannot differ is which control information travels: per-node,
//!    per-variable control bytes and entries are the same on every
//!    topology.

mod common;

use apps::WorkloadOp;
use common::{observe, single_writer_setup, small_setup, Observation};
use dsm::ProtocolKind;
use histories::{pram_spot_check, Distribution};
use proptest::prelude::*;
use simnet::{ExecBackend, RoutingMode, SimConfig, Topology};

/// Observe `ops` on `topology` (the full mesh when `None`) under
/// `routing`.
fn run(
    kind: ProtocolKind,
    dist: &Distribution,
    ops: &[WorkloadOp],
    topology: Option<Topology>,
    routing: RoutingMode,
) -> Observation {
    let config = SimConfig {
        topology,
        routing,
        ..SimConfig::default()
    };
    observe(kind, dist, ops, config, ExecBackend::Simnet, None)
}

fn sparse_topologies(n: usize) -> Vec<Topology> {
    vec![
        Topology::ring(n),
        Topology::grid_of(n),
        Topology::star(n),
        Topology::line(n),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Routed full mesh ≡ direct full mesh, bit for bit: histories,
    /// settled values, control summaries AND network statistics.
    #[test]
    fn forced_routing_on_the_full_mesh_is_byte_identical((dist, ops) in small_setup()) {
        for kind in ProtocolKind::ALL {
            let direct = run(kind, &dist, &ops, None, RoutingMode::Direct);
            let routed = run(kind, &dist, &ops, None, RoutingMode::ForceRouted);
            prop_assert!(!direct.routed);
            prop_assert!(routed.routed);
            prop_assert_eq!(&direct.history, &routed.history, "{} histories diverged", kind);
            prop_assert_eq!(&direct.network, &routed.network, "{} network stats diverged", kind);
            prop_assert_eq!(&direct.control, &routed.control, "{} control summaries diverged", kind);
            prop_assert_eq!(&direct.settled, &routed.settled, "{} settled values diverged", kind);
        }
    }

    /// Ring/grid/star/line runs reproduce the full-mesh history, control
    /// summary, and settled replica contents for race-free scripts (wire
    /// statistics legitimately differ: relays pay per hop).
    #[test]
    fn sparse_topologies_reproduce_the_full_mesh_outcome((dist, ops) in single_writer_setup()) {
        for kind in ProtocolKind::ALL {
            let mesh = run(kind, &dist, &ops, None, RoutingMode::Auto);
            // Protocol runs always pass the polynomial PRAM spot-check.
            prop_assert_eq!(pram_spot_check(&mesh.history), Ok(()));
            for topology in sparse_topologies(dist.process_count()) {
                let sparse = run(kind, &dist, &ops, Some(topology.clone()), RoutingMode::Auto);
                prop_assert!(sparse.routed || topology.is_full_mesh());
                prop_assert_eq!(
                    &mesh.history, &sparse.history,
                    "{} histories diverged on {:?}", kind, topology
                );
                prop_assert_eq!(
                    &mesh.control, &sparse.control,
                    "{} control summaries diverged on {:?}", kind, topology
                );
                prop_assert_eq!(
                    &mesh.settled, &sparse.settled,
                    "{} settled values diverged on {:?}", kind, topology
                );
                // Relaying never sends fewer logical messages than the mesh.
                prop_assert!(
                    sparse.network.total_messages() >= mesh.network.total_messages(),
                    "{} lost messages on {:?}", kind, topology
                );
            }
        }
    }

    /// For *any* script — races included — the control-information
    /// accounting (which node handles metadata about which variable, and
    /// how many control bytes it sends/receives) is the same on every
    /// topology, and every recorded history still meets the protocol's
    /// criterion per the polynomial spot-check.
    #[test]
    fn control_accounting_is_topology_independent((dist, ops) in small_setup()) {
        for kind in ProtocolKind::ALL {
            let mesh = run(kind, &dist, &ops, None, RoutingMode::Auto);
            for topology in sparse_topologies(dist.process_count()) {
                let sparse = run(kind, &dist, &ops, Some(topology.clone()), RoutingMode::Auto);
                prop_assert_eq!(
                    &mesh.control, &sparse.control,
                    "{} control summaries diverged on {:?}", kind, topology
                );
                prop_assert_eq!(pram_spot_check(&sparse.history), Ok(()));
            }
        }
    }
}
