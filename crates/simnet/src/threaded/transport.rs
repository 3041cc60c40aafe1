//! Routing on the threaded backend: [`deploy`](crate::transport::deploy)
//! hosts each node in a [`Relay`](crate::route::Relay) on its site when
//! the topology is sparser than a full mesh, so worker threads forward
//! for each other. These tests pin that layer on threads with the
//! harness of the backend-generic routing tests beside `deploy`.

mod tests {
    use crate::backend::{ExecBackend, ThreadedMode};
    use crate::message::{NodeId, RawPayload};
    use crate::network::Topology;
    use crate::sim::SimConfig;
    use crate::transport::tests::{net, run, send, Sink};
    use crate::transport::Net;

    const FREE: ExecBackend = ExecBackend::Threaded(ThreadedMode::FreeRunning);

    #[test]
    fn auto_mode_is_direct_on_a_full_mesh_and_routed_on_a_ring() {
        assert!(!net(FREE, &Topology::full_mesh(3), SimConfig::default()).is_routed());
        assert!(net(FREE, &Topology::ring(4), SimConfig::default()).is_routed());
    }

    #[test]
    fn free_running_routed_delivery_crosses_real_hops() {
        // 0 → 3 is three ring hops; workers 1 and 2 must forward.
        let run = run(
            FREE,
            &Topology::ring(6),
            SimConfig::default(),
            &send(0, 3, 8),
        );
        let mut expected = vec![vec![]; 6];
        expected[3] = vec![(NodeId(0), 8)];
        assert_eq!(run.got, expected);
        assert_eq!(run.stats.total_messages(), 3);
        assert_eq!(run.forwarded, 2);
    }

    /// Stats, events, virtual time, forwards and every node's deliveries.
    #[test]
    fn routed_replay_is_bit_identical_to_the_simnet_transport() {
        let script = |net: &mut dyn Net<RawPayload, Sink>| {
            send(0, 2, 11)(net);
            send(3, 1, 22)(net);
            send(2, 0, 33)(net);
        };
        let [sim, replay] = [
            ExecBackend::Simnet,
            ExecBackend::Threaded(ThreadedMode::Replay),
        ]
        .map(|backend| run(backend, &Topology::ring(4), SimConfig::default(), &script));
        assert_eq!(replay, sim);
        // Each send is two ring hops, one of them a forward.
        assert_eq!(sim.forwarded, 3);
    }
}
