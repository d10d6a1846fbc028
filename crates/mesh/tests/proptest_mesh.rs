//! Randomized-but-deterministic tests of the mesh model: metric properties
//! of XY routing and monotonicity of the latency function.
//!
//! These were originally `proptest` properties; they are now driven by the
//! simulator's own seeded [`XorShift64`] so the workspace has no external
//! dependencies and every CI run explores exactly the same cases.

use bigtiny_mesh::{
    Mesh, MeshConfig, Tile, Topology, TrafficClass, UliNetwork, UliOutcome, XorShift64, FLIT_BYTES,
    HEADER_BYTES,
};

fn random_tile(rng: &mut XorShift64) -> Tile {
    Tile::new(rng.next_below(8) as u16, rng.next_below(9) as u16)
}

/// Hop distance is a metric: symmetric, zero iff equal, triangle inequality.
#[test]
fn hops_form_a_metric() {
    let mut rng = XorShift64::new(0x4d45_5348_0001);
    for _ in 0..256 {
        let (a, b, c) = (random_tile(&mut rng), random_tile(&mut rng), random_tile(&mut rng));
        assert_eq!(a.hops_to(b), b.hops_to(a));
        assert_eq!(a.hops_to(a), 0);
        assert_eq!(a.hops_to(b) == 0, a == b);
        assert!(a.hops_to(c) <= a.hops_to(b) + b.hops_to(c));
    }
}

/// Latency grows monotonically with payload size and hop distance.
#[test]
fn latency_monotone() {
    let mesh = Mesh::new(MeshConfig::paper_64_core());
    let mut rng = XorShift64::new(0x4d45_5348_0002);
    for _ in 0..256 {
        let (a, b) = (random_tile(&mut rng), random_tile(&mut rng));
        let bytes = rng.next_below(512);
        let l1 = mesh.latency(a, b, bytes);
        let l2 = mesh.latency(a, b, bytes + FLIT_BYTES);
        assert!(l2 >= l1, "serialization adds latency");
        let origin = Tile::new(0, 0);
        let near = Tile::new(1, 0);
        let far = Tile::new(7, 7);
        assert!(mesh.latency(origin, far, bytes) >= mesh.latency(origin, near, bytes));
        assert!(l1 >= 1, "every message costs at least a cycle");
    }
}

/// Traffic accounting is exact: sending n messages of the same shape records
/// n * (payload + header) bytes.
#[test]
fn traffic_accounting_exact() {
    let mut rng = XorShift64::new(0x4d45_5348_0003);
    for _ in 0..64 {
        let mut mesh = Mesh::new(MeshConfig::paper_64_core());
        let n = 1 + rng.next_below(49);
        let payload = rng.next_below(128);
        let (a, b) = (random_tile(&mut rng), random_tile(&mut rng));
        for _ in 0..n {
            mesh.send(a, b, TrafficClass::WbReq, payload);
        }
        assert_eq!(mesh.stats().bytes(TrafficClass::WbReq), n * (payload + HEADER_BYTES));
        assert_eq!(mesh.stats().messages(TrafficClass::WbReq), n);
    }
}

/// The ULI unit accepts at most one buffered request per core: any burst of
/// sends to one victim yields exactly one success until it is serviced.
#[test]
fn uli_single_buffering() {
    let mut rng = XorShift64::new(0x4d45_5348_0004);
    for _ in 0..64 {
        let mut uli = UliNetwork::new(Topology::new(4, 4), 16);
        let victim = 15;
        uli.set_enabled(victim, true);
        let count = 1 + rng.next_below(19) as usize;
        let senders: Vec<usize> = (0..count).map(|_| rng.next_below(15) as usize).collect();
        let mut successes = 0;
        for (i, s) in senders.iter().enumerate() {
            match uli.try_send_request(*s, victim, i as u64, 100 * i as u64) {
                UliOutcome::Sent => successes += 1,
                UliOutcome::Nack { reply_at } => assert!(reply_at > 100 * i as u64),
                UliOutcome::Dead { .. } => panic!("no core was marked dead"),
            }
        }
        assert_eq!(successes, 1, "single request buffer");
        assert_eq!(uli.nack_count(), senders.len() as u64 - 1);
        // After servicing, the buffer frees up.
        assert!(uli.take_request(victim, u64::MAX).is_some());
        assert!(matches!(uli.try_send_request(0, victim, 9, 1_000_000), UliOutcome::Sent));
    }
}
