//! Unit tests of the core timing model: issue width, memory-latency
//! overlap, the store buffer, and ULI interrupt costs.

use std::sync::Arc;

use bigtiny_engine::{
    run_system, AddrSpace, CoreKind, Protocol, ShVec, SystemConfig, TimeCategory, Worker,
};
use bigtiny_mesh::{MeshConfig, Topology};

fn two_core_sys() -> SystemConfig {
    // Core 0 big, core 1 tiny, same protocol.
    SystemConfig::big_tiny(
        "t2",
        MeshConfig::with_topology(Topology::new(2, 2)),
        1,
        1,
        Protocol::Mesi,
    )
}

/// Big cores retire `issue_width` instructions per cycle; tiny cores one.
#[test]
fn issue_width_scales_compute() {
    let config = two_core_sys();
    let insts = 1000u64;
    let workers: Vec<Worker> = vec![
        Box::new(move |port| {
            port.advance(insts);
            let width = CoreKind::Big.issue_width();
            assert_eq!(port.breakdown().get(TimeCategory::Compute), insts.div_ceil(width));
            port.set_done();
        }),
        Box::new(move |port| {
            port.advance(insts);
            let width = CoreKind::Tiny.issue_width();
            assert_eq!(port.breakdown().get(TimeCategory::Compute), insts.div_ceil(width));
        }),
    ];
    run_system(&config, workers);
}

/// Big cores overlap half of each memory stall; tiny cores stall fully.
#[test]
fn big_core_overlaps_memory_latency() {
    let config = two_core_sys();
    let mut space = AddrSpace::new();
    let data = Arc::new(ShVec::new(&mut space, 1024, 0u64));
    let (d0, d1) = (Arc::clone(&data), Arc::clone(&data));
    let results = Arc::new(parking_lot_free_cell());
    let (r0, r1) = (Arc::clone(&results), Arc::clone(&results));
    let workers: Vec<Worker> = vec![
        Box::new(move |port| {
            // Disjoint cold lines for each core.
            for i in 0..32 {
                d0.read(port, i * 8);
            }
            r0.lock().unwrap()[0] = port.breakdown().get(TimeCategory::Load);
            port.set_done();
        }),
        Box::new(move |port| {
            for i in 64..96 {
                d1.read(port, i * 8);
            }
            r1.lock().unwrap()[1] = port.breakdown().get(TimeCategory::Load);
        }),
    ];
    run_system(&config, workers);
    let r = results.lock().unwrap();
    assert!(
        r[0] * 3 < r[1] * 2,
        "big-core load stalls {} should be well under tiny's {}",
        r[0],
        r[1]
    );
}

fn parking_lot_free_cell() -> std::sync::Mutex<[u64; 2]> {
    std::sync::Mutex::new([0; 2])
}

/// The store buffer absorbs a short burst (stores cost ~1 cycle) but a long
/// burst of misses stalls once the 8 entries fill.
#[test]
fn store_buffer_absorbs_then_stalls() {
    let config = two_core_sys();
    let mut space = AddrSpace::new();
    // Cold lines: every store misses (MESI write-allocate fetch).
    let data = Arc::new(ShVec::new(&mut space, 4096, 0u64));
    let d = Arc::clone(&data);
    let workers: Vec<Worker> = vec![
        Box::new(move |port| {
            let mut cost_first8 = 0;
            for i in 0..64 {
                let before = port.breakdown().get(TimeCategory::Store);
                d.write(port, i * 8, 1);
                let c = port.breakdown().get(TimeCategory::Store) - before;
                if i < 8 {
                    cost_first8 += c;
                }
            }
            // First 8 stores retire into the buffer: 1 cycle each.
            assert_eq!(cost_first8, 8, "first burst absorbed");
            // Overall, misses must eventually stall the core.
            assert!(port.breakdown().get(TimeCategory::Store) > 64);
            // An AMO drains the buffer.
            let before = port.breakdown().get(TimeCategory::Atomic);
            d.amo(port, 0, |v| *v += 1);
            assert!(port.breakdown().get(TimeCategory::Atomic) > before);
            port.set_done();
        }),
        Box::new(|port| port.idle(1)),
    ];
    run_system(&config, workers);
}

/// ULI interrupt cost is charged to the Uli category on the victim, and big
/// cores pay more than tiny cores.
#[test]
fn uli_interrupt_costs_by_core_kind() {
    let config = SystemConfig::big_tiny(
        "t3",
        MeshConfig::with_topology(Topology::new(2, 2)),
        1,
        2,
        Protocol::GpuWb,
    );
    let uli_big = CoreKind::Big.uli_cost();
    assert!(
        uli_big > CoreKind::Tiny.uli_cost(),
        "paper: big-core interrupts drain a deep pipeline"
    );

    let workers: Vec<Worker> = vec![
        Box::new(move |port| {
            // Big victim.
            port.set_uli_handler(Box::new(|p, m| p.uli_send_response(m.from, 1)));
            port.uli_enable();
            for _ in 0..200 {
                port.idle(5);
                port.uli_poll();
            }
            assert!(port.breakdown().get(TimeCategory::Uli) >= uli_big, "interrupt cost charged");
            port.uli_disable();
        }),
        Box::new(move |port| {
            // Thief pokes the big core once.
            port.idle(50);
            assert_eq!(port.uli_send_request(0, 7), bigtiny_engine::UliOutcome::Sent);
            loop {
                if port.uli_poll_response().is_some() {
                    break;
                }
                port.idle(4);
            }
            port.set_done();
        }),
        Box::new(|port| port.idle(2000)),
    ];
    run_system(&config, workers);
}
