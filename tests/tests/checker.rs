//! DRF conformance-checker integration tests: the oracle against the real
//! runtimes on the full simulated machine.
//!
//! Three suites:
//!
//! * **Clean pass** — unmutated kernels across the full (runtime ×
//!   protocol) matrix pass the harness's judge with the checker armed, and
//!   the benign-race audit is visible in the report.
//! * **Mutation detection** — each seeded sync-discipline bug
//!   ([`MutationKind`]) is flagged on the protocols where it is a real
//!   bug, with a precise (core, cycle, address) report, and stays clean
//!   on the protocols where the elided operation is a no-op. The
//!   `skip_coherence_ops` ablation is the end-to-end fixture: every
//!   coherence op dropped at once must light up every software-centric
//!   protocol and leave hardware-coherent MESI clean.
//! * **Audit pinning** — the `RacyTag` whitelist and the set of audited
//!   benign-race call sites in the source tree must match exactly.
//! * **Output pinning** — every rendered finding, dedup count and audit
//!   count of a 120-cell mutation matrix and of a seeded synthetic stream
//!   folds into one hash each (`tests/pins/checker-matrix.txt` and
//!   `checker-synthetic.txt`), so a change to how the passes keep their
//!   state cannot move a single byte of any report unnoticed.

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_judged, Setup};
use bigtiny_checker::{check_events, check_run, CheckReport, ViolationKind};
use bigtiny_coherence::Addr;
use bigtiny_core::{
    run_task_parallel, Mutation, MutationKind, RuntimeConfig, RuntimeKind, TaskRun,
};
use bigtiny_engine::{
    hash, AddrSpace, CheckMode, MemEvent, MemOp, Protocol, RacyTag, SyncNote, SystemConfig,
    XorShift64,
};
use bigtiny_mesh::{MeshConfig, Topology};
use bigtiny_tests::pins;

/// 16-core mixed machine with the checker fully armed.
fn checked_sys(proto: Protocol) -> SystemConfig {
    SystemConfig::big_tiny("ctest", MeshConfig::with_topology(Topology::new(4, 4)), 2, 14, proto)
        .with_check(CheckMode::Full)
}

/// Runs `name` end to end (without the bench harness, whose verification
/// asserts would reject mutated runs before the checker sees them) and
/// returns the armed system plus the run.
fn run_checked(
    name: &str,
    proto: Protocol,
    kind: RuntimeKind,
    tweak: impl FnOnce(&mut RuntimeConfig),
) -> (SystemConfig, TaskRun) {
    let sys = checked_sys(proto);
    let app = app_by_name(name).expect("kernel");
    let mut space = AddrSpace::new();
    let prepared = app.prepare_default(&mut space, AppSize::Test);
    let mut rt = RuntimeConfig::new(kind);
    tweak(&mut rt);
    let run = run_task_parallel(&sys, &rt, &mut space, prepared.root);
    (sys, run)
}

fn report_of(name: &str, proto: Protocol, kind: RuntimeKind) -> CheckReport {
    let (sys, run) = run_checked(name, proto, kind, |_| {});
    check_run(&sys, &run.report)
}

const MATRIX: [(RuntimeKind, Protocol); 7] = [
    (RuntimeKind::Baseline, Protocol::Mesi),
    (RuntimeKind::Hcc, Protocol::DeNovo),
    (RuntimeKind::Hcc, Protocol::GpuWt),
    (RuntimeKind::Hcc, Protocol::GpuWb),
    (RuntimeKind::Dts, Protocol::DeNovo),
    (RuntimeKind::Dts, Protocol::GpuWt),
    (RuntimeKind::Dts, Protocol::GpuWb),
];

/// Unmutated runs are clean on every runtime × protocol pairing —
/// including `ligra-radii`, whose multi-winner frontier insertion is the
/// audited benign *write*-write race. The harness's judge decides each
/// run, the checker's passes included.
#[test]
fn clean_sweep_zero_findings() {
    for name in ["cilk5-nq", "ligra-bfs", "ligra-radii"] {
        let app = app_by_name(name).unwrap();
        for (kind, proto) in MATRIX {
            let setup = Setup::new(&format!("{kind:?}/{proto:?}"), checked_sys(proto), kind);
            let events = run_judged(&setup, &app, AppSize::Test, 0).1.drf.map_or(0, |r| r.events);
            assert!(events > 0, "{name} {kind:?}/{proto:?}: armed run produced no events");
        }
    }
    // The audit is visible: the Ligra kernels declare benign races.
    let r = report_of("ligra-bfs", Protocol::DeNovo, RuntimeKind::Dts);
    assert!(r.racy_total() > 0, "expected audited benign-race loads in ligra-bfs");
}

/// `CheckMode::Off` buffers nothing: the unarmed run's report has an empty
/// event stream and the checker returns an empty, clean verdict.
#[test]
fn off_mode_collects_nothing() {
    let sys = checked_sys(Protocol::GpuWb).with_check(CheckMode::Off);
    let app = app_by_name("cilk5-nq").unwrap();
    let mut space = AddrSpace::new();
    let prepared = app.prepare_default(&mut space, AppSize::Test);
    let run =
        run_task_parallel(&sys, &RuntimeConfig::new(RuntimeKind::Dts), &mut space, prepared.root);
    assert!(run.report.mem_events.is_empty());
    let report = check_run(&sys, &run.report);
    assert!(report.is_clean());
    assert_eq!(report.events, 0);
}

fn mutated(name: &str, proto: Protocol, kind: RuntimeKind, m: Mutation) -> CheckReport {
    let (sys, run) = run_checked(name, proto, kind, |rt| rt.mutation = Some(m));
    check_run(&sys, &run.report)
}

/// The mutations target a *tiny* core: in the 2-big/14-tiny layout, core 2
/// is the first software-centric core. (Seeding on a big MESI core is
/// correctly invisible — its invalidate/flush really are no-ops — and the
/// MESI control legs below pin exactly that.)
const TINY: usize = 2;

/// Dropping one `cache_invalidate` (Figure 3(b) line 3) is flagged with a
/// precise first report on every software-centric protocol, and is
/// harmless under MESI where the call is a no-op. The tiny worker's very
/// first invalidate follows its first deque lock acquire, so `nth: 0`
/// deterministically mutates a Figure 3(b) line-3 site.
#[test]
fn drop_invalidate_is_flagged_where_it_matters() {
    let m = Mutation { kind: MutationKind::DropInvalidate, core: TINY, nth: 0 };
    for proto in [Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb] {
        let report = mutated("cilk5-nq", proto, RuntimeKind::Hcc, m);
        assert!(
            report.count(ViolationKind::LintAcquireNoInvalidate) >= 1,
            "{proto:?}:\n{}",
            report.render()
        );
        let v = report
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::LintAcquireNoInvalidate)
            .unwrap();
        assert_eq!(v.core, TINY, "mutation was seeded on core {TINY}");
        assert!(v.cycle > 0 && v.addr.is_some(), "diagnostics: {v}");
    }
    let report = mutated("cilk5-nq", Protocol::Mesi, RuntimeKind::Hcc, m);
    assert!(report.is_clean(), "MESI invalidate is a no-op:\n{}", report.render());
}

/// Dropping one `cache_flush` (Figure 3(b) lines 4/9) is flagged under
/// GPU-WB — the only protocol whose stores sit dirty in the L1 — and is
/// harmless everywhere else, where the flush is a no-op.
///
/// Not every flush call protects dirty data (a thief's empty-pop critical
/// section writes nothing, and eliding its flush is genuinely harmless —
/// the checker's silence there is precision, not a miss), so this scans
/// occurrences until it mutates one that covers real stores and asserts
/// the checker convicts that one.
#[test]
fn drop_flush_is_flagged_on_writeback_only() {
    const SCAN: u64 = 12;
    let mut caught = None;
    for nth in 0..SCAN {
        let m = Mutation { kind: MutationKind::DropFlush, core: TINY, nth };
        let report = mutated("cilk5-nq", Protocol::GpuWb, RuntimeKind::Hcc, m);
        if !report.is_clean() {
            caught = Some((nth, report));
            break;
        }
    }
    let (nth, report) = caught.unwrap_or_else(|| {
        panic!("no dropped flush among the first {SCAN} on core {TINY} was flagged")
    });
    assert!(
        report.count(ViolationKind::LintReleaseNoFlush) >= 1,
        "GpuWb nth={nth}:\n{}",
        report.render()
    );
    let v = report.violations.iter().find(|v| v.kind == ViolationKind::LintReleaseNoFlush).unwrap();
    assert_eq!(v.core, TINY, "mutation was seeded on core {TINY}");
    assert!(v.cycle > 0 && v.addr.is_some(), "diagnostics: {v}");
    // Everywhere else stores commit at store time: the same mutations are
    // no-ops and the checker must stay clean for every occurrence scanned.
    for proto in [Protocol::DeNovo, Protocol::GpuWt, Protocol::Mesi] {
        for nth in 0..SCAN {
            let m = Mutation { kind: MutationKind::DropFlush, core: TINY, nth };
            let report = mutated("cilk5-nq", proto, RuntimeKind::Hcc, m);
            assert!(
                report.is_clean(),
                "{proto:?} nth={nth} flush is a no-op:\n{}",
                report.render()
            );
        }
    }
}

/// A `has_stolen_child` flag stuck at `false` makes DTS elide the join
/// AMO/invalidate on steal-tainted joins — the dangerous direction — and
/// the lint convicts it from the runtime's own annotations on every
/// protocol (the plain join-counter decrement races with thief AMOs no
/// matter what the caches do).
#[test]
fn hsc_stuck_false_is_flagged() {
    let m = Mutation { kind: MutationKind::HscStuckFalse, core: 0, nth: 0 };
    for proto in [Protocol::DeNovo, Protocol::GpuWb] {
        let (sys, run) = run_checked("cilk5-nq", proto, RuntimeKind::Dts, |rt| {
            rt.mutation = Some(m);
        });
        assert!(run.stats.steals > 0, "{proto:?}: mutation needs steals to matter");
        let report = check_run(&sys, &run.report);
        assert!(
            report.count(ViolationKind::LintHscElideAfterSteal) >= 1,
            "{proto:?}:\n{}",
            report.render()
        );
        let v = report
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::LintHscElideAfterSteal)
            .unwrap();
        assert_eq!(v.core, 0, "mutation was seeded on core 0");
        assert!(v.cycle > 0, "diagnostics: {v}");
    }
}

/// Stuck at `true` the elision never fires: strictly more conservative
/// synchronization, so the checker must stay clean.
#[test]
fn hsc_stuck_true_stays_clean() {
    let m = Mutation { kind: MutationKind::HscStuckTrue, core: 0, nth: 0 };
    for proto in [Protocol::DeNovo, Protocol::GpuWb] {
        let (sys, run) = run_checked("cilk5-nq", proto, RuntimeKind::Dts, |rt| {
            rt.mutation = Some(m);
        });
        let report = check_run(&sys, &run.report);
        assert!(report.is_clean(), "{proto:?}:\n{}", report.render());
    }
}

/// The `skip_coherence_ops` ablation — drop *every* invalidate and flush —
/// is the checker's end-to-end fixture: flagged on every software-centric
/// protocol, clean under MESI (whose hardware coherence makes both calls
/// no-ops).
#[test]
fn skip_coherence_ops_fixture() {
    for proto in [Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb] {
        let (sys, run) = run_checked("cilk5-nq", proto, RuntimeKind::Hcc, |rt| {
            rt.skip_coherence_ops = true;
        });
        let report = check_run(&sys, &run.report);
        assert!(!report.is_clean(), "{proto:?}: ablation must be flagged");
        assert!(
            report.count(ViolationKind::LintAcquireNoInvalidate) >= 1,
            "{proto:?}:\n{}",
            report.render()
        );
        // The simulator's own stale-read accounting and the replayed
        // oracle must agree about whether data went stale.
        if run.report.stale_reads > 0 {
            assert!(
                report.count(ViolationKind::StaleMissingInvalidate)
                    + report.count(ViolationKind::StaleMissingFlush)
                    > 0,
                "{proto:?}: simulator saw {} stale reads but the oracle saw none:\n{}",
                run.report.stale_reads,
                report.render()
            );
        }
    }
    let (sys, run) = run_checked("cilk5-nq", Protocol::Mesi, RuntimeKind::Hcc, |rt| {
        rt.skip_coherence_ops = true;
    });
    let report = check_run(&sys, &run.report);
    assert!(report.is_clean(), "MESI:\n{}", report.render());
}

/// The `RacyTag` whitelist and the audited call sites in the source tree
/// pin each other: every tag in [`RacyTag::ALL`] is used by at least one
/// `*_racy` call site outside the engine, and no call site names a tag the
/// whitelist (and thus the checker's per-tag accounting) doesn't know.
#[test]
fn racy_whitelist_matches_audited_call_sites() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../crates");
    let mut used: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for dir in ["apps", "core", "bench"] {
        scan_dir(&format!("{root}/{dir}/src"), &mut used);
    }
    let whitelist: Vec<&str> = RacyTag::ALL.iter().map(|t| t.label()).collect();
    for (tag, sites) in &used {
        assert!(
            whitelist.contains(&tag.as_str()),
            "source uses RacyTag::{tag} ({sites} site(s)) but it is not in RacyTag::ALL"
        );
    }
    for tag in &whitelist {
        assert!(
            used.contains_key(*tag),
            "RacyTag::{tag} is whitelisted but no audited call site uses it"
        );
    }
}

/// Recursively collects `RacyTag::<Ident>` mentions under `dir`.
fn scan_dir(dir: &str, used: &mut std::collections::BTreeMap<String, usize>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir}: {e}")) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan_dir(path.to_str().unwrap(), used);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            for (i, _) in text.match_indices("RacyTag::") {
                let rest = &text[i + "RacyTag::".len()..];
                let ident: String =
                    rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                if !ident.is_empty() && ident != "ALL" {
                    *used.entry(ident).or_insert(0) += 1;
                }
            }
        }
    }
}

/// Folds everything a report says into `h`: each finding as rendered
/// (kind, core, cycle, address, detail), the dedup count, the audited
/// racy-load counts and the verdict hash.
fn fold_report(mut h: u64, report: &CheckReport) -> u64 {
    for v in &report.violations {
        h = hash::fnv1a_continue(h, v.to_string().as_bytes());
    }
    h = hash::fnv1a_continue(h, &report.suppressed.to_le_bytes());
    for n in report.racy_loads {
        h = hash::fnv1a_continue(h, &n.to_le_bytes());
    }
    hash::fnv1a_continue(h, &report.verdict_hash().to_le_bytes())
}

/// A runtime-config edit that seeds one variant of the mutation matrix.
type Tweak = fn(&mut RuntimeConfig);

/// The whole checker output over 120 real runs: three kernels × four
/// tiny-core protocols × {HCC, DTS} × {unmutated, `skip_coherence_ops`,
/// one dropped invalidate, one dropped flush, `has_stolen_child` stuck at
/// false}. About a third of the cells are dirty, with findings of every
/// kind a runtime bug can produce, so the pin holds the reporting order,
/// the dedup choice and every detail string, not just the verdicts.
#[test]
fn mutation_matrix_output_is_pinned() {
    let variants: [(&str, Tweak); 5] = [
        ("none", |_| {}),
        ("skip_coherence_ops", |rt| rt.skip_coherence_ops = true),
        ("drop_invalidate", |rt| {
            rt.mutation = Some(Mutation { kind: MutationKind::DropInvalidate, core: TINY, nth: 0 })
        }),
        ("drop_flush", |rt| {
            rt.mutation = Some(Mutation { kind: MutationKind::DropFlush, core: TINY, nth: 1 })
        }),
        ("hsc_stuck_false", |rt| {
            rt.mutation = Some(Mutation { kind: MutationKind::HscStuckFalse, core: 0, nth: 0 })
        }),
    ];
    let mut h = hash::FNV_OFFSET;
    let (mut dirty, mut kinds) = (0, std::collections::BTreeMap::new());
    for name in ["cilk5-nq", "cilk5-mt", "ligra-bfs"] {
        for proto in [Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb, Protocol::Mesi] {
            for kind in [RuntimeKind::Hcc, RuntimeKind::Dts] {
                for (label, tweak) in variants {
                    let (sys, run) = run_checked(name, proto, kind, tweak);
                    let report = check_run(&sys, &run.report);
                    h = hash::fnv1a_continue(
                        h,
                        format!("{name} {proto:?} {kind:?} {label}").as_bytes(),
                    );
                    h = fold_report(h, &report);
                    dirty += usize::from(!report.is_clean());
                    for v in &report.violations {
                        *kinds.entry(v.kind.label()).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    assert!(dirty >= 30 && kinds.len() >= 6 && kinds["hb-race"] > 0, "{dirty} dirty, {kinds:?}");
    let mut observed = pins::Table::new("output hash");
    observed.row("mutation matrix", [pins::hex(h)]);
    pins::check("checker-matrix", &observed);
}

/// A seeded stream over eight mixed-protocol cores that exercises every
/// op and note the passes read, plus two explicit episodes in which three
/// unordered cores read a word before a plain store and an AMO to it: the
/// finding kept must name the lowest such reader and the rest must count
/// as suppressed, whatever layout the read sets take.
#[test]
fn synthetic_stream_output_is_pinned() {
    use Protocol::{DeNovo, GpuWb, GpuWt, Mesi};
    const PROTOCOLS: [Protocol; 8] = [Mesi, Mesi, DeNovo, DeNovo, GpuWt, GpuWt, GpuWb, GpuWb];
    let (hot, cold) = (0x1000u64, 0x10_0000u64);
    let mut events = Vec::new();
    let push = |events: &mut Vec<MemEvent>, core: usize, op: MemOp| {
        events.push(MemEvent { cycle: events.len() as u64, core, op });
    };
    for (word, writer) in [
        (0x40u64, MemOp::Store { addr: Addr(0x40), racy: None }),
        (0x48, MemOp::Amo { addr: Addr(0x48) }),
    ] {
        for reader in [5, 1, 3] {
            push(&mut events, reader, MemOp::Load { addr: Addr(word), racy: None });
        }
        push(&mut events, 6, writer);
    }
    let mut rng = XorShift64::new(0x4452_465f_5049_4e53);
    for _ in 0..60_000 {
        let core = rng.next_below(PROTOCOLS.len() as u64) as usize;
        let addr = Addr(if rng.next_below(4) == 0 {
            cold + rng.next_below(4096) * 8
        } else {
            hot + rng.next_below(32) * 8
        });
        let tag = RacyTag::ALL[rng.next_below(RacyTag::ALL.len() as u64) as usize];
        let other = rng.next_below(PROTOCOLS.len() as u64) as usize;
        let op = match rng.next_below(40) {
            0..=13 => MemOp::Load { addr, racy: None },
            14..=16 => MemOp::Load { addr, racy: Some(tag) },
            17..=23 => MemOp::Store { addr, racy: None },
            24..=25 => MemOp::Store { addr, racy: Some(tag) },
            26..=29 => MemOp::Amo { addr },
            30..=31 => MemOp::InvalidateAll,
            32..=33 => MemOp::FlushAll,
            34 => MemOp::Sync(SyncNote::DequeAcquire { lock: addr }),
            35 => MemOp::Sync(SyncNote::DequeRelease { lock: addr }),
            36 => MemOp::Sync(if rng.next_below(2) == 0 {
                SyncNote::HscSet { task: rng.next_below(64) as u32 }
            } else {
                SyncNote::HscElide { task: rng.next_below(64) as u32 }
            }),
            37 => MemOp::Sync(SyncNote::UliReqSend { to: other }),
            38 => MemOp::Sync(SyncNote::HandlerEnter { from: other }),
            _ => MemOp::Sync(if rng.next_below(2) == 0 {
                SyncNote::UliRespSend { to: other }
            } else {
                SyncNote::UliRespRecv { from: other }
            }),
        };
        push(&mut events, core, op);
    }
    let report = check_events(&PROTOCOLS, CheckMode::Full, &events);
    let first: Vec<String> = report.violations.iter().take(2).map(|v| v.to_string()).collect();
    assert_eq!(
        first,
        [
            "[hb-race] core 6 cycle 3 addr 0x40: plain store races with plain load by core 1 at cycle 1",
            "[hb-race] core 6 cycle 7 addr 0x48: atomic write races with plain load by core 1 at cycle 5",
        ]
    );
    for kind in ViolationKind::ALL {
        assert!(report.count(kind) > 0, "no {} finding:\n{}", kind.label(), report.render());
    }
    let h = fold_report(hash::FNV_OFFSET, &report);
    let mut observed = pins::Table::new("output hash");
    observed.row("synthetic stream", [pins::hex(h)]);
    pins::check("checker-synthetic", &observed);
}
