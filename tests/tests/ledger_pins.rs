//! Pins on what the readers of the task-event stream conclude.
//!
//! Three readers derive a per-task lifecycle from one recorded stream: the
//! crash / multiplicity audit (`bigtiny_checker::audit_task_events_mode`),
//! the DAG well-formedness check (`bigtiny_obs::check_task_dag`) and the
//! critical-path replay (`bigtiny_obs::replay`). These pins were captured
//! while each of them kept its own state machine, so a match proves that
//! whatever derives the lifecycle now derives the same one:
//!
//! * on **real streams** — three kernels on three setups, fault-free, under
//!   the two seeded crash plans, and on the two multiplicity deques with
//!   and without a forced duplicate — the audit's verdict hash and the
//!   seven counts it folds, the seven `DagCheck` counts, and work / span /
//!   chain of the replay under every `CycleLens`;
//! * on **single-edit mutants** of those streams (one event dropped,
//!   repeated or swapped with its neighbour, one parent link retargeted,
//!   one task id reused), whether the DAG check accepts the stream and
//!   which findings the audit reports.
//!
//! A moved pin means a reader's conclusion moved: find out why before
//! re-pinning (the failing assertion prints the observed table).

use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::Duration;

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_app, Setup};
use bigtiny_checker::{audit_task_events_mode, AuditMode, AuditViolationKind};
use bigtiny_core::{DequeKind, Mutation, MutationKind, TaskEvent, TaskEventKind, TaskRun};
use bigtiny_engine::hash::{fnv1a_continue, fold_u64, FNV_OFFSET};
use bigtiny_engine::{FaultPlan, Protocol};
use bigtiny_mesh::XorShift64;
use bigtiny_obs::{check_task_dag, replay_run, CycleLens};

const APPS: [&str; 3] = ["cilk5-nq", "cilk5-mt", "ligra-bfs"];
const PLANS: [&str; 3] = ["none", "crash-storm", "crash-hostile"];
const LENSES: [CycleLens; 4] =
    [CycleLens::Burdened, CycleLens::ZeroSteal, CycleLens::ZeroCoherence, CycleLens::WorkOnly];

/// Seed of the seeded crash plans.
const FAULT_SEED: u64 = 11;
/// Seed of the mutant generator.
const MUTANT_SEED: u64 = 0x1ed9_e500;

/// One recorded run of the corpus and the contract it is audited against.
struct Cell {
    label: String,
    kernel: &'static str,
    mode: AuditMode,
    run: TaskRun,
}

fn setups() -> [Setup; 3] {
    [Setup::bt_mesi(), Setup::bt_hcc(Protocol::GpuWb, false), Setup::bt_hcc(Protocol::GpuWb, true)]
}

fn cell(
    label: String,
    kernel: &'static str,
    mut setup: Setup,
    crash_armed: bool,
    size: AppSize,
) -> Cell {
    setup.sys.attr = true;
    setup.rt.record_task_events = true;
    let app = app_by_name(kernel).unwrap();
    let mode = AuditMode::for_run(&setup.rt, crash_armed);
    Cell { label, kernel, mode, run: run_app(&setup, &app, size, 0).run }
}

/// The corpus, in pin order. Runs are deterministic, so it is built once
/// and shared by both tests.
fn corpus() -> &'static [Cell] {
    static CORPUS: OnceLock<Vec<Cell>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut cells = Vec::new();
        for kernel in APPS {
            for setup in setups() {
                for plan in PLANS {
                    let faults = FaultPlan::by_name(plan, FAULT_SEED).expect("named fault plan");
                    let crash_armed = faults.crash_armed();
                    let mut s = setup.clone();
                    s.sys = s.sys.with_faults(faults);
                    let label = format!("{kernel} @ {} / {plan}", s.label);
                    cells.push(cell(label, kernel, s, crash_armed, AppSize::Test));
                }
            }
            // At test size the named crash plans fell their cores while
            // they are idle, so those cells pin the crash-armed contract on
            // a recovery-free stream. These fell one tiny core in seven at
            // a per-core cycle, at evaluation size: respawns, discards and
            // frozen descendants of a dead task all occur. The watchdog is
            // observational; it turns a recovery livelock into a failure.
            for mut s in setups() {
                let faults =
                    FaultPlan { crash_per_mille: 150, seed: FAULT_SEED, ..FaultPlan::none() };
                s.sys = s.sys.with_faults(faults).with_watchdog(2_000_000);
                let label = format!("{kernel} @ {} / crash-150 (eval)", s.label);
                cells.push(cell(label, kernel, s, true, AppSize::Eval));
            }
            for deque in [DequeKind::FenceFree, DequeKind::Idempotent] {
                for forced in [false, true] {
                    let mut s = Setup::bt_mesi();
                    s.rt.deque_kind = deque;
                    if forced {
                        s.rt.mutation =
                            Some(Mutation { kind: MutationKind::DupTask, core: 0, nth: 0 });
                    }
                    let dup = if forced { " +dup" } else { "" };
                    let label = format!("{kernel} @ {} / {}{dup}", s.label, deque.label());
                    cells.push(cell(label, kernel, s, false, AppSize::Test));
                }
            }
        }
        cells
    })
}

// ---------------------------------------------------------------------
// Real streams
// ---------------------------------------------------------------------

/// What the readers conclude about one real stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct StreamPin {
    /// `AuditReport::verdict_hash`.
    verdict: u64,
    /// The counts the verdict hash folds: crash_armed, tasks, completed,
    /// respawns, discards, recovered, duplicates.
    audit: [u64; 7],
    /// `DagCheck`: tasks, executed, steals, joins, respawns, discards,
    /// duplicates.
    dag: [u64; 7],
    /// Per lens (in `LENSES` order): work, span, fold of the chain.
    critpath: [(u64, u64, u64); 4],
}

fn observe_stream(c: &Cell) -> StreamPin {
    let a = audit_task_events_mode(&c.run.task_events, c.mode, c.kernel);
    assert!(a.is_clean(), "{}: the corpus holds clean runs only:\n{}", c.label, a.render());
    let d = check_task_dag(&c.run.task_events)
        .unwrap_or_else(|e| panic!("{}: the corpus holds well-formed streams only: {e}", c.label));
    let critpath = LENSES.map(|lens| {
        let cp = replay_run(&c.run, lens).unwrap_or_else(|e| panic!("{}: {lens:?}: {e}", c.label));
        let chain = cp.chain.iter().fold(FNV_OFFSET, |h, l| {
            let h = fold_u64(fold_u64(h, u64::from(l.task)), l.exec_begin);
            fold_u64(fold_u64(fold_u64(h, l.exec_end), l.core as u64), u64::from(l.stolen))
        });
        (cp.work, cp.span, chain)
    });
    StreamPin {
        verdict: a.verdict_hash(),
        audit: [
            u64::from(a.crash_armed),
            a.tasks,
            a.completed,
            a.respawns,
            a.discards,
            a.recovered,
            a.duplicates,
        ],
        dag: [d.tasks, d.executed, d.steals, d.joins, d.respawns, d.discards, d.duplicates],
        critpath,
    }
}

#[test]
fn readers_of_real_streams_match_their_pins() {
    let cells = corpus();
    let observed: Vec<StreamPin> = cells.iter().map(observe_stream).collect();
    // The corpus must exercise what it claims to: respawns, discards and
    // frozen descendants (more recovered than respawned) under the mass
    // crash, duplicates where one is forced.
    let (mut respawning, mut discarding, mut descendants) = (0, 0, 0);
    for (c, o) in cells.iter().zip(&observed) {
        let [_, _, _, respawns, discards, recovered, duplicates] = o.audit;
        respawning += usize::from(respawns > 0);
        discarding += usize::from(discards > 0);
        descendants += usize::from(recovered > respawns);
        if c.label.ends_with("+dup") {
            assert!(duplicates > 0, "{}: the forced duplicate never ran", c.label);
        }
    }
    assert!(
        respawning >= 6 && discarding >= 3 && descendants >= 5,
        "recovery barely exercised: {respawning} / {discarding} / {descendants} cells"
    );
    if observed != STREAM_PINS {
        let mut table = String::new();
        for (c, o) in cells.iter().zip(&observed) {
            let lenses: Vec<String> =
                o.critpath.iter().map(|(w, s, c)| format!("({w}, {s}, {c:#018x})")).collect();
            table.push_str(&format!(
                "    // {}\n    s({:#018x}, {:?}, {:?},\n      [{}]),\n",
                c.label,
                o.verdict,
                o.audit,
                o.dag,
                lenses.join(", ")
            ));
        }
        let moved: Vec<&str> = cells
            .iter()
            .zip(&observed)
            .enumerate()
            .filter(|(i, (_, o))| STREAM_PINS.get(*i) != Some(o))
            .map(|(_, (c, _))| c.label.as_str())
            .collect();
        panic!("a reader's conclusion moved on {moved:?}; observed table:\n{table}");
    }
}

// ---------------------------------------------------------------------
// Single-edit mutants
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Edit {
    /// Remove one event.
    Drop,
    /// Record one event twice.
    Repeat,
    /// Swap one event with its successor.
    Swap,
    /// Point one `Spawn`'s parent link at the task itself, at an id the
    /// stream never introduces, or at some other task.
    Retarget,
    /// Introduce one task under an id an earlier event already introduced.
    ReuseId,
    /// `Retarget` to the task itself, on a task the audit's coverage walk
    /// starts from (crash streams only).
    WalkedSelfParent,
    /// `Retarget` to a never-introduced id, on such a task.
    WalkedUnknownParent,
}

const RANDOM_EDITS: [Edit; 5] =
    [Edit::Drop, Edit::Repeat, Edit::Swap, Edit::Retarget, Edit::ReuseId];

fn introduces(kind: TaskEventKind) -> bool {
    matches!(
        kind,
        TaskEventKind::Spawn { .. }
            | TaskEventKind::Respawn { .. }
            | TaskEventKind::Duplicate { .. }
    )
}

fn pick(rng: &mut XorShift64, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

/// Indices of the `Spawn { parent: Some(_) }` events of tasks whose
/// recovery the audit decides by walking up from them: began and never
/// ended without being named by a respawn, or never began and never
/// discarded.
fn walked_spawns(events: &[TaskEvent]) -> Vec<usize> {
    let n = events.iter().map(|e| e.task as usize + 1).max().unwrap_or(0);
    let (mut began, mut ended) = (vec![false; n], vec![false; n]);
    let (mut discarded, mut respawned) = (vec![false; n], vec![false; n]);
    for e in events {
        match e.kind {
            TaskEventKind::ExecBegin => began[e.task as usize] = true,
            TaskEventKind::ExecEnd => ended[e.task as usize] = true,
            TaskEventKind::Discarded => discarded[e.task as usize] = true,
            TaskEventKind::Respawn { of } => respawned[of as usize] = true,
            _ => {}
        }
    }
    (0..events.len())
        .filter(|&i| {
            let t = events[i].task as usize;
            matches!(events[i].kind, TaskEventKind::Spawn { parent: Some(_) })
                && ((began[t] && !ended[t] && !respawned[t]) || (!began[t] && !discarded[t]))
        })
        .collect()
}

/// Applies one seeded `edit` to `events`; `None` when the stream offers
/// nothing to apply it to.
fn mutate(events: &[TaskEvent], edit: Edit, rng: &mut XorShift64) -> Option<Vec<TaskEvent>> {
    let mut out = events.to_vec();
    let unknown = events.iter().map(|e| e.task).max()? + 7;
    match edit {
        Edit::Drop => {
            out.remove(pick(rng, out.len()));
        }
        Edit::Repeat => {
            let i = pick(rng, out.len());
            out.insert(i + 1, out[i]);
        }
        Edit::Swap => {
            let i = pick(rng, out.len() - 1);
            out.swap(i, i + 1);
        }
        Edit::Retarget => {
            let spawns: Vec<usize> = (0..out.len())
                .filter(|&i| matches!(out[i].kind, TaskEventKind::Spawn { parent: Some(_) }))
                .collect();
            let i = spawns[pick(rng, spawns.len())];
            let to = match rng.next_below(3) {
                0 => out[i].task,
                1 => unknown,
                _ => rng.next_below(u64::from(unknown) - 6) as u32,
            };
            out[i].kind = TaskEventKind::Spawn { parent: Some(to) };
        }
        Edit::ReuseId => {
            let intros: Vec<usize> = (0..out.len()).filter(|&i| introduces(out[i].kind)).collect();
            let later = 1 + pick(rng, intros.len() - 1);
            out[intros[later]].task = out[intros[pick(rng, later)]].task;
        }
        Edit::WalkedSelfParent | Edit::WalkedUnknownParent => {
            let walked = walked_spawns(events);
            if walked.is_empty() {
                return None;
            }
            let i = walked[pick(rng, walked.len())];
            let to = if edit == Edit::WalkedSelfParent { out[i].task } else { unknown };
            out[i].kind = TaskEventKind::Spawn { parent: Some(to) };
        }
    }
    Some(out)
}

/// One mutant: the cell it was cut from, the edit, and the stream.
struct Mutant {
    cell: usize,
    edit: Edit,
    events: Vec<TaskEvent>,
}

/// Every mutant of the corpus, in pin order: per cell the five random
/// edits, two more drawn from them, and — on the crash cells — the two
/// aimed at a task the coverage walk starts from.
fn mutants(cells: &[Cell]) -> Vec<Mutant> {
    let mut out = Vec::new();
    for (ci, c) in cells.iter().enumerate() {
        let mut rng = XorShift64::new(MUTANT_SEED ^ (ci as u64 + 1));
        let mut edits = RANDOM_EDITS.to_vec();
        edits.push(RANDOM_EDITS[pick(&mut rng, 5)]);
        edits.push(RANDOM_EDITS[pick(&mut rng, 5)]);
        if c.mode.crash_armed() {
            edits.extend([Edit::WalkedSelfParent, Edit::WalkedUnknownParent]);
        }
        for edit in edits {
            if let Some(events) = mutate(&c.run.task_events, edit, &mut rng) {
                out.push(Mutant { cell: ci, edit, events });
            }
        }
    }
    out
}

/// What the two stream validators conclude about one mutant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct MutantPin {
    /// `check_task_dag` accepts the stream.
    dag_ok: bool,
    /// Fold of the audit's findings other than `MalformedStream`, as the
    /// sorted `(kind, task)` list the report carries.
    findings: u64,
    /// How many `MalformedStream` findings the audit reports.
    malformed: u32,
}

fn observe_mutant(events: &[TaskEvent], mode: AuditMode, kernel: &str) -> MutantPin {
    let report = audit_task_events_mode(events, mode, kernel);
    let mut pin =
        MutantPin { dag_ok: check_task_dag(events).is_ok(), findings: FNV_OFFSET, malformed: 0 };
    for v in &report.violations {
        if v.kind == AuditViolationKind::MalformedStream {
            pin.malformed += 1;
        } else {
            pin.findings = fnv1a_continue(pin.findings, v.kind.label().as_bytes());
            pin.findings = fold_u64(pin.findings, u64::from(v.task));
        }
    }
    pin
}

/// How long one mutant may take before it counts as not terminating (the
/// streams are a few thousand events; both validators are linear).
const GUARD: Duration = Duration::from_secs(3);

#[test]
fn single_edit_mutants_match_their_pins() {
    let cells = corpus();
    let all = mutants(cells);
    assert!(all.len() >= 200, "only {} mutants generated", all.len());

    // The validators run on their own thread so that one which never
    // returns (or panics) fails this test instead of wedging it.
    let (tx, rx) = mpsc::channel();
    let jobs: Vec<(Vec<TaskEvent>, AuditMode, &'static str)> =
        all.iter().map(|m| (m.events.clone(), cells[m.cell].mode, cells[m.cell].kernel)).collect();
    std::thread::spawn(move || {
        for (events, mode, kernel) in jobs {
            if tx.send(observe_mutant(&events, mode, kernel)).is_err() {
                return;
            }
        }
    });
    let observed: Vec<MutantPin> = (0..all.len())
        .map(|i| {
            rx.recv_timeout(GUARD).unwrap_or_else(|_| {
                let m = &all[i];
                panic!("mutant {i} ({:?} on {}) did not return", m.edit, cells[m.cell].label)
            })
        })
        .collect();

    // The pins are the verdicts of the separate state machines. One ledger
    // answers for all readers now, so a stream the DAG check rejects is a
    // finding in the audit too: `malformed` may have grown since (to the
    // digit `MALFORMED_NOW` holds), only on a rejected stream, and nothing
    // else may have moved. The mutants that did not return when pinned now
    // do, rejected by both.
    let pinned = |i: usize| {
        let never_returned = DID_NOT_RETURN_WHEN_PINNED.iter().any(|&(m, _)| m == i);
        MUTANT_PINS.get(i).copied().filter(|_| !never_returned)
    };
    let now = |i: usize| MALFORMED_NOW.as_bytes().get(i).map(|d| u32::from(d - b'0'));
    let moved: Vec<usize> = (0..all.len())
        .filter(|&i| {
            let o = observed[i];
            let as_pinned = match pinned(i) {
                Some(was) => {
                    (o.dag_ok, o.findings) == (was.dag_ok, was.findings)
                        && (o.malformed == was.malformed
                            || (o.malformed > was.malformed && !o.dag_ok))
                }
                None => !o.dag_ok && o.malformed > 0,
            };
            !as_pinned || Some(o.malformed) != now(i)
        })
        .collect();
    for (i, o) in observed.iter().enumerate() {
        let clean = o.malformed == 0 && o.findings == FNV_OFFSET;
        assert!(o.dag_ok || !clean, "mutant {i}: rejected by the DAG check, clean in the audit");
        assert!(
            !o.dag_ok || o.malformed == 0,
            "mutant {i}: a well-formed DAG, malformed in the audit"
        );
    }
    if !moved.is_empty() || MUTANT_PINS.len() != all.len() || MALFORMED_NOW.len() != all.len() {
        let mut table = String::new();
        for (i, (m, p)) in all.iter().zip(&observed).enumerate() {
            let label = &cells[m.cell].label;
            let row = format!("m({}, {:#018x}, {})", p.dag_ok, p.findings, p.malformed);
            table.push_str(&format!("    {row}, // {i}: {:?} on {label}\n", m.edit));
        }
        let digits: String = observed.iter().map(|p| p.malformed.to_string()).collect();
        panic!("mutants {moved:?} moved; observed table:\n{table}MALFORMED_NOW: {digits}");
    }
}

/// The shapes on which the audit and the DAG check used to disagree (or
/// the audit used to panic or hang): the DAG check rejects each with the
/// sentence it always did, and the audit reports that sentence as a
/// `MalformedStream` finding.
#[test]
fn a_malformed_stream_gets_one_answer_from_both_validators() {
    use TaskEventKind::*;
    let ev = |cycle, core, task, kind| TaskEvent { cycle, core, task, kind };
    // Root 0 spawns 1, which core 1 steals and runs; then one bad event.
    let after_clean_run = |bad: TaskEvent| {
        vec![
            ev(0, 0, 0, Spawn { parent: None }),
            ev(1, 0, 0, ExecBegin),
            ev(2, 0, 1, Spawn { parent: Some(0) }),
            ev(3, 1, 1, Stolen { from: 0 }),
            ev(4, 1, 1, ExecBegin),
            ev(8, 1, 1, ExecEnd),
            ev(9, 0, 0, Join),
            ev(10, 0, 0, ExecEnd),
            bad,
        ]
    };
    let cases = [
        (
            ev(11, 2, 2, Spawn { parent: Some(7) }),
            "task 2 spawned by task 7, which was never spawned",
        ),
        (ev(11, 2, 2, Spawn { parent: Some(2) }), "task 2 is its own parent"),
        (ev(11, 1, 1, ExecBegin), "task 1 began executing twice"),
        (ev(11, 2, 1, Respawn { of: 0 }), "task 1 spawned twice"),
        (ev(11, 2, 1, Duplicate { of: 0 }), "task 1 spawned twice"),
        (ev(11, 2, 5, Stolen { from: 0 }), "task 5 stolen without a Spawn"),
        (ev(11, 2, 5, Join), "task 5 joined without a Spawn"),
        (ev(5, 1, 1, Join), "core 1 went back in time: cycle 5 after 8"),
        (
            ev(11, 2, 2, Spawn { parent: None }),
            "expected exactly one parentless root task, found 2",
        ),
    ];
    for (bad, why) in cases {
        let events = after_clean_run(bad);
        assert_eq!(check_task_dag(&events).unwrap_err(), why);
        let mode = AuditMode::Multiplicity { crash_armed: true };
        let report = audit_task_events_mode(&events, mode, "cilk5-nq");
        let malformed: Vec<(u32, &str)> = report
            .violations
            .iter()
            .filter(|v| v.kind == AuditViolationKind::MalformedStream)
            .map(|v| (v.task, v.detail.as_str()))
            .collect();
        assert_eq!(malformed, [(bad.task, why)], "{bad:?}:\n{}", report.render());
    }
}

const fn m(dag_ok: bool, findings: u64, malformed: u32) -> MutantPin {
    MutantPin { dag_ok, findings, malformed }
}

/// Placeholder row of a mutant listed in [`DID_NOT_RETURN_WHEN_PINNED`].
const SKIP: MutantPin = m(false, 0, 0);

/// Mutants on which the audit did not return when the pins were captured:
/// its own coverage walk indexed a parent id the stream never introduced
/// (a panic) or followed a self-parent link forever (a hang). They were not
/// run then, and have no pin; the ledger's walk is bounded and indexes
/// nothing unchecked, so they run now.
const DID_NOT_RETURN_WHEN_PINNED: &[(usize, &str)] = &[
    (70, "hangs"),   // WalkedSelfParent on cilk5-nq @ b.T/MESI / crash-150 (eval)
    (71, "panics"),  // WalkedUnknownParent on cilk5-nq @ b.T/MESI / crash-150 (eval)
    (184, "hangs"),  // WalkedSelfParent on cilk5-mt @ b.T/MESI / crash-150 (eval)
    (185, "panics"), // WalkedUnknownParent on cilk5-mt @ b.T/MESI / crash-150 (eval)
    (193, "hangs"),  // WalkedSelfParent on cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    (194, "panics"), // WalkedUnknownParent on cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    (202, "hangs"),  // WalkedSelfParent on cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    (203, "panics"), // WalkedUnknownParent on cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    (302, "hangs"),  // WalkedSelfParent on ligra-bfs @ b.T/MESI / crash-150 (eval)
    (303, "panics"), // WalkedUnknownParent on ligra-bfs @ b.T/MESI / crash-150 (eval)
    (311, "hangs"),  // WalkedSelfParent on ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
    (312, "panics"), // WalkedUnknownParent on ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
];

const fn s(
    verdict: u64,
    audit: [u64; 7],
    dag: [u64; 7],
    critpath: [(u64, u64, u64); 4],
) -> StreamPin {
    StreamPin { verdict, audit, dag, critpath }
}

#[rustfmt::skip]
const STREAM_PINS: &[StreamPin] = &[
    // cilk5-nq @ b.T/MESI / none
    s(0xd023a4159e6ee225, [0, 63, 63, 0, 0, 0, 0], [63, 63, 20, 31, 0, 0, 0],
      [(44159, 3405, 0xe7f8035c2b981911), (40199, 2668, 0x5109adc3187e0d9b), (29826, 1945, 0xe7f8035c2b981911), (25866, 1860, 0x8e81e336dfd65e41)]),
    // cilk5-nq @ b.T/MESI / crash-storm
    s(0xcbebfb2ecf0d1344, [1, 63, 63, 0, 0, 0, 0], [63, 63, 18, 31, 0, 0, 0],
      [(50064, 4133, 0x497f4cfae2db728f), (42936, 2839, 0x1797842b0906c4c0), (34903, 2527, 0x94ed8f8c640b47ef), (27775, 1949, 0xbcfb3c3babc5167c)]),
    // cilk5-nq @ b.T/MESI / crash-hostile
    s(0xcbebfb2ecf0d1344, [1, 63, 63, 0, 0, 0, 0], [63, 63, 12, 31, 0, 0, 0],
      [(51819, 9072, 0x48d6ff2a666403af), (43827, 5424, 0x50186518088d476b), (33750, 5099, 0x48d6ff2a666403af), (25758, 2771, 0xa708f810bd88602d)]),
    // cilk5-nq @ b.T/HCC-gwb / none
    s(0xd023a4159e6ee225, [0, 63, 63, 0, 0, 0, 0], [63, 63, 30, 31, 0, 0, 0],
      [(57099, 4447, 0xf8a15fc6600221a8), (53667, 4015, 0xf8a15fc6600221a8), (30121, 1854, 0xdedb186559606bab), (26689, 1854, 0xdedb186559606bab)]),
    // cilk5-nq @ b.T/HCC-gwb / crash-storm
    s(0xcbebfb2ecf0d1344, [1, 63, 63, 0, 0, 0, 0], [63, 63, 28, 31, 0, 0, 0],
      [(61592, 4704, 0x6c2af10b26bed1d7), (53888, 3405, 0x2fdc638566620bd2), (36881, 2550, 0x6c2af10b26bed1d7), (29177, 1951, 0x5b938fb4f62d7a17)]),
    // cilk5-nq @ b.T/HCC-gwb / crash-hostile
    s(0xcbebfb2ecf0d1344, [1, 63, 63, 0, 0, 0, 0], [63, 63, 21, 31, 0, 0, 0],
      [(124534, 16637, 0x7a974052948112a0), (113302, 15125, 0x7a974052948112a0), (51934, 5874, 0x31627f00ec903d4d), (40702, 2663, 0x49e3282c8db06fc8)]),
    // cilk5-nq @ b.T/HCC-DTS-gwb / none
    s(0xd023a4159e6ee225, [0, 63, 63, 0, 0, 0, 0], [63, 63, 18, 31, 0, 0, 0],
      [(45942, 3399, 0xbc4322f454dc25ab), (32070, 2109, 0x9b37f2d0a17bc6b3), (40052, 3108, 0x19ab8c192b9ef94a), (26180, 1783, 0xdde7310eea8cb6cf)]),
    // cilk5-nq @ b.T/HCC-DTS-gwb / crash-storm
    s(0xcbebfb2ecf0d1344, [1, 63, 63, 0, 0, 0, 0], [63, 63, 17, 31, 0, 0, 0],
      [(76561, 10835, 0x6c3d96da6a32ad40), (52293, 3325, 0x371de43e7f4cdd39), (55847, 10508, 0x6c3d96da6a32ad40), (31579, 2009, 0xd691410602ec2114)]),
    // cilk5-nq @ b.T/HCC-DTS-gwb / crash-hostile
    s(0xcbebfb2ecf0d1344, [1, 63, 63, 0, 0, 0, 0], [63, 63, 14, 31, 0, 0, 0],
      [(126746, 17110, 0x66be82940000ae4f), (81443, 7633, 0xb8ea7dea6d010025), (83095, 16798, 0x66be82940000ae4f), (37792, 4117, 0xdf07b69fca44f09a)]),
    // cilk5-nq @ b.T/MESI / crash-150 (eval)
    s(0x0875c32eb222110e, [1, 233, 229, 2, 0, 4, 0], [233, 229, 97, 111, 2, 0, 0],
      [(923171, 45131, 0xe458ca9ba78f320f), (711417, 11678, 0x73aec5638955ad3f), (826772, 36810, 0xe458ca9ba78f320f), (615018, 11514, 0x73aec5638955ad3f)]),
    // cilk5-nq @ b.T/HCC-gwb / crash-150 (eval)
    s(0x7dc36c6bd3c47f04, [1, 211, 211, 0, 0, 0, 0], [211, 211, 89, 105, 0, 0, 0],
      [(758412, 16175, 0xa350bb1c420ae585), (660972, 12383, 0x6729801de6228d5f), (642811, 11828, 0x6729801de6228d5f), (545371, 11828, 0x6729801de6228d5f)]),
    // cilk5-nq @ b.T/HCC-DTS-gwb / crash-150 (eval)
    s(0x22044a2b357632e3, [1, 213, 211, 1, 1, 1, 0], [213, 211, 91, 105, 1, 1, 0],
      [(899078, 15665, 0x1a2c23e25077fcde), (718933, 13654, 0x938934e1b85c0d6a), (780446, 13013, 0x1a2c23e25077fcde), (600301, 12553, 0x938934e1b85c0d6a)]),
    // cilk5-nq @ b.T/MESI / fence-free
    s(0xd023a4159e6ee225, [0, 63, 63, 0, 0, 0, 0], [63, 63, 18, 31, 0, 0, 0],
      [(46988, 4215, 0xf0dd233cf24971ca), (38948, 1819, 0xf7ad2a4cecb2f2fa), (41514, 4047, 0xf0dd233cf24971ca), (33474, 1819, 0xf7ad2a4cecb2f2fa)]),
    // cilk5-nq @ b.T/MESI / fence-free +dup
    s(0xd45de89597b61364, [0, 64, 64, 0, 0, 0, 1], [64, 64, 20, 31, 0, 0, 1],
      [(51793, 3373, 0x7d413f8dfffd9304), (42625, 1819, 0x15e8261b2064b1a4), (45170, 3239, 0x7d413f8dfffd9304), (36002, 1819, 0x15e8261b2064b1a4)]),
    // cilk5-nq @ b.T/MESI / idempotent
    s(0xd023a4159e6ee225, [0, 63, 63, 0, 0, 0, 0], [63, 63, 2, 31, 0, 0, 0],
      [(12952, 1823, 0xcb3226e3964c38bf), (12952, 1823, 0xcb3226e3964c38bf), (12104, 1722, 0xfc9c6101e7ebd0ef), (12104, 1722, 0xfc9c6101e7ebd0ef)]),
    // cilk5-nq @ b.T/MESI / idempotent +dup
    s(0xd45de89597b61364, [0, 64, 64, 0, 0, 0, 1], [64, 64, 1, 31, 0, 0, 1],
      [(12297, 1846, 0x8eedfce0c5e66b8a), (12297, 1846, 0x8eedfce0c5e66b8a), (11447, 1266, 0xe38e452c0fad50f6), (11447, 1266, 0xe38e452c0fad50f6)]),
    // cilk5-mt @ b.T/MESI / none
    s(0x846f69f973d31e25, [0, 31, 31, 0, 0, 0, 0], [31, 31, 11, 15, 0, 0, 0],
      [(34653, 3618, 0x65068f8d7d26e802), (27309, 2435, 0x2fb7db9dd3e675fb), (26446, 2510, 0xd05b6011fd0c7a81), (19102, 2102, 0x2fb7db9dd3e675fb)]),
    // cilk5-mt @ b.T/MESI / crash-storm
    s(0xbea267e7ae4f7f84, [1, 31, 31, 0, 0, 0, 0], [31, 31, 13, 15, 0, 0, 0],
      [(26100, 2691, 0xd690a34ed59406ed), (23436, 2114, 0x353aaad898cf2d5a), (20833, 1891, 0x9cd712e390c1cedd), (18169, 1891, 0x9cd712e390c1cedd)]),
    // cilk5-mt @ b.T/MESI / crash-hostile
    s(0xbea267e7ae4f7f84, [1, 31, 31, 0, 0, 0, 0], [31, 31, 13, 15, 0, 0, 0],
      [(63950, 4847, 0x3072a4e7b537f7e8), (57686, 4801, 0x5adcfd8b11552c7a), (49408, 4538, 0x5adcfd8b11552c7a), (43144, 4538, 0x5adcfd8b11552c7a)]),
    // cilk5-mt @ b.T/HCC-gwb / none
    s(0x846f69f973d31e25, [0, 31, 31, 0, 0, 0, 0], [31, 31, 15, 15, 0, 0, 0],
      [(33113, 2610, 0xe4e26203be9db80a), (30353, 2479, 0x59bf15d789eba634), (22082, 1738, 0x3e7324d205497753), (19322, 1738, 0x3e7324d205497753)]),
    // cilk5-mt @ b.T/HCC-gwb / crash-storm
    s(0xbea267e7ae4f7f84, [1, 31, 31, 0, 0, 0, 0], [31, 31, 14, 15, 0, 0, 0],
      [(31960, 2255, 0x9ac28b89f06caa2e), (28720, 2231, 0x9ac28b89f06caa2e), (22043, 1885, 0xaee093b9ba0f91ec), (18803, 1885, 0xaee093b9ba0f91ec)]),
    // cilk5-mt @ b.T/HCC-gwb / crash-hostile
    s(0xbea267e7ae4f7f84, [1, 31, 31, 0, 0, 0, 0], [31, 31, 14, 15, 0, 0, 0],
      [(74980, 9648, 0x39334de8dff0647a), (68668, 9480, 0x39334de8dff0647a), (44058, 3924, 0x0e6828445ecabc1e), (37746, 3924, 0x0e6828445ecabc1e)]),
    // cilk5-mt @ b.T/HCC-DTS-gwb / none
    s(0x846f69f973d31e25, [0, 31, 31, 0, 0, 0, 0], [31, 31, 10, 15, 0, 0, 0],
      [(26090, 3321, 0xbf9e9e6970a6a5a4), (17681, 2282, 0xdb12522ef5eecb01), (23627, 3242, 0xbf9e9e6970a6a5a4), (15218, 2051, 0xdb12522ef5eecb01)]),
    // cilk5-mt @ b.T/HCC-DTS-gwb / crash-storm
    s(0xbea267e7ae4f7f84, [1, 31, 31, 0, 0, 0, 0], [31, 31, 13, 15, 0, 0, 0],
      [(42798, 3505, 0x2e30b645cdae6007), (30099, 2757, 0x557d26e80c3c9199), (32568, 3136, 0x2e30b645cdae6007), (19869, 2032, 0x557d26e80c3c9199)]),
    // cilk5-mt @ b.T/HCC-DTS-gwb / crash-hostile
    s(0xbea267e7ae4f7f84, [1, 31, 31, 0, 0, 0, 0], [31, 31, 11, 15, 0, 0, 0],
      [(104705, 11834, 0xdbfae9de22a37a69), (65002, 6671, 0xece2e03780ee6fb5), (75041, 11342, 0xdbfae9de22a37a69), (35338, 4106, 0xb5ef437537731ff9)]),
    // cilk5-mt @ b.T/MESI / crash-150 (eval)
    s(0xdbcd599013287e1b, [1, 624, 611, 5, 0, 13, 0], [624, 611, 185, 297, 5, 0, 0],
      [(1563267, 37124, 0xb3f7a49df9f9b60f), (1312028, 19098, 0x47e91a5a05257bbb), (1311777, 30258, 0x6ac9af88aead72b9), (1060538, 16133, 0x47e91a5a05257bbb)]),
    // cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    s(0x54791dc7a133a540, [1, 645, 632, 4, 0, 13, 0], [645, 632, 227, 310, 4, 0, 0],
      [(1635918, 26894, 0xcb56e67f62afb21c), (1484571, 14604, 0x6a0a6cd7a31fe327), (879760, 19673, 0xcb56e67f62afb21c), (728413, 9308, 0x4cb4dcfe485d83fa)]),
    // cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    s(0xf192ded78c6b441c, [1, 575, 558, 4, 7, 10, 0], [575, 558, 170, 276, 4, 7, 0],
      [(1647204, 20785, 0x2053308f29ca91f0), (1390882, 17930, 0x213db3f8890e5439), (881607, 14507, 0x5177ca0ca3faecfc), (625285, 10085, 0xea355ceadeaba005)]),
    // cilk5-mt @ b.T/MESI / fence-free
    s(0x846f69f973d31e25, [0, 31, 31, 0, 0, 0, 0], [31, 31, 12, 15, 0, 0, 0],
      [(27379, 2856, 0x04501c23711a8366), (24259, 2016, 0x7f8dd89a2e398996), (25815, 2643, 0x04501c23711a8366), (22695, 2014, 0x12c5c51b761532a6)]),
    // cilk5-mt @ b.T/MESI / fence-free +dup
    s(0x5e7cc986cc3007a4, [0, 32, 32, 0, 0, 0, 1], [32, 32, 12, 15, 0, 0, 1],
      [(26293, 2779, 0x70d20f111bc289e9), (24013, 2051, 0xf9c093042a04b324), (24737, 2555, 0x70d20f111bc289e9), (22457, 2051, 0xf9c093042a04b324)]),
    // cilk5-mt @ b.T/MESI / idempotent
    s(0x846f69f973d31e25, [0, 31, 31, 0, 0, 0, 0], [31, 31, 6, 15, 0, 0, 0],
      [(15331, 1976, 0x7d56e356ba244fe3), (15331, 1976, 0x7d56e356ba244fe3), (15297, 1976, 0x7d56e356ba244fe3), (15297, 1976, 0x7d56e356ba244fe3)]),
    // cilk5-mt @ b.T/MESI / idempotent +dup
    s(0x5e7cc986cc3007a4, [0, 32, 32, 0, 0, 0, 1], [32, 32, 7, 15, 0, 0, 1],
      [(16210, 1999, 0x15ed990323e699ea), (16210, 1999, 0x15ed990323e699ea), (16138, 1999, 0x15ed990323e699ea), (16138, 1999, 0x15ed990323e699ea)]),
    // ligra-bfs @ b.T/MESI / none
    s(0x3350908d212ef865, [0, 9, 9, 0, 0, 0, 0], [9, 9, 3, 4, 0, 0, 0],
      [(33851, 17105, 0x8cc9c85c662b3f58), (24659, 15356, 0xe832cbfa05dd1973), (26735, 14061, 0xcdbcfa7b6d32750b), (17543, 13853, 0xe832cbfa05dd1973)]),
    // ligra-bfs @ b.T/MESI / crash-storm
    s(0x6d838e7b5bab59c4, [1, 9, 9, 0, 0, 0, 0], [9, 9, 2, 4, 0, 0, 0],
      [(26838, 13992, 0x3bc3901fc9d94b30), (19950, 13020, 0xc9bce70fef26ea65), (22076, 11875, 0xc9bce70fef26ea65), (15188, 11875, 0xc9bce70fef26ea65)]),
    // ligra-bfs @ b.T/MESI / crash-hostile
    s(0x6d838e7b5bab59c4, [1, 9, 9, 0, 0, 0, 0], [9, 9, 1, 4, 0, 0, 0],
      [(42631, 22054, 0x042d7b8aea60259b), (34207, 21580, 0x168ee9c33c27fe8f), (32406, 19275, 0xb48fd568b092ef93), (23982, 19275, 0xb48fd568b092ef93)]),
    // ligra-bfs @ b.T/HCC-gwb / none
    s(0x3350908d212ef865, [0, 9, 9, 0, 0, 0, 0], [9, 9, 2, 4, 0, 0, 0],
      [(25999, 13372, 0x6409c69113f5db32), (17575, 12680, 0x0a17dfdc67b57d9a), (22084, 11165, 0x6409c69113f5db32), (13660, 10925, 0x0a17dfdc67b57d9a)]),
    // ligra-bfs @ b.T/HCC-gwb / crash-storm
    s(0x6d838e7b5bab59c4, [1, 9, 9, 0, 0, 0, 0], [9, 9, 4, 4, 0, 0, 0],
      [(34773, 17889, 0x4bc847783096994e), (22509, 15648, 0x55facf26b5d3bac7), (28753, 14251, 0x4bc847783096994e), (16489, 13558, 0x55facf26b5d3bac7)]),
    // ligra-bfs @ b.T/HCC-gwb / crash-hostile
    s(0x6d838e7b5bab59c4, [1, 9, 9, 0, 0, 0, 0], [9, 9, 2, 4, 0, 0, 0],
      [(62523, 30839, 0x7ed281e2a4229d12), (46419, 29834, 0x6a44091799e6ab15), (46320, 24197, 0x6a44091799e6ab15), (30216, 24197, 0x6a44091799e6ab15)]),
    // ligra-bfs @ b.T/HCC-DTS-gwb / none
    s(0x3350908d212ef865, [0, 9, 9, 0, 0, 0, 0], [9, 9, 3, 4, 0, 0, 0],
      [(37841, 19162, 0x6cda02fdb4bc5134), (20225, 16876, 0xa85f7ed333fa918e), (35201, 19056, 0x6cda02fdb4bc5134), (17585, 14506, 0xa85f7ed333fa918e)]),
    // ligra-bfs @ b.T/HCC-DTS-gwb / crash-storm
    s(0x6d838e7b5bab59c4, [1, 9, 9, 0, 0, 0, 0], [9, 9, 2, 4, 0, 0, 0],
      [(36107, 17847, 0x7ce7d7e754390188), (20514, 16961, 0xd53d04c59cd0aebc), (32015, 17061, 0x7ce7d7e754390188), (16422, 13723, 0xd53d04c59cd0aebc)]),
    // ligra-bfs @ b.T/HCC-DTS-gwb / crash-hostile
    s(0x6d838e7b5bab59c4, [1, 9, 9, 0, 0, 0, 0], [9, 9, 2, 4, 0, 0, 0],
      [(61781, 30613, 0x0cf48a2063b12821), (36001, 29296, 0x750ac9e2c1a33d0a), (52504, 27937, 0xccbfe1f351740c6e), (26724, 22030, 0x750ac9e2c1a33d0a)]),
    // ligra-bfs @ b.T/MESI / crash-150 (eval)
    s(0x51935de8053f9abf, [1, 3484, 3478, 3, 0, 6, 0], [3484, 3478, 697, 1735, 3, 0, 0],
      [(7541728, 142506, 0x2d6fedac2e9c8c33), (5669232, 112171, 0xdc9b74bc65bf3923), (6374588, 125619, 0xa310fc262dfc9198), (4502092, 106108, 0x1c95d49917939ff1)]),
    // ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
    s(0x2227cf0c9f496193, [1, 3493, 3487, 3, 0, 6, 0], [3493, 3487, 1128, 1741, 3, 0, 0],
      [(10722510, 186716, 0x58147ad326c73ec0), (8751378, 132127, 0xc659480750ac1c4a), (6827285, 130679, 0x63f5348234631b72), (4856153, 94882, 0xf2f29c207e4bea86)]),
    // ligra-bfs @ b.T/HCC-DTS-gwb / crash-150 (eval)
    s(0xd5fd40876c10cc73, [1, 3410, 3407, 1, 2, 1, 0], [3410, 3407, 879, 1703, 1, 2, 0],
      [(11856300, 250100, 0x378f5febbaa84a97), (8268627, 150781, 0xa021678506179057), (8357121, 215787, 0x4f83a5bc6689524f), (4769448, 108936, 0x8f4998a591137b13)]),
    // ligra-bfs @ b.T/MESI / fence-free
    s(0x3350908d212ef865, [0, 9, 9, 0, 0, 0, 0], [9, 9, 2, 4, 0, 0, 0],
      [(28811, 14520, 0x14138d1a9670816a), (20387, 14379, 0xf6bf6251fdb649ed), (26563, 13107, 0x14138d1a9670816a), (18139, 13098, 0xf6bf6251fdb649ed)]),
    // ligra-bfs @ b.T/MESI / fence-free +dup
    s(0x136eaef6ba3e48a4, [0, 10, 10, 0, 0, 0, 1], [10, 10, 2, 4, 0, 0, 1],
      [(28786, 14465, 0xd8c5f15d85155b72), (20362, 14383, 0x1a65a22681f38945), (26567, 13103, 0x1a65a22681f38945), (18143, 13103, 0x1a65a22681f38945)]),
    // ligra-bfs @ b.T/MESI / idempotent
    s(0x3350908d212ef865, [0, 9, 9, 0, 0, 0, 0], [9, 9, 3, 4, 0, 0, 0],
      [(18259, 9019, 0x6a88001768f6b39e), (14443, 8774, 0xde6273726858db4b), (17283, 8578, 0x6a88001768f6b39e), (13467, 8424, 0xde6273726858db4b)]),
    // ligra-bfs @ b.T/MESI / idempotent +dup
    s(0x136eaef6ba3e48a4, [0, 10, 10, 0, 0, 0, 1], [10, 10, 2, 4, 0, 0, 1],
      [(15246, 7497, 0x22b92ccc75a5ac2f), (12966, 7497, 0x22b92ccc75a5ac2f), (14371, 7156, 0x22b92ccc75a5ac2f), (12091, 7156, 0x22b92ccc75a5ac2f)]),
];

/// `MutantPin::malformed` of every mutant today, one digit each, in pin
/// order (see `single_edit_mutants_match_their_pins`).
const MALFORMED_NOW: &str = "\
    410161001016020111620500152300016011100202010121200115001001201410151011111121110005010\
    001214001120011215214101511011161100115110111220010161100006111000651000120001013110101\
    611110060111010131211011135211000121101012000011550000151010113212011221111121100212021\
    021211200121201213121121212112121141012021100012111111012000011221111122311112120111201\
";

#[rustfmt::skip]
const MUTANT_PINS: &[MutantPin] = &[
    m(false, 0xcbf29ce484222325, 1), // 0: Drop on cilk5-nq @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 1), // 1: Repeat on cilk5-nq @ b.T/MESI / none
    m(true, 0xcbf29ce484222325, 0), // 2: Swap on cilk5-nq @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 0), // 3: Retarget on cilk5-nq @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 2), // 4: ReuseId on cilk5-nq @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 0), // 5: Retarget on cilk5-nq @ b.T/MESI / none
    m(true, 0xcbf29ce484222325, 0), // 6: Repeat on cilk5-nq @ b.T/MESI / none
    m(false, 0x93cfd5b6aabdc48d, 0), // 7: Drop on cilk5-nq @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 8: Repeat on cilk5-nq @ b.T/MESI / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 9: Swap on cilk5-nq @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 10: Retarget on cilk5-nq @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 2), // 11: ReuseId on cilk5-nq @ b.T/MESI / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 12: Swap on cilk5-nq @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 2), // 13: ReuseId on cilk5-nq @ b.T/MESI / crash-storm
    m(false, 0x93cfa1b6aabd6c31, 0), // 14: Drop on cilk5-nq @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 1), // 15: Repeat on cilk5-nq @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 16: Swap on cilk5-nq @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 17: Retarget on cilk5-nq @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 18: ReuseId on cilk5-nq @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 19: ReuseId on cilk5-nq @ b.T/MESI / crash-hostile
    m(true, 0xcbf29ce484222325, 0), // 20: Repeat on cilk5-nq @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 1), // 21: Drop on cilk5-nq @ b.T/HCC-gwb / none
    m(true, 0xcbf29ce484222325, 0), // 22: Repeat on cilk5-nq @ b.T/HCC-gwb / none
    m(true, 0xcbf29ce484222325, 0), // 23: Swap on cilk5-nq @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 24: Retarget on cilk5-nq @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 2), // 25: ReuseId on cilk5-nq @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 2), // 26: ReuseId on cilk5-nq @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 2), // 27: ReuseId on cilk5-nq @ b.T/HCC-gwb / none
    m(true, 0xcbf29ce484222325, 0), // 28: Drop on cilk5-nq @ b.T/HCC-gwb / crash-storm
    m(false, 0x945c6f931061f251, 0), // 29: Repeat on cilk5-nq @ b.T/HCC-gwb / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 30: Swap on cilk5-nq @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 31: Retarget on cilk5-nq @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 2), // 32: ReuseId on cilk5-nq @ b.T/HCC-gwb / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 33: Swap on cilk5-nq @ b.T/HCC-gwb / crash-storm
    m(false, 0xb1159bb743bce2a7, 0), // 34: Drop on cilk5-nq @ b.T/HCC-gwb / crash-storm
    m(false, 0xb11596b743bcda28, 0), // 35: Drop on cilk5-nq @ b.T/HCC-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 36: Repeat on cilk5-nq @ b.T/HCC-gwb / crash-hostile
    m(true, 0xcbf29ce484222325, 0), // 37: Swap on cilk5-nq @ b.T/HCC-gwb / crash-hostile
    m(true, 0xcbf29ce484222325, 0), // 38: Retarget on cilk5-nq @ b.T/HCC-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 39: ReuseId on cilk5-nq @ b.T/HCC-gwb / crash-hostile
    m(false, 0x93cfb2b6aabd8914, 0), // 40: Drop on cilk5-nq @ b.T/HCC-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 41: ReuseId on cilk5-nq @ b.T/HCC-gwb / crash-hostile
    m(false, 0x93cfc9b6aabdb029, 0), // 42: Drop on cilk5-nq @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 1), // 43: Repeat on cilk5-nq @ b.T/HCC-DTS-gwb / none
    m(true, 0xcbf29ce484222325, 0), // 44: Swap on cilk5-nq @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 45: Retarget on cilk5-nq @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 2), // 46: ReuseId on cilk5-nq @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 47: Swap on cilk5-nq @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 2), // 48: ReuseId on cilk5-nq @ b.T/HCC-DTS-gwb / none
    m(true, 0xcbf29ce484222325, 0), // 49: Drop on cilk5-nq @ b.T/HCC-DTS-gwb / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 50: Repeat on cilk5-nq @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 51: Swap on cilk5-nq @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 52: Retarget on cilk5-nq @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 2), // 53: ReuseId on cilk5-nq @ b.T/HCC-DTS-gwb / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 54: Swap on cilk5-nq @ b.T/HCC-DTS-gwb / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 55: Retarget on cilk5-nq @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 1), // 56: Drop on cilk5-nq @ b.T/HCC-DTS-gwb / crash-hostile
    m(true, 0xcbf29ce484222325, 0), // 57: Repeat on cilk5-nq @ b.T/HCC-DTS-gwb / crash-hostile
    m(true, 0xcbf29ce484222325, 0), // 58: Swap on cilk5-nq @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 59: Retarget on cilk5-nq @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 60: ReuseId on cilk5-nq @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0x93cfaeb6aabd8248, 0), // 61: Drop on cilk5-nq @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 62: Repeat on cilk5-nq @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 1), // 63: Drop on cilk5-nq @ b.T/MESI / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 64: Repeat on cilk5-nq @ b.T/MESI / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 65: Swap on cilk5-nq @ b.T/MESI / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 66: Retarget on cilk5-nq @ b.T/MESI / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 67: ReuseId on cilk5-nq @ b.T/MESI / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 68: Retarget on cilk5-nq @ b.T/MESI / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 69: Swap on cilk5-nq @ b.T/MESI / crash-150 (eval)
    SKIP, // 70: WalkedSelfParent on cilk5-nq @ b.T/MESI / crash-150 (eval)
    SKIP, // 71: WalkedUnknownParent on cilk5-nq @ b.T/MESI / crash-150 (eval)
    m(false, 0xb11591b743bcd1a9, 0), // 72: Drop on cilk5-nq @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 1), // 73: Repeat on cilk5-nq @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 74: Swap on cilk5-nq @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 75: Retarget on cilk5-nq @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 76: ReuseId on cilk5-nq @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 1), // 77: Repeat on cilk5-nq @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 78: Retarget on cilk5-nq @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xb115bab743bd1754, 0), // 79: Drop on cilk5-nq @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 80: Repeat on cilk5-nq @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 81: Swap on cilk5-nq @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 82: Retarget on cilk5-nq @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 83: ReuseId on cilk5-nq @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0x93cf16b6aabc8000, 0), // 84: Drop on cilk5-nq @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 85: Retarget on cilk5-nq @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0x93cfb3b6aabd8ac7, 0), // 86: Drop on cilk5-nq @ b.T/MESI / fence-free
    m(false, 0x945c74931061fad0, 0), // 87: Repeat on cilk5-nq @ b.T/MESI / fence-free
    m(true, 0xcbf29ce484222325, 0), // 88: Swap on cilk5-nq @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 0), // 89: Retarget on cilk5-nq @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 2), // 90: ReuseId on cilk5-nq @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 0), // 91: Retarget on cilk5-nq @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 1), // 92: Drop on cilk5-nq @ b.T/MESI / fence-free
    m(true, 0xcbf29ce484222325, 0), // 93: Drop on cilk5-nq @ b.T/MESI / fence-free +dup
    m(false, 0x945c5f931061d721, 0), // 94: Repeat on cilk5-nq @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 0), // 95: Swap on cilk5-nq @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 0), // 96: Retarget on cilk5-nq @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 2), // 97: ReuseId on cilk5-nq @ b.T/MESI / fence-free +dup
    m(false, 0x945c82931062129a, 0), // 98: Repeat on cilk5-nq @ b.T/MESI / fence-free +dup
    m(false, 0x945c4a931061b372, 0), // 99: Repeat on cilk5-nq @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 1), // 100: Drop on cilk5-nq @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 0), // 101: Repeat on cilk5-nq @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 0), // 102: Swap on cilk5-nq @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 0), // 103: Retarget on cilk5-nq @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 2), // 104: ReuseId on cilk5-nq @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 2), // 105: ReuseId on cilk5-nq @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 1), // 106: Repeat on cilk5-nq @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 1), // 107: Drop on cilk5-nq @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 0), // 108: Repeat on cilk5-nq @ b.T/MESI / idempotent +dup
    m(true, 0xcbf29ce484222325, 0), // 109: Swap on cilk5-nq @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 0), // 110: Retarget on cilk5-nq @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 2), // 111: ReuseId on cilk5-nq @ b.T/MESI / idempotent +dup
    m(false, 0xb11585b743bcbd45, 0), // 112: Drop on cilk5-nq @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 0), // 113: Swap on cilk5-nq @ b.T/MESI / idempotent +dup
    m(false, 0x93cfb0b6aabd85ae, 0), // 114: Drop on cilk5-mt @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 1), // 115: Repeat on cilk5-mt @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 0), // 116: Swap on cilk5-mt @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 0), // 117: Retarget on cilk5-mt @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 2), // 118: ReuseId on cilk5-mt @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 0), // 119: Retarget on cilk5-mt @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 0), // 120: Repeat on cilk5-mt @ b.T/MESI / none
    m(false, 0x93cfa2b6aabd6de4, 0), // 121: Drop on cilk5-mt @ b.T/MESI / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 122: Repeat on cilk5-mt @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 123: Swap on cilk5-mt @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 124: Retarget on cilk5-mt @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 2), // 125: ReuseId on cilk5-mt @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 126: Repeat on cilk5-mt @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 127: Retarget on cilk5-mt @ b.T/MESI / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 128: Drop on cilk5-mt @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 129: Repeat on cilk5-mt @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 130: Swap on cilk5-mt @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 131: Retarget on cilk5-mt @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 132: ReuseId on cilk5-mt @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 133: ReuseId on cilk5-mt @ b.T/MESI / crash-hostile
    m(false, 0x945c7e9310620bce, 0), // 134: Repeat on cilk5-mt @ b.T/MESI / crash-hostile
    m(true, 0xcbf29ce484222325, 0), // 135: Drop on cilk5-mt @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 136: Repeat on cilk5-mt @ b.T/HCC-gwb / none
    m(true, 0xcbf29ce484222325, 0), // 137: Swap on cilk5-mt @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 138: Retarget on cilk5-mt @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 2), // 139: ReuseId on cilk5-mt @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 140: Retarget on cilk5-mt @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 141: Retarget on cilk5-mt @ b.T/HCC-gwb / none
    m(true, 0xcbf29ce484222325, 0), // 142: Drop on cilk5-mt @ b.T/HCC-gwb / crash-storm
    m(false, 0x945c7a9310620502, 0), // 143: Repeat on cilk5-mt @ b.T/HCC-gwb / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 144: Swap on cilk5-mt @ b.T/HCC-gwb / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 145: Retarget on cilk5-mt @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 2), // 146: ReuseId on cilk5-mt @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 147: Repeat on cilk5-mt @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 148: Repeat on cilk5-mt @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 1), // 149: Drop on cilk5-mt @ b.T/HCC-gwb / crash-hostile
    m(false, 0x945c69931061e81f, 0), // 150: Repeat on cilk5-mt @ b.T/HCC-gwb / crash-hostile
    m(true, 0xcbf29ce484222325, 0), // 151: Swap on cilk5-mt @ b.T/HCC-gwb / crash-hostile
    m(true, 0xcbf29ce484222325, 0), // 152: Retarget on cilk5-mt @ b.T/HCC-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 153: ReuseId on cilk5-mt @ b.T/HCC-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 154: ReuseId on cilk5-mt @ b.T/HCC-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 155: Retarget on cilk5-mt @ b.T/HCC-gwb / crash-hostile
    m(true, 0xcbf29ce484222325, 0), // 156: Drop on cilk5-mt @ b.T/HCC-DTS-gwb / none
    m(false, 0x945c82931062129a, 0), // 157: Repeat on cilk5-mt @ b.T/HCC-DTS-gwb / none
    m(true, 0xcbf29ce484222325, 0), // 158: Swap on cilk5-mt @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 159: Retarget on cilk5-mt @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 2), // 160: ReuseId on cilk5-mt @ b.T/HCC-DTS-gwb / none
    m(true, 0xcbf29ce484222325, 0), // 161: Swap on cilk5-mt @ b.T/HCC-DTS-gwb / none
    m(true, 0xcbf29ce484222325, 0), // 162: Drop on cilk5-mt @ b.T/HCC-DTS-gwb / none
    m(false, 0x93cf96b6aabd5980, 0), // 163: Drop on cilk5-mt @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 1), // 164: Repeat on cilk5-mt @ b.T/HCC-DTS-gwb / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 165: Swap on cilk5-mt @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 166: Retarget on cilk5-mt @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 2), // 167: ReuseId on cilk5-mt @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 168: Repeat on cilk5-mt @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 169: Retarget on cilk5-mt @ b.T/HCC-DTS-gwb / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 170: Drop on cilk5-mt @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 1), // 171: Repeat on cilk5-mt @ b.T/HCC-DTS-gwb / crash-hostile
    m(true, 0xcbf29ce484222325, 0), // 172: Swap on cilk5-mt @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 173: Retarget on cilk5-mt @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 174: ReuseId on cilk5-mt @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xb1159cb743bce45a, 0), // 175: Drop on cilk5-mt @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 176: Swap on cilk5-mt @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 1), // 177: Drop on cilk5-mt @ b.T/MESI / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 1), // 178: Repeat on cilk5-mt @ b.T/MESI / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 179: Swap on cilk5-mt @ b.T/MESI / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 180: Retarget on cilk5-mt @ b.T/MESI / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 181: ReuseId on cilk5-mt @ b.T/MESI / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 182: Swap on cilk5-mt @ b.T/MESI / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 183: Swap on cilk5-mt @ b.T/MESI / crash-150 (eval)
    SKIP, // 184: WalkedSelfParent on cilk5-mt @ b.T/MESI / crash-150 (eval)
    SKIP, // 185: WalkedUnknownParent on cilk5-mt @ b.T/MESI / crash-150 (eval)
    m(false, 0x93d1d0b6aac1220e, 0), // 186: Drop on cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 1), // 187: Repeat on cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 188: Swap on cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 189: Retarget on cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 190: ReuseId on cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xb1175fb743bfe2b3, 0), // 191: Drop on cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 192: ReuseId on cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    SKIP, // 193: WalkedSelfParent on cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    SKIP, // 194: WalkedUnknownParent on cilk5-mt @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0x93cf47b6aabcd343, 0), // 195: Drop on cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 1), // 196: Repeat on cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 197: Swap on cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 198: Retarget on cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 199: ReuseId on cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 200: ReuseId on cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 201: ReuseId on cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    SKIP, // 202: WalkedSelfParent on cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    SKIP, // 203: WalkedUnknownParent on cilk5-mt @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0x93cf99b6aabd5e99, 0), // 204: Drop on cilk5-mt @ b.T/MESI / fence-free
    m(true, 0xcbf29ce484222325, 0), // 205: Repeat on cilk5-mt @ b.T/MESI / fence-free
    m(true, 0xcbf29ce484222325, 0), // 206: Swap on cilk5-mt @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 0), // 207: Retarget on cilk5-mt @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 2), // 208: ReuseId on cilk5-mt @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 0), // 209: Retarget on cilk5-mt @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 0), // 210: Swap on cilk5-mt @ b.T/MESI / fence-free
    m(false, 0x93cfa3b6aabd6f97, 0), // 211: Drop on cilk5-mt @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 0), // 212: Repeat on cilk5-mt @ b.T/MESI / fence-free +dup
    m(true, 0xcbf29ce484222325, 0), // 213: Swap on cilk5-mt @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 0), // 214: Retarget on cilk5-mt @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 2), // 215: ReuseId on cilk5-mt @ b.T/MESI / fence-free +dup
    m(false, 0x93cf9eb6aabd6718, 0), // 216: Drop on cilk5-mt @ b.T/MESI / fence-free +dup
    m(true, 0xcbf29ce484222325, 0), // 217: Repeat on cilk5-mt @ b.T/MESI / fence-free +dup
    m(false, 0x93cfadb6aabd8095, 0), // 218: Drop on cilk5-mt @ b.T/MESI / idempotent
    m(true, 0xcbf29ce484222325, 0), // 219: Repeat on cilk5-mt @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 0), // 220: Swap on cilk5-mt @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 0), // 221: Retarget on cilk5-mt @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 2), // 222: ReuseId on cilk5-mt @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 2), // 223: ReuseId on cilk5-mt @ b.T/MESI / idempotent
    m(true, 0xcbf29ce484222325, 0), // 224: Retarget on cilk5-mt @ b.T/MESI / idempotent
    m(false, 0x93cfb4b6aabd8c7a, 0), // 225: Drop on cilk5-mt @ b.T/MESI / idempotent +dup
    m(true, 0xcbf29ce484222325, 0), // 226: Repeat on cilk5-mt @ b.T/MESI / idempotent +dup
    m(true, 0xcbf29ce484222325, 0), // 227: Swap on cilk5-mt @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 0), // 228: Retarget on cilk5-mt @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 2), // 229: ReuseId on cilk5-mt @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 0), // 230: Swap on cilk5-mt @ b.T/MESI / idempotent +dup
    m(true, 0xcbf29ce484222325, 0), // 231: Swap on cilk5-mt @ b.T/MESI / idempotent +dup
    m(false, 0xb1159db743bce60d, 0), // 232: Drop on ligra-bfs @ b.T/MESI / none
    m(true, 0xcbf29ce484222325, 0), // 233: Repeat on ligra-bfs @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 0), // 234: Swap on ligra-bfs @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 0), // 235: Retarget on ligra-bfs @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 2), // 236: ReuseId on ligra-bfs @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 2), // 237: ReuseId on ligra-bfs @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 1), // 238: Drop on ligra-bfs @ b.T/MESI / none
    m(false, 0xcbf29ce484222325, 1), // 239: Drop on ligra-bfs @ b.T/MESI / crash-storm
    m(false, 0x945c7b93106206b5, 0), // 240: Repeat on ligra-bfs @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 241: Swap on ligra-bfs @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 242: Retarget on ligra-bfs @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 2), // 243: ReuseId on ligra-bfs @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 2), // 244: ReuseId on ligra-bfs @ b.T/MESI / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 245: Swap on ligra-bfs @ b.T/MESI / crash-storm
    m(false, 0xb1159db743bce60d, 0), // 246: Drop on ligra-bfs @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 247: Repeat on ligra-bfs @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 248: Swap on ligra-bfs @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 249: Retarget on ligra-bfs @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 250: ReuseId on ligra-bfs @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 251: Swap on ligra-bfs @ b.T/MESI / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 252: Retarget on ligra-bfs @ b.T/MESI / crash-hostile
    m(false, 0x93cf9db6aabd6565, 0), // 253: Drop on ligra-bfs @ b.T/HCC-gwb / none
    m(false, 0x945c7b93106206b5, 0), // 254: Repeat on ligra-bfs @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 255: Swap on ligra-bfs @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 256: Retarget on ligra-bfs @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 2), // 257: ReuseId on ligra-bfs @ b.T/HCC-gwb / none
    m(false, 0x93cf9eb6aabd6718, 0), // 258: Drop on ligra-bfs @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 2), // 259: ReuseId on ligra-bfs @ b.T/HCC-gwb / none
    m(false, 0xcbf29ce484222325, 1), // 260: Drop on ligra-bfs @ b.T/HCC-gwb / crash-storm
    m(true, 0xcbf29ce484222325, 0), // 261: Repeat on ligra-bfs @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 1), // 262: Swap on ligra-bfs @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 263: Retarget on ligra-bfs @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 2), // 264: ReuseId on ligra-bfs @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 265: Retarget on ligra-bfs @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 1), // 266: Drop on ligra-bfs @ b.T/HCC-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 1), // 267: Drop on ligra-bfs @ b.T/HCC-gwb / crash-hostile
    m(false, 0x945c7e9310620bce, 0), // 268: Repeat on ligra-bfs @ b.T/HCC-gwb / crash-hostile
    m(true, 0xcbf29ce484222325, 0), // 269: Swap on ligra-bfs @ b.T/HCC-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 270: Retarget on ligra-bfs @ b.T/HCC-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 271: ReuseId on ligra-bfs @ b.T/HCC-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 272: Retarget on ligra-bfs @ b.T/HCC-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 273: Swap on ligra-bfs @ b.T/HCC-gwb / crash-hostile
    m(false, 0x93cfa0b6aabd6a7e, 0), // 274: Drop on ligra-bfs @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 275: Repeat on ligra-bfs @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 1), // 276: Swap on ligra-bfs @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 0), // 277: Retarget on ligra-bfs @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 2), // 278: ReuseId on ligra-bfs @ b.T/HCC-DTS-gwb / none
    m(false, 0xb1159cb743bce45a, 0), // 279: Drop on ligra-bfs @ b.T/HCC-DTS-gwb / none
    m(false, 0xcbf29ce484222325, 1), // 280: Swap on ligra-bfs @ b.T/HCC-DTS-gwb / none
    m(false, 0xb11597b743bcdbdb, 0), // 281: Drop on ligra-bfs @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 282: Repeat on ligra-bfs @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 1), // 283: Swap on ligra-bfs @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 284: Retarget on ligra-bfs @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 2), // 285: ReuseId on ligra-bfs @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 0), // 286: Retarget on ligra-bfs @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xcbf29ce484222325, 1), // 287: Swap on ligra-bfs @ b.T/HCC-DTS-gwb / crash-storm
    m(false, 0xb1159cb743bce45a, 0), // 288: Drop on ligra-bfs @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 289: Repeat on ligra-bfs @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 1), // 290: Swap on ligra-bfs @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 291: Retarget on ligra-bfs @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 2), // 292: ReuseId on ligra-bfs @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 0), // 293: Repeat on ligra-bfs @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xb1159ab743bce0f4, 0), // 294: Drop on ligra-bfs @ b.T/HCC-DTS-gwb / crash-hostile
    m(false, 0xcbf29ce484222325, 1), // 295: Drop on ligra-bfs @ b.T/MESI / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 1), // 296: Repeat on ligra-bfs @ b.T/MESI / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 297: Swap on ligra-bfs @ b.T/MESI / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 298: Retarget on ligra-bfs @ b.T/MESI / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 299: ReuseId on ligra-bfs @ b.T/MESI / crash-150 (eval)
    m(false, 0x946664931072dda0, 0), // 300: Repeat on ligra-bfs @ b.T/MESI / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 301: ReuseId on ligra-bfs @ b.T/MESI / crash-150 (eval)
    SKIP, // 302: WalkedSelfParent on ligra-bfs @ b.T/MESI / crash-150 (eval)
    SKIP, // 303: WalkedUnknownParent on ligra-bfs @ b.T/MESI / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 304: Drop on ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 305: Repeat on ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 306: Swap on ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 307: Retarget on ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 308: ReuseId on ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 309: Retarget on ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 1), // 310: Repeat on ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
    SKIP, // 311: WalkedSelfParent on ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
    SKIP, // 312: WalkedUnknownParent on ligra-bfs @ b.T/HCC-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 1), // 313: Drop on ligra-bfs @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 1), // 314: Repeat on ligra-bfs @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 315: Swap on ligra-bfs @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 0), // 316: Retarget on ligra-bfs @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0xcbf29ce484222325, 2), // 317: ReuseId on ligra-bfs @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(false, 0x94619e93106ac12e, 0), // 318: Repeat on ligra-bfs @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 319: Retarget on ligra-bfs @ b.T/HCC-DTS-gwb / crash-150 (eval)
    m(true, 0xcbf29ce484222325, 0), // 320: Drop on ligra-bfs @ b.T/MESI / fence-free
    m(false, 0x945c7b93106206b5, 0), // 321: Repeat on ligra-bfs @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 0), // 322: Swap on ligra-bfs @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 0), // 323: Retarget on ligra-bfs @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 2), // 324: ReuseId on ligra-bfs @ b.T/MESI / fence-free
    m(false, 0xcbf29ce484222325, 2), // 325: ReuseId on ligra-bfs @ b.T/MESI / fence-free
    m(false, 0xb1159bb743bce2a7, 0), // 326: Drop on ligra-bfs @ b.T/MESI / fence-free
    m(false, 0xb11590b743bccff6, 0), // 327: Drop on ligra-bfs @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 0), // 328: Repeat on ligra-bfs @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 0), // 329: Swap on ligra-bfs @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 0), // 330: Retarget on ligra-bfs @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 2), // 331: ReuseId on ligra-bfs @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 2), // 332: ReuseId on ligra-bfs @ b.T/MESI / fence-free +dup
    m(false, 0xcbf29ce484222325, 2), // 333: ReuseId on ligra-bfs @ b.T/MESI / fence-free +dup
    m(false, 0xb1159cb743bce45a, 0), // 334: Drop on ligra-bfs @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 0), // 335: Repeat on ligra-bfs @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 0), // 336: Swap on ligra-bfs @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 0), // 337: Retarget on ligra-bfs @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 2), // 338: ReuseId on ligra-bfs @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 0), // 339: Swap on ligra-bfs @ b.T/MESI / idempotent
    m(false, 0xcbf29ce484222325, 2), // 340: ReuseId on ligra-bfs @ b.T/MESI / idempotent
    m(false, 0x93cf9db6aabd6565, 0), // 341: Drop on ligra-bfs @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 0), // 342: Repeat on ligra-bfs @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 0), // 343: Swap on ligra-bfs @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 0), // 344: Retarget on ligra-bfs @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 2), // 345: ReuseId on ligra-bfs @ b.T/MESI / idempotent +dup
    m(true, 0xcbf29ce484222325, 0), // 346: Repeat on ligra-bfs @ b.T/MESI / idempotent +dup
    m(false, 0xcbf29ce484222325, 0), // 347: Retarget on ligra-bfs @ b.T/MESI / idempotent +dup
];
