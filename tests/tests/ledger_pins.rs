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
//! The stream pins are `tests/pins/ledger-streams.txt` and the mutant pins
//! `tests/pins/ledger-mutants.txt`. A moved pin means a reader's conclusion
//! moved: find out why before re-pinning.

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
use bigtiny_tests::pins;

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

/// The columns of a real stream's pin: the audit's verdict hash and the
/// counts it folds, the `DagCheck` counts, then per lens (in `LENSES`
/// order) work, span and a fold of the chain.
const STREAM_COLUMNS: &str = "stream verdict crash_armed tasks completed respawns discards \
    recovered duplicates dag_tasks dag_executed dag_steals dag_joins dag_respawns dag_discards \
    dag_duplicates burdened_work_cycles burdened_span_cycles burdened_chain \
    zero_steal_work_cycles zero_steal_span_cycles zero_steal_chain zero_coherence_work_cycles \
    zero_coherence_span_cycles zero_coherence_chain work_only_work_cycles work_only_span_cycles \
    work_only_chain";

/// The audit's counts and the pinned values of one real stream.
fn observe_stream(c: &Cell) -> ([u64; 7], Vec<String>) {
    let a = audit_task_events_mode(&c.run.task_events, c.mode, c.kernel);
    assert!(a.is_clean(), "{}: the corpus holds clean runs only:\n{}", c.label, a.render());
    let d = check_task_dag(&c.run.task_events)
        .unwrap_or_else(|e| panic!("{}: the corpus holds well-formed streams only: {e}", c.label));
    let audit = [
        u64::from(a.crash_armed),
        a.tasks,
        a.completed,
        a.respawns,
        a.discards,
        a.recovered,
        a.duplicates,
    ];
    let dag = [d.tasks, d.executed, d.steals, d.joins, d.respawns, d.discards, d.duplicates];
    let mut values = vec![pins::hex(a.verdict_hash())];
    values.extend(audit.iter().chain(&dag).map(u64::to_string));
    for lens in LENSES {
        let cp = replay_run(&c.run, lens).unwrap_or_else(|e| panic!("{}: {lens:?}: {e}", c.label));
        let chain = cp.chain.iter().fold(FNV_OFFSET, |h, l| {
            let h = fold_u64(fold_u64(h, u64::from(l.task)), l.exec_begin);
            fold_u64(fold_u64(fold_u64(h, l.exec_end), l.core as u64), u64::from(l.stolen))
        });
        values.extend([cp.work.to_string(), cp.span.to_string(), pins::hex(chain)]);
    }
    (audit, values)
}

#[test]
fn readers_of_real_streams_match_their_pins() {
    let cells = corpus();
    let observed: Vec<_> = cells.iter().map(observe_stream).collect();
    let mut table = pins::Table::new(STREAM_COLUMNS);
    for (c, (_, values)) in cells.iter().zip(&observed) {
        table.row(c.label.as_str(), values.clone());
    }
    pins::check("ledger-streams", &table);
    // The corpus must exercise what it claims to: respawns, discards and
    // frozen descendants (more recovered than respawned) under the mass
    // crash, duplicates where one is forced.
    let (mut respawning, mut discarding, mut descendants) = (0, 0, 0);
    for (c, (audit, _)) in cells.iter().zip(&observed) {
        let [_, _, _, respawns, discards, recovered, duplicates] = *audit;
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

/// One mutant: the cell it was cut from, which of the cell's edits it is,
/// the edit, and the stream.
struct Mutant {
    cell: usize,
    nth: usize,
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
        for (nth, edit) in edits.into_iter().enumerate() {
            if let Some(events) = mutate(&c.run.task_events, edit, &mut rng) {
                out.push(Mutant { cell: ci, nth, edit, events });
            }
        }
    }
    out
}

/// What the two stream validators conclude about one mutant.
#[derive(Clone, Copy)]
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

    for (i, o) in observed.iter().enumerate() {
        let clean = o.malformed == 0 && o.findings == FNV_OFFSET;
        assert!(o.dag_ok || !clean, "mutant {i}: rejected by the DAG check, clean in the audit");
        assert!(
            !o.dag_ok || o.malformed == 0,
            "mutant {i}: a well-formed DAG, malformed in the audit"
        );
    }

    // The pins are the verdicts of the separate state machines. One ledger
    // answers for all readers now, so a stream the DAG check rejects is a
    // finding in the audit too: `malformed` may have grown since its
    // `malformed_when_pinned` (to the value its `malformed` column holds),
    // only on a rejected stream, and nothing else may have moved. A mutant
    // the audit did not return on when the pins were captured (its own
    // coverage walk indexed a parent id the stream never introduced, a
    // panic, or followed a self-parent link forever, a hang) has no pin:
    // `-` for `dag_ok` and `findings`, and `hangs` or `panics` for
    // `malformed_when_pinned`. The ledger's walk is bounded and indexes
    // nothing unchecked, so they run now, rejected by both validators. The
    // observed table carries a pinned row's history forward wherever the
    // observation is consistent with it.
    let pinned = pins::pinned("ledger-mutants");
    let mut table = pins::Table::new("mutant dag_ok findings malformed_when_pinned malformed");
    for (m, o) in all.iter().zip(&observed) {
        let key = format!("{}: {} {:?}", cells[m.cell].label, m.nth, m.edit);
        let mut row = vec![o.dag_ok.to_string(), pins::hex(o.findings), o.malformed.to_string()];
        match pinned.get(&key) {
            Some(was @ [dag_ok, ..]) if dag_ok == "-" && !o.dag_ok && o.malformed > 0 => {
                row = was[..3].to_vec();
            }
            Some([_, _, was, _])
                if was.parse().is_ok_and(|was: u32| o.malformed > was && !o.dag_ok) =>
            {
                row[2].clone_from(was);
            }
            _ => {}
        }
        row.push(o.malformed.to_string());
        table.row(key, row);
    }
    pins::check("ledger-mutants", &table);
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
