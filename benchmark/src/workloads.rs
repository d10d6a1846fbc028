//! The four workloads: their cell lists, and how one cell is run and
//! verified through the simulator's public functions.
//!
//! Load is a closed loop with one client: one thread runs the cells of a
//! pass back to back on the default (`Auto` → Fibers) backend. No workload
//! selects the Threads or ShardedFibers backend or arms the watchdog.

use bigtiny_apps::{app_by_name, AppSize, AppSpec};
use bigtiny_bench::Setup;
use bigtiny_checker::{audit_task_events, check_run};
use bigtiny_core::{run_task_parallel, RuntimeKind, TaskRun};
use bigtiny_engine::{AddrSpace, CheckMode, FaultPlan, Protocol};
use bigtiny_obs::{
    export_chrome_trace, metrics_document, validate_chrome_trace, verify_attr_spans, RunMetrics,
    TraceRun, WhatIf,
};

use crate::spans::Recorder;

/// What is armed on a cell's run and checked after it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellKind {
    /// Nothing armed beyond the always-on flight ring.
    Plain,
    /// Checker, attribution and task events armed; every oracle and
    /// document builder runs afterwards. `export` additionally arms the
    /// per-core trace and exports + validates the Perfetto document.
    Observed { export: bool },
    /// A named fault plan armed; the recovery audit runs afterwards.
    Faults { plan: &'static str },
}

/// One (kernel × setup) run of a workload.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Registry name of the kernel.
    pub app: &'static str,
    /// Machine + runtime, already armed for `kind`.
    pub setup: Setup,
    /// What runs around the simulation.
    pub kind: CellKind,
}

impl Cell {
    /// Stable identifier: `app@setup` (`+plan` for fault cells).
    pub fn id(&self) -> String {
        match self.kind {
            CellKind::Faults { plan } => format!("{}@{}+{plan}", self.app, self.setup.label),
            _ => format!("{}@{}", self.app, self.setup.label),
        }
    }
}

/// A named list of cells.
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Builds the cell list; `seed` drives every pseudo-random choice of
    /// the simulated machine (victim selection, fault injection).
    pub cells: fn(seed: u64) -> Vec<Cell>,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload { name: "matrix-64", cells: matrix_64 },
    Workload { name: "matrix-256", cells: matrix_256 },
    Workload { name: "observed-64", cells: observed_64 },
    Workload { name: "faults-64", cells: faults_64 },
];

/// Looks a workload up by name.
pub fn workload_by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn seeded(mut setup: Setup, seed: u64) -> Setup {
    setup.sys = setup.sys.with_seed(seed);
    setup
}

/// The paper's Figures 5–8 matrix: what every user of `eval_all` pays.
fn matrix_64(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in ["cilk5-cs", "cilk5-nq", "cilk5-mt", "ligra-bfs"] {
        for setup in Setup::big_tiny_matrix() {
            cells.push(Cell { app, setup: seeded(setup, seed), kind: CellKind::Plain });
        }
    }
    cells
}

/// The Table V machines: per-grant cost that grows with core count.
fn matrix_256(seed: u64) -> Vec<Cell> {
    let setups = [
        Setup::bt_256(Protocol::Mesi, RuntimeKind::Baseline),
        Setup::bt_256(Protocol::GpuWb, RuntimeKind::Hcc),
        Setup::bt_256(Protocol::GpuWb, RuntimeKind::Dts),
    ];
    let mut cells = Vec::new();
    for app in ["cilk5-nq", "cilk5-mt", "ligra-bfs", "ligra-cc"] {
        for setup in &setups {
            cells.push(Cell { app, setup: seeded(setup.clone(), seed), kind: CellKind::Plain });
        }
    }
    cells
}

/// Every recording channel armed, every oracle and exporter run.
fn observed_64(seed: u64) -> Vec<Cell> {
    let setups = [
        Setup::bt_mesi(),
        Setup::bt_hcc(Protocol::GpuWb, false),
        Setup::bt_hcc(Protocol::GpuWb, true),
        Setup::bt_hcc(Protocol::DeNovo, true),
    ];
    let mut cells = Vec::new();
    for app in ["cilk5-nq", "cilk5-mt", "ligra-bfs"] {
        for setup in &setups {
            // The Perfetto document costs ~1 KB of RSS per trace event, so
            // the big graph kernel exports on one setup only.
            let export = app != "ligra-bfs" || setup.label == "b.T/MESI";
            let mut setup = seeded(setup.clone(), seed);
            setup.sys = setup.sys.with_check(CheckMode::Full).with_attr();
            setup.sys.trace = export;
            setup.rt.record_task_events = true;
            cells.push(Cell { app, setup, kind: CellKind::Observed { export } });
        }
    }
    cells
}

/// Fault plans the fault-64 cells cross with their setups.
pub const FAULT_PLANS: [&str; 3] = ["hostile", "crash-storm", "crash-hostile"];

/// ULI storms, crash recovery and the recovery audit. No watchdog, so
/// `Auto` stays on the Fibers backend.
fn faults_64(seed: u64) -> Vec<Cell> {
    let setups = [
        Setup::bt_mesi(),
        Setup::bt_hcc(Protocol::GpuWb, false),
        Setup::bt_hcc(Protocol::GpuWb, true),
    ];
    let mut cells = Vec::new();
    for app in ["cilk5-nq", "cilk5-mt", "ligra-bfs"] {
        for plan in FAULT_PLANS {
            for setup in &setups {
                let mut setup = seeded(setup.clone(), seed);
                let faults = FaultPlan::by_name(plan, seed).expect("named fault plan");
                setup.sys = setup.sys.with_faults(faults);
                setup.rt.record_task_events = true;
                cells.push(Cell { app, setup, kind: CellKind::Faults { plan } });
            }
        }
    }
    cells
}

/// Names of the exact counts of a pass, summed over its cells from the run
/// reports: simulated cycles and instructions, data-OCN and ULI messages,
/// memory operations (loads + stores + AMOs), L1 attempts (loads + stores)
/// and hits, sequencer grants and fast re-grants, tasks, steal attempts and
/// steals, crash re-executions, events the checker consumed, events in
/// exported Perfetto documents, and injected faults.
pub const COUNT_NAMES: [&str; 16] = [
    "cycles",
    "instructions",
    "mesh_msgs",
    "uli_msgs",
    "mem_ops",
    "l1_attempts",
    "l1_hits",
    "seq_ops",
    "fast_grants",
    "tasks",
    "steal_attempts",
    "steals",
    "reexecutions",
    "checker_events",
    "trace_events",
    "faults",
];

/// One value per [`COUNT_NAMES`] entry. The counts repeat exactly for a
/// given seed, so two commits compare exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Counts(pub [u64; COUNT_NAMES.len()]);

impl Counts {
    fn slot(name: &str) -> usize {
        COUNT_NAMES.iter().position(|n| *n == name).unwrap_or_else(|| panic!("no count {name}"))
    }

    /// The count called `name`.
    pub fn get(&self, name: &str) -> u64 {
        self.0[Self::slot(name)]
    }

    fn add(&mut self, name: &str, v: u64) {
        self.0[Self::slot(name)] += v;
    }

    fn add_run(&mut self, run: &TaskRun) {
        let rep = &run.report;
        self.add("cycles", rep.completion_cycles);
        self.add("instructions", rep.total_instructions());
        self.add("mesh_msgs", rep.traffic.total_data_messages());
        self.add("uli_msgs", rep.uli.messages);
        for m in &rep.mem_stats {
            self.add("mem_ops", m.loads + m.stores + m.amos);
            self.add("l1_attempts", m.loads + m.stores);
            self.add("l1_hits", m.load_hits + m.store_hits);
        }
        self.add("seq_ops", rep.seq_grants);
        self.add("fast_grants", rep.seq_fast_grants);
        self.add("tasks", run.stats.tasks_executed);
        self.add("steal_attempts", run.stats.steal_attempts);
        self.add("steals", run.stats.steals);
        self.add("reexecutions", run.stats.reexecutions);
        self.add("faults", rep.fault_counters.total());
    }
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, rhs: Counts) {
        for (mine, theirs) in self.0.iter_mut().zip(rhs.0) {
            *mine += theirs;
        }
    }
}

/// What a verified cell produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CellOutcome {
    /// Simulated completion cycles.
    pub cycles: u64,
    /// Hash of the sequenced-op stream.
    pub seq_op_hash: u64,
    /// The cell's exact counts.
    pub counts: Counts,
}

/// Runs one cell: prepare, simulate, verify, then whatever its kind arms.
/// `Err` names the first verdict that was not clean. Panics inside the
/// simulator propagate; the caller catches them.
pub fn run_cell(cell: &Cell, size: AppSize, rec: &mut Recorder) -> Result<CellOutcome, String> {
    let app: AppSpec =
        app_by_name(cell.app).ok_or_else(|| format!("unknown kernel {}", cell.app))?;
    let setup = &cell.setup;
    let mut space = AddrSpace::new();
    let prepared = rec.time("apps.prepare", || app.prepare_default(&mut space, size));
    let run = rec.time("core.run_task_parallel", || {
        run_task_parallel(&setup.sys, &setup.rt, &mut space, prepared.root)
    });
    rec.time("apps.verify", prepared.verify).map_err(|e| format!("verification failed: {e}"))?;
    if run.report.stale_reads != 0 {
        return Err(format!("{} stale reads", run.report.stale_reads));
    }
    let mut counts = Counts::default();
    counts.add_run(&run);

    match cell.kind {
        CellKind::Plain => {}
        CellKind::Observed { export } => {
            let check = rec.time("checker.check_run", || check_run(&setup.sys, &run.report));
            counts.add("checker_events", check.events);
            if let Some(v) = check.first() {
                return Err(format!("checker: {v}"));
            }
            let audit =
                rec.time("checker.audit", || audit_task_events(&run.task_events, false, cell.app));
            if let Some(v) = audit.violations.first() {
                return Err(format!("audit: {v}"));
            }
            rec.time("obs.attr_verify", || verify_attr_spans(&run.report))
                .map_err(|e| format!("attribution: {e}"))?;
            rec.time("obs.whatif", || WhatIf::project(&run).map(|_| ()))
                .map_err(|e| format!("what-if: {e}"))?;
            let tiny = setup.sys.tiny_cores();
            let doc_bytes = rec.time("obs.metrics_doc", || {
                metrics_document(&[RunMetrics {
                    app: cell.app,
                    setup: &setup.label,
                    deque_policy: setup.rt.deque_kind.label(),
                    run: &run,
                    tiny_cores: &tiny,
                }])
                .to_json()
                .len()
            });
            if doc_bytes == 0 {
                return Err("empty metrics document".to_owned());
            }
            if export {
                let summary = rec.time("obs.trace_export", || {
                    let doc = export_chrome_trace(&[TraceRun {
                        app: cell.app,
                        setup: &setup.label,
                        run: &run,
                    }]);
                    let summary = validate_chrome_trace(&doc)?;
                    std::hint::black_box(doc.to_json().len());
                    Ok::<_, String>(summary)
                });
                let s = summary.map_err(|e| format!("trace validation: {e}"))?;
                let events = s.complete + 2 * s.async_pairs + 2 * s.flows + s.instants + s.metadata;
                counts.add("trace_events", events as u64);
            }
        }
        CellKind::Faults { .. } => {
            if counts.get("faults") == 0 {
                return Err("fault plan injected nothing".to_owned());
            }
            let crash_armed = setup.sys.faults.crash_armed();
            let audit = rec.time("checker.audit", || {
                audit_task_events(&run.task_events, crash_armed, cell.app)
            });
            if let Some(v) = audit.violations.first() {
                return Err(format!("audit: {v}"));
            }
        }
    }
    Ok(CellOutcome {
        cycles: run.report.completion_cycles,
        seq_op_hash: run.report.seq_op_hash,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_lists_have_unique_ids_and_fixed_sizes() {
        for (w, want) in WORKLOADS.iter().zip([28, 12, 12, 27]) {
            let cells = (w.cells)(7);
            assert_eq!(cells.len(), want, "{}", w.name);
            let mut ids: Vec<String> = cells.iter().map(Cell::id).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), want, "{}: duplicate cell ids", w.name);
        }
    }

    #[test]
    fn no_workload_leaves_the_default_backend_or_arms_the_watchdog() {
        for w in &WORKLOADS {
            for cell in (w.cells)(7) {
                assert_eq!(cell.setup.sys.backend, bigtiny_engine::ExecBackend::Auto);
                assert!(cell.setup.sys.watchdog_budget.is_none());
                assert_eq!(cell.setup.sys.seed, 7);
            }
        }
    }

    #[test]
    fn counts_add_fieldwise() {
        let (mut a, mut b) = (Counts::default(), Counts::default());
        a.add("cycles", 1);
        a.add("tasks", 2);
        b.add("cycles", 10);
        b.add("faults", 3);
        a += b;
        assert_eq!((a.get("cycles"), a.get("tasks"), a.get("faults")), (11, 2, 3));
    }

    #[test]
    fn one_cell_of_each_kind_runs_clean_at_test_size() {
        let mut rec = Recorder::new(true);
        for w in &WORKLOADS {
            let cell = (w.cells)(7).into_iter().next().unwrap();
            let out = run_cell(&cell, AppSize::Test, &mut rec)
                .unwrap_or_else(|e| panic!("{}: {e}", cell.id()));
            assert!(out.cycles > 0 && out.counts.get("seq_ops") > 0, "{}", cell.id());
        }
        assert!(rec.into_spans().iter().any(|s| s.name == "checker.check_run"));
    }
}
