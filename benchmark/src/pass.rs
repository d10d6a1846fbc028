//! One pass of one workload: set-up, then every cell once, in order.
//!
//! The driver re-executes itself once per pass (`benchmark pass …`), so
//! every pass starts from a fresh address space and `VmHWM` is per pass.
//! The child prints its [`PassResult`] as one JSON line on stdout; the
//! parent reads it back.
//!
//! Host time is *calibrated*. This kind of shared host runs the same code
//! 15-25 % faster or slower for tens of seconds at a time, so ten raw
//! 20-second runs of one commit spread by 10-20 % (first to third quartile)
//! and no bound under 25 % would hold. A fixed register-only kernel
//! ([`reference_kernel_s`]) is timed before the first cell and after every
//! cell; each cell's seconds are scaled by [`REF_NOMINAL_S`] ÷ the mean of
//! the two samples around it. The kernel shares no code with the simulator:
//! a faster simulator moves `wall_s`, a faster host moves both and cancels.
//! Measured on this box the calibrated spread is 2-3 %. Raw seconds and
//! the mean kernel time are reported beside the calibrated figure.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_coherence::MemorySystem;
use bigtiny_engine::AddrSpace;
use bigtiny_obs::Json;

use crate::spans::{span_from_json, span_to_json, Recorder, Span};
use crate::workloads::{run_cell, Cell, Counts, Workload, COUNT_NAMES};

/// What one cell of a pass produced.
#[derive(Clone, PartialEq, Debug)]
pub struct CellResult {
    /// [`Cell::id`].
    pub id: String,
    /// Simulated completion cycles (0 if the cell failed before finishing).
    pub cycles: u64,
    /// Sequenced-op stream hash (0 if the cell failed before finishing).
    pub seq_op_hash: u64,
    /// Why the cell failed, if it did.
    pub error: Option<String>,
}

/// What one pass produced.
#[derive(Clone, PartialEq, Debug)]
pub struct PassResult {
    /// Median of [`SETUP_REPEATS`] runs of the set-up routine, calibrated
    /// seconds.
    pub setup_s: f64,
    /// Calibrated host seconds spent in the cells (see the module docs).
    pub wall_s: f64,
    /// Raw host seconds spent in the cells.
    pub wall_raw_s: f64,
    /// Mean seconds of one reference-kernel run during the pass.
    pub ref_s: f64,
    /// `VmHWM` of the process, kB.
    pub rss_kb: u64,
    /// Exact counts summed over the cells that finished.
    pub counts: Counts,
    /// One entry per cell, in cell order.
    pub cells: Vec<CellResult>,
    /// Spans of a traced pass; empty otherwise.
    pub spans: Vec<Span>,
}

/// How often a pass repeats its set-up. Set-up takes milliseconds, so one
/// sample would mostly measure first-touch page faults.
pub const SETUP_REPEATS: usize = 5;

/// Set-up is everything a pass needs before its first timed cell: the cell
/// list, every distinct kernel's input generated once into a scratch
/// address space, and every distinct machine's memory system built once —
/// so work moved into input generation or machine construction shows in
/// `setup_s`.
fn set_up(workload: &Workload, seed: u64, size: AppSize) -> Vec<Cell> {
    let cells = (workload.cells)(seed);
    let kernels: BTreeSet<&str> = cells.iter().map(|c| c.app).collect();
    for name in kernels {
        let app = app_by_name(name).unwrap_or_else(|| panic!("unknown kernel {name}"));
        let mut scratch = AddrSpace::new();
        std::hint::black_box(app.prepare_default(&mut scratch, size));
    }
    let mut machines = BTreeSet::new();
    for cell in &cells {
        if machines.insert(cell.setup.sys.name.as_str()) {
            std::hint::black_box(MemorySystem::new(&cell.setup.sys.mem_config()));
        }
    }
    cells
}

/// What one reference-kernel run takes on the nominal host, seconds. Chosen
/// near this box's usual figure so calibrated seconds read like raw ones.
pub const REF_NOMINAL_S: f64 = 0.003;

/// Times a fixed register-only kernel (xorshift + multiply chain, no
/// memory traffic): the host's current speed for compute-bound code.
fn reference_kernel_s() -> f64 {
    let t = Instant::now();
    let (mut x, mut acc) = (0x2545_f491_4f6c_dd1du64, 1u64);
    for _ in 0..1_500_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_mul(x | 1).rotate_left(5);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Scales `raw_s` host seconds to the nominal host, given the kernel times
/// measured just before and just after them.
fn calibrated(raw_s: f64, ref_before_s: f64, ref_after_s: f64) -> f64 {
    raw_s * REF_NOMINAL_S * 2.0 / (ref_before_s + ref_after_s)
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "non-string panic".to_owned());
    format!("panic: {}", text.lines().next().unwrap_or(""))
}

/// `VmHWM` of this process in kB (0 where `/proc` is unavailable).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs one pass in this process.
pub fn run_pass(workload: &Workload, seed: u64, size: AppSize, traced: bool) -> PassResult {
    reference_kernel_s(); // warm-up: not a sample
    let mut ref_before = reference_kernel_s();
    let mut cells = Vec::new();
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            cells = set_up(workload, seed, size);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let mut refs = vec![reference_kernel_s()];
    let setup_raw_s = crate::stats::median(&setups).expect("SETUP_REPEATS > 0");
    let setup_s = calibrated(setup_raw_s, ref_before, refs[0]);
    ref_before = refs[0];

    let mut rec = Recorder::new(traced);
    let mut counts = Counts::default();
    let mut results = Vec::with_capacity(cells.len());
    let (mut wall_s, mut wall_raw_s) = (0.0, 0.0);
    for (i, cell) in cells.iter().enumerate() {
        rec.set_cell(i);
        let t = Instant::now();
        let span = rec.enter("cell");
        let outcome = catch_unwind(AssertUnwindSafe(|| run_cell(cell, size, &mut rec)))
            .unwrap_or_else(|p| Err(panic_text(p)));
        rec.exit(span);
        let raw_s = t.elapsed().as_secs_f64();
        let ref_after = reference_kernel_s();
        wall_raw_s += raw_s;
        wall_s += calibrated(raw_s, ref_before, ref_after);
        refs.push(ref_after);
        ref_before = ref_after;
        results.push(match outcome {
            Ok(o) => {
                counts += o.counts;
                CellResult {
                    id: cell.id(),
                    cycles: o.cycles,
                    seq_op_hash: o.seq_op_hash,
                    error: None,
                }
            }
            Err(e) => {
                eprintln!("[benchmark] FAILED {} {}: {e}", workload.name, cell.id());
                CellResult { id: cell.id(), cycles: 0, seq_op_hash: 0, error: Some(e) }
            }
        });
    }
    PassResult {
        setup_s,
        wall_s,
        wall_raw_s,
        ref_s: refs.iter().sum::<f64>() / refs.len() as f64,
        rss_kb: peak_rss_kb(),
        counts,
        cells: results,
        spans: rec.into_spans(),
    }
}

impl PassResult {
    /// Cells that failed in this pass.
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.error.is_some()).count()
    }

    /// The pass as one JSON object.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("id".into(), Json::str(c.id.as_str())),
                    ("cycles".into(), Json::u64(c.cycles)),
                    ("seq_op_hash".into(), Json::hash(c.seq_op_hash)),
                    ("error".into(), c.error.as_deref().map_or(Json::Null, Json::str)),
                ])
            })
            .collect();
        let counts =
            COUNT_NAMES.iter().zip(self.counts.0).map(|(n, v)| ((*n).to_owned(), Json::u64(v)));
        Json::Obj(vec![
            ("setup_s".into(), Json::f64(self.setup_s)),
            ("wall_s".into(), Json::f64(self.wall_s)),
            ("wall_raw_s".into(), Json::f64(self.wall_raw_s)),
            ("ref_s".into(), Json::f64(self.ref_s)),
            ("rss_kb".into(), Json::u64(self.rss_kb)),
            ("counts".into(), Json::Obj(counts.collect())),
            ("cells".into(), Json::Arr(cells)),
            ("spans".into(), Json::Arr(self.spans.iter().map(span_to_json).collect())),
        ])
    }

    /// Reads back [`PassResult::to_json`].
    pub fn from_json(j: &Json) -> Result<PassResult, String> {
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_num).ok_or(format!("missing {k}"));
        let arr = |k: &str| j.get(k).and_then(Json::as_arr).ok_or(format!("missing {k}"));
        let mut counts = Counts::default();
        for (slot, name) in counts.0.iter_mut().zip(COUNT_NAMES) {
            *slot = num(j.get("counts").ok_or("missing counts")?, name)? as u64;
        }
        let cells = arr("cells")?
            .iter()
            .map(|c| {
                let hash = c.get("seq_op_hash").and_then(Json::as_str).ok_or("missing hash")?;
                Ok(CellResult {
                    id: c.get("id").and_then(Json::as_str).ok_or("missing id")?.to_owned(),
                    cycles: num(c, "cycles")? as u64,
                    seq_op_hash: u64::from_str_radix(hash.trim_start_matches("0x"), 16)
                        .map_err(|e| format!("bad hash {hash}: {e}"))?,
                    error: c.get("error").and_then(Json::as_str).map(str::to_owned),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PassResult {
            setup_s: num(j, "setup_s")?,
            wall_s: num(j, "wall_s")?,
            wall_raw_s: num(j, "wall_raw_s")?,
            ref_s: num(j, "ref_s")?,
            rss_kb: num(j, "rss_kb")? as u64,
            counts,
            cells,
            spans: arr("spans")?.iter().map(span_from_json).collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_result_round_trips_through_the_strict_parser() {
        let mut counts = Counts::default();
        counts.0[0] = 123_456;
        counts.0[7] = 99;
        let p = PassResult {
            setup_s: 0.0625,
            wall_s: 3.5,
            wall_raw_s: 3.25,
            ref_s: 0.0029296875,
            rss_kb: 70_000,
            counts,
            cells: vec![
                CellResult {
                    id: "cilk5-nq@b.T/MESI".into(),
                    cycles: 24219,
                    seq_op_hash: 0xdead_beef_0123_4567,
                    error: None,
                },
                CellResult {
                    id: "x@y+hostile".into(),
                    cycles: 0,
                    seq_op_hash: 0,
                    error: Some("audit: \"lost\" task\n".into()),
                },
            ],
            spans: vec![Span {
                name: "cell".into(),
                start_ns: 1,
                end_ns: 9,
                parent: None,
                cell: 0,
            }],
        };
        let text = p.to_json().to_json();
        assert!(!text.contains('\n'), "one line");
        let back = PassResult::from_json(&bigtiny_obs::parse_json(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.failed(), 1);
    }

    #[test]
    fn calibration_scales_by_the_mean_of_the_samples_around() {
        // A host running the kernel at nominal speed leaves seconds alone.
        assert_eq!(calibrated(2.0, REF_NOMINAL_S, REF_NOMINAL_S), 2.0);
        // A host 25 % slower on both sides: the same work reads 25 % less.
        let slow = REF_NOMINAL_S * 1.25;
        assert!((calibrated(2.5, slow, slow) - 2.0).abs() < 1e-12);
        // A regime change mid-cell is split down the middle.
        assert!((calibrated(2.25, REF_NOMINAL_S, slow) - 2.0).abs() < 1e-12);
        assert!(reference_kernel_s() > 0.0);
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb() > 0);
        }
    }
}
