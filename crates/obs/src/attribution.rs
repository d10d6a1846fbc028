//! Cycle attribution: the conservation table that accounts for every
//! core-cycle of a run, and the what-if projector built on critical-path
//! replays.
//!
//! The conservation invariant is the load-bearing property: the six
//! buckets of [`CycleConservation`] partition the nine engine time
//! categories, so their sum equals the sum of final core clocks *exactly*
//! — any drift means the engine charged a cycle it never classified.
//! `tests/tests/critpath.rs` checks the invariant across the full
//! kernel × configuration matrix.

use bigtiny_core::{TaskEvent, TaskRun};
use bigtiny_engine::{AttrSpan, RunReport, TimeBreakdown, TimeCategory};

use crate::critpath::{replay_ledger, well_formed, CritPath, CycleLens};

/// Where every core-cycle of a run went, folded into the six buckets the
/// profiler reports. Buckets sum exactly to the total core-cycles.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CycleConservation {
    /// Instruction execution plus demand load/store stalls.
    pub compute: u64,
    /// Steal-protocol overhead: ULI send/receive/handler cycles plus
    /// waiting for steal responses.
    pub steal_protocol: u64,
    /// Atomic-memory-operation stalls.
    pub amo: u64,
    /// Bulk self-invalidations.
    pub invalidate: u64,
    /// Bulk cache flushes.
    pub flush: u64,
    /// Idle: steal back-off and waiting for work.
    pub idle: u64,
    /// Sum of every core's final clock — what the buckets must add up to.
    pub total_core_cycles: u64,
}

impl CycleConservation {
    /// Builds the table from a run report. Needs nothing armed: the
    /// per-core breakdowns are always measured.
    pub fn from_report(rep: &RunReport) -> Self {
        use TimeCategory::*;
        let mut total = TimeBreakdown::new();
        for b in &rep.breakdowns {
            total += *b;
        }
        CycleConservation {
            compute: total.get(Compute) + total.get(Load) + total.get(Store),
            steal_protocol: total.get(Uli) + total.get(UliWait),
            amo: total.get(Atomic),
            invalidate: total.get(Invalidate),
            flush: total.get(Flush),
            idle: total.get(Idle),
            total_core_cycles: rep.core_cycles.iter().sum(),
        }
    }

    /// Sum of the six buckets.
    pub fn bucket_sum(&self) -> u64 {
        self.compute + self.steal_protocol + self.amo + self.invalidate + self.flush + self.idle
    }

    /// The conservation invariant: buckets account for every core-cycle.
    pub fn holds(&self) -> bool {
        self.bucket_sum() == self.total_core_cycles
    }

    /// All `(label, cycles)` bucket pairs in display order, zero buckets
    /// included — the stable surface the metrics schema keys on.
    pub fn pairs(&self) -> [(&'static str, u64); 6] {
        [
            ("compute", self.compute),
            ("steal_protocol", self.steal_protocol),
            ("amo", self.amo),
            ("invalidate", self.invalidate),
            ("flush", self.flush),
            ("idle", self.idle),
        ]
    }
}

/// Verifies the structural invariants of a run's attribution spans
/// (requires [`bigtiny_engine::SystemConfig::attr`]): per core, spans
/// tile `[0, clock]` without gaps or overlap, each span's breakdown
/// totals its length, and the per-core span breakdowns sum to the core's
/// reported breakdown.
pub fn verify_attr_spans(rep: &RunReport) -> Result<(), String> {
    if rep.attr_spans.iter().all(Vec::is_empty) && rep.core_cycles.iter().any(|&c| c > 0) {
        return Err("no attribution spans recorded (SystemConfig::attr not armed)".into());
    }
    for (core, spans) in rep.attr_spans.iter().enumerate() {
        let clock = rep.core_cycles[core];
        let mut at = 0u64;
        let mut sum = TimeBreakdown::new();
        for (i, s) in spans.iter().enumerate() {
            if s.start != at {
                return Err(format!(
                    "core {core} span {i}: starts at {} but previous span ended at {at}",
                    s.start
                ));
            }
            if s.end <= s.start {
                return Err(format!(
                    "core {core} span {i}: empty or inverted [{}, {})",
                    s.start, s.end
                ));
            }
            if s.breakdown.total() != s.end - s.start {
                return Err(format!(
                    "core {core} span {i}: breakdown totals {} for a {}-cycle interval",
                    s.breakdown.total(),
                    s.end - s.start
                ));
            }
            sum += s.breakdown;
            at = s.end;
        }
        if at != clock {
            return Err(format!("core {core}: spans end at {at}, clock is {clock}"));
        }
        if sum != rep.breakdowns[core] {
            return Err(format!("core {core}: span breakdowns do not sum to the core breakdown"));
        }
    }
    Ok(())
}

/// One lens's work/span numbers and the completion bound they imply.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Projection {
    /// The lens replayed under.
    pub lens: CycleLens,
    /// T1 under the lens.
    pub work: u64,
    /// T∞ under the lens.
    pub span: u64,
    /// Greedy-scheduler completion bound `max(⌈work/P⌉, span)`.
    pub greedy_bound: u64,
    /// Measured completion over the bound: the speedup a perfect
    /// scheduler could at best deliver with the lens's stripped
    /// overheads removed. `0` when the bound is degenerate.
    pub speedup_bound: f64,
}

/// The full what-if analysis of one profiled run.
#[derive(Clone, Debug)]
pub struct WhatIf {
    /// Measured completion cycles Tp.
    pub measured_tp: u64,
    /// Worker (core) count P.
    pub workers: u64,
    /// The burdened replay, chain included — what actually happened.
    pub burdened: CritPath,
    /// Burdened bound (speedup ≥ 1 would mean the scheduler beat greedy).
    pub measured: Projection,
    /// Steal protocol, response waits, and idle back-off zeroed.
    pub zero_steal: Projection,
    /// Atomics, invalidations, and flushes zeroed.
    pub zero_coherence: Projection,
    /// Every overhead category zeroed: the ideal P-core greedy bound on
    /// pure compute.
    pub work_only: Projection,
}

fn projection(cp: &CritPath, workers: u64, tp: u64) -> Projection {
    let greedy = cp.work.div_ceil(workers.max(1)).max(cp.span);
    Projection {
        lens: cp.lens,
        work: cp.work,
        span: cp.span,
        greedy_bound: greedy,
        speedup_bound: if greedy == 0 { 0.0 } else { tp as f64 / greedy as f64 },
    }
}

impl WhatIf {
    /// Replays `run` under every lens. Fails unless the run recorded both
    /// task events and attribution spans ([`crate::critpath::profiled`]).
    pub fn project(run: &TaskRun) -> Result<WhatIf, String> {
        if !crate::critpath::profiled(run) {
            return Err(
                "run is not profiled: arm SystemConfig::attr and RuntimeConfig::record_task_events"
                    .into(),
            );
        }
        Self::over(&run.task_events, &run.report.attr_spans, &run.report)
    }

    /// The all-zero analysis of a run that recorded nothing to replay: the
    /// same shape, so a document's schema never depends on the data.
    pub(crate) fn unprofiled(rep: &RunReport) -> WhatIf {
        Self::over(&[], &[], rep).expect("an empty stream is well-formed")
    }

    /// Validates the stream once, then replays it under every lens.
    fn over(
        events: &[TaskEvent],
        spans: &[Vec<AttrSpan>],
        rep: &RunReport,
    ) -> Result<WhatIf, String> {
        let workers = rep.core_cycles.len() as u64;
        let tp = rep.completion_cycles;
        let ledger = well_formed(events)?;
        let under = |lens| replay_ledger(&ledger, events, spans, lens);
        let burdened = under(CycleLens::Burdened)?;
        Ok(WhatIf {
            measured_tp: tp,
            workers,
            measured: projection(&burdened, workers, tp),
            zero_steal: projection(&under(CycleLens::ZeroSteal)?, workers, tp),
            zero_coherence: projection(&under(CycleLens::ZeroCoherence)?, workers, tp),
            work_only: projection(&under(CycleLens::WorkOnly)?, workers, tp),
            burdened,
        })
    }

    /// The three what-if projections in display order.
    pub fn projections(&self) -> [&Projection; 3] {
        [&self.zero_steal, &self.zero_coherence, &self.work_only]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{small_run, small_run_profiled};
    use bigtiny_core::RuntimeKind;

    #[test]
    fn conservation_holds_without_anything_armed() {
        for kind in [RuntimeKind::Baseline, RuntimeKind::Hcc, RuntimeKind::Dts] {
            let run = small_run(kind);
            let cons = CycleConservation::from_report(&run.report);
            assert!(
                cons.holds(),
                "{kind:?}: buckets {} != cycles {}",
                cons.bucket_sum(),
                cons.total_core_cycles
            );
            assert!(cons.compute > 0);
            if kind == RuntimeKind::Dts {
                assert!(cons.steal_protocol > 0, "DTS steals ride ULI");
            }
        }
    }

    #[test]
    fn attr_spans_tile_each_core_exactly() {
        let run = small_run_profiled(RuntimeKind::Dts, 10);
        verify_attr_spans(&run.report).unwrap();
        // An unprofiled run fails loudly rather than vacuously passing.
        let plain = small_run(RuntimeKind::Dts);
        assert!(verify_attr_spans(&plain.report).unwrap_err().contains("not armed"));
    }

    #[test]
    fn what_if_projections_are_ordered_and_bound_measured_time() {
        let run = small_run_profiled(RuntimeKind::Dts, 10);
        let w = WhatIf::project(&run).unwrap();
        // Stripping categories can only shrink work and span, and
        // work-only strips a superset of both other lenses.
        for p in w.projections() {
            assert!(p.work <= w.measured.work, "{:?}", p.lens);
            assert!(p.span <= w.measured.span, "{:?}", p.lens);
            assert!(w.work_only.work <= p.work, "{:?}", p.lens);
            assert!(w.work_only.span <= p.span, "{:?}", p.lens);
        }
        // The burdened greedy bound is a true lower bound on the measured
        // completion, so the measured "speedup" over it is at least 1.
        assert!(w.measured.greedy_bound <= w.measured_tp);
        assert!(w.measured.speedup_bound >= 1.0);
        // Removing overheads can only lower the bound further.
        for p in w.projections() {
            assert!(p.greedy_bound <= w.measured.greedy_bound, "{:?}", p.lens);
            assert!(p.speedup_bound >= w.measured.speedup_bound, "{:?}", p.lens);
        }
        // Unprofiled runs are rejected.
        assert!(WhatIf::project(&small_run(RuntimeKind::Dts))
            .unwrap_err()
            .contains("not profiled"));
    }
}
