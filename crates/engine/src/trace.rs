//! Optional per-core execution traces and an ASCII timeline renderer.
//!
//! When [`SystemConfig::trace`](crate::SystemConfig) is enabled, every
//! charge to a core's clock is recorded as a [`TraceEvent`]; the collected
//! traces come back in [`RunReport::traces`](crate::RunReport) and can be
//! rendered as a per-core timeline with [`render_timeline`] — handy for
//! seeing steal storms, flush stalls, or idle tails at a glance.

use crate::breakdown::TimeCategory;

/// One contiguous span of a core's time attributed to a single category.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Start cycle.
    pub start: u64,
    /// Duration in cycles.
    pub cycles: u64,
    /// What the core was doing.
    pub category: TimeCategory,
}

/// A timestamped ULI protocol point on one core, recorded only while
/// tracing. The observability layer pairs each send with its receive or
/// loss (FIFO per directed core pair, the ULI network's delivery order)
/// to draw flow arrows between cores in exported Perfetto traces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UliMark {
    /// Cycle at which the mark was recorded on its core.
    pub cycle: u64,
    /// Which protocol point this is.
    pub kind: UliMarkKind,
}

/// The ULI protocol points recorded as [`UliMark`]s.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UliMarkKind {
    /// A steal request the network accepted, a fault-delayed one too, left
    /// for `to`. A NACKed send and one the network fault-drops leave no
    /// mark; one lost at the receiver is marked, and answered by `ReqLost`.
    ReqSend {
        /// Destination (victim) core.
        to: usize,
    },
    /// A steal request from `from` was delivered to this core's handler.
    ReqRecv {
        /// Originating (thief) core.
        from: usize,
    },
    /// A steal request from `from` reached this core and was lost before
    /// its handler ran (a receive-side fault): it answers a send, no arrow.
    ReqLost {
        /// Originating (thief) core.
        from: usize,
    },
    /// A steal response left this core for `to`.
    RespSend {
        /// Destination (thief) core.
        to: usize,
    },
    /// A steal response from `from` was collected on this core.
    RespRecv {
        /// Originating (victim) core.
        from: usize,
    },
}

/// Single-character glyph per category for the timeline.
fn glyph(cat: TimeCategory) -> char {
    match cat {
        TimeCategory::Compute => '#',
        TimeCategory::Load => 'L',
        TimeCategory::Store => 'S',
        TimeCategory::Atomic => 'A',
        TimeCategory::Flush => 'F',
        TimeCategory::Invalidate => 'I',
        TimeCategory::Uli => 'U',
        TimeCategory::UliWait => 'w',
        TimeCategory::Idle => '.',
    }
}

/// Renders per-core traces as an ASCII timeline covering
/// `[from, from + columns * cycles_per_col)` (clamped to `u64::MAX`); each
/// column shows the category that dominated that time slice (' ' = nothing
/// recorded). All window arithmetic saturates, so a huge `from` or
/// `cycles_per_col` degrades to an empty window instead of wrapping into
/// garbage columns (or panicking in debug builds).
///
/// # Panics
///
/// Panics if `cycles_per_col` or `columns` is zero.
pub fn render_timeline(
    traces: &[Vec<TraceEvent>],
    from: u64,
    cycles_per_col: u64,
    columns: usize,
) -> String {
    assert!(cycles_per_col > 0 && columns > 0);
    let mut out = String::new();
    let to = from.saturating_add(cycles_per_col.saturating_mul(columns as u64));
    out.push_str(&format!(
        "cycles {from}..{to} ({cycles_per_col}/col)  legend: #=compute L=load S=store A=atomic F=flush I=inv U=uli w=uli-wait .=idle\n"
    ));
    for (core, trace) in traces.iter().enumerate() {
        let mut buckets = vec![[0u64; 9]; columns];
        for ev in trace {
            let ev_end = ev.start.saturating_add(ev.cycles);
            if ev.cycles == 0 || ev.start >= to || ev_end <= from {
                continue;
            }
            let s = ev.start.max(from);
            let e = ev_end.min(to);
            let cat_idx = crate::breakdown::TIME_CATEGORIES
                .iter()
                .position(|c| *c == ev.category)
                .expect("listed category");
            let mut c = s;
            while c < e {
                let col = ((c - from) / cycles_per_col) as usize;
                let col_end = from
                    .saturating_add((col as u64).saturating_add(1).saturating_mul(cycles_per_col));
                let span = e.min(col_end) - c;
                buckets[col][cat_idx] += span;
                c += span;
            }
        }
        let row: String = buckets
            .iter()
            .map(|b| match b.iter().enumerate().max_by_key(|(_, v)| **v) {
                Some((i, v)) if *v > 0 => glyph(crate::breakdown::TIME_CATEGORIES[i]),
                _ => ' ',
            })
            .collect();
        out.push_str(&format!("core {core:>3} |{row}|\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_buckets_dominant_category() {
        let traces = vec![vec![
            TraceEvent { start: 0, cycles: 10, category: TimeCategory::Compute },
            TraceEvent { start: 10, cycles: 30, category: TimeCategory::Load },
            TraceEvent { start: 40, cycles: 60, category: TimeCategory::Idle },
        ]];
        let s = render_timeline(&traces, 0, 10, 10);
        let row = s.lines().nth(1).unwrap();
        let cells: Vec<char> = row.chars().skip_while(|c| *c != '|').skip(1).take(10).collect();
        assert_eq!(cells[0], '#');
        assert_eq!(cells[1], 'L');
        assert_eq!(cells[2], 'L');
        assert_eq!(cells[3], 'L');
        assert_eq!(cells[4], '.');
        assert_eq!(cells[9], '.');
    }

    #[test]
    fn events_spanning_columns_are_split() {
        let traces = vec![vec![TraceEvent { start: 5, cycles: 10, category: TimeCategory::Flush }]];
        let s = render_timeline(&traces, 0, 10, 2);
        let row = s.lines().nth(1).unwrap();
        // 5 cycles in each column: flush dominates both (nothing else).
        assert!(row.contains("FF"), "{row}");
    }

    #[test]
    fn empty_trace_renders_blank() {
        let traces = vec![Vec::new()];
        let s = render_timeline(&traces, 0, 10, 4);
        assert!(s.lines().nth(1).unwrap().contains("|    |"));
    }

    /// Regression: `from + cycles_per_col * columns` used unchecked u64
    /// arithmetic, so a window near `u64::MAX` panicked in debug builds and
    /// wrapped into garbage columns in release. The window must saturate
    /// and still bucket in-range events correctly.
    #[test]
    fn window_near_u64_max_saturates_instead_of_overflowing() {
        let base = u64::MAX - 25;
        let traces = vec![vec![
            TraceEvent { start: base, cycles: 10, category: TimeCategory::Compute },
            // An event whose own end would overflow u64.
            TraceEvent { start: u64::MAX - 4, cycles: 100, category: TimeCategory::Flush },
        ]];
        // Window [MAX-25, MAX-25 + 10*10) saturates at u64::MAX.
        let s = render_timeline(&traces, base, 10, 10);
        let row = s.lines().nth(1).unwrap();
        let cells: Vec<char> = row.chars().skip_while(|c| *c != '|').skip(1).take(10).collect();
        assert_eq!(cells[0], '#', "{row}");
        // The flush event starts 21 cycles in (column 2) and runs to the
        // saturated end of time.
        assert_eq!(cells[2], 'F', "{row}");
        // A window entirely past every event renders blank, not garbage.
        let s2 = render_timeline(&traces, 10, u64::MAX / 2, 4);
        assert!(s2.lines().nth(1).unwrap().contains("|"));
    }
}
