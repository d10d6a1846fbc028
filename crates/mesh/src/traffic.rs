//! Traffic categories and byte accounting, matching Figure 8 of the paper.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::network::FLIT_BYTES;

/// The message categories of the paper's Figure 8 network-traffic breakdown.
///
/// * `CpuReq` — requests from an L1 to the L2 (loads, stores, upgrades).
/// * `WbReq` — write-back / write-through data from an L1 to the L2.
/// * `DataResp` — data responses from the L2 to an L1.
/// * `SyncReq` / `SyncResp` — atomic-memory-operation traffic.
/// * `CohReq` / `CohResp` — coherence traffic (invalidations, ownership
///   recalls and their acknowledgements).
/// * `DramReq` / `DramResp` — traffic between the L2 and DRAM controllers.
/// * `Uli` — user-level-interrupt messages (dedicated network; reported
///   separately, never part of the data-OCN totals).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TrafficClass {
    /// L1 → L2 control requests.
    CpuReq,
    /// L1 → L2 write-back / write-through payloads.
    WbReq,
    /// L2 → L1 data responses.
    DataResp,
    /// Atomic-operation requests.
    SyncReq,
    /// Atomic-operation responses.
    SyncResp,
    /// Coherence requests (invalidations, recalls).
    CohReq,
    /// Coherence responses (acks, forwarded data).
    CohResp,
    /// L2 → DRAM requests.
    DramReq,
    /// DRAM → L2 responses.
    DramResp,
    /// User-level interrupt messages (separate mesh).
    Uli,
}

/// All traffic classes, in display order.
pub const TRAFFIC_CLASSES: [TrafficClass; 10] = [
    TrafficClass::CpuReq,
    TrafficClass::WbReq,
    TrafficClass::DataResp,
    TrafficClass::SyncReq,
    TrafficClass::SyncResp,
    TrafficClass::CohReq,
    TrafficClass::CohResp,
    TrafficClass::DramReq,
    TrafficClass::DramResp,
    TrafficClass::Uli,
];

impl TrafficClass {
    /// Short lower-case label used in reports (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::CpuReq => "cpu_req",
            TrafficClass::WbReq => "wb_req",
            TrafficClass::DataResp => "data_resp",
            TrafficClass::SyncReq => "sync_req",
            TrafficClass::SyncResp => "sync_resp",
            TrafficClass::CohReq => "coh_req",
            TrafficClass::CohResp => "coh_resp",
            TrafficClass::DramReq => "dram_req",
            TrafficClass::DramResp => "dram_resp",
            TrafficClass::Uli => "uli",
        }
    }

    fn index(self) -> usize {
        match self {
            TrafficClass::CpuReq => 0,
            TrafficClass::WbReq => 1,
            TrafficClass::DataResp => 2,
            TrafficClass::SyncReq => 3,
            TrafficClass::SyncResp => 4,
            TrafficClass::CohReq => 5,
            TrafficClass::CohResp => 6,
            TrafficClass::DramReq => 7,
            TrafficClass::DramResp => 8,
            TrafficClass::Uli => 9,
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Byte and message counts per [`TrafficClass`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TrafficStats {
    bytes: [u64; 10],
    messages: [u64; 10],
    hop_cycles: u64,
}

impl TrafficStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `class` carrying `bytes` total (header +
    /// payload) that traversed `hops` links.
    pub fn record(&mut self, class: TrafficClass, bytes: u64, hops: u32) {
        let i = class.index();
        self.bytes[i] += bytes;
        self.messages[i] += 1;
        self.hop_cycles += bytes.div_ceil(FLIT_BYTES).max(1) * hops as u64;
    }

    /// Total bytes recorded for `class`.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Total messages recorded for `class`.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages[class.index()]
    }

    /// Total bytes over the data OCN (everything except [`TrafficClass::Uli`]).
    pub fn total_data_bytes(&self) -> u64 {
        TRAFFIC_CLASSES.iter().filter(|c| **c != TrafficClass::Uli).map(|c| self.bytes(*c)).sum()
    }

    /// Total messages over the data OCN.
    pub fn total_data_messages(&self) -> u64 {
        TRAFFIC_CLASSES.iter().filter(|c| **c != TrafficClass::Uli).map(|c| self.messages(*c)).sum()
    }

    /// Flit-hops accumulated (a proxy for link utilization: one unit is one
    /// 16-byte flit crossing one link).
    pub fn hop_cycles(&self) -> u64 {
        self.hop_cycles
    }

    /// All `(label, bytes, messages)` triples in display order, including
    /// zero classes — the stable iteration surface the metrics exporter
    /// keys its schema on.
    pub fn by_class(&self) -> [(&'static str, u64, u64); 10] {
        TRAFFIC_CLASSES.map(|c| (c.label(), self.bytes(c), self.messages(c)))
    }

    /// Link utilization of the network given total `cycles` elapsed and
    /// `links` unidirectional links, in `[0, 1]` (may exceed 1 when the
    /// latency-only model over-commits; callers report it as-is).
    pub fn utilization(&self, cycles: u64, links: u64) -> f64 {
        if cycles == 0 || links == 0 {
            return 0.0;
        }
        self.hop_cycles as f64 / (cycles as f64 * links as f64)
    }
}

impl Add for TrafficStats {
    type Output = TrafficStats;

    fn add(mut self, rhs: TrafficStats) -> TrafficStats {
        self += rhs;
        self
    }
}

impl AddAssign for TrafficStats {
    fn add_assign(&mut self, rhs: TrafficStats) {
        for i in 0..self.bytes.len() {
            self.bytes[i] += rhs.bytes[i];
            self.messages[i] += rhs.messages[i];
        }
        self.hop_cycles += rhs.hop_cycles;
    }
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for class in TRAFFIC_CLASSES {
            let b = self.bytes(class);
            if b > 0 {
                writeln!(
                    f,
                    "{:>10}: {:>12} B {:>10} msgs",
                    class.label(),
                    b,
                    self.messages(class)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_bytes_and_messages() {
        let mut s = TrafficStats::new();
        s.record(TrafficClass::CpuReq, 8, 4);
        s.record(TrafficClass::CpuReq, 8, 2);
        s.record(TrafficClass::DataResp, 72, 4);
        assert_eq!(s.bytes(TrafficClass::CpuReq), 16);
        assert_eq!(s.messages(TrafficClass::CpuReq), 2);
        assert_eq!(s.bytes(TrafficClass::DataResp), 72);
        assert_eq!(s.total_data_bytes(), 88);
        assert_eq!(s.total_data_messages(), 3);
    }

    #[test]
    fn uli_excluded_from_data_totals() {
        let mut s = TrafficStats::new();
        s.record(TrafficClass::Uli, 8, 10);
        assert_eq!(s.total_data_bytes(), 0);
        assert_eq!(s.bytes(TrafficClass::Uli), 8);
    }

    #[test]
    fn add_merges_componentwise() {
        let mut a = TrafficStats::new();
        a.record(TrafficClass::WbReq, 72, 3);
        let mut b = TrafficStats::new();
        b.record(TrafficClass::WbReq, 72, 5);
        b.record(TrafficClass::CohReq, 8, 1);
        let c = a + b;
        assert_eq!(c.bytes(TrafficClass::WbReq), 144);
        assert_eq!(c.messages(TrafficClass::WbReq), 2);
        assert_eq!(c.bytes(TrafficClass::CohReq), 8);
    }

    #[test]
    fn utilization_is_fractional() {
        let mut s = TrafficStats::new();
        // one 16-byte flit over 4 hops
        s.record(TrafficClass::CpuReq, 16, 4);
        let u = s.utilization(100, 10);
        assert!((u - 4.0 / 1000.0).abs() < 1e-12);
        assert_eq!(s.utilization(0, 10), 0.0);
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(TrafficClass::CpuReq.label(), "cpu_req");
        assert_eq!(TrafficClass::DramResp.to_string(), "dram_resp");
    }

    #[test]
    fn by_class_is_schema_stable() {
        let mut s = TrafficStats::new();
        s.record(TrafficClass::WbReq, 72, 3);
        let rows = s.by_class();
        assert_eq!(rows.len(), TRAFFIC_CLASSES.len());
        assert_eq!(rows[0], ("cpu_req", 0, 0), "zero classes still listed");
        assert_eq!(rows[1], ("wb_req", 72, 1));
        assert_eq!(rows[9].0, "uli");
    }
}
