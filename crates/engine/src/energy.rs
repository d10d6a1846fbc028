//! A first-order energy model, estimated post-hoc from a [`RunReport`].
//!
//! The paper's abstract claims big.TINY/HCC+DTS reaches "similar energy
//! efficiency" to full-system hardware coherence; this model reproduces
//! that comparison. Event energies are in arbitrary *energy units* chosen
//! with the usual relative magnitudes (register-file ≪ L1 ≪ L2 ≪ DRAM;
//! big out-of-order cores burn several times more per instruction and per
//! idle cycle than tiny in-order cores). Absolute joules are not meaningful
//! — only ratios between configurations are reported.

use crate::config::{CoreKind, SystemConfig};
use crate::system::RunReport;
use bigtiny_mesh::TrafficClass;

/// Per retired instruction on a tiny in-order core.
const TINY_INST: f64 = 1.0;
/// Per retired instruction on a big out-of-order core (speculation,
/// renaming, wide issue).
const BIG_INST: f64 = 4.0;
/// Static/idle energy per cycle, tiny core.
const TINY_IDLE_CYCLE: f64 = 0.1;
/// Static/idle energy per cycle, big core.
const BIG_IDLE_CYCLE: f64 = 0.8;
/// Per access (hit or miss lookup) to a tiny core's 4 KB L1.
const L1_ACCESS_4KB: f64 = 0.5;
/// Per access to a big core's 64 KB L1.
const L1_ACCESS_64KB: f64 = 2.0;
/// Per L2 bank access (any request serviced).
const L2_ACCESS: f64 = 5.0;
/// Per DRAM access (line transfer).
const DRAM_ACCESS: f64 = 60.0;
/// Per flit crossing one mesh link.
const FLIT_HOP: f64 = 0.5;
/// Per ULI message.
const ULI_MESSAGE: f64 = 0.5;

/// Energy attributed per subsystem (arbitrary units).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct EnergyReport {
    /// Dynamic core energy (instructions).
    pub core_dynamic: f64,
    /// Static core energy (cycles of existence until completion).
    pub core_static: f64,
    /// L1 cache accesses.
    pub l1: f64,
    /// L2 bank accesses.
    pub l2: f64,
    /// DRAM accesses.
    pub dram: f64,
    /// Data-OCN flit-hops.
    pub network: f64,
    /// ULI network messages.
    pub uli: f64,
}

impl EnergyReport {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.core_dynamic
            + self.core_static
            + self.l1
            + self.l2
            + self.dram
            + self.network
            + self.uli
    }

    /// Estimates the energy of a run on `config` from its report.
    ///
    /// # Panics
    ///
    /// Panics if the report does not match the configuration's core count.
    pub fn estimate(config: &SystemConfig, report: &RunReport) -> EnergyReport {
        assert_eq!(config.num_cores(), report.instructions.len(), "report/config mismatch");
        let mut e = EnergyReport::default();

        for (core, cc) in config.cores.iter().enumerate() {
            let insts = report.instructions[core] as f64;
            let (inst_e, idle_e, l1_e) = match cc.kind {
                CoreKind::Big => (BIG_INST, BIG_IDLE_CYCLE, L1_ACCESS_64KB),
                CoreKind::Tiny => (TINY_INST, TINY_IDLE_CYCLE, L1_ACCESS_4KB),
            };
            e.core_dynamic += insts * inst_e;
            // Every core burns static power until the program completes.
            e.core_static += report.completion_cycles as f64 * idle_e;
            let m = &report.mem_stats[core];
            e.l1 += (m.loads + m.stores + m.amos) as f64 * l1_e;
        }

        // Every L2-visible message implies a bank access; count requests.
        let t = &report.traffic;
        let l2_requests = t.messages(TrafficClass::CpuReq)
            + t.messages(TrafficClass::WbReq)
            + t.messages(TrafficClass::SyncReq)
            + t.messages(TrafficClass::CohResp);
        e.l2 += l2_requests as f64 * L2_ACCESS;
        e.dram += t.messages(TrafficClass::DramReq) as f64 * DRAM_ACCESS;

        // Flit-hops across all data classes.
        let data_hops = t.hop_cycles();
        e.network += data_hops as f64 * FLIT_HOP;
        e.uli += report.uli.messages as f64 * ULI_MESSAGE;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_system, AddrSpace, Protocol, ShVec, Worker};
    use std::sync::Arc;

    fn run(tiny: Protocol) -> (SystemConfig, RunReport) {
        let config = SystemConfig::big_tiny(
            "e",
            bigtiny_mesh::MeshConfig::with_topology(bigtiny_mesh::Topology::new(2, 2)),
            1,
            3,
            tiny,
        );
        let mut space = AddrSpace::new();
        let data = Arc::new(ShVec::new(&mut space, 256, 0u64));
        let mut workers: Vec<Worker> = Vec::new();
        for core in 0..4usize {
            let data = Arc::clone(&data);
            workers.push(Box::new(move |port| {
                for i in 0..64 {
                    data.write(port, (core * 64 + i) % 256, i as u64);
                    port.advance(3);
                }
                port.flush_cache();
                if core == 0 {
                    port.idle(500);
                    port.set_done();
                }
            }));
        }
        let report = run_system(&config, workers);
        (config, report)
    }

    #[test]
    fn energy_is_positive_and_decomposes() {
        let (config, report) = run(Protocol::GpuWb);
        let e = EnergyReport::estimate(&config, &report);
        assert!(e.core_dynamic > 0.0);
        assert!(e.core_static > 0.0);
        assert!(e.l1 > 0.0);
        assert!(e.l2 > 0.0);
        assert!(e.network > 0.0);
        let sum = e.core_dynamic + e.core_static + e.l1 + e.l2 + e.dram + e.network + e.uli;
        assert!((e.total() - sum).abs() < 1e-9);
    }

    #[test]
    fn more_traffic_means_more_network_energy() {
        let (ca, ra) = run(Protocol::GpuWt); // write-through: heavy traffic
        let (cb, rb) = run(Protocol::Mesi);
        let ea = EnergyReport::estimate(&ca, &ra);
        let eb = EnergyReport::estimate(&cb, &rb);
        assert!(
            ea.network + ea.l2 > eb.network + eb.l2,
            "WT uncore energy {} vs MESI {}",
            ea.network + ea.l2,
            eb.network + eb.l2
        );
    }

    #[test]
    fn longer_runs_burn_more_static_energy() {
        let (config, report) = run(Protocol::Mesi);
        let e = EnergyReport::estimate(&config, &report);
        let expected = report.completion_cycles as f64 * (BIG_IDLE_CYCLE + 3.0 * TINY_IDLE_CYCLE);
        assert!((e.core_static - expected).abs() < 1e-6);
    }
}
