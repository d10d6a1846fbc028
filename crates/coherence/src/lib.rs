#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Heterogeneous cache-coherence memory system for the big.TINY simulator.
//!
//! This crate models the memory side of the ISCA 2020 paper *"Efficiently
//! Supporting Dynamic Task Parallelism on Heterogeneous Cache-Coherent
//! Systems"*: per-core private L1 caches that may each run one of four
//! coherence protocols — hardware-based [`Protocol::Mesi`] and the
//! software-centric [`Protocol::DeNovo`], [`Protocol::GpuWt`], and
//! [`Protocol::GpuWb`] — integrated Spandex-style at a shared, banked L2
//! with an embedded directory, in front of a bandwidth-limited DRAM model.
//!
//! The model is timing + protocol-state only: functional data lives with the
//! engine, which serializes all operations in simulated-time order. A
//! per-word **staleness checker** detects reads that would have returned
//! stale data on real hardware (e.g. a missing `cache_invalidate` in the
//! work-stealing runtime), making coherence bugs observable in tests.
//!
//! # Example
//!
//! ```
//! use bigtiny_coherence::{Addr, CoreMemConfig, MemConfig, MemorySystem, Protocol};
//! use bigtiny_mesh::MeshConfig;
//!
//! // Two MESI big cores and two DeNovo tiny cores on a 2x2 mesh.
//! let cfg = MemConfig::paper(
//!     MeshConfig::with_topology(bigtiny_mesh::Topology::new(2, 2)),
//!     vec![
//!         CoreMemConfig::big(),
//!         CoreMemConfig::big(),
//!         CoreMemConfig::tiny(Protocol::DeNovo),
//!         CoreMemConfig::tiny(Protocol::DeNovo),
//!     ],
//! );
//! let mut mem = MemorySystem::new(&cfg);
//! let miss = mem.load(0, Addr(0x1000), 0);
//! let hit = mem.load(0, Addr(0x1000), miss);
//! assert!(miss > hit);
//! ```

mod addr;
mod directory;
mod l1;
mod l2;
mod ops;
mod protocol;
mod stats;
mod system;
mod versions;

pub use addr::{Addr, LINE_BYTES};
pub use l2::{CoreSet, DRAM_ACCESS_CYCLES, DRAM_LINE_CYCLES};
pub use protocol::{
    DirtyPropagation, Protocol, ProtocolTraits, StaleInvalidation, WriteGranularity,
};
pub use stats::{aggregate, CoreMemStats};
pub use system::{CoreMemConfig, MemConfig, MemorySystem};
