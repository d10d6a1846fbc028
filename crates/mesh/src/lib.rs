#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! On-chip network (OCN) model for the big.TINY simulator.
//!
//! This crate models the two mesh networks of the paper's simulated system
//! (ISCA 2020, "Efficiently Supporting Dynamic Task Parallelism on
//! Heterogeneous Cache-Coherent Systems"):
//!
//! * the **data OCN** — an 8×8 (or 8×32 for the 256-core system) mesh with
//!   XY dimension-ordered routing, 16-byte flits, 1-cycle channel latency and
//!   1-cycle router latency, carrying all memory-system messages between
//!   private L1 caches, the banked shared L2, and the DRAM controllers; and
//! * the **ULI network** — a dedicated mesh with two virtual channels (one
//!   for requests, one for responses) carrying single-word user-level
//!   interrupt messages for direct task stealing (DTS).
//!
//! The model is a latency + accounting model: every message is charged a
//! deterministic latency derived from hop count and serialization, and its
//! bytes are attributed to one of the traffic categories reported in
//! Figure 8 of the paper ([`TrafficClass`]).
//!
//! # Example
//!
//! ```
//! use bigtiny_mesh::{MeshConfig, Mesh, TrafficClass, Tile};
//!
//! let mut mesh = Mesh::new(MeshConfig::paper_64_core());
//! let a = Tile::new(0, 0);
//! let b = Tile::new(7, 7);
//! // A 64-byte data response travelling corner to corner.
//! let lat = mesh.send(a, b, TrafficClass::DataResp, 64);
//! assert!(lat > 0);
//! assert_eq!(mesh.stats().bytes(TrafficClass::DataResp), 64 + 8);
//! ```

mod coreset;
mod network;
mod rng;
mod topology;
mod traffic;

pub use coreset::CoreSet;
pub use network::{
    Mesh, MeshConfig, MeshFaults, UliCoreState, UliMessage, UliNetwork, UliOutcome, CHANNEL_CYCLES,
    FLIT_BYTES, HEADER_BYTES, ROUTER_CYCLES,
};
pub use rng::XorShift64;
pub use topology::{Tile, Topology};
pub use traffic::{TrafficClass, TrafficStats, TRAFFIC_CLASSES};
