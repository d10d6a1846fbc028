//! Mesh topology: tile coordinates and XY-routed hop distances.

use std::fmt;

/// A tile position in the 2-D mesh, addressed by `(x, y)` = (column, row).
///
/// The paper's 64-core system is an 8×8 mesh of core tiles with one shared-L2
/// bank and one DRAM controller attached per column; we place those "edge"
/// agents on a virtual row just below the core rows (see
/// [`Topology::l2_bank_tile`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Tile {
    x: u16,
    y: u16,
}

impl Tile {
    /// Creates a tile at column `x`, row `y`.
    pub fn new(x: u16, y: u16) -> Self {
        Tile { x, y }
    }

    /// Column (X coordinate).
    pub fn x(self) -> u16 {
        self.x
    }

    /// Row (Y coordinate).
    pub fn y(self) -> u16 {
        self.y
    }

    /// Manhattan (XY-routing) hop distance to `other`.
    pub fn hops_to(self, other: Tile) -> u32 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs();
        let dy = (self.y as i32 - other.y as i32).unsigned_abs();
        dx + dy
    }
}

impl fmt::Display for Tile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Physical layout of cores, L2 banks, and DRAM controllers on the mesh.
///
/// Cores fill the mesh row-major: core `i` sits at
/// `(i % cols, i / cols)`. Each column hosts one L2 bank and one memory
/// controller on a virtual edge row at `y = rows` — this mirrors the paper's
/// Figure 1 where "each column of the mesh is connected to an L2 cache bank
/// and a DRAM controller".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Topology {
    rows: u16,
    cols: u16,
}

impl Topology {
    /// Creates a mesh with `rows` rows and `cols` columns of core tiles.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: u16, cols: u16) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be nonzero");
        Topology { rows, cols }
    }

    /// Number of core tiles (`rows * cols`).
    pub fn num_tiles(self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// Number of L2 banks / DRAM controllers (one per column).
    pub fn num_banks(self) -> usize {
        self.cols as usize
    }

    /// Mesh rows.
    pub fn rows(self) -> u16 {
        self.rows
    }

    /// Mesh columns.
    pub fn cols(self) -> u16 {
        self.cols
    }

    /// Tile of core `core_id` (row-major placement).
    ///
    /// # Panics
    ///
    /// Panics if `core_id >= self.num_tiles()`.
    pub fn core_tile(self, core_id: usize) -> Tile {
        assert!(core_id < self.num_tiles(), "core id {core_id} out of range");
        Tile::new((core_id % self.cols as usize) as u16, (core_id / self.cols as usize) as u16)
    }

    /// Tile of L2 bank `bank_id` (edge row below the cores).
    ///
    /// # Panics
    ///
    /// Panics if `bank_id >= self.num_banks()`.
    pub fn l2_bank_tile(self, bank_id: usize) -> Tile {
        assert!(bank_id < self.num_banks(), "bank id {bank_id} out of range");
        Tile::new(bank_id as u16, self.rows)
    }

    /// Tile of DRAM controller `mc_id`; co-located with its column's L2 bank.
    pub fn mem_ctrl_tile(self, mc_id: usize) -> Tile {
        self.l2_bank_tile(mc_id)
    }

    /// Average hop distance between all pairs of core tiles (useful for
    /// sanity-checking latency parameters).
    pub fn mean_core_distance(self) -> f64 {
        let n = self.num_tiles();
        let mut total = 0u64;
        for a in 0..n {
            for b in 0..n {
                total += self.core_tile(a).hops_to(self.core_tile(b)) as u64;
            }
        }
        total as f64 / (n * n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_distance_is_manhattan() {
        assert_eq!(Tile::new(0, 0).hops_to(Tile::new(7, 7)), 14);
        assert_eq!(Tile::new(3, 2).hops_to(Tile::new(3, 2)), 0);
        assert_eq!(Tile::new(5, 1).hops_to(Tile::new(2, 4)), 6);
    }

    #[test]
    fn hop_distance_is_symmetric() {
        let a = Tile::new(1, 6);
        let b = Tile::new(4, 0);
        assert_eq!(a.hops_to(b), b.hops_to(a));
    }

    #[test]
    fn core_placement_is_row_major() {
        let t = Topology::new(8, 8);
        assert_eq!(t.core_tile(0), Tile::new(0, 0));
        assert_eq!(t.core_tile(7), Tile::new(7, 0));
        assert_eq!(t.core_tile(8), Tile::new(0, 1));
        assert_eq!(t.core_tile(63), Tile::new(7, 7));
    }

    #[test]
    fn banks_live_on_edge_row() {
        let t = Topology::new(8, 8);
        assert_eq!(t.num_banks(), 8);
        assert_eq!(t.l2_bank_tile(0), Tile::new(0, 8));
        assert_eq!(t.l2_bank_tile(7), Tile::new(7, 8));
        assert_eq!(t.mem_ctrl_tile(3), t.l2_bank_tile(3));
    }

    #[test]
    fn big_mesh_dimensions() {
        let t = Topology::new(8, 32);
        assert_eq!(t.num_tiles(), 256);
        assert_eq!(t.num_banks(), 32);
        assert_eq!(t.core_tile(255), Tile::new(31, 7));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_tile_bounds_checked() {
        Topology::new(2, 2).core_tile(4);
    }

    #[test]
    fn mean_distance_is_positive_and_bounded() {
        let t = Topology::new(8, 8);
        let d = t.mean_core_distance();
        assert!(d > 4.0 && d < 6.0, "8x8 mean distance ~5.25, got {d}");
    }
}
