//! Mesh coordinates and node placement.

use pbm_types::{NodeId, SystemConfig};

/// A (row, column) position in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Mesh row, 0 at the top.
    pub row: usize,
    /// Mesh column, 0 at the left.
    pub col: usize,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(row: usize, col: usize) -> Self {
        Coord { row, col }
    }

    /// Manhattan distance to another coordinate.
    pub fn manhattan(self, other: Coord) -> u64 {
        (self.row.abs_diff(other.row) + self.col.abs_diff(other.col)) as u64
    }
}

/// Placement of cores, LLC banks and memory controllers on the mesh.
///
/// Core `i` and bank `i` share tile `i` (row-major). Memory controllers are
/// placed on the four corners, clockwise from the top-left, wrapping if
/// there are more than four (Figure 2 of the paper shows 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    rows: usize,
    cols: usize,
    mc_coords: Vec<Coord>,
}

impl Placement {
    /// Computes the placement for a configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        let rows = cfg.mesh_rows;
        let cols = cfg.mesh_cols();
        let corners = [
            Coord::new(0, 0),
            Coord::new(0, cols - 1),
            Coord::new(rows - 1, cols - 1),
            Coord::new(rows - 1, 0),
        ];
        let mc_coords = (0..cfg.mcs).map(|i| corners[i % 4]).collect();
        Placement {
            rows,
            cols,
            mc_coords,
        }
    }

    /// Mesh rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Mesh columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The mesh coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node index exceeds the configured counts (a wiring bug
    /// in the caller, not a runtime condition).
    pub fn coord(&self, node: NodeId) -> Coord {
        match node {
            NodeId::Core(c) => self.tile(c.index()),
            NodeId::Bank(b) => self.tile(b.index()),
            NodeId::Mc(m) => self.mc_coords[m.index()],
        }
    }

    fn tile(&self, index: usize) -> Coord {
        assert!(
            index < self.rows * self.cols,
            "tile {index} outside {}x{} mesh",
            self.rows,
            self.cols
        );
        Coord::new(index / self.cols, index % self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::{BankId, CoreId, McId};

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 7)), 10);
        assert_eq!(Coord::new(2, 5).manhattan(Coord::new(2, 5)), 0);
        assert_eq!(Coord::new(3, 1).manhattan(Coord::new(1, 4)), 5);
    }

    #[test]
    fn row_major_tiles() {
        let p = Placement::new(&SystemConfig::micro48());
        assert_eq!(p.coord(NodeId::Core(CoreId::new(0))), Coord::new(0, 0));
        assert_eq!(p.coord(NodeId::Core(CoreId::new(7))), Coord::new(0, 7));
        assert_eq!(p.coord(NodeId::Core(CoreId::new(8))), Coord::new(1, 0));
        assert_eq!(p.coord(NodeId::Bank(BankId::new(31))), Coord::new(3, 7));
    }

    #[test]
    fn four_corner_mcs() {
        let p = Placement::new(&SystemConfig::micro48());
        assert_eq!(p.coord(NodeId::Mc(McId::new(0))), Coord::new(0, 0));
        assert_eq!(p.coord(NodeId::Mc(McId::new(1))), Coord::new(0, 7));
        assert_eq!(p.coord(NodeId::Mc(McId::new(2))), Coord::new(3, 7));
        assert_eq!(p.coord(NodeId::Mc(McId::new(3))), Coord::new(3, 0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_tile_panics() {
        let p = Placement::new(&SystemConfig::small_test());
        let _ = p.coord(NodeId::Core(CoreId::new(99)));
    }
}
