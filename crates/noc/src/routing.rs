//! The reference XY route walk: an iterator over the directed links of a
//! route, and a mesh that reserves them one `(from, to)` pair at a time.
//! Test-only: the differential proptest below checks
//! [`Mesh::send`](crate::Mesh::send)'s tile-arithmetic walk against it.

use crate::topology::{Coord, Placement};
use crate::{splitmix64, MessageClass};
use pbm_types::{Cycle, NodeId, SystemConfig};

/// Returns an iterator over the directed links `(from, to)` of the XY route
/// from `src` to `dst`: first along the row (X), then along the column (Y).
///
/// XY routing is minimal and deadlock-free on a mesh, which is why Garnet's
/// default (and this model) uses it.
pub fn route_xy(src: Coord, dst: Coord) -> RouteIter {
    RouteIter { cur: src, dst }
}

/// Iterator over the links of an XY route; see [`route_xy`].
#[derive(Debug, Clone)]
pub struct RouteIter {
    cur: Coord,
    dst: Coord,
}

impl Iterator for RouteIter {
    type Item = (Coord, Coord);

    fn next(&mut self) -> Option<(Coord, Coord)> {
        let from = self.cur;
        let next = if self.cur.col < self.dst.col {
            Coord::new(self.cur.row, self.cur.col + 1)
        } else if self.cur.col > self.dst.col {
            Coord::new(self.cur.row, self.cur.col - 1)
        } else if self.cur.row < self.dst.row {
            Coord::new(self.cur.row + 1, self.cur.col)
        } else if self.cur.row > self.dst.row {
            Coord::new(self.cur.row - 1, self.cur.col)
        } else {
            return None;
        };
        self.cur = next;
        Some((from, next))
    }
}

/// The reference mesh: endpoints looked up through [`Placement`], links
/// reserved along [`route_xy`].
#[derive(Debug)]
pub struct RouteWalkMesh {
    placement: Placement,
    hop_latency: u64,
    flit_bytes: u64,
    link_busy: Vec<Cycle>,
    pub messages: u64,
    pub flits: u64,
    pub wait_cycles: [u64; MessageClass::VNETS],
    now: Cycle,
    jitter_max: u64,
    jitter_state: u64,
}

impl RouteWalkMesh {
    pub fn new(cfg: &SystemConfig) -> Self {
        let placement = Placement::new(cfg);
        let tiles = placement.rows() * placement.cols();
        RouteWalkMesh {
            placement,
            hop_latency: cfg.hop_latency,
            flit_bytes: cfg.flit_bytes,
            link_busy: vec![Cycle::ZERO; tiles * 4 * MessageClass::VNETS],
            messages: 0,
            flits: 0,
            wait_cycles: [0; MessageClass::VNETS],
            now: Cycle::ZERO,
            jitter_max: 0,
            jitter_state: 0,
        }
    }

    pub fn set_jitter(&mut self, max: u64, seed: u64) {
        self.jitter_max = max;
        self.jitter_state = seed;
    }

    fn jitter(&mut self) -> Cycle {
        if self.jitter_max == 0 {
            return Cycle::ZERO;
        }
        Cycle::new(splitmix64(&mut self.jitter_state) % (self.jitter_max + 1))
    }

    pub fn advance_to(&mut self, now: Cycle) {
        self.now = self.now.max(now);
    }

    pub fn send(&mut self, src: NodeId, dst: NodeId, class: MessageClass, now: Cycle) -> Cycle {
        let flits = class.bytes().div_ceil(self.flit_bytes).max(1);
        self.messages += 1;
        self.flits += flits;
        let a = self.placement.coord(src);
        let b = self.placement.coord(dst);
        if a == b {
            return now + Cycle::new(self.hop_latency + (flits - 1)) + self.jitter();
        }
        if now > self.now {
            let unloaded = a.manhattan(b).max(1) * self.hop_latency + (flits - 1);
            return now + Cycle::new(unloaded) + self.jitter();
        }
        let cols = self.placement.cols();
        let mut head = now;
        for (from, to) in route_xy(a, b) {
            let dir = if to.col > from.col {
                2 // east
            } else if to.col < from.col {
                3 // west
            } else if to.row > from.row {
                1 // south
            } else {
                0 // north
            };
            let tile = from.row * cols + from.col;
            let link = (tile * 4 + dir) * MessageClass::VNETS + class.vnet();
            let start = head.max(self.link_busy[link]);
            self.wait_cycles[class.vnet()] += (start - head).as_u64();
            self.link_busy[link] = start + Cycle::new(flits);
            head = start + Cycle::new(self.hop_latency);
        }
        head + Cycle::new(flits - 1) + self.jitter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mesh;
    use pbm_types::{BankId, CoreId, McId};
    use proptest::prelude::*;

    #[test]
    fn empty_route_for_same_tile() {
        assert_eq!(route_xy(Coord::new(1, 1), Coord::new(1, 1)).count(), 0);
    }

    #[test]
    fn x_before_y() {
        let hops: Vec<_> = route_xy(Coord::new(3, 0), Coord::new(0, 2)).collect();
        // East twice, then north three times.
        assert_eq!(hops[0].1, Coord::new(3, 1));
        assert_eq!(hops[1].1, Coord::new(3, 2));
        assert_eq!(hops[2].1, Coord::new(2, 2));
        assert_eq!(hops.len(), 5);
    }

    #[test]
    fn route_is_connected() {
        let hops: Vec<_> = route_xy(Coord::new(0, 5), Coord::new(3, 1)).collect();
        for pair in hops.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "links must chain");
        }
        assert_eq!(hops.last().unwrap().1, Coord::new(3, 1));
    }

    /// A mesh shape: `cores` tiles on `rows` rows (the column count need
    /// not be a power of two, and the last row may have empty slots),
    /// `banks` and `mcs` powers of two, `mcs = 8` doubling up on corners.
    fn shapes() -> impl Strategy<Value = SystemConfig> {
        (1usize..=24, 1usize..=5, 0u32..=4, 0u32..=3).prop_map(|(cores, rows, bank_log, mc_log)| {
            let mut cfg = SystemConfig::small_test();
            cfg.cores = cores;
            cfg.llc_banks = 1 << bank_log;
            cfg.mcs = 1 << mc_log;
            cfg.mesh_rows = rows;
            cfg.validate().expect("every shape is a valid mesh")
        })
    }

    fn node(cfg: &SystemConfig, kind: u8, raw: usize) -> NodeId {
        match kind % 3 {
            0 => NodeId::Core(CoreId::from(raw % cfg.cores)),
            1 => NodeId::Bank(BankId::from(raw % cfg.llc_banks)),
            _ => NodeId::Mc(McId::from(raw % cfg.mcs)),
        }
    }

    const CLASSES: [MessageClass; 3] = [
        MessageClass::Control,
        MessageClass::Data,
        MessageClass::Writeback,
    ];

    proptest! {
        #[test]
        fn prop_route_is_minimal(
            sr in 0usize..8, sc in 0usize..8,
            dr in 0usize..8, dc in 0usize..8,
        ) {
            let s = Coord::new(sr, sc);
            let d = Coord::new(dr, dc);
            let len = route_xy(s, d).count() as u64;
            prop_assert_eq!(len, s.manhattan(d));
        }

        #[test]
        fn prop_route_ends_at_destination(
            sr in 0usize..8, sc in 0usize..8,
            dr in 0usize..8, dc in 0usize..8,
        ) {
            let s = Coord::new(sr, sc);
            let d = Coord::new(dr, dc);
            let end = route_xy(s, d).last().map(|(_, to)| to).unwrap_or(s);
            prop_assert_eq!(end, d);
        }

        #[test]
        fn prop_each_hop_is_unit_length(
            sr in 0usize..8, sc in 0usize..8,
            dr in 0usize..8, dc in 0usize..8,
        ) {
            for (from, to) in route_xy(Coord::new(sr, sc), Coord::new(dr, dc)) {
                prop_assert_eq!(from.manhattan(to), 1);
            }
        }

        /// `Mesh::send` against the route walk on one stream of sends:
        /// random endpoints (same-tile pairs included), classes, clock
        /// advances, and present-, past- and future-dated injection, with
        /// and without jitter.
        #[test]
        fn prop_send_matches_the_route_walk(
            cfg in shapes(),
            jitter in prop_oneof![Just(0u64), 1u64..8],
            seed in any::<u64>(),
            sends in proptest::collection::vec(
                ((0u8..3, 0usize..64), (0u8..3, 0usize..64), 0usize..3, 0u64..6, 0u8..6, 0u64..40),
                1..200,
            ),
        ) {
            let mut mesh = Mesh::new(&cfg);
            let mut walk = RouteWalkMesh::new(&cfg);
            mesh.set_jitter(jitter, seed);
            walk.set_jitter(jitter, seed);
            let mut now = 0u64;
            for ((sk, s), (dk, d), class, advance, when, offset) in sends {
                now += advance;
                let (src, dst) = (node(&cfg, sk, s), node(&cfg, dk, d));
                if when == 0 {
                    mesh.advance_to(Cycle::new(now));
                    walk.advance_to(Cycle::new(now));
                }
                let at = match when {
                    1 => now + offset, // future-dated unless the clock is ahead
                    2 => now.saturating_sub(offset), // past-dated
                    _ => now,
                };
                let class = CLASSES[class];
                let got = mesh.send(src, dst, class, Cycle::new(at));
                let want = walk.send(src, dst, class, Cycle::new(at));
                prop_assert_eq!(got, want, "{:?} -> {:?} {:?} at {}", src, dst, class, at);
            }
            prop_assert_eq!(mesh.wait_cycles(), walk.wait_cycles);
            prop_assert_eq!(mesh.message_count(), walk.messages);
            prop_assert_eq!(mesh.flit_count(), walk.flits);
        }
    }
}
