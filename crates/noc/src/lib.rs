//! On-chip interconnection network model for the `pbm` simulator.
//!
//! Models the paper's Garnet-configured 2D mesh (Table 1: 4 rows, 16-byte
//! flits): XY dimension-order routing, per-hop router/link latency, flit
//! serialization, and a deterministic link-occupancy contention model.
//!
//! Tiles are laid out row-major; core `i` and LLC bank `i` share tile `i`
//! (the usual tiled-CMP organization), and the memory controllers sit at the
//! mesh corners as in Figure 2 of the paper.
//!
//! # Example
//!
//! ```
//! use pbm_noc::{Mesh, MessageClass};
//! use pbm_types::{CoreId, BankId, NodeId, SystemConfig, Cycle};
//!
//! let cfg = SystemConfig::micro48();
//! let mut mesh = Mesh::new(&cfg);
//! let arrival = mesh.send(
//!     NodeId::Core(CoreId::new(0)),
//!     NodeId::Bank(BankId::new(31)),
//!     MessageClass::Data,
//!     Cycle::ZERO,
//! );
//! assert!(arrival > Cycle::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod routing;
mod topology;

pub use pbm_types::MessageClass;
pub use routing::{route_xy, RouteIter};
pub use topology::{Coord, Placement};

use pbm_types::{Cycle, NodeId, SystemConfig};

/// The 2D-mesh network: topology, placement and link-contention state.
///
/// All latency computation goes through [`Mesh::send`], which both returns
/// the arrival time of a message injected at `now` and updates link
/// occupancy so later messages sharing links observe queueing delay.
/// [`Mesh::latency_unloaded`] answers "how long with no contention" without
/// mutating state.
#[derive(Debug, Clone)]
pub struct Mesh {
    placement: Placement,
    hop_latency: u64,
    flit_bytes: u64,
    /// busy-until time per directed link and virtual network, indexed by
    /// `(from_tile * 4 + direction) * VNETS + vnet`.
    link_busy: Vec<Cycle>,
    messages: u64,
    flits: u64,
    /// Total head-flit queueing per virtual network (diagnostics).
    wait_cycles: [u64; MessageClass::VNETS],
    /// The simulator's current event time; see [`Mesh::advance_to`].
    now: Cycle,
    /// Maximum extra per-message delivery delay (0 = exact model).
    jitter_max: u64,
    /// SplitMix64 state for the jitter stream.
    jitter_state: u64,
}

/// Direction of a mesh link leaving a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    North,
    South,
    East,
    West,
}

impl Dir {
    fn index(self) -> usize {
        match self {
            Dir::North => 0,
            Dir::South => 1,
            Dir::East => 2,
            Dir::West => 3,
        }
    }
}

impl Mesh {
    /// Builds the mesh for a validated system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        let placement = Placement::new(cfg);
        let tiles = placement.rows() * placement.cols();
        Mesh {
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

    /// Enables seeded delivery jitter: every message arrives up to `max`
    /// cycles later than the exact model predicts, drawn from a
    /// deterministic SplitMix64 stream.
    ///
    /// Extra delay is always protocol-legal on an asynchronous
    /// interconnect; the schedule perturbator in `pbm-check` uses this to
    /// explore message-arrival interleavings. With `max == 0` (the
    /// default) the mesh is cycle-exact and byte-identical to the
    /// unperturbed model.
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

    /// Informs the mesh of the simulator's current event time.
    ///
    /// Messages injected *at* the current time contend for links and
    /// reserve them; messages pre-computed for a **future** instant (the
    /// ack legs of an inline flush cascade) are charged their unloaded
    /// latency instead of reserving links — otherwise a future-dated
    /// reservation would block present-time traffic, which is causally
    /// backwards.
    pub fn advance_to(&mut self, now: Cycle) {
        self.now = self.now.max(now);
    }

    /// Cumulative head-flit queueing observed per virtual network
    /// (control, data, writeback) — a congestion diagnostic.
    pub fn wait_cycles(&self) -> [u64; MessageClass::VNETS] {
        self.wait_cycles
    }

    /// The node placement in use.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Messages injected so far.
    pub fn message_count(&self) -> u64 {
        self.messages
    }

    /// Flits injected so far.
    pub fn flit_count(&self) -> u64 {
        self.flits
    }

    /// Number of flits a message of `class` occupies.
    pub fn flits_for(&self, class: MessageClass) -> u64 {
        class.bytes().div_ceil(self.flit_bytes).max(1)
    }

    /// Contention-free traversal latency from `src` to `dst`.
    ///
    /// The head flit pays `hops * hop_latency` through the route pipeline
    /// and the tail arrives `flits - 1` cycles later. A message to the
    /// local tile still pays one router traversal.
    pub fn latency_unloaded(&self, src: NodeId, dst: NodeId, class: MessageClass) -> Cycle {
        let hops = self.hops(src, dst);
        let flits = self.flits_for(class);
        Cycle::new(hops.max(1) * self.hop_latency + (flits - 1))
    }

    /// Manhattan hop distance between two nodes (0 for colocated nodes).
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u64 {
        let a = self.placement.coord(src);
        let b = self.placement.coord(dst);
        a.manhattan(b)
    }

    /// Injects a message at time `now`, returning its arrival time at `dst`.
    ///
    /// Models wormhole routing with per-link occupancy: the head flit waits
    /// for each busy link along the XY route, each link is then held for the
    /// message's serialization time, and the tail flit arrives `flits - 1`
    /// cycles after the head. Calls should be made in nondecreasing `now`
    /// order (the discrete-event engine guarantees this); out-of-order calls
    /// are safe but conservatively over-estimate waiting.
    pub fn send(&mut self, src: NodeId, dst: NodeId, class: MessageClass, now: Cycle) -> Cycle {
        let flits = self.flits_for(class);
        self.messages += 1;
        self.flits += flits;
        let a = self.placement.coord(src);
        let b = self.placement.coord(dst);
        if a == b {
            // Same tile (e.g. core to its colocated bank): router-internal.
            return now + Cycle::new(self.hop_latency + (flits - 1)) + self.jitter();
        }
        if now > self.now {
            // Future-dated message (inline cascade): unloaded latency, no
            // link reservation — it must not block present-time traffic.
            return now + self.latency_unloaded(src, dst, class) + self.jitter();
        }
        let cols = self.placement.cols();
        let mut head = now;
        for (from, to) in route_xy(a, b) {
            let dir = Self::dir(from, to);
            let link = (from.index(cols) * 4 + dir.index()) * MessageClass::VNETS + class.vnet();
            // Head flit waits for the link, link is held for `flits` cycles.
            let start = head.max(self.link_busy[link]);
            self.wait_cycles[class.vnet()] += (start - head).as_u64();
            self.link_busy[link] = start + Cycle::new(flits);
            head = start + Cycle::new(self.hop_latency);
        }
        head + Cycle::new(flits - 1) + self.jitter()
    }

    fn dir(from: Coord, to: Coord) -> Dir {
        if to.col > from.col {
            Dir::East
        } else if to.col < from.col {
            Dir::West
        } else if to.row > from.row {
            Dir::South
        } else {
            Dir::North
        }
    }
}

/// One step of the SplitMix64 generator (Steele et al.), good enough for
/// latency jitter and stateless apart from the 8-byte counter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::{BankId, CoreId, McId};

    fn mesh() -> Mesh {
        Mesh::new(&SystemConfig::micro48())
    }

    #[test]
    fn colocated_core_and_bank_are_zero_hops() {
        let m = mesh();
        assert_eq!(
            m.hops(NodeId::Core(CoreId::new(5)), NodeId::Bank(BankId::new(5))),
            0
        );
    }

    #[test]
    fn corner_to_corner_distance() {
        let m = mesh();
        // 4x8 mesh: tile 0 at (0,0), tile 31 at (3,7): 3 + 7 = 10 hops.
        assert_eq!(
            m.hops(NodeId::Core(CoreId::new(0)), NodeId::Core(CoreId::new(31))),
            10
        );
    }

    #[test]
    fn mcs_sit_on_corners() {
        let m = mesh();
        for i in 0..4 {
            let c = m.placement().coord(NodeId::Mc(McId::new(i)));
            assert!(
                (c.row == 0 || c.row == 3) && (c.col == 0 || c.col == 7),
                "MC{i} at {c:?} is not a corner"
            );
        }
    }

    #[test]
    fn unloaded_latency_scales_with_hops() {
        let m = mesh();
        let near = m.latency_unloaded(
            NodeId::Core(CoreId::new(0)),
            NodeId::Bank(BankId::new(1)),
            MessageClass::Control,
        );
        let far = m.latency_unloaded(
            NodeId::Core(CoreId::new(0)),
            NodeId::Bank(BankId::new(31)),
            MessageClass::Control,
        );
        assert!(far > near);
    }

    #[test]
    fn data_messages_take_longer_than_control() {
        let m = mesh();
        let src = NodeId::Core(CoreId::new(0));
        let dst = NodeId::Bank(BankId::new(9));
        assert!(
            m.latency_unloaded(src, dst, MessageClass::Data)
                > m.latency_unloaded(src, dst, MessageClass::Control)
        );
    }

    #[test]
    fn send_matches_unloaded_when_idle() {
        let mut m = mesh();
        let src = NodeId::Core(CoreId::new(3));
        let dst = NodeId::Bank(BankId::new(12));
        let expect = m.latency_unloaded(src, dst, MessageClass::Data);
        let arrival = m.send(src, dst, MessageClass::Data, Cycle::new(100));
        assert_eq!(arrival, Cycle::new(100) + expect);
    }

    #[test]
    fn contention_delays_second_message() {
        let mut m = mesh();
        let src = NodeId::Core(CoreId::new(0));
        let dst = NodeId::Bank(BankId::new(7)); // straight east, shared links
        let first = m.send(src, dst, MessageClass::Data, Cycle::ZERO);
        let second = m.send(src, dst, MessageClass::Data, Cycle::ZERO);
        assert!(second > first, "second message must queue behind the first");
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut m = mesh();
        let a = m.send(
            NodeId::Core(CoreId::new(0)),
            NodeId::Bank(BankId::new(1)),
            MessageClass::Control,
            Cycle::ZERO,
        );
        // Different row, different links entirely.
        let b = m.send(
            NodeId::Core(CoreId::new(16)),
            NodeId::Bank(BankId::new(17)),
            MessageClass::Control,
            Cycle::ZERO,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn counters_track_traffic() {
        let mut m = mesh();
        assert_eq!(m.message_count(), 0);
        m.send(
            NodeId::Core(CoreId::new(0)),
            NodeId::Bank(BankId::new(2)),
            MessageClass::Data,
            Cycle::ZERO,
        );
        assert_eq!(m.message_count(), 1);
        assert_eq!(m.flit_count(), m.flits_for(MessageClass::Data));
        assert!(m.flit_count() >= 4, "64B+header data message in 16B flits");
    }

    #[test]
    fn virtual_networks_are_isolated() {
        // Saturate the writeback VN on a path; a control message on the
        // same physical path must still traverse unloaded.
        let mut m = mesh();
        let src = NodeId::Core(CoreId::new(0));
        let dst = NodeId::Bank(BankId::new(7));
        for _ in 0..50 {
            m.send(src, dst, MessageClass::Writeback, Cycle::ZERO);
        }
        let expect = m.latency_unloaded(src, dst, MessageClass::Control);
        let arrival = m.send(src, dst, MessageClass::Control, Cycle::ZERO);
        assert_eq!(arrival, Cycle::ZERO + expect);
        assert!(m.wait_cycles()[MessageClass::Writeback.vnet()] > 0);
        assert_eq!(m.wait_cycles()[MessageClass::Control.vnet()], 0);
    }

    #[test]
    fn future_dated_sends_do_not_block_present_traffic() {
        let mut m = mesh();
        m.advance_to(Cycle::new(100));
        let src = NodeId::Core(CoreId::new(0));
        let dst = NodeId::Bank(BankId::new(7));
        // A burst of future-dated acks (e.g. PersistAcks at +360)...
        for _ in 0..50 {
            m.send(dst, src, MessageClass::Control, Cycle::new(460));
        }
        // ...must not delay a request sent right now.
        let expect = m.latency_unloaded(src, dst, MessageClass::Control);
        let arrival = m.send(src, dst, MessageClass::Control, Cycle::new(100));
        assert_eq!(arrival, Cycle::new(100) + expect);
    }

    #[test]
    fn jitter_delays_but_never_hastens_and_is_seed_deterministic() {
        let src = NodeId::Core(CoreId::new(3));
        let dst = NodeId::Bank(BankId::new(12));
        let mut exact = mesh();
        let base = exact.send(src, dst, MessageClass::Data, Cycle::new(100));
        let run = |seed: u64| {
            let mut m = mesh();
            m.set_jitter(6, seed);
            (0..8)
                .map(|i| m.send(src, dst, MessageClass::Data, Cycle::new(100 + i * 1_000)))
                .collect::<Vec<_>>()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, run(8), "different seed explores a different schedule");
        assert!(
            a[0] >= base && a[0] <= base + Cycle::new(6),
            "bounded delay"
        );
    }

    #[test]
    fn local_message_still_pays_router() {
        let mut m = mesh();
        let t = m.send(
            NodeId::Core(CoreId::new(4)),
            NodeId::Bank(BankId::new(4)),
            MessageClass::Control,
            Cycle::new(10),
        );
        assert_eq!(t, Cycle::new(10 + 3)); // hop_latency = 3 in Table 1 model
    }
}
