//! The epoch happens-before order (§4.1).
//!
//! "The union of the intra-thread program order and inter-thread shared
//! memory dependencies define this epoch happens-before order. The goal of
//! the epoch flush protocol is to ensure that the order in which epochs are
//! persisted is consistent with this happens-before order."
//!
//! [`HbGraph`] records exactly that union and answers the one question the
//! rest of the system asks of it: is the order still acyclic (deadlock
//! freedom)? [`HbGraph::find_cycle`] names a witness cycle when it is not.

use pbm_types::EpochTag;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A DAG (if the protocol is correct) over epoch tags.
#[derive(Debug, Clone, Default)]
pub struct HbGraph {
    /// edges[a] = epochs that must persist after `a` (a happens-before b).
    succ: BTreeMap<EpochTag, BTreeSet<EpochTag>>,
    /// Reverse edges: the in-degrees for [`HbGraph::is_acyclic`]'s Kahn pass.
    pred: BTreeMap<EpochTag, BTreeSet<EpochTag>>,
}

impl HbGraph {
    /// Creates an empty order.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `before` →(program order)→ `after` on one core.
    ///
    /// # Panics
    ///
    /// Panics if the tags belong to different cores or are not in
    /// increasing epoch order.
    pub fn add_program_order(&mut self, before: EpochTag, after: EpochTag) {
        assert!(
            before.precedes_same_core(after),
            "{before} does not precede {after} in program order"
        );
        self.add_edge(before, after);
    }

    /// Records an inter-thread dependence: `source` must persist before
    /// `dependent`.
    ///
    /// # Panics
    ///
    /// Panics if both tags are on the same core (that is program order).
    pub fn add_dependence(&mut self, source: EpochTag, dependent: EpochTag) {
        assert_ne!(
            source.core, dependent.core,
            "same-core edges must use add_program_order"
        );
        self.add_edge(source, dependent);
    }

    fn add_edge(&mut self, from: EpochTag, to: EpochTag) {
        self.succ.entry(from).or_default().insert(to);
        self.pred.entry(to).or_default().insert(from);
        self.succ.entry(to).or_default();
        self.pred.entry(from).or_default();
    }

    /// All epochs mentioned by any edge.
    pub fn nodes(&self) -> impl Iterator<Item = EpochTag> + '_ {
        self.succ.keys().copied()
    }

    /// Direct successors of `e` (epochs that must persist after it).
    pub fn successors(&self, e: EpochTag) -> Vec<EpochTag> {
        self.succ
            .get(&e)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.values().map(BTreeSet::len).sum()
    }

    /// True if the recorded order has no cycles (Kahn's algorithm).
    pub fn is_acyclic(&self) -> bool {
        let mut indegree: BTreeMap<EpochTag, usize> = self
            .succ
            .keys()
            .map(|k| (*k, self.pred.get(k).map_or(0, BTreeSet::len)))
            .collect();
        let mut queue: VecDeque<EpochTag> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(k, _)| *k)
            .collect();
        let mut visited = 0;
        while let Some(n) = queue.pop_front() {
            visited += 1;
            if let Some(next) = self.succ.get(&n) {
                for m in next {
                    let d = indegree.get_mut(m).expect("node known");
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(*m);
                    }
                }
            }
        }
        visited == self.succ.len()
    }

    /// Returns a witness cycle if the recorded order has one: a sequence of
    /// distinct epochs `v0, v1, …, vk` where each `vi → vi+1` is a recorded
    /// edge and `vk → v0` closes the cycle. Returns `None` iff
    /// [`Self::is_acyclic`] is true.
    ///
    /// The static analyzer reports this path as the human-readable evidence
    /// for a predicted epoch deadlock, and the fuzzing harness attaches it
    /// to `CyclicDependences` failures; a bare boolean would force the
    /// reader to rediscover the cycle by hand.
    pub fn find_cycle(&self) -> Option<Vec<EpochTag>> {
        // Iterative DFS with tri-color marking; the gray stack holds the
        // current path so a back edge yields its cycle directly.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let adj: BTreeMap<EpochTag, Vec<EpochTag>> = self
            .succ
            .iter()
            .map(|(k, v)| (*k, v.iter().copied().collect()))
            .collect();
        let mut color: BTreeMap<EpochTag, Color> = adj.keys().map(|k| (*k, Color::White)).collect();
        for &root in adj.keys() {
            if color[&root] != Color::White {
                continue;
            }
            // (node, position into its successor list)
            let mut path: Vec<EpochTag> = vec![root];
            let mut cursor: Vec<usize> = vec![0];
            color.insert(root, Color::Gray);
            while let (Some(&node), Some(&pos)) = (path.last(), cursor.last()) {
                let next = adj[&node].get(pos).copied();
                match next {
                    Some(succ) => {
                        *cursor.last_mut().expect("non-empty") += 1;
                        match color[&succ] {
                            Color::Gray => {
                                // Back edge: the cycle is the path suffix
                                // starting at `succ`.
                                let start = path
                                    .iter()
                                    .position(|&t| t == succ)
                                    .expect("gray node is on the path");
                                return Some(path[start..].to_vec());
                            }
                            Color::White => {
                                color.insert(succ, Color::Gray);
                                path.push(succ);
                                cursor.push(0);
                            }
                            Color::Black => {}
                        }
                    }
                    None => {
                        color.insert(node, Color::Black);
                        path.pop();
                        cursor.pop();
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::{CoreId, EpochId};
    use proptest::prelude::*;

    fn tag(c: u32, e: u64) -> EpochTag {
        EpochTag::new(CoreId::new(c), EpochId::new(e))
    }

    /// Reproduces Figure 5: two threads with a circular read pattern. With
    /// the §3.3 split rule the dependence graph stays acyclic.
    #[test]
    fn figure5_cycle_is_broken_by_splitting() {
        // T1's Ld A hits T0's ongoing epoch Ei: §3.3 says split Ei into
        // Ei1 (completed, the source) and Ei2 (ongoing remainder).
        let (ei1, ei2, ej) = (tag(0, 0), tag(0, 1), tag(1, 0));
        let mut hb = HbGraph::new();
        hb.add_program_order(ei1, ei2);
        hb.add_dependence(ei1, ej); // Ej depends on Ei1

        // T0's Ld X then hits T1's ongoing epoch Ej: the inverse
        // dependence now lands on T0's *remainder* epoch Ei2, not Ei1.
        hb.add_dependence(ej, ei2);

        assert!(hb.is_acyclic(), "splitting must break the Figure 5 cycle");

        // Without splitting, the same two dependences form a cycle.
        let ei = tag(0, 0);
        let mut naive = HbGraph::new();
        naive.add_dependence(ei, ej);
        naive.add_dependence(ej, ei);
        assert!(!naive.is_acyclic());
    }

    #[test]
    fn chain_is_acyclic() {
        let mut hb = HbGraph::new();
        hb.add_program_order(tag(0, 0), tag(0, 1));
        hb.add_program_order(tag(0, 1), tag(0, 2));
        hb.add_dependence(tag(0, 2), tag(1, 0));
        assert!(hb.is_acyclic());
        assert_eq!(hb.edge_count(), 3);
        assert_eq!(hb.successors(tag(0, 2)), vec![tag(1, 0)]);
    }

    #[test]
    fn cycle_detected() {
        let mut hb = HbGraph::new();
        hb.add_dependence(tag(0, 0), tag(1, 0));
        hb.add_dependence(tag(1, 0), tag(0, 0));
        assert!(!hb.is_acyclic());
    }

    #[test]
    fn self_loop_via_longer_cycle() {
        let mut hb = HbGraph::new();
        hb.add_dependence(tag(0, 0), tag(1, 0));
        hb.add_dependence(tag(1, 0), tag(2, 0));
        hb.add_dependence(tag(2, 0), tag(0, 0));
        assert!(!hb.is_acyclic());
    }

    #[test]
    fn empty_graph_is_trivially_closed_and_acyclic() {
        let hb = HbGraph::new();
        assert!(hb.is_acyclic());
        assert_eq!(hb.find_cycle(), None);
        assert_eq!(hb.edge_count(), 0);
        assert_eq!(hb.nodes().count(), 0);
    }

    #[test]
    fn duplicate_edges_insert_once() {
        let mut hb = HbGraph::new();
        hb.add_program_order(tag(0, 0), tag(0, 1));
        hb.add_program_order(tag(0, 0), tag(0, 1));
        hb.add_dependence(tag(1, 0), tag(0, 1));
        hb.add_dependence(tag(1, 0), tag(0, 1));
        assert_eq!(hb.edge_count(), 2, "sets deduplicate edges");
        assert_eq!(hb.successors(tag(1, 0)), vec![tag(0, 1)]);
        assert!(hb.is_acyclic());
    }

    #[test]
    fn cycle_witness_path_walks_recorded_edges() {
        let mut hb = HbGraph::new();
        // An acyclic prefix plus a 3-cycle reachable from it.
        hb.add_program_order(tag(0, 0), tag(0, 1));
        hb.add_dependence(tag(0, 1), tag(1, 0));
        hb.add_dependence(tag(1, 0), tag(2, 0));
        hb.add_dependence(tag(2, 0), tag(0, 1));
        assert!(!hb.is_acyclic());
        let cycle = hb.find_cycle().expect("cycle reported with a witness");
        assert!(cycle.len() >= 2, "a witness names at least two epochs");
        // Every consecutive hop (and the closing hop) is a recorded edge.
        for (i, &from) in cycle.iter().enumerate() {
            let to = cycle[(i + 1) % cycle.len()];
            assert!(
                hb.succ.get(&from).is_some_and(|s| s.contains(&to)),
                "witness hop {from} -> {to} is not a recorded edge"
            );
        }
        // The witness visits distinct epochs.
        let set: BTreeSet<EpochTag> = cycle.iter().copied().collect();
        assert_eq!(set.len(), cycle.len(), "witness nodes are distinct");
        // Acyclic graphs report no witness.
        let mut dag = HbGraph::new();
        dag.add_program_order(tag(0, 0), tag(0, 1));
        dag.add_dependence(tag(0, 1), tag(1, 0));
        assert_eq!(dag.find_cycle(), None);
    }

    #[test]
    fn two_cycle_witness() {
        let mut hb = HbGraph::new();
        hb.add_dependence(tag(0, 0), tag(1, 0));
        hb.add_dependence(tag(1, 0), tag(0, 0));
        let cycle = hb.find_cycle().expect("2-cycle found");
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn wrong_order_program_edge_panics() {
        let mut hb = HbGraph::new();
        hb.add_program_order(tag(0, 2), tag(0, 1));
    }

    #[test]
    #[should_panic(expected = "same-core")]
    fn same_core_dependence_panics() {
        let mut hb = HbGraph::new();
        hb.add_dependence(tag(0, 0), tag(0, 1));
    }

    proptest! {
        /// Random forward-only edges (by (core,epoch) lexicographic order)
        /// can never form a cycle.
        #[test]
        fn prop_forward_edges_acyclic(edges in proptest::collection::vec(
            (0u32..4, 0u64..4, 0u32..4, 0u64..4), 1..30)
        ) {
            let mut hb = HbGraph::new();
            for (c1, e1, c2, e2) in edges {
                let a = tag(c1, e1);
                let b = tag(c2, e2);
                if (c1, e1) < (c2, e2) {
                    if c1 == c2 {
                        hb.add_program_order(a, b);
                    } else {
                        hb.add_dependence(a, b);
                    }
                }
            }
            prop_assert!(hb.is_acyclic());
            prop_assert_eq!(hb.find_cycle(), None);
        }

        /// `find_cycle` agrees with `is_acyclic` on arbitrary dependence
        /// graphs (cross-core edges in both directions are legal inputs).
        #[test]
        fn prop_find_cycle_agrees_with_is_acyclic(edges in proptest::collection::vec(
            (0u32..3, 0u64..3, 0u32..3, 0u64..3), 1..25)
        ) {
            let mut hb = HbGraph::new();
            for (c1, e1, c2, e2) in edges {
                if c1 != c2 {
                    hb.add_dependence(tag(c1, e1), tag(c2, e2));
                }
            }
            prop_assert_eq!(hb.is_acyclic(), hb.find_cycle().is_none());
        }
    }
}
