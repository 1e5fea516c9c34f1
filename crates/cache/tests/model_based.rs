//! Model-based property test: `CacheArray` against a naive reference
//! model. The reference keeps plain per-set vectors in MRU order and
//! recomputes everything by scanning; the array must agree after every
//! operation, including its internal epoch index. `EpochIndex` is also
//! checked on its own against a `BTreeMap` of `BTreeSet`s.

use pbm_cache::{CacheArray, CacheLine, EpochIndex, LineState, VictimChoice};
use pbm_types::{CoreId, EpochId, EpochTag, LineAddr};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

const SETS: usize = 4;
const ASSOC: usize = 2;

#[derive(Debug, Clone)]
enum Op {
    Access(u64),
    InstallClean(u64),
    InstallDirty(u64, Option<(u32, u64)>),
    Write(u64, Option<(u32, u64)>),
    Remove(u64),
    Writeback(u64),
}

fn tag(t: (u32, u64)) -> EpochTag {
    EpochTag::new(CoreId::new(t.0), EpochId::new(t.1))
}

/// The reference model: per-set MRU-ordered vectors.
#[derive(Debug, Default)]
struct Model {
    sets: HashMap<usize, Vec<CacheLine>>,
}

impl Model {
    fn set_of(line: u64) -> usize {
        (line as usize) % SETS
    }

    fn peek(&self, line: u64) -> Option<&CacheLine> {
        self.sets
            .get(&Self::set_of(line))?
            .iter()
            .find(|l| l.addr == LineAddr::new(line))
    }

    fn touch(&mut self, line: u64) {
        let set = self.sets.entry(Self::set_of(line)).or_default();
        if let Some(pos) = set.iter().position(|l| l.addr == LineAddr::new(line)) {
            let l = set.remove(pos);
            set.insert(0, l);
        }
    }

    fn install(&mut self, l: CacheLine) -> bool {
        let set = self.sets.entry(Self::set_of(l.addr.as_u64())).or_default();
        if set.len() >= ASSOC || set.iter().any(|x| x.addr == l.addr) {
            return false;
        }
        set.insert(0, l);
        true
    }

    fn remove(&mut self, line: u64) -> Option<CacheLine> {
        let set = self.sets.get_mut(&Self::set_of(line))?;
        let pos = set.iter().position(|l| l.addr == LineAddr::new(line))?;
        Some(set.remove(pos))
    }

    fn lines_of_epoch(&self, t: EpochTag) -> Vec<LineAddr> {
        let mut v: Vec<LineAddr> = self
            .sets
            .values()
            .flatten()
            .filter(|l| l.tag == Some(t))
            .map(|l| l.addr)
            .collect();
        v.sort();
        v
    }

    fn len(&self) -> usize {
        self.sets.values().map(Vec::len).sum()
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let line = 0u64..16;
    let t = (0u32..2, 0u64..3);
    prop_oneof![
        line.clone().prop_map(Op::Access),
        line.clone().prop_map(Op::InstallClean),
        (line.clone(), proptest::option::of(t.clone())).prop_map(|(l, t)| Op::InstallDirty(l, t)),
        (line.clone(), proptest::option::of(t.clone())).prop_map(|(l, t)| Op::Write(l, t)),
        line.clone().prop_map(Op::Remove),
        line.prop_map(Op::Writeback),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn array_agrees_with_reference(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut array = CacheArray::new(SETS, ASSOC, 0);
        let mut model = Model::default();
        let mut value_counter = 1u64;

        for op in ops {
            match op {
                Op::Access(l) => {
                    let got = array.access(LineAddr::new(l)).copied();
                    let want = model.peek(l).copied();
                    prop_assert_eq!(got, want);
                    model.touch(l);
                }
                Op::InstallClean(l) => {
                    if matches!(array.victim_for(LineAddr::new(l)), VictimChoice::Room)
                        && !array.contains(LineAddr::new(l))
                    {
                        value_counter += 1;
                        let line = CacheLine::clean(LineAddr::new(l), value_counter);
                        array.install(line);
                        prop_assert!(model.install(line));
                    }
                }
                Op::InstallDirty(l, t) => {
                    if matches!(array.victim_for(LineAddr::new(l)), VictimChoice::Room)
                        && !array.contains(LineAddr::new(l))
                    {
                        value_counter += 1;
                        let line =
                            CacheLine::dirty(LineAddr::new(l), value_counter, t.map(tag));
                        array.install(line);
                        prop_assert!(model.install(line));
                    }
                }
                Op::Write(l, t) => {
                    value_counter += 1;
                    let hit = array.write(LineAddr::new(l), value_counter, t.map(tag));
                    prop_assert_eq!(hit, model.peek(l).is_some());
                    if hit {
                        model.touch(l);
                        let set = model.sets.get_mut(&Model::set_of(l)).unwrap();
                        let entry = set
                            .iter_mut()
                            .find(|x| x.addr == LineAddr::new(l))
                            .unwrap();
                        entry.state = LineState::Dirty;
                        entry.value = value_counter;
                        entry.tag = t.map(tag);
                    }
                }
                Op::Remove(l) => {
                    let got = array.remove(LineAddr::new(l));
                    let want = model.remove(l);
                    prop_assert_eq!(got, want);
                }
                Op::Writeback(l) => {
                    let got = array.mark_written_back(LineAddr::new(l));
                    let want = model.peek(l).filter(|x| x.is_dirty()).map(|x| x.value);
                    prop_assert_eq!(got, want);
                    if want.is_some() {
                        let set = model.sets.get_mut(&Model::set_of(l)).unwrap();
                        let entry = set
                            .iter_mut()
                            .find(|x| x.addr == LineAddr::new(l))
                            .unwrap();
                        entry.mark_written_back();
                    }
                }
            }
            // Global invariants after every step.
            prop_assert_eq!(array.len(), model.len());
            let mut lines = Vec::new();
            for c in 0..2u32 {
                for e in 0..3u64 {
                    let t = tag((c, e));
                    lines.clear();
                    array.lines_of_epoch_into(t, &mut lines);
                    prop_assert_eq!(
                        &lines,
                        &model.lines_of_epoch(t),
                        "epoch index diverged for {}",
                        t
                    );
                }
            }
            // Victim policy sanity: EpochBlocked only when every way in the
            // set is dirty-tagged.
            for probe in 0..16u64 {
                if let VictimChoice::EpochBlocked { .. } =
                    array.victim_for(LineAddr::new(probe))
                {
                    let set = model.sets.get(&Model::set_of(probe));
                    let all_tagged = set
                        .map(|s| s.len() == ASSOC && s.iter().all(|l| l.is_epoch_tagged()))
                        .unwrap_or(false);
                    prop_assert!(all_tagged, "EpochBlocked with evictable ways");
                }
            }
        }
    }

    /// Adds and removes over a few epochs and lines, so duplicate adds and
    /// removes of absent lines are common.
    #[test]
    fn epoch_index_agrees_with_btree_reference(
        ops in proptest::collection::vec((any::<bool>(), 0u32..2, 0u64..3, 0u64..24), 1..200)
    ) {
        let mut index = EpochIndex::new();
        let mut model: BTreeMap<EpochTag, BTreeSet<LineAddr>> = BTreeMap::new();
        let mut lines = Vec::new();
        for (add, c, e, l) in ops {
            let (t, line) = (tag((c, e)), LineAddr::new(l));
            if add {
                index.add(t, line);
                model.entry(t).or_default().insert(line);
            } else {
                index.remove(t, line);
                if let Some(set) = model.get_mut(&t) {
                    set.remove(&line);
                }
            }
            for c in 0..2u32 {
                for e in 0..3u64 {
                    let t = tag((c, e));
                    let want: Vec<LineAddr> =
                        model.get(&t).into_iter().flatten().copied().collect();
                    lines.clear();
                    index.lines_into(t, &mut lines);
                    prop_assert_eq!(&lines, &want, "lines of {}", t);
                    prop_assert_eq!(index.len(t), want.len());
                    prop_assert_eq!(index.is_empty(t), want.is_empty());
                }
            }
        }
    }
}
