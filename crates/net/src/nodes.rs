//! Node-indexed containers.
//!
//! [`NodeId`]s are dense topology indices handed out in registration
//! order, so per-node state fits a `Vec` indexed by id: a probe is one
//! array access where a `BTreeMap<NodeId, _>` walks a tree, and iteration
//! still ascends by id, exactly like the ordered map it replaces. Both
//! containers grow on insert and never shrink (ids are never reused).

use crate::topology::NodeId;

/// A map keyed by [`NodeId`], stored densely by id, with an O(1) count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for NodeMap<T> {
    fn default() -> Self {
        NodeMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> NodeMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `value` for `node`, returning the value it replaces.
    pub fn insert(&mut self, node: NodeId, value: T) -> Option<T> {
        let i = node.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The entry of `node`.
    #[inline]
    pub fn get(&self, node: NodeId) -> Option<&T> {
        self.slots.get(node.0 as usize)?.as_ref()
    }

    /// The entry of `node`, mutably.
    #[inline]
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut T> {
        self.slots.get_mut(node.0 as usize)?.as_mut()
    }

    /// Every entry, ascending by node id.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((NodeId(i as u32), v.as_ref()?)))
    }

    /// Every value, mutably, ascending by node id.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }
}

/// A set of [`NodeId`]s: one bit per id, with an O(1) count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set has no member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `node` is a member.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.0 as usize;
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Add `node`; `false` if it was already a member.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let i = node.0 as usize;
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        let (w, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let fresh = *w & bit == 0;
        *w |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Drop `node`; `false` if it was not a member.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let i = node.0 as usize;
        let Some(w) = self.words.get_mut(i / 64) else {
            return false;
        };
        let bit = 1u64 << (i % 64);
        let present = *w & bit != 0;
        *w &= !bit;
        self.len -= usize::from(present);
        present
    }

    /// Every member, ascending.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                Some(NodeId(wi as u32 * 64 + b))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Both containers behave as the ordered `BTreeMap` / `BTreeSet`
        /// they replace: same answers, same count, same ascending
        /// iteration.
        #[test]
        fn prop_match_the_ordered_collections(
            ops in proptest::collection::vec((0u8..3, 0u32..300), 1..200),
        ) {
            let mut map: NodeMap<u32> = NodeMap::new();
            let mut set = NodeSet::new();
            let mut map_ref: BTreeMap<NodeId, u32> = BTreeMap::new();
            let mut set_ref: BTreeSet<NodeId> = BTreeSet::new();
            for (step, (op, id)) in ops.into_iter().enumerate() {
                let n = NodeId(id);
                match op {
                    0 => {
                        prop_assert_eq!(map.insert(n, step as u32), map_ref.insert(n, step as u32));
                        prop_assert_eq!(set.insert(n), set_ref.insert(n));
                    }
                    1 => {
                        prop_assert_eq!(set.remove(n), set_ref.remove(&n));
                        if let Some(v) = map.get_mut(n) {
                            *v += 1;
                        }
                        if let Some(v) = map_ref.get_mut(&n) {
                            *v += 1;
                        }
                    }
                    _ => {
                        prop_assert_eq!(map.get(n), map_ref.get(&n));
                        prop_assert_eq!(set.contains(n), set_ref.contains(&n));
                    }
                }
                prop_assert_eq!(map.len(), map_ref.len());
                prop_assert_eq!(set.len(), set_ref.len());
            }
            let pairs: Vec<(NodeId, u32)> = map.iter().map(|(n, &v)| (n, v)).collect();
            let want: Vec<(NodeId, u32)> = map_ref.into_iter().collect();
            prop_assert_eq!(pairs, want);
            let members: Vec<NodeId> = set.iter().collect();
            prop_assert_eq!(members, set_ref.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(map.values_mut().count(), map.len());
        }
    }
}
