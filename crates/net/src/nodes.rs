//! Node-indexed containers.
//!
//! [`NodeId`]s are dense topology indices handed out in registration
//! order, so per-node state fits a `Vec` indexed by id: a probe is one
//! array access where a `BTreeMap<NodeId, _>` walks a tree, and iteration
//! still ascends by id, exactly like the ordered map it replaces. Its
//! storage grows on insert and never shrinks (ids are never reused);
//! `remove` only empties a slot.

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

    /// Remove the entry of `node`, returning it.
    pub fn remove(&mut self, node: NodeId) -> Option<T> {
        let old = self.slots.get_mut(node.0 as usize)?.take();
        if old.is_some() {
            self.len -= 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The map behaves as the ordered `BTreeMap` it replaces: same
        /// answers, same count, same ascending iteration.
        #[test]
        fn prop_matches_the_ordered_map(
            ops in proptest::collection::vec((0u8..4, 0u32..300), 1..200),
        ) {
            let mut map: NodeMap<u32> = NodeMap::new();
            let mut map_ref: BTreeMap<NodeId, u32> = BTreeMap::new();
            for (step, (op, id)) in ops.into_iter().enumerate() {
                let n = NodeId(id);
                match op {
                    0 => {
                        prop_assert_eq!(map.insert(n, step as u32), map_ref.insert(n, step as u32));
                    }
                    1 => {
                        if let Some(v) = map.get_mut(n) {
                            *v += 1;
                        }
                        if let Some(v) = map_ref.get_mut(&n) {
                            *v += 1;
                        }
                    }
                    2 => {
                        prop_assert_eq!(map.remove(n), map_ref.remove(&n));
                    }
                    _ => {
                        prop_assert_eq!(map.get(n), map_ref.get(&n));
                    }
                }
                prop_assert_eq!(map.len(), map_ref.len());
                prop_assert_eq!(map.is_empty(), map_ref.is_empty());
            }
            let pairs: Vec<(NodeId, u32)> = map.iter().map(|(n, &v)| (n, v)).collect();
            let want: Vec<(NodeId, u32)> = map_ref.into_iter().collect();
            prop_assert_eq!(pairs, want);
            prop_assert_eq!(map.values_mut().count(), map.len());
        }
    }
}
