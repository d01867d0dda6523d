//! A small generational arena for replica-tree nodes.
//!
//! Nodes are created and destroyed continuously (Algorithm 5 drops fully
//! replicated segments), so plain `Vec` indices would dangle. Slots are
//! reused, but every reuse bumps a generation counter; stale handles are
//! detected instead of silently reading the wrong node.

/// Handle to an arena slot. Stale handles (outliving a removal) are
/// detected on access.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId {
    idx: u32,
    gen: u32,
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}g{}", self.idx, self.gen)
    }
}

#[derive(Debug)]
struct Slot<T> {
    gen: u32,
    item: Option<T>,
}

/// Generational slot arena.
#[derive(Debug)]
pub(crate) struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of live nodes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the handle refers to a live node.
    #[cfg(test)]
    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.slots
            .get(id.idx as usize)
            .is_some_and(|s| s.gen == id.gen && s.item.is_some())
    }

    /// Inserts an item, returning its handle.
    pub(crate) fn insert(&mut self, item: T) -> NodeId {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.item.is_none());
            slot.item = Some(item);
            NodeId { idx, gen: slot.gen }
        } else {
            #[expect(
                clippy::expect_used,
                reason = "node count is bounded by segment count, far below u32::MAX"
            )]
            let idx = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
            self.slots.push(Slot {
                gen: 0,
                item: Some(item),
            });
            NodeId { idx, gen: 0 }
        }
    }

    /// Removes an item; returns `None` when the handle is stale.
    pub(crate) fn remove(&mut self, id: NodeId) -> Option<T> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        let item = slot.item.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.idx);
        self.len -= 1;
        Some(item)
    }

    /// Borrows a node.
    ///
    /// # Panics
    /// Panics on a stale or foreign handle — tree logic must never hold one.
    #[expect(
        clippy::expect_used,
        reason = "NodeId handles are never retained across removals"
    )]
    pub(crate) fn get(&self, id: NodeId) -> &T {
        self.try_get(id).expect("stale NodeId")
    }

    /// Mutably borrows a node.
    ///
    /// # Panics
    /// Panics on a stale or foreign handle.
    #[expect(
        clippy::expect_used,
        reason = "NodeId handles are never retained across removals"
    )]
    pub(crate) fn get_mut(&mut self, id: NodeId) -> &mut T {
        self.try_get_mut(id).expect("stale NodeId")
    }

    /// Borrows a node, `None` on stale handles.
    pub(crate) fn try_get(&self, id: NodeId) -> Option<&T> {
        let slot = self.slots.get(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.item.as_ref()
    }

    /// Mutably borrows a node, `None` on stale handles.
    pub(crate) fn try_get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.item.as_mut()
    }

    /// Iterates mutably over live `(handle, item)` pairs in slot order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut T)> {
        self.slots.iter_mut().enumerate().filter_map(|(i, s)| {
            let gen = s.gen;
            s.item
                .as_mut()
                .map(move |item| (NodeId { idx: i as u32, gen }, item))
        })
    }

    /// Iterates over live `(handle, item)` pairs in slot order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.item.as_ref().map(|item| {
                (
                    NodeId {
                        idx: i as u32,
                        gen: s.gen,
                    },
                    item,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = Arena::new();
        let x = a.insert("x");
        let y = a.insert("y");
        assert_eq!(a.len(), 2);
        assert_eq!(*a.get(x), "x");
        assert_eq!(*a.get(y), "y");
        assert_eq!(a.remove(x), Some("x"));
        assert_eq!(a.len(), 1);
        assert!(!a.contains(x));
        assert!(a.contains(y));
    }

    #[test]
    fn stale_handles_are_detected_after_reuse() {
        let mut a = Arena::new();
        let x = a.insert(1);
        a.remove(x);
        let z = a.insert(2); // reuses the slot
        assert_ne!(x, z);
        assert!(a.try_get(x).is_none());
        assert_eq!(a.remove(x), None);
        assert_eq!(*a.get(z), 2);
    }

    #[test]
    #[should_panic(expected = "stale NodeId")]
    fn get_panics_on_stale() {
        let mut a = Arena::new();
        let x = a.insert(1);
        a.remove(x);
        let _ = a.get(x);
    }

    #[test]
    fn iter_walks_live_nodes() {
        let mut a = Arena::new();
        let ids: Vec<_> = (0..5).map(|i| a.insert(i)).collect();
        a.remove(ids[2]);
        let live: Vec<i32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec![0, 1, 3, 4]);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn slot_reuse_keeps_len_consistent() {
        let mut a = Arena::new();
        for round in 0..10 {
            let ids: Vec<_> = (0..100).map(|i| a.insert(i + round)).collect();
            for id in ids {
                a.remove(id);
            }
        }
        assert_eq!(a.len(), 0);
        // All slots came from the free list after the first round.
        assert_eq!(a.slots.len(), 100);
    }
}
