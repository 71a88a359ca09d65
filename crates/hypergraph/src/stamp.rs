//! Epoch-stamped vertex sets: linear-time pin deduplication.

use crate::ids::VertexId;

/// A set of vertex ids that empties in O(1).
///
/// Each vertex slot holds the epoch of its last insertion; [`clear`]
/// starts a new epoch instead of touching the slots, so a net of `s` pins
/// is deduplicated in `O(s)` rather than the `O(s²)` of a
/// `Vec::contains` scan. The stamps are cleared only when the epoch
/// counter wraps (once every 2³² sets).
///
/// [`clear`]: VertexStamps::clear
///
/// # Example
///
/// ```
/// use hypart_hypergraph::{VertexId, VertexStamps};
///
/// let mut seen = VertexStamps::new();
/// seen.clear(4);
/// assert!(seen.insert(VertexId::new(2)));
/// assert!(!seen.insert(VertexId::new(2)));
/// seen.clear(4);
/// assert!(seen.insert(VertexId::new(2)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct VertexStamps {
    stamp: Vec<u32>,
    epoch: u32,
}

impl VertexStamps {
    /// Creates an empty set; call [`clear`](Self::clear) before the first
    /// insertion to size it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the set and makes room for vertex ids below `num_vertices`.
    pub fn clear(&mut self, num_vertices: usize) {
        if self.stamp.len() < num_vertices {
            self.stamp.resize(num_vertices, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Inserts `v` and returns whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not below the `num_vertices` of the last
    /// [`clear`](Self::clear) (or any earlier, larger one).
    pub fn insert(&mut self, v: VertexId) -> bool {
        let slot = &mut self.stamp[v.index()];
        let fresh = *slot != self.epoch;
        *slot = self.epoch;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_wrap_clears_stale_stamps() {
        let mut seen = VertexStamps::new();
        seen.clear(3);
        assert!(seen.insert(VertexId::new(1)));
        // Force the wrap: the next clear must reset every slot, or the
        // stamp written at epoch 1 would alias the restarted epoch 1.
        seen.epoch = u32::MAX;
        seen.clear(3);
        assert_eq!(seen.epoch, 1);
        assert!(seen.insert(VertexId::new(1)));
        assert!(!seen.insert(VertexId::new(1)));
    }

    #[test]
    fn clear_grows_but_never_shrinks() {
        let mut seen = VertexStamps::new();
        seen.clear(2);
        seen.clear(5);
        assert!(seen.insert(VertexId::new(4)));
        seen.clear(1);
        assert!(seen.insert(VertexId::new(4)));
    }
}
