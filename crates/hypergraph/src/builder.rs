//! Incremental construction of [`Hypergraph`] instances.

use crate::error::BuildError;
use crate::graph::{CsrScratch, Hypergraph};
use crate::ids::{NetId, PartId, VertexId};
use crate::stamp::VertexStamps;

/// Builder for [`Hypergraph`].
///
/// Vertices are added first (each returning its [`VertexId`]), then nets
/// referencing those vertices. Duplicate pins within one net are silently
/// collapsed (ISPD98-style netlists routinely contain them); nets reduced to
/// a single pin are kept, since a single-pin net is legal (it simply can
/// never be cut).
///
/// # Example
///
/// ```
/// use hypart_hypergraph::{HypergraphBuilder, PartId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_capacity(4, 2);
/// let pads: Vec<_> = (0..4).map(|i| b.add_vertex(i + 1)).collect();
/// b.add_net([pads[0], pads[1], pads[2]], 1)?;
/// b.add_net([pads[2], pads[3]], 2)?;
/// b.fix_vertex(pads[0], PartId::P0);
/// let h = b.name("pads").build()?;
/// assert_eq!(h.num_fixed(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct HypergraphBuilder {
    name: String,
    vertex_weights: Vec<u64>,
    net_weights: Vec<u32>,
    net_pin_offsets: Vec<u32>,
    net_pin_list: Vec<VertexId>,
    fixed: Vec<(u32, PartId)>,
    /// Pins already taken by the net being added.
    seen: VertexStamps,
}

impl Default for HypergraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl HypergraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            name: String::new(),
            vertex_weights: Vec::new(),
            net_weights: Vec::new(),
            // CSR invariant: offsets always lead with the 0 sentinel.
            net_pin_offsets: vec![0],
            net_pin_list: Vec::new(),
            fixed: Vec::new(),
            seen: VertexStamps::new(),
        }
    }

    /// Creates a builder with capacity reserved for `vertices` vertices and
    /// `nets` nets (an average net size of 4 pins is assumed for pin storage).
    pub fn with_capacity(vertices: usize, nets: usize) -> Self {
        let mut b = Self::new();
        b.vertex_weights.reserve(vertices);
        b.net_weights.reserve(nets);
        b.net_pin_offsets.reserve(nets + 1);
        b.net_pin_list.reserve(nets.saturating_mul(4));
        b
    }

    /// Sets the instance name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the instance name in place (for builders held by reference,
    /// e.g. one recycled across coarsening levels).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Reserves capacity for `vertices` additional vertices and `nets`
    /// additional nets carrying `pins` pins in total. Callers that know
    /// the exact coarse sizes (the multilevel coarsener does) avoid every
    /// growth reallocation of the CSR arrays.
    pub fn reserve(&mut self, vertices: usize, nets: usize, pins: usize) {
        self.vertex_weights.reserve(vertices);
        self.net_weights.reserve(nets);
        self.net_pin_offsets.reserve(nets);
        self.net_pin_list.reserve(pins);
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.vertex_weights.len()
    }

    /// Number of nets added so far.
    pub fn num_nets(&self) -> usize {
        self.net_weights.len()
    }

    /// Adds a vertex with the given weight (cell area) and returns its id.
    /// Weight 0 is permitted (e.g. pad cells) but note that zero-weight
    /// vertices are free to move under any balance constraint.
    pub fn add_vertex(&mut self, weight: u64) -> VertexId {
        let id = VertexId::from_index(self.vertex_weights.len());
        self.vertex_weights.push(weight);
        id
    }

    /// Adds `n` vertices of identical weight, returning the id of the first;
    /// ids are consecutive.
    pub fn add_vertices(&mut self, n: usize, weight: u64) -> VertexId {
        let first = VertexId::from_index(self.vertex_weights.len());
        self.vertex_weights.extend(std::iter::repeat_n(weight, n));
        first
    }

    /// Overwrites the weight of an added vertex (the `.hgr` reader learns
    /// vertex weights only after the nets that reference the vertices).
    pub(crate) fn set_vertex_weight(&mut self, v: VertexId, weight: u64) {
        self.vertex_weights[v.index()] = weight;
    }

    /// Adds a net over the given pins with the given weight and returns its
    /// id. Duplicate pins are collapsed; pin order is otherwise preserved.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::EmptyNet`] if `pins` is empty and
    /// [`BuildError::UnknownVertex`] if any pin is out of range.
    pub fn add_net<I>(&mut self, pins: I, weight: u32) -> Result<NetId, BuildError>
    where
        I: IntoIterator<Item = VertexId>,
    {
        let net_index = self.net_weights.len();
        let num_vertices = self.vertex_weights.len();
        let start = self.net_pin_list.len();
        self.seen.clear(num_vertices);
        for v in pins {
            if v.index() >= num_vertices {
                self.net_pin_list.truncate(start);
                return Err(BuildError::UnknownVertex {
                    net: net_index,
                    vertex: v.raw(),
                    num_vertices,
                });
            }
            if self.seen.insert(v) {
                self.net_pin_list.push(v);
            }
        }
        let new_len = self.net_pin_list.len();
        if new_len == start {
            return Err(BuildError::EmptyNet { net: net_index });
        }
        if u32::try_from(new_len).is_err() {
            self.net_pin_list.truncate(start);
            return Err(BuildError::TooManyPins);
        }
        self.net_pin_offsets.push(new_len as u32);
        self.net_weights.push(weight);
        Ok(NetId::from_index(net_index))
    }

    /// Adds a net whose pins are already strictly sorted (therefore
    /// duplicate-free), skipping [`add_net`](Self::add_net)'s per-pin
    /// duplicate scan. The hot path of the multilevel coarsener emits
    /// exactly such slices.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::EmptyNet`] if `pins` is empty,
    /// [`BuildError::UnknownVertex`] if any pin is out of range, and
    /// [`BuildError::TooManyPins`] if the total pin count would overflow
    /// the `u32` CSR offsets.
    pub fn add_net_sorted_unique(
        &mut self,
        pins: &[VertexId],
        weight: u32,
    ) -> Result<NetId, BuildError> {
        let net_index = self.net_weights.len();
        debug_assert!(
            pins.windows(2).all(|w| w[0] < w[1]),
            "add_net_sorted_unique requires strictly sorted pins"
        );
        if pins.is_empty() {
            return Err(BuildError::EmptyNet { net: net_index });
        }
        // Strictly sorted pins: the last one is the largest.
        if let Some(&last) = pins.last() {
            if last.index() >= self.vertex_weights.len() {
                return Err(BuildError::UnknownVertex {
                    net: net_index,
                    vertex: last.raw(),
                    num_vertices: self.vertex_weights.len(),
                });
            }
        }
        let new_len = self
            .net_pin_list
            .len()
            .checked_add(pins.len())
            .filter(|&l| u32::try_from(l).is_ok())
            .ok_or(BuildError::TooManyPins)?;
        self.net_pin_list.extend_from_slice(pins);
        self.net_pin_offsets.push(new_len as u32);
        self.net_weights.push(weight);
        Ok(NetId::from_index(net_index))
    }

    /// Marks vertex `v` as fixed in partition `part`. The check that `v`
    /// exists is deferred to [`build`](Self::build) so pads can be fixed
    /// before or after net insertion in any order.
    pub fn fix_vertex(&mut self, v: VertexId, part: PartId) {
        self.fixed.push((v.raw(), part));
    }

    /// Finalizes the builder into an immutable [`Hypergraph`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::FixUnknownVertex`] if a fixed-vertex assignment
    /// references a vertex that was never added.
    pub fn build(self) -> Result<Hypergraph, BuildError> {
        let mut builder = self;
        builder.build_in(&mut CsrScratch::default())
    }

    /// [`build`](Self::build) with the inverse-CSR counting pass run in
    /// recycled `scratch`, leaving the builder empty and reusable. The
    /// CSR arrays themselves move into the returned [`Hypergraph`] (it
    /// owns them for its lifetime); only the `O(|V|)` counting/cursor
    /// scratch is recyclable, and `scratch` keeps it across builds.
    ///
    /// # Errors
    ///
    /// Same contract as [`build`](Self::build).
    pub fn build_in(&mut self, scratch: &mut CsrScratch) -> Result<Hypergraph, BuildError> {
        let num_vertices = self.vertex_weights.len();
        let mut fixed = vec![None; num_vertices];
        for &(raw, part) in &self.fixed {
            if raw as usize >= num_vertices {
                return Err(BuildError::FixUnknownVertex {
                    vertex: raw,
                    num_vertices,
                });
            }
            fixed[raw as usize] = Some(part);
        }
        self.fixed.clear();
        let name = std::mem::take(&mut self.name);
        let net_pin_offsets = std::mem::replace(&mut self.net_pin_offsets, vec![0]);
        let net_pin_list = std::mem::take(&mut self.net_pin_list);
        let vertex_weights = std::mem::take(&mut self.vertex_weights);
        let net_weights = std::mem::take(&mut self.net_weights);
        Ok(Hypergraph::from_parts_in(
            name,
            net_pin_offsets,
            net_pin_list,
            vertex_weights,
            net_weights,
            fixed,
            scratch,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_pins_are_collapsed() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        let v1 = b.add_vertex(1);
        let e = b.add_net([v0, v1, v0, v1, v0], 1).unwrap();
        let h = b.build().unwrap();
        assert_eq!(h.net_size(e), 2);
        h.validate().unwrap();
    }

    #[test]
    fn single_pin_net_is_allowed() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        let e = b.add_net([v0], 1).unwrap();
        let h = b.build().unwrap();
        assert_eq!(h.net_size(e), 1);
    }

    #[test]
    fn empty_net_is_rejected() {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(1);
        let err = b.add_net(std::iter::empty(), 1).unwrap_err();
        assert_eq!(err, BuildError::EmptyNet { net: 0 });
    }

    #[test]
    fn unknown_pin_is_rejected() {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(1);
        let err = b.add_net([VertexId::new(5)], 1).unwrap_err();
        assert!(matches!(err, BuildError::UnknownVertex { vertex: 5, .. }));
    }

    #[test]
    fn fix_unknown_vertex_is_rejected_at_build() {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(1);
        b.fix_vertex(VertexId::new(9), PartId::P0);
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            BuildError::FixUnknownVertex { vertex: 9, .. }
        ));
    }

    #[test]
    fn add_vertices_bulk() {
        let mut b = HypergraphBuilder::new();
        let first = b.add_vertices(5, 7);
        assert_eq!(first.index(), 0);
        assert_eq!(b.num_vertices(), 5);
        let h = b.build().unwrap();
        assert_eq!(h.total_vertex_weight(), 35);
    }

    #[test]
    fn sorted_unique_fast_path_matches_add_net() {
        let mut a = HypergraphBuilder::new();
        let mut b = HypergraphBuilder::new();
        for builder in [&mut a, &mut b] {
            builder.add_vertices(5, 2);
        }
        let pins = [VertexId::new(0), VertexId::new(2), VertexId::new(4)];
        a.add_net(pins, 3).unwrap();
        b.add_net_sorted_unique(&pins, 3).unwrap();
        let (ha, hb) = (a.build().unwrap(), b.build().unwrap());
        assert_eq!(ha.net_pins(NetId::new(0)), hb.net_pins(NetId::new(0)));
        assert_eq!(ha.net_weight(NetId::new(0)), hb.net_weight(NetId::new(0)));
        hb.validate().unwrap();
    }

    #[test]
    fn sorted_unique_rejects_empty_and_out_of_range() {
        let mut b = HypergraphBuilder::new();
        b.add_vertex(1);
        assert_eq!(
            b.add_net_sorted_unique(&[], 1).unwrap_err(),
            BuildError::EmptyNet { net: 0 }
        );
        let err = b
            .add_net_sorted_unique(&[VertexId::new(0), VertexId::new(7)], 1)
            .unwrap_err();
        assert!(matches!(err, BuildError::UnknownVertex { vertex: 7, .. }));
    }

    #[test]
    fn build_in_recycles_and_resets() {
        let mut scratch = CsrScratch::new();
        let mut b = HypergraphBuilder::new();
        // Two successive builds through the same builder + scratch.
        for round in 0..2u64 {
            let v0 = b.add_vertex(round + 1);
            let v1 = b.add_vertex(round + 2);
            b.add_net([v0, v1], 1).unwrap();
            b.fix_vertex(v0, PartId::P1);
            b.set_name(format!("round{round}"));
            let h = b.build_in(&mut scratch).unwrap();
            assert_eq!(h.name(), format!("round{round}"));
            assert_eq!(h.num_vertices(), 2);
            assert_eq!(h.num_nets(), 1);
            assert_eq!(h.total_vertex_weight(), 2 * round + 3);
            assert_eq!(h.fixed_part(VertexId::new(0)), Some(PartId::P1));
            h.validate().unwrap();
            // The builder is empty and reusable after build_in.
            assert_eq!(b.num_vertices(), 0);
            assert_eq!(b.num_nets(), 0);
        }
    }

    #[test]
    fn later_fix_overrides_earlier() {
        let mut b = HypergraphBuilder::new();
        let v = b.add_vertex(1);
        b.fix_vertex(v, PartId::P0);
        b.fix_vertex(v, PartId::P1);
        let h = b.build().unwrap();
        assert_eq!(h.fixed_part(v), Some(PartId::P1));
        assert_eq!(h.num_fixed(), 1);
    }
}
