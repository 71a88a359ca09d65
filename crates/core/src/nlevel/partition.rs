//! Incremental k-way partition state over a [`DynHypergraph`], plus the
//! localized FM refiner that runs after every uncontraction.
//!
//! [`NLevelPartition`] owns plain vectors (labels, per-net part counts,
//! part weights, weighted cut) and takes the hypergraph view as a method
//! argument, so the driver can interleave `partition.begin_uncontract`
//! (bookkeeping, *before* the undo) with `d.uncontract` (the structural
//! undo) without borrow conflicts. The vectors are grow-only:
//! [`NLevelPartition::reset`] rebuilds the state for a new run inside
//! the existing allocations, which is how the state recycles through
//! [`crate::NLevelWorkspace`].
//!
//! [`refine_localized`] is the n-level refinement step. After each
//! uncontraction, [`refine_released_pair`] seeds it with the *border*
//! members of the released pair — those on at least one cut net — and
//! skips it outright when neither is on one; the search then grows the
//! active set along boundary nets as moves land. Any balance-admissible
//! move is applied — adverse (negative gain) moves included, the classic
//! FM hill-climb — with every move logged and the exploration tail
//! rolled back to the best `(violation, cut)` prefix on exit. Vertices
//! move at most once per invocation and the search stalls out a bounded
//! number of moves after the last improvement, so termination is
//! structural.
//!
//! # The exact gain cache
//!
//! Refinement runs ~n times per n-level pass, and the dominant cost used
//! to be gain *recomputation*: every activation rescanned all nets of
//! every neighbor of every applied move. The refiner now keeps an exact
//! per-vertex gain row in its [`LocalSearchScratch`]: filled once per
//! vertex per invocation (one pass over the vertex's nets, via
//! [`NLevelPartition::gain_all`]) and delta-maintained in O(affected
//! pins) per applied move by
//! [`NLevelPartition::move_vertex_cached`] — and only pins of nets whose
//! pre-move part counts sit next to the uncut threshold are touched at
//! all; nets that stay deeply cut contribute zero delta and are skipped
//! without a pin scan. The invariant is strict equality: a cached row
//! always matches what [`NLevelPartition::gain`] would recompute, so
//! caching cannot change any decision (debug builds assert this at every
//! pop). Between invocations — across uncontractions in particular — the
//! whole cache retires in O(1) via an epoch bump, so no per-uncontract
//! invalidation is needed.

use super::dynhg::{ContractionMemento, DynHypergraph};
use super::workspace::LocalSearchScratch;
use crate::config::InsertionPolicy;
use crate::ctx::RunCtx;
use hypart_hypergraph::{NetId, VertexId};
use hypart_trace::RunEvent;
use rand::Rng;

/// Nets larger than this do not propagate activation during localized
/// refinement (the same "skip huge nets" cutoff the matcher uses).
const ACTIVATION_NET_SIZE_CAP: u32 = 300;

/// Incremental k-way partition state for the n-level backend.
///
/// Tracks, per net, how many of its *active* pins lie in each part
/// (`counts`, a flat `nets × k` table), plus part weights and the
/// weighted cut, all updated in O(affected pins) per move or
/// uncontraction. Labels live in the full slot range of the underlying
/// [`DynHypergraph`]; inactive slots keep the label of their survivor so
/// uncontraction is label inheritance plus a constant-size count patch.
///
/// The default value is an empty placeholder (`k == 0`) for workspace
/// storage; [`NLevelPartition::reset`] turns it into a live state.
#[derive(Clone, Debug, Default)]
pub struct NLevelPartition {
    part: Vec<u16>,
    counts: Vec<u32>,
    part_weight: Vec<u64>,
    cut: u64,
    k: usize,
}

impl NLevelPartition {
    /// Builds the state from per-slot labels (< `k`); only active slots
    /// of `d` are read, inactive slots are carried verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is shorter than `d.num_slots()` or `k == 0`.
    pub fn new(d: &DynHypergraph, k: usize, labels: Vec<u16>) -> NLevelPartition {
        let mut p = NLevelPartition {
            part: labels,
            ..NLevelPartition::default()
        };
        p.rebuild(d, k);
        p
    }

    /// Rebuilds the state in place from per-slot labels, keeping all
    /// allocations — the recycling twin of [`NLevelPartition::new`],
    /// with identical results.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is shorter than `d.num_slots()` or `k == 0`.
    pub fn reset(&mut self, d: &DynHypergraph, k: usize, labels: &[u16]) {
        self.part.clear();
        self.part.extend_from_slice(labels);
        self.rebuild(d, k);
    }

    /// Recomputes counts, part weights, and cut from `self.part`.
    fn rebuild(&mut self, d: &DynHypergraph, k: usize) {
        assert!(k > 0, "k must be positive");
        assert!(self.part.len() >= d.num_slots(), "label per slot required");
        self.k = k;
        let nets = d.num_nets();
        self.counts.clear();
        self.counts.resize(nets * k, 0);
        self.part_weight.clear();
        self.part_weight.resize(k, 0);
        for slot in 0..d.num_slots() {
            let v = VertexId::from_index(slot);
            if d.is_active(v) {
                self.part_weight[self.part[slot] as usize] += d.weight(v);
            }
        }
        self.cut = 0;
        for e in 0..nets {
            let net = NetId::from_index(e);
            let row = &mut self.counts[e * k..(e + 1) * k];
            for &p in d.net_pins(net) {
                row[self.part[p.index()] as usize] += 1;
            }
            let size = d.net_size(net);
            if size >= 2 && row.iter().all(|&c| c != size) {
                self.cut += u64::from(d.net_weight(net));
            }
        }
    }

    /// Number of parts.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.k
    }

    /// Part of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> usize {
        self.part[v.index()] as usize
    }

    /// Weight of part `p`.
    #[inline]
    pub fn part_weight(&self, p: usize) -> u64 {
        self.part_weight[p]
    }

    /// Current weighted cut (incrementally maintained).
    #[inline]
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// The per-slot label vector.
    #[inline]
    pub fn assignment(&self) -> &[u16] {
        &self.part
    }

    /// Consumes the state, returning the per-slot label vector.
    pub fn into_assignment(self) -> Vec<u16> {
        self.part
    }

    /// Sum over parts of the distance outside `[lower, upper]`.
    pub fn total_violation(&self, lower: u64, upper: u64) -> u64 {
        self.part_weight
            .iter()
            .map(|&w| w.saturating_sub(upper) + lower.saturating_sub(w))
            .sum()
    }

    /// Cut delta of moving `v` to part `to`, negated (positive = cut
    /// improves). `v` must be active in `d`.
    pub fn gain(&self, d: &DynHypergraph, v: VertexId, to: usize) -> i64 {
        let from = self.part_of(v);
        debug_assert_ne!(from, to);
        let mut gain = 0i64;
        for &e in d.incident_nets(v) {
            let size = d.net_size(e);
            if size < 2 {
                continue;
            }
            let row = e.index() * self.k;
            let w = i64::from(d.net_weight(e));
            debug_assert!(self.counts[row + from] >= 1);
            // v sits in `from`, so counts[from] ≥ 1 and no *other* part
            // can hold all pins: uncut before iff counts[from] == size,
            // uncut after iff counts[to] + 1 == size.
            let was_cut = self.counts[row + from] != size;
            let now_cut = self.counts[row + to] + 1 != size;
            gain += w * (i64::from(was_cut) - i64::from(now_cut));
        }
        gain
    }

    /// Fills `out` (length `k`) with the gain of moving `v` to every
    /// part, in one pass over `v`'s nets — the cache-row filler, exactly
    /// equivalent to `k − 1` calls of [`NLevelPartition::gain`]. The
    /// entry at `v`'s own part is set to zero (it is meaningless).
    pub(crate) fn gain_all(&self, d: &DynHypergraph, v: VertexId, out: &mut [i64]) {
        debug_assert_eq!(out.len(), self.k);
        let from = self.part_of(v);
        for g in out.iter_mut() {
            *g = 0;
        }
        for &e in d.incident_nets(v) {
            let size = d.net_size(e);
            if size < 2 {
                continue;
            }
            let row = e.index() * self.k;
            let w = i64::from(d.net_weight(e));
            debug_assert!(self.counts[row + from] >= 1);
            if self.counts[row + from] == size {
                // Uncut before the move: every departure cuts it.
                for g in out.iter_mut() {
                    *g -= w;
                }
            }
            for (t, g) in out.iter_mut().enumerate() {
                if self.counts[row + t] + 1 == size {
                    *g += w;
                }
            }
        }
        out[from] = 0;
    }

    /// Moves `v` to part `to`, updating counts, weights and cut. Returns
    /// the realized gain (cut before minus cut after).
    pub fn move_vertex(&mut self, d: &DynHypergraph, v: VertexId, to: usize) -> i64 {
        let from = self.part_of(v);
        debug_assert_ne!(from, to);
        let before = self.cut;
        for &e in d.incident_nets(v) {
            let size = d.net_size(e);
            let row = e.index() * self.k;
            debug_assert!(self.counts[row + from] >= 1);
            self.counts[row + from] -= 1;
            self.counts[row + to] += 1;
            if size < 2 {
                continue;
            }
            let w = u64::from(d.net_weight(e));
            let was_cut = self.counts[row + from] + 1 != size;
            let now_cut = self.counts[row + to] != size;
            if was_cut && !now_cut {
                self.cut -= w;
            } else if !was_cut && now_cut {
                self.cut += w;
            }
        }
        let weight = d.weight(v);
        self.part_weight[from] -= weight;
        self.part_weight[to] += weight;
        self.part[v.index()] = to as u16;
        before as i64 - self.cut as i64
    }

    /// [`NLevelPartition::move_vertex`] plus exact maintenance of every
    /// live gain row in `cache`: for each net of `v`, the four possible
    /// per-target deltas are derived from the pre-move part counts, and
    /// the net's pins are scanned **only when at least one delta is
    /// nonzero** — i.e. only when the net is uncut or one pin away from
    /// uncut on the affected sides. Deeply cut nets (the common case on
    /// large mixed nets) cost O(1).
    ///
    /// `v`'s own row is left stale; callers lock `v` immediately, so it
    /// is never read again this invocation.
    pub(crate) fn move_vertex_cached(
        &mut self,
        d: &DynHypergraph,
        v: VertexId,
        to: usize,
        cache: &mut LocalSearchScratch,
    ) -> i64 {
        let from = self.part_of(v);
        debug_assert_ne!(from, to);
        debug_assert_eq!(cache.k, self.k);
        let k = self.k;
        let before = self.cut;
        for &e in d.incident_nets(v) {
            let size = d.net_size(e);
            let row = e.index() * k;
            let c_from = self.counts[row + from];
            let c_to = self.counts[row + to];
            debug_assert!(c_from >= 1);
            self.counts[row + from] = c_from - 1;
            self.counts[row + to] = c_to + 1;
            if size < 2 {
                continue;
            }
            let w = i64::from(d.net_weight(e));
            let was_cut = c_from != size;
            let now_cut = c_to + 1 != size;
            if was_cut && !now_cut {
                self.cut -= w as u64;
            } else if !was_cut && now_cut {
                self.cut += w as u64;
            }
            // Gain-row deltas for a pin y in part p with target t,
            // derived from gain contribution w·([cₜ+1 = s] − [cₚ = s]):
            //   t = from: the count there dropped by one,
            //   t = to:   the count there rose by one,
            //   p = from / p = to: the "was uncut" term flips for every
            //   target alike.
            let tf = w * (i64::from(c_from == size) - i64::from(c_from + 1 == size));
            let tt = w * (i64::from(c_to + 2 == size) - i64::from(c_to + 1 == size));
            let cf = -w * (i64::from(c_from - 1 == size) - i64::from(c_from == size));
            let ct = -w * (i64::from(c_to + 1 == size) - i64::from(c_to == size));
            if tf == 0 && tt == 0 && cf == 0 && ct == 0 {
                continue;
            }
            for &y in d.net_pins(e) {
                if y == v || !cache.is_cached(y) {
                    continue;
                }
                let p = self.part[y.index()] as usize;
                let grow = y.index() * k;
                if tf != 0 && p != from {
                    cache.gains[grow + from] += tf;
                }
                if tt != 0 && p != to {
                    cache.gains[grow + to] += tt;
                }
                let common = if p == from {
                    cf
                } else if p == to {
                    ct
                } else {
                    0
                };
                if common != 0 {
                    for t in 0..k {
                        if t != p {
                            cache.gains[grow + t] += common;
                        }
                    }
                }
            }
        }
        let weight = d.weight(v);
        self.part_weight[from] -= weight;
        self.part_weight[to] += weight;
        self.part[v.index()] = to as u16;
        before as i64 - self.cut as i64
    }

    /// Partition-side bookkeeping for undoing `m`. **Call before**
    /// [`DynHypergraph::uncontract`]: the case-A detection reads the
    /// parked tail pin, which the structural undo consumes.
    ///
    /// `v` inherits `u`'s label, so the cut never changes: case-A nets
    /// regain a pin in a part they already touch (via `u`), case-B nets
    /// swap which vertex represents the cluster without changing counts.
    pub fn begin_uncontract(&mut self, d: &DynHypergraph, m: &ContractionMemento) {
        let p = self.part[m.u.index()] as usize;
        self.part[m.v.index()] = p as u16;
        for &e in d.incident_nets(m.v) {
            if d.tail_pin(e) == Some(m.v) {
                self.counts[e.index() * self.k + p] += 1;
            }
        }
        // Weights: `uncontract` restores d's vertex weights; the part
        // totals are unchanged because u's aggregate already counted v.
    }

    /// Whether `v` lies on a cut net: some incident net has a pin
    /// outside `v`'s part. O(deg(v)) over the count table. Nets of one
    /// pin are never cut, so they never make `v` border.
    pub fn is_border(&self, d: &DynHypergraph, v: VertexId) -> bool {
        let p = self.part_of(v);
        d.incident_nets(v)
            .iter()
            .any(|&e| self.counts[e.index() * self.k + p] != d.net_size(e))
    }

    /// Recomputes the weighted cut from scratch (audit paths only).
    pub fn recompute_cut(&self, d: &DynHypergraph) -> u64 {
        let mut cut = 0u64;
        for e in 0..d.num_nets() {
            let net = NetId::from_index(e);
            let size = d.net_size(net);
            if size < 2 {
                continue;
            }
            let row = &self.counts[e * self.k..(e + 1) * self.k];
            if row.iter().all(|&c| c != size) {
                cut += u64::from(d.net_weight(net));
            }
        }
        cut
    }
}

/// A localized search stalls out after this many consecutive applied
/// moves without a new best (violation, cut): adverse moves may explore
/// past a local minimum, but only this far.
const STALL_LIMIT: usize = 64;

/// Fills `v`'s gain row in `scratch` if it is stale this invocation.
fn ensure_cached(
    partition: &NLevelPartition,
    d: &DynHypergraph,
    scratch: &mut LocalSearchScratch,
    v: VertexId,
) {
    if !scratch.is_cached(v) {
        let row = v.index() * scratch.k;
        let k = scratch.k;
        partition.gain_all(d, v, &mut scratch.gains[row..row + k]);
        scratch.gain_stamp[v.index()] = scratch.epoch;
    }
}

/// Localized FM refinement around one uncontraction.
///
/// Seeds the gain containers with `seeds` (after an uncontraction, the
/// border members of the released pair — see [`refine_released_pair`];
/// in a flat sweep, every active vertex), then repeatedly applies the
/// best pending move that keeps the balance window `[lower, upper]`
/// satisfiable — **including adverse (negative-gain) moves**, the
/// classic FM hill-climb. Every applied move is logged; whenever the
/// lexicographic potential (total violation, cut) reaches a new strict
/// minimum the log position is recorded, and on exit everything after
/// the best prefix is rolled back. Neighbors of every moved vertex
/// (through nets of size ≤ 300) are activated, so improvement ripples
/// outward exactly as far as it keeps paying. Vertices move at most once per invocation, and the
/// search stops a fixed stall limit (64 moves) after the last
/// improvement, so termination is structural.
///
/// All gains come from the exact cache in `scratch` (see the module
/// docs): one row fill per touched vertex, O(affected pins) deltas per
/// applied move, identical values to recomputation — reusing a dirty
/// scratch never changes results, it only skips allocations.
///
/// Returns the number of *retained* moves (the best prefix); emits
/// [`RunEvent::Move`] per applied move on enabled sinks (like a flat FM
/// pass, rolled-back tail moves included).
#[allow(clippy::too_many_arguments)]
pub fn refine_localized<R: Rng>(
    partition: &mut NLevelPartition,
    d: &DynHypergraph,
    seeds: &[VertexId],
    lower: u64,
    upper: u64,
    insertion: InsertionPolicy,
    rng: &mut R,
    scratch: &mut LocalSearchScratch,
    ctx: &mut RunCtx<'_>,
) -> usize {
    let k = partition.num_parts();
    let sink = ctx.sink;
    let traced = sink.is_enabled();
    let containers = ctx
        .workspace
        .containers(k * k, d.num_slots(), d.gain_bound());
    scratch.begin(d.num_slots(), k);
    let mut best_len = 0usize;
    let mut cur_viol = partition.total_violation(lower, upper);
    let mut best_viol = cur_viol;
    let mut best_cut = partition.cut();

    for &s in seeds {
        if !d.is_active(s) || d.fixed_part(s).is_some() {
            continue;
        }
        let from = partition.part_of(s);
        if containers[from * k + ((from + 1) % k)].contains(s) {
            continue;
        }
        ensure_cached(partition, d, scratch, s);
        for to in 0..k {
            if to != from {
                let g = scratch.gain_of(s, to);
                containers[from * k + to].insert(s, g, insertion, rng);
            }
        }
    }

    loop {
        // Highest-keyed head across all (from, to) containers.
        let mut best: Option<(i64, usize, VertexId)> = None;
        for (idx, container) in containers.iter_mut().enumerate() {
            if idx / k == idx % k {
                continue;
            }
            let Some(key) = container.descend_max() else {
                continue;
            };
            if best.is_some_and(|(g, _, _)| key <= g) {
                continue;
            }
            if let Some(head) = container.head_of(key) {
                best = Some((key, idx, head));
            }
        }
        let Some((key, idx, v)) = best else { break };
        let (from, to) = (idx / k, idx % k);
        if partition.part_of(v) != from {
            // Stale residue from an earlier move; drop it.
            containers[idx].remove(v);
            continue;
        }
        let true_gain = scratch.gain_of(v, to);
        debug_assert_eq!(
            true_gain,
            partition.gain(d, v, to),
            "gain cache drifted from recomputation"
        );
        if true_gain != key {
            containers[idx].update(v, true_gain, insertion, rng);
            continue;
        }
        let w = d.weight(v);
        let from_after = partition.part_weight(from) - w;
        let to_after = partition.part_weight(to) + w;
        let inside = from_after >= lower && to_after <= upper;
        let viol_before = window_violation(partition.part_weight(from), lower, upper)
            + window_violation(partition.part_weight(to), lower, upper);
        let viol_after =
            window_violation(from_after, lower, upper) + window_violation(to_after, lower, upper);
        // Balance admissibility only — adverse gains are welcome, the
        // best-prefix rollback keeps them honest.
        let admissible = (inside && viol_after <= viol_before) || viol_after < viol_before;
        if !admissible {
            for t in 0..k {
                if t != from {
                    containers[from * k + t].remove(v);
                }
            }
            continue;
        }

        for t in 0..k {
            if t != from {
                containers[from * k + t].remove(v);
            }
        }
        let realized = partition.move_vertex_cached(d, v, to, scratch);
        debug_assert_eq!(realized, true_gain);
        scratch.lock(v);
        scratch.log.push((v, from));
        if traced {
            sink.emit(RunEvent::Move {
                vertex: v.raw() as u64,
                gain: realized,
                cut: partition.cut(),
            });
        }
        cur_viol = cur_viol + viol_after - viol_before;
        if (cur_viol, partition.cut()) < (best_viol, best_cut) {
            best_viol = cur_viol;
            best_cut = partition.cut();
            best_len = scratch.log.len();
        } else if scratch.log.len() - best_len > STALL_LIMIT {
            break;
        }

        // Refresh / activate the boundary around the move. Cached rows
        // are already move-exact; only first-touch vertices pay a fill.
        for &e in d.incident_nets(v) {
            if d.net_size(e) > ACTIVATION_NET_SIZE_CAP {
                continue;
            }
            for &y in d.net_pins(e) {
                if y == v || scratch.is_locked(y) || d.fixed_part(y).is_some() {
                    continue;
                }
                let s = partition.part_of(y);
                let present = containers[s * k + ((s + 1) % k)].contains(y);
                ensure_cached(partition, d, scratch, y);
                for t in 0..k {
                    if t == s {
                        continue;
                    }
                    let g = scratch.gain_of(y, t);
                    if present {
                        containers[s * k + t].update(y, g, insertion, rng);
                    } else {
                        containers[s * k + t].insert(y, g, insertion, rng);
                    }
                }
            }
        }
    }

    // Roll the exploration tail back to the best prefix. The replayed
    // inverse moves restore counts, weights, and cut exactly (plain
    // moves: the cache is dead after the loop, the next invocation's
    // epoch bump retires it wholesale).
    while scratch.log.len() > best_len {
        let Some((v, origin)) = scratch.log.pop() else {
            break;
        };
        partition.move_vertex(d, v, origin);
    }
    debug_assert_eq!(partition.cut(), best_cut);
    debug_assert_eq!(partition.total_violation(lower, upper), best_viol);
    best_len
}

/// Localized refinement after undoing `m`: [`refine_localized`] seeded
/// with the members of the released pair `{m.u, m.v}` that lie on a cut
/// net ([`NLevelPartition::is_border`]).
///
/// An interior vertex can only make a net cut by moving, so a search
/// seeded there explores adverse moves and almost always rolls all of
/// them back. When neither vertex is border this returns 0 at once: no
/// container retarget, no epoch bump, no RNG draw, no trace event. Both
/// n-level uncontraction loops (2-way and k-way) call this one gate.
#[allow(clippy::too_many_arguments)]
pub fn refine_released_pair<R: Rng>(
    partition: &mut NLevelPartition,
    d: &DynHypergraph,
    m: &ContractionMemento,
    lower: u64,
    upper: u64,
    insertion: InsertionPolicy,
    rng: &mut R,
    scratch: &mut LocalSearchScratch,
    ctx: &mut RunCtx<'_>,
) -> usize {
    let mut seeds = [m.u; 2];
    let mut len = 0;
    for v in [m.u, m.v] {
        if partition.is_border(d, v) {
            seeds[len] = v;
            len += 1;
        }
    }
    if len == 0 {
        return 0;
    }
    refine_localized(
        partition,
        d,
        &seeds[..len],
        lower,
        upper,
        insertion,
        rng,
        scratch,
        ctx,
    )
}

#[inline]
fn window_violation(w: u64, lower: u64, upper: u64) -> u64 {
    w.saturating_sub(upper) + lower.saturating_sub(w)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_hypergraph::{Hypergraph, HypergraphBuilder};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Two triangles joined by one bridge net (the dynhg toy).
    fn toy() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1], v[2]], 2).unwrap();
        b.add_net([v[3], v[4], v[5]], 2).unwrap();
        b.add_net([v[2], v[3]], 1).unwrap();
        b.add_net([v[0], v[1]], 3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn new_counts_weights_and_cut_agree_with_recompute() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        let p = NLevelPartition::new(&d, 2, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(p.cut(), 1);
        assert_eq!(p.part_weight(0), 3);
        assert_eq!(p.part_weight(1), 3);
        assert_eq!(p.recompute_cut(&d), p.cut());
    }

    #[test]
    fn reset_matches_new_after_dirtying() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        let mut p = NLevelPartition::new(&d, 2, vec![0, 1, 0, 1, 0, 1]);
        p.move_vertex(&d, VertexId::new(1), 0);
        // Reset onto fresh labels: indistinguishable from a fresh build.
        p.reset(&d, 2, &[0, 0, 0, 1, 1, 1]);
        let q = NLevelPartition::new(&d, 2, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(p.cut(), q.cut());
        assert_eq!(p.part_weight(0), q.part_weight(0));
        assert_eq!(p.assignment(), q.assignment());
        assert_eq!(p.recompute_cut(&d), p.cut());
    }

    #[test]
    fn move_vertex_updates_cut_incrementally() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        let mut p = NLevelPartition::new(&d, 2, vec![0, 0, 0, 1, 1, 1]);
        let v2 = VertexId::new(2);
        let g = p.gain(&d, v2, 1);
        let realized = p.move_vertex(&d, v2, 1);
        assert_eq!(g, realized);
        assert_eq!(p.recompute_cut(&d), p.cut());
        assert_eq!(p.part_weight(0), 2);
        assert_eq!(p.part_weight(1), 4);
    }

    #[test]
    fn gain_all_matches_per_target_gain() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        let p = NLevelPartition::new(&d, 3, vec![0, 1, 0, 2, 1, 2]);
        let mut row = [0i64; 3];
        for slot in 0..6 {
            let v = VertexId::new(slot);
            p.gain_all(&d, v, &mut row);
            for (t, &g) in row.iter().enumerate() {
                if t != p.part_of(v) {
                    assert_eq!(g, p.gain(&d, v, t), "v{slot} → {t}");
                }
            }
        }
    }

    #[test]
    fn cached_moves_keep_every_live_row_exact() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        let mut p = NLevelPartition::new(&d, 2, vec![0, 0, 1, 1, 0, 1]);
        let mut s = LocalSearchScratch::new();
        s.begin(d.num_slots(), 2);
        for slot in 0..6 {
            ensure_cached(&p, &d, &mut s, VertexId::new(slot));
        }
        // A few moves, each followed by a full cache/recompute audit of
        // every vertex except the ones already moved.
        let mut moved = Vec::new();
        for (slot, to) in [(2usize, 0usize), (4, 1), (0, 1)] {
            let v = VertexId::from_index(slot);
            let to = if p.part_of(v) == to { 1 - to } else { to };
            let expected = p.gain(&d, v, to);
            assert_eq!(s.gain_of(v, to), expected);
            let realized = p.move_vertex_cached(&d, v, to, &mut s);
            assert_eq!(realized, expected);
            moved.push(slot);
            assert_eq!(p.recompute_cut(&d), p.cut());
            for y in 0..6 {
                if moved.contains(&y) {
                    continue;
                }
                let yv = VertexId::from_index(y);
                let t = 1 - p.part_of(yv);
                assert_eq!(s.gain_of(yv, t), p.gain(&d, yv, t), "row {y} drifted");
            }
        }
    }

    #[test]
    fn uncontraction_preserves_cut_and_weights() {
        let h = toy();
        let mut d = DynHypergraph::new(&h);
        let (a, b) = (VertexId::new(0), VertexId::new(1));
        let m = d.contract(a, b);
        let mut labels = vec![0u16; 6];
        labels[3] = 1;
        labels[4] = 1;
        labels[5] = 1;
        let mut p = NLevelPartition::new(&d, 2, labels);
        let cut_before = p.cut();
        let weights_before = (p.part_weight(0), p.part_weight(1));
        p.begin_uncontract(&d, &m);
        d.uncontract(&m);
        assert_eq!(p.cut(), cut_before);
        assert_eq!(p.recompute_cut(&d), p.cut());
        assert_eq!((p.part_weight(0), p.part_weight(1)), weights_before);
        assert_eq!(p.part_of(b), p.part_of(a));
    }

    #[test]
    fn localized_refinement_moves_the_bridge_vertex() {
        // Put v2 on the wrong side: net 0 (w=2) cut, net 2 (w=1) uncut.
        // Moving v2 from part 1 to part 0 gains 2 - 1 = 1.
        let h = toy();
        let d = DynHypergraph::new(&h);
        let mut p = NLevelPartition::new(&d, 2, vec![0, 0, 1, 1, 1, 1]);
        assert_eq!(p.cut(), 2);
        let mut ctx = RunCtx::new(11);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut scratch = LocalSearchScratch::new();
        let moves = refine_localized(
            &mut p,
            &d,
            &[VertexId::new(2)],
            1,
            5,
            InsertionPolicy::Lifo,
            &mut rng,
            &mut scratch,
            &mut ctx,
        );
        assert!(moves >= 1);
        assert_eq!(p.part_of(VertexId::new(2)), 0);
        assert_eq!(p.cut(), 1);
        assert_eq!(p.recompute_cut(&d), p.cut());
    }

    #[test]
    fn border_is_membership_of_a_cut_net() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        // Only the bridge net {v2, v3} is cut.
        let p = NLevelPartition::new(&d, 2, vec![0, 0, 0, 1, 1, 1]);
        let border: Vec<usize> = (0..6)
            .filter(|&s| p.is_border(&d, VertexId::from_index(s)))
            .collect();
        assert_eq!(border, vec![2, 3]);
    }

    #[test]
    fn interior_released_pair_is_skipped_without_side_effects() {
        // Contract (v4, v5) inside the uncut triangle {v3, v4, v5}; after
        // the undo neither released vertex touches a cut net.
        let h = toy();
        let mut d = DynHypergraph::new(&h);
        let m = d.contract(VertexId::new(4), VertexId::new(5));
        let mut p = NLevelPartition::new(&d, 2, vec![0, 0, 0, 1, 1, 1]);
        p.begin_uncontract(&d, &m);
        d.uncontract(&m);
        assert!(!p.is_border(&d, m.u) && !p.is_border(&d, m.v));

        let mut ctx = RunCtx::new(5);
        // A sentinel in the pooled gain containers: any retarget would
        // clear it.
        let sentinel = VertexId::new(0);
        let mut rng = SmallRng::seed_from_u64(4);
        ctx.workspace.containers(4, d.num_slots(), d.gain_bound())[1].insert(
            sentinel,
            1,
            InsertionPolicy::Lifo,
            &mut rng,
        );
        let mut scratch = LocalSearchScratch::new();
        scratch.begin(d.num_slots(), 2);
        let epoch = scratch.epoch;
        let (rng_before, p_before) = (rng.clone(), p.clone());

        let moves = refine_released_pair(
            &mut p,
            &d,
            &m,
            2,
            4,
            InsertionPolicy::Lifo,
            &mut rng,
            &mut scratch,
            &mut ctx,
        );
        assert_eq!(moves, 0);
        assert_eq!(rng, rng_before, "the gate drew from the RNG");
        assert_eq!(p.cut, p_before.cut);
        assert_eq!(p.counts, p_before.counts);
        assert_eq!(p.part, p_before.part);
        assert_eq!(p.part_weight, p_before.part_weight);
        assert_eq!(scratch.epoch, epoch, "the gate bumped the scratch epoch");
        assert_eq!(scratch.log.len(), 0);
        let pool = &mut ctx.workspace.pool;
        assert_eq!(pool[1].len(), 1, "the gate retargeted the containers");
        assert!(pool[1].contains(sentinel));
    }

    #[test]
    fn border_released_pair_still_finds_the_paying_move() {
        // Contract (v2, v3) with both on side 1; after the undo v2 sits
        // on the cut triangle net {v0, v1, v2} (border) and v3 is
        // interior. Moving v2 to side 0 gains 2 - 1 = 1.
        let h = toy();
        let mut d = DynHypergraph::new(&h);
        let m = d.contract(VertexId::new(2), VertexId::new(3));
        let mut p = NLevelPartition::new(&d, 2, vec![0, 0, 1, 1, 1, 1]);
        p.begin_uncontract(&d, &m);
        d.uncontract(&m);
        assert_eq!(p.cut(), 2);
        assert!(p.is_border(&d, VertexId::new(2)));
        assert!(!p.is_border(&d, VertexId::new(3)));

        let mut ctx = RunCtx::new(11);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut scratch = LocalSearchScratch::new();
        let moves = refine_released_pair(
            &mut p,
            &d,
            &m,
            1,
            5,
            InsertionPolicy::Lifo,
            &mut rng,
            &mut scratch,
            &mut ctx,
        );
        assert!(moves >= 1);
        assert_eq!(p.part_of(VertexId::new(2)), 0);
        assert_eq!(p.cut(), 1);
        assert_eq!(p.recompute_cut(&d), p.cut());
    }

    #[test]
    fn zero_gain_moves_only_repair_balance() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        // Perfectly balanced optimum: no move should apply.
        let mut p = NLevelPartition::new(&d, 2, vec![0, 0, 0, 1, 1, 1]);
        let mut ctx = RunCtx::new(3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut scratch = LocalSearchScratch::new();
        let seeds: Vec<_> = (0..6).map(VertexId::new).collect();
        let moves = refine_localized(
            &mut p,
            &d,
            &seeds,
            2,
            4,
            InsertionPolicy::Lifo,
            &mut rng,
            &mut scratch,
            &mut ctx,
        );
        assert_eq!(moves, 0);
        assert_eq!(p.cut(), 1);
    }
}
