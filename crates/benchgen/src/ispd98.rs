//! ISPD98-like actual-area circuit synthesis.
//!
//! The generator reproduces the aggregate attributes of each IBM profile:
//!
//! * cell and net counts (scaled by the caller's `scale`);
//! * net-size distribution with the profile's average (a mass at 2-pin
//!   nets plus a geometric tail), and a *small number of extremely large
//!   nets* standing in for clock/reset trees;
//! * locality: pins are drawn near their driver in a latent linear
//!   arrangement, so good bisections with small cuts exist, as in real
//!   layouts;
//! * actual areas with wide variation: a deep-submicron drive-range body
//!   (1–16) plus large macros, the biggest holding several percent of
//!   total area — wide enough to exceed a 2 % balance window, which is
//!   what makes CLIP corking reproducible (§2.3).

use rand::distributions::Distribution;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::profile::Ispd98Profile;
use hypart_hypergraph::{Hypergraph, HypergraphBuilder, VertexId, VertexStamps};

/// Fraction of nets that are "huge" (clock/reset-like).
const HUGE_NET_FRACTION: f64 = 0.001;
/// Cap on huge-net size as a fraction of the cell count.
const HUGE_NET_MAX_FRACTION: f64 = 0.05;
/// Fraction of cells that are macros.
const MACRO_FRACTION: f64 = 0.002;

/// Generates an ISPD98-like circuit for benchmark `index` (1..=18) at the
/// given `scale` (1.0 = full published size; use e.g. 0.05 for quick
/// experiments), deterministically from `seed`.
///
/// The instance name records the index and scale, e.g. `"ibm01s@0.05"`.
///
/// # Panics
///
/// Panics if `index` is not in `1..=18` or `scale` is not in `(0, 1]`.
pub fn ispd98_like(index: usize, scale: f64, seed: u64) -> Hypergraph {
    let profile = Ispd98Profile::by_index(index);
    assert!(
        scale > 0.0 && scale <= 1.0,
        "scale must be in (0, 1], got {scale}"
    );
    let n = ((profile.cells as f64 * scale).round() as usize).max(16);
    let m = ((profile.nets as f64 * scale).round() as usize).max(16);
    let avg_net = profile.avg_net_size();
    let mut rng = SmallRng::seed_from_u64(seed ^ (index as u64) << 32);

    let mut builder = HypergraphBuilder::with_capacity(n, m);

    // --- Areas: drive-range body + macros --------------------------------
    // Body: discrete log-uniform over 1..=16 (deep-submicron drive range).
    // Macros: MACRO_FRACTION of cells get areas of 100–2000 body units,
    // and one "giant" macro gets ~4 % of expected total area so that 2 %
    // windows exhibit corking, as on the real ibm designs.
    let num_macros = ((n as f64 * MACRO_FRACTION).round() as usize).max(2);
    let expected_body_total: f64 = n as f64 * 5.3; // E[log-uniform 1..=16]
                                                   // Macro areas scale with the design so the area *profile* (fractions
                                                   // of total) is scale-invariant: the giant macro holds ~4 % of the
                                                   // area, other macros 0.2-2 % — wide enough to exceed a 2 % balance
                                                   // window (corking), never so wide that 10 % windows become infeasible.
    let giant_area = ((expected_body_total * 0.04) as u64).max(32);
    let macro_low = ((expected_body_total * 0.002) as u64).max(16);
    let macro_high = ((expected_body_total * 0.02) as u64).max(macro_low + 1);
    for i in 0..n {
        let area = if i == 0 {
            giant_area
        } else if i < num_macros {
            rng.gen_range(macro_low..=macro_high)
        } else {
            log_uniform_1_16(&mut rng)
        };
        builder.add_vertex(area);
    }

    // --- Nets: locality in a latent linear arrangement -------------------
    // Each net has a driver at a random position; sinks are offset from the
    // driver by geometrically distributed distances, giving the linear
    // locality that makes min-cut structure (and hence partitioning
    // research) meaningful. Macros participate like any other cell, so
    // high-degree/high-area correlation emerges at the huge nets.
    let huge_nets = ((m as f64 * HUGE_NET_FRACTION).ceil() as usize).max(1);
    let two_pin_mass = 0.55f64;
    // Solve the geometric tail mean so the overall average matches:
    // avg = 2 + (1 - two_pin_mass) * tail_mean  (tail adds extra pins past 2)
    let tail_mean = ((avg_net - 2.0) / (1.0 - two_pin_mass)).max(0.25);
    let reach = (n / 20).clamp(4, 2000); // locality window half-width

    let mut pins = Vec::new();
    let mut seen = VertexStamps::new();
    for net_idx in 0..m {
        let size = if net_idx < huge_nets {
            let cap = ((n as f64 * HUGE_NET_MAX_FRACTION) as usize).max(60);
            rng.gen_range(60..=cap.max(61))
        } else if rng.gen::<f64>() < two_pin_mass {
            2
        } else {
            2 + sample_geometric(&mut rng, tail_mean).min(40)
        };
        let driver = rng.gen_range(0..n);
        pins.clear();
        seen.clear(n);
        pins.push(VertexId::from_index(driver));
        seen.insert(VertexId::from_index(driver));
        let mut guard = 0;
        while pins.len() < size && guard < size * 8 {
            guard += 1;
            let offset = 1 + sample_geometric(&mut rng, reach as f64 / 3.0);
            let target = if rng.gen::<bool>() {
                driver.saturating_add(offset)
            } else {
                driver.saturating_sub(offset)
            };
            let target = target.min(n - 1);
            let vid = VertexId::from_index(target);
            if seen.insert(vid) {
                pins.push(vid);
            }
        }
        builder
            .add_net(pins.iter().copied(), 1)
            .expect("generated pins are always valid");
    }

    builder
        .name(format!("{}s@{scale}", profile.name))
        .build()
        .expect("generated hypergraph is always valid")
}

/// Discrete log-uniform sample over `1..=16`.
fn log_uniform_1_16<R: Rng>(rng: &mut R) -> u64 {
    let exp = rand::distributions::Uniform::new(0.0f64, 4.0).sample(rng);
    (2f64.powf(exp)).floor() as u64
}

/// Geometric-ish sample with the given mean (floor of an exponential).
fn sample_geometric<R: Rng>(rng: &mut R, mean: f64) -> usize {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() * mean).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypart_hypergraph::stats::InstanceStats;

    #[test]
    fn matches_profile_counts_at_scale() {
        let h = ispd98_like(1, 0.1, 7);
        let p = Ispd98Profile::by_index(1);
        assert_eq!(h.num_vertices(), (p.cells as f64 * 0.1).round() as usize);
        assert_eq!(h.num_nets(), (p.nets as f64 * 0.1).round() as usize);
        h.validate().unwrap();
    }

    #[test]
    fn aggregate_shape_matches_paper_attributes() {
        for index in [1, 3, 5] {
            let h = ispd98_like(index, 0.08, 11);
            let s = InstanceStats::of(&h);
            assert!(
                (2.2..=5.5).contains(&s.avg_net_size),
                "ibm{index:02}: avg net {}",
                s.avg_net_size
            );
            assert!(s.num_large_nets >= 1, "ibm{index:02}: no clock-like nets");
            assert!(
                s.max_weight_fraction > 0.02,
                "ibm{index:02}: biggest macro only {} of area — corking impossible",
                s.max_weight_fraction
            );
            assert!(!h.is_unit_area());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = ispd98_like(2, 0.05, 99);
        let b = ispd98_like(2, 0.05, 99);
        assert_eq!(a.num_pins(), b.num_pins());
        for e in a.nets() {
            assert_eq!(a.net_pins(e), b.net_pins(e));
        }
        let c = ispd98_like(2, 0.05, 100);
        let differs = a.nets().any(|e| a.net_pins(e) != c.net_pins(e));
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn locality_produces_partitionable_structure() {
        // A contiguous half-split along the latent arrangement should cut
        // far fewer nets than a random interleave.
        use hypart_hypergraph::PartId;
        let h = ispd98_like(1, 0.05, 3);
        let n = h.num_vertices();
        let contiguous: Vec<PartId> = (0..n)
            .map(|i| if i < n / 2 { PartId::P0 } else { PartId::P1 })
            .collect();
        let interleaved: Vec<PartId> = (0..n)
            .map(|i| if i % 2 == 0 { PartId::P0 } else { PartId::P1 })
            .collect();
        let cut_contig = hypart_core_free_cut(&h, &contiguous);
        let cut_inter = hypart_core_free_cut(&h, &interleaved);
        assert!(
            cut_contig * 3 < cut_inter,
            "contiguous {cut_contig} vs interleaved {cut_inter}"
        );
    }

    /// Local cut computation (this crate must not depend on hypart-core).
    fn hypart_core_free_cut(h: &Hypergraph, parts: &[hypart_hypergraph::PartId]) -> usize {
        h.nets()
            .filter(|&e| {
                let mut seen = [false; 2];
                for &v in h.net_pins(e) {
                    seen[parts[v.index()].index()] = true;
                }
                seen[0] && seen[1]
            })
            .count()
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        let _ = ispd98_like(1, 0.0, 1);
    }

    #[test]
    fn name_encodes_index_and_scale() {
        let h = ispd98_like(4, 0.25, 0);
        assert_eq!(h.name(), "ibm04s@0.25");
    }
}
