//! MCNC-like unit-area circuit synthesis.
//!
//! The paper notes (§2.3, footnote 4) that "the older MCNC test cases lack
//! large cells, and have historically been used in 'unit-area' mode" —
//! which is exactly the regime that masked CLIP corking. This generator
//! produces such instances: small, unit-area, no macros, no huge nets.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hypart_hypergraph::{Hypergraph, HypergraphBuilder, VertexId, VertexStamps};

/// Generates an MCNC-like unit-area circuit with `cells` cells,
/// deterministically from `seed`. Net count ≈ cells, average net size
/// ≈ 3, maximum net size 12, all areas 1.
///
/// # Panics
///
/// Panics if `cells < 8`.
pub fn mcnc_like(cells: usize, seed: u64) -> Hypergraph {
    assert!(cells >= 8, "mcnc_like needs at least 8 cells, got {cells}");
    let mut rng = SmallRng::seed_from_u64(seed);
    let nets = cells;
    let mut builder = HypergraphBuilder::with_capacity(cells, nets);
    builder.add_vertices(cells, 1);
    let reach = (cells / 16).clamp(3, 200);
    let mut pins = Vec::new();
    let mut seen = VertexStamps::new();
    for _ in 0..nets {
        let size = match rng.gen_range(0u32..100) {
            0..=54 => 2,
            55..=79 => 3,
            80..=91 => 4,
            92..=96 => 5,
            _ => rng.gen_range(6..=12usize.min(cells)),
        };
        let driver = rng.gen_range(0..cells);
        pins.clear();
        seen.clear(cells);
        pins.push(VertexId::from_index(driver));
        seen.insert(VertexId::from_index(driver));
        let mut guard = 0;
        while pins.len() < size && guard < size * 8 {
            guard += 1;
            let offset = rng.gen_range(1..=reach);
            let target = if rng.gen::<bool>() {
                driver.saturating_add(offset)
            } else {
                driver.saturating_sub(offset)
            }
            .min(cells - 1);
            let vid = VertexId::from_index(target);
            if seen.insert(vid) {
                pins.push(vid);
            }
        }
        builder
            .add_net(pins.iter().copied(), 1)
            .expect("pins valid");
    }
    builder
        .name(format!("mcnc{cells}"))
        .build()
        .expect("generated hypergraph is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypart_hypergraph::stats::InstanceStats;

    #[test]
    fn unit_area_no_macros_no_huge_nets() {
        let h = mcnc_like(500, 5);
        assert!(h.is_unit_area());
        let s = InstanceStats::of(&h);
        assert_eq!(s.max_vertex_weight, 1);
        assert_eq!(s.num_large_nets, 0);
        assert!(s.max_net_size <= 12);
        assert!((2.0..=4.5).contains(&s.avg_net_size), "{}", s.avg_net_size);
        h.validate().unwrap();
    }

    #[test]
    fn deterministic() {
        let a = mcnc_like(100, 1);
        let b = mcnc_like(100, 1);
        assert_eq!(a.num_pins(), b.num_pins());
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn too_small_panics() {
        let _ = mcnc_like(4, 0);
    }
}
