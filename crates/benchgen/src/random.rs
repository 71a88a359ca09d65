//! Structure-free random hypergraphs for property-based testing.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hypart_hypergraph::{Hypergraph, HypergraphBuilder, VertexId, VertexStamps};

/// Generates a random hypergraph with `vertices` vertices and `nets` nets,
/// each net a uniform sample of 2..=`max_net_size` distinct vertices;
/// vertex weights uniform in 1..=`max_vertex_weight`.
///
/// # Panics
///
/// Panics if `vertices < 2`, `max_net_size < 2`, or `max_vertex_weight == 0`.
pub fn random_hypergraph(
    vertices: usize,
    nets: usize,
    max_net_size: usize,
    max_vertex_weight: u64,
    seed: u64,
) -> Hypergraph {
    assert!(vertices >= 2, "need at least 2 vertices");
    assert!(max_net_size >= 2, "need max_net_size >= 2");
    assert!(max_vertex_weight >= 1, "need max_vertex_weight >= 1");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = HypergraphBuilder::with_capacity(vertices, nets);
    for _ in 0..vertices {
        builder.add_vertex(rng.gen_range(1..=max_vertex_weight));
    }
    let mut pins = Vec::new();
    let mut seen = VertexStamps::new();
    for _ in 0..nets {
        let size = rng.gen_range(2..=max_net_size.min(vertices));
        pins.clear();
        seen.clear(vertices);
        while pins.len() < size {
            let v = VertexId::from_index(rng.gen_range(0..vertices));
            if seen.insert(v) {
                pins.push(v);
            }
        }
        builder
            .add_net(pins.iter().copied(), 1)
            .expect("pins valid");
    }
    builder
        .name(format!("rand{vertices}x{nets}"))
        .build()
        .expect("generated hypergraph is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_parameters() {
        let h = random_hypergraph(50, 80, 6, 10, 3);
        assert_eq!(h.num_vertices(), 50);
        assert_eq!(h.num_nets(), 80);
        assert!(h.max_net_size() <= 6);
        assert!(h.max_vertex_weight() <= 10);
        h.validate().unwrap();
    }

    #[test]
    fn nets_have_at_least_two_pins() {
        let h = random_hypergraph(10, 30, 4, 1, 9);
        for e in h.nets() {
            assert!(h.net_size(e) >= 2);
        }
    }

    #[test]
    fn deterministic() {
        let a = random_hypergraph(20, 20, 5, 5, 42);
        let b = random_hypergraph(20, 20, 5, 5, 42);
        for e in a.nets() {
            assert_eq!(a.net_pins(e), b.net_pins(e));
        }
    }
}
