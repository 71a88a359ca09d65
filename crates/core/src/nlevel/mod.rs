//! n-level contraction machinery: one-pair-at-a-time coarsening with an
//! undo stack, in the style of *n-Level Hypergraph Partitioning*
//! \[Osipov–Sanders–Schulz\].
//!
//! Where the coarse-grained multilevel backend ([`crate::Hierarchy`])
//! halves the hypergraph per level and rebuilds a CSR per level, the
//! n-level backend contracts **one vertex pair per step**, records each
//! step in a [`ContractionMemento`], and later undoes the stack one
//! memento at a time, running *localized* refinement seeded only on
//! those of the two released vertices that lie on a cut net, rippling
//! out through their boundary neighborhood. The pieces:
//!
//! * [`DynHypergraph`] — an incrementally mutated hypergraph view over an
//!   immutable [`Hypergraph`](hypart_hypergraph::Hypergraph), with lazy
//!   net shrinking (disabled pins park in the tail of each pin array; no
//!   CSR is ever rebuilt);
//! * [`ContractionMemento`] — the constant-size undo record of one
//!   contraction, valid under strict LIFO undo;
//! * [`select_contractions`] — the rating-driven contraction schedule
//!   (heavy-edge connectivity, deterministic seeded tie-breaks);
//! * [`NLevelPartition`] — incremental k-way partition state (per-net
//!   part counts, weighted cut) over a [`DynHypergraph`], plus the
//!   localized FM refiner [`refine_localized`] with its per-uncontraction
//!   border gate [`refine_released_pair`];
//! * [`NLevelWorkspace`] — the reusable scratch arenas of everything
//!   above (carried on [`crate::RunCtx`] like the FM and coarsening
//!   workspaces), which make the steady-state hot path allocation-free.
//!
//! Engines select between the two backends with [`EngineKind`], carried
//! by the multilevel configs (`MlConfig::engine`, `MlKWayConfig::engine`)
//! so the driver, eval runner, server daemon, and CLI pick backends
//! uniformly.

mod dynhg;
mod partition;
mod rating;
mod workspace;

pub use dynhg::{ContractionMemento, DynHypergraph};
pub use partition::{refine_localized, refine_released_pair, NLevelPartition};
pub use rating::{select_contractions, ContractionLimits};
pub use workspace::{ContractScratch, LocalSearchScratch, NLevelWorkspace};

/// Which multilevel backend a configuration selects.
///
/// | kind | contraction granularity | refinement granularity |
/// |------|-------------------------|------------------------|
/// | [`MlCoarse`](EngineKind::MlCoarse) | whole levels (CSR rebuilt per level) | full FM passes per level |
/// | [`NLevel`](EngineKind::NLevel) | one vertex pair per step (no rebuilds) | localized FM per uncontraction |
///
/// `MlCoarse` is the default everywhere, so existing configs, golden
/// traces, and wire protocols are unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Coarse-grained multilevel: level-by-level coarsening with a full
    /// refinement sweep at every level.
    #[default]
    MlCoarse,
    /// n-level: single-pair contractions with memento undo and localized
    /// refinement per uncontraction.
    NLevel,
}

impl EngineKind {
    /// Stable snake-case name (`"ml"` / `"nlevel"`), used by the CLI
    /// `--engine` flag and the server wire protocol.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::MlCoarse => "ml",
            EngineKind::NLevel => "nlevel",
        }
    }

    /// Parses a [`name`](EngineKind::name) back.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown kind.
    pub fn parse(s: &str) -> Result<EngineKind, String> {
        match s {
            "ml" | "ml-coarse" | "coarse" => Ok(EngineKind::MlCoarse),
            "nlevel" | "n-level" => Ok(EngineKind::NLevel),
            other => Err(format!(
                "unknown engine kind `{other}` (expected ml or nlevel)"
            )),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_round_trips_and_defaults_to_ml() {
        assert_eq!(EngineKind::default(), EngineKind::MlCoarse);
        for kind in [EngineKind::MlCoarse, EngineKind::NLevel] {
            assert_eq!(EngineKind::parse(kind.name()).unwrap(), kind);
        }
        assert_eq!(EngineKind::parse("n-level").unwrap(), EngineKind::NLevel);
        assert!(EngineKind::parse("warp").is_err());
    }
}
