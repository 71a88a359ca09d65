//! The n-level direct k-way backend: single-pair contraction with
//! memento undo and localized k-way refinement per uncontraction —
//! the k-way twin of the 2-way n-level engine in `hypart-ml`.
//!
//! Entered through [`MlKWayPartitioner::run_with`] when the config
//! selects [`EngineKind::NLevel`](hypart_core::EngineKind::NLevel).
//! Phase structure: contract one pair at a time down to the coarse-config
//! stop size, materialize the coarse core once, run the seeded flat
//! k-way portfolio on it, then undo mementos LIFO with localized FM
//! seeded on the border members of the released pair (skipped when
//! neither lies on a cut net). Budget stops degrade gracefully —
//! refinement ceases, undo continues — so the outcome is always a legal
//! full-size k-way partition.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::balance::KWayBalance;
use crate::fm::{record_kway_audit, KWayFmPartitioner, KWayOutcome};
use crate::multilevel::{MlKWayConfig, MlKWayPartitioner};
use crate::partition::KWayPartition;
use hypart_core::{
    refine_released_pair, select_contractions, AuditError, AuditLevel, ContractionLimits, RunCtx,
    StopReason,
};
use hypart_hypergraph::Hypergraph;
use hypart_trace::RunEvent;

/// Above this slot count, `Paranoid` audits skip the per-uncontraction
/// cut recomputation (quadratic) and only verify the final solution.
const PARANOID_STEP_AUDIT_MAX_SLOTS: usize = 4_096;

/// Contraction limits from the shared coarsening config (the cluster-cap
/// formula matches `hypart_ml::coarsen::cluster_cap`).
fn limits_for(h: &Hypergraph, config: &MlKWayConfig) -> ContractionLimits {
    let avg_weight = h.total_vertex_weight() as f64 / h.num_vertices() as f64;
    let cluster_cap = ((avg_weight * config.coarsen.cluster_cap_multiple) as u64)
        .max(h.max_vertex_weight())
        .max(1);
    ContractionLimits {
        stop_size: config.coarsen.stop_size,
        max_net_size: config.coarsen.max_net_size_for_matching,
        cluster_cap,
    }
}

/// One n-level direct k-way run. See the module docs for the phases.
pub(crate) fn run_nlevel_kway(
    partitioner: &MlKWayPartitioner,
    h: &Hypergraph,
    balance: &KWayBalance,
    ctx: &mut RunCtx<'_>,
) -> KWayOutcome {
    let config = partitioner.config();
    let k = balance.num_parts();
    let base_seed = ctx.seed;
    let mut rng = SmallRng::seed_from_u64(base_seed);
    let engine = KWayFmPartitioner::new(config.refine);

    // Contraction phase, bracketed like the 2-way backend, on the
    // context's recycled n-level arenas (taken out for the run so the
    // view and the context stay independently borrowable).
    let mut ws = std::mem::take(&mut ctx.nlevel);
    ws.dynhg.reset_from_csr(h);
    if ctx.sink.is_enabled() {
        ctx.sink.emit(RunEvent::ContractionBegin {
            vertices: ws.dynhg.num_active(),
            nets: ws.dynhg.num_live_nets(),
        });
    }
    let limits = limits_for(h, config);
    let mut probe = ctx.probe();
    select_contractions(
        &mut ws.dynhg,
        &limits,
        None,
        base_seed,
        &mut ctx.coarsen.conn,
        &mut ws.contract,
        &mut probe,
    );
    if ctx.sink.is_enabled() {
        ctx.sink.emit(RunEvent::ContractionEnd {
            contractions: ws.contract.mementos.len(),
            vertices: ws.dynhg.num_active(),
            nets: ws.dynhg.num_live_nets(),
        });
    }

    // Initial partitioning: seeded flat k-way portfolio on the
    // materialized core, best by lexicographic (violation, cut) — the
    // same schedule as the coarse-grained k-way backend.
    let core = ws.dynhg.materialize_into(&mut ws.dense_of, &mut ws.slot_of);
    let mut best: Option<(u64, u64, Vec<u16>)> = None;
    let mut stopped = StopReason::Completed;
    let mut audit_failure: Option<AuditError> = None;
    for t in 0..config.initial_tries.max(1) {
        ctx.seed = rng.gen::<u64>() ^ t as u64;
        let out = engine.run_with(&core, balance, ctx);
        let try_stop = out.stopped;
        if audit_failure.is_none() {
            audit_failure = out.audit_failure.clone();
        }
        let p = KWayPartition::new(&core, k, out.assignment);
        let score = (balance.total_violation(&p), p.cut());
        if best.as_ref().is_none_or(|(v, c, _)| score < (*v, *c)) {
            best = Some((score.0, score.1, p.into_assignment()));
        }
        if try_stop.is_stopped() {
            stopped = try_stop;
            break;
        }
    }
    ctx.seed = base_seed;
    let initial = match best {
        Some((_, _, assignment)) => assignment,
        None => unreachable!("the first initial try always completes"),
    };
    ws.labels.clear();
    ws.labels.resize(ws.dynhg.num_slots(), 0);
    for (dense, &part) in initial.iter().enumerate() {
        ws.labels[ws.slot_of[dense].index()] = part;
    }
    ws.partition.reset(&ws.dynhg, k, &ws.labels);

    // Uncontraction phase: undo LIFO, border-gated localized
    // refinement per step.
    let levels = ws.contract.mementos.len();
    if ctx.sink.is_enabled() {
        ctx.sink.emit(RunEvent::UncontractionBegin {
            contractions: levels,
        });
    }
    let (lower, upper) = (balance.lower(), balance.upper());
    let step_audit = ctx.audit() == AuditLevel::Paranoid
        && ws.dynhg.num_slots() <= PARANOID_STEP_AUDIT_MAX_SLOTS;
    let mut total_moves = 0usize;
    for i in (0..levels).rev() {
        let m = ws.contract.mementos[i];
        if !stopped.is_stopped() {
            if let Some(reason) = probe.stop_now() {
                stopped = reason;
                ctx.sink.emit(RunEvent::BudgetExhausted { reason });
            }
        }
        ws.partition.begin_uncontract(&ws.dynhg, &m);
        ws.dynhg.uncontract(&m);
        if stopped.is_stopped() {
            continue;
        }
        total_moves += refine_released_pair(
            &mut ws.partition,
            &ws.dynhg,
            &m,
            lower,
            upper,
            config.refine.insertion,
            &mut rng,
            &mut ws.refine,
            ctx,
        );
        if step_audit {
            let recomputed = ws.partition.recompute_cut(&ws.dynhg);
            if recomputed != ws.partition.cut() {
                let e = AuditError::CutMismatch {
                    reported: ws.partition.cut(),
                    recomputed,
                };
                ctx.sink.emit(RunEvent::InvariantViolation {
                    check: e.check().to_string(),
                    detail: format!("{e} after uncontracting ({:?}, {:?})", m.u, m.v),
                });
                if audit_failure.is_none() {
                    audit_failure = Some(e);
                }
            }
        }
    }
    if ctx.sink.is_enabled() {
        ctx.sink.emit(RunEvent::UncontractionEnd {
            moves: total_moves,
            cut: ws.partition.cut(),
        });
    }

    // Final whole-run checkpoint on the input graph.
    let assignment = ws.partition.assignment().to_vec();
    ctx.nlevel = ws;
    let final_partition = KWayPartition::new(h, k, assignment);
    if ctx.audit().is_on() {
        let window = balance
            .is_satisfied(&final_partition)
            .then(|| (balance.lower(), balance.upper()));
        record_kway_audit(&final_partition, window, &mut audit_failure, ctx.sink);
    }
    KWayOutcome {
        num_parts: k,
        cut: final_partition.cut(),
        lambda_minus_one: final_partition.lambda_minus_one(),
        part_weights: (0..k).map(|p| final_partition.part_weight(p)).collect(),
        // No pass structure on the n-level path: report localized moves.
        passes: total_moves,
        stopped,
        audit_failure,
        assignment: final_partition.into_assignment(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypart_benchgen::toys::grid;
    use hypart_benchgen::{ispd98_like, mcnc_like};
    use hypart_core::EngineKind;

    fn nlevel() -> MlKWayPartitioner {
        MlKWayPartitioner::new(MlKWayConfig::default().with_engine(EngineKind::NLevel))
    }

    #[test]
    fn quarters_a_grid_near_optimally() {
        let h = grid(16, 16);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.15);
        let out = nlevel().run(&h, &balance, 3);
        assert!(out.is_balanced(&balance));
        assert!(out.cut <= 56, "cut {}", out.cut);
    }

    #[test]
    fn verifies_and_is_deterministic() {
        let h = mcnc_like(500, 7);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 3, 0.25);
        let a = nlevel().run(&h, &balance, 11);
        let b = nlevel().run(&h, &balance, 11);
        assert_eq!(a.assignment, b.assignment);
        let p = KWayPartition::new(&h, 3, a.assignment.clone());
        assert_eq!(p.recompute_cut(), a.cut);
        assert!(a.is_balanced(&balance));
    }

    #[test]
    fn odd_k_supported() {
        let h = mcnc_like(300, 2);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 5, 0.30);
        let out = nlevel().run(&h, &balance, 1);
        assert_eq!(out.num_parts, 5);
        assert!(out.is_balanced(&balance));
    }

    #[test]
    fn competitive_with_coarse_ml_kway() {
        let h = ispd98_like(1, 0.04, 9);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.20);
        let coarse = MlKWayPartitioner::new(MlKWayConfig::default());
        let coarse_best = (0..3u64).map(|s| coarse.run(&h, &balance, s).cut).min();
        let fine_best = (0..3u64).map(|s| nlevel().run(&h, &balance, s).cut).min();
        let (Some(coarse_best), Some(fine_best)) = (coarse_best, fine_best) else {
            unreachable!("three seeds each")
        };
        assert!(
            fine_best as f64 <= coarse_best as f64 * 1.3,
            "n-level k-way best {fine_best} vs coarse best {coarse_best}"
        );
    }
}
