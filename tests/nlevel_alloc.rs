//! Allocation-counter test of the n-level workspace contract: after one
//! warm-up run has grown the arenas, the steady-state contract /
//! uncontract / localized-FM loop performs **zero** heap allocations,
//! and a repeated multi-start on the same context allocates a small
//! fraction of what the cold start did.
//!
//! The counter is a `#[global_allocator]` wrapper around [`System`]
//! that counts `alloc` / `alloc_zeroed` / `realloc` calls. Integration
//! tests run on multiple threads, so *both* assertions live in one
//! `#[test]` — a sibling test allocating concurrently would corrupt the
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use hypart::core::{refine_released_pair, select_contractions, SparseScores};
use hypart::prelude::*;

/// Counts every allocation (fresh, zeroed, or growing) made anywhere in
/// the process. Deallocations are free and uncounted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// One full component-level n-level cycle on warm arenas: re-point the
/// view, run the contraction schedule, rebuild the partition from
/// parity labels, then undo the whole memento stack with border-gated
/// localized refinement per step. Exactly the driver's steady-state loop, minus
/// the coarse-core materialization (which builds a fresh CSR by design).
fn component_cycle(
    h: &Hypergraph,
    limits: &ContractionLimits,
    lower: u64,
    upper: u64,
    ws: &mut NLevelWorkspace,
    scores: &mut SparseScores,
    ctx: &mut RunCtx<'_>,
) -> u64 {
    ws.dynhg.reset_from_csr(h);
    let mut probe = ctx.probe();
    select_contractions(
        &mut ws.dynhg,
        limits,
        None,
        7,
        scores,
        &mut ws.contract,
        &mut probe,
    );
    ws.labels.clear();
    ws.labels
        .extend((0..ws.dynhg.num_slots()).map(|s| (s % 2) as u16));
    ws.partition.reset(&ws.dynhg, 2, &ws.labels);
    let mut rng = SmallRng::seed_from_u64(9);
    while let Some(m) = ws.contract.mementos.pop() {
        ws.partition.begin_uncontract(&ws.dynhg, &m);
        ws.dynhg.uncontract(&m);
        refine_released_pair(
            &mut ws.partition,
            &ws.dynhg,
            &m,
            lower,
            upper,
            InsertionPolicy::Lifo,
            &mut rng,
            &mut ws.refine,
            ctx,
        );
    }
    ws.partition.cut()
}

#[test]
fn steady_state_nlevel_loop_is_allocation_free() {
    let h = hypart::benchgen::ispd98_like(1, 0.08, 3);
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let (lower, upper) = (constraint.lower(), constraint.upper());
    let limits = ContractionLimits {
        stop_size: 30,
        max_net_size: 300,
        cluster_cap: h.total_vertex_weight(),
    };

    // --- Part 1: the component loop, exactly zero after warm-up. ---
    let mut ctx = RunCtx::new(7);
    let mut ws = NLevelWorkspace::new();
    let mut scores = SparseScores::new();
    let first = component_cycle(&h, &limits, lower, upper, &mut ws, &mut scores, &mut ctx);
    let before = allocations();
    let second = component_cycle(&h, &limits, lower, upper, &mut ws, &mut scores, &mut ctx);
    let steady = allocations() - before;
    assert_eq!(second, first, "recycled arenas changed the result");
    assert_eq!(
        steady, 0,
        "steady-state contract/uncontract/refine cycle allocated {steady} times"
    );

    // --- Part 2: a whole multi-start on a warm context. Not exactly
    // zero — each start materializes the coarse core into a fresh CSR
    // (a ~stop-size instance, gone after initial partitioning), the
    // initial portfolio builds `Bisection`s on it, and every outcome
    // owns its assignment vector. Those are small and O(coarse core) or
    // O(outcome); what the workspace eliminates is the O(n + pins)
    // arena churn, so the warm run's allocated *bytes* must collapse
    // and its allocation *count* at least halve. ---
    let nlevel = MlPartitioner::new(MlConfig::default().with_engine(EngineKind::NLevel));
    let mut ctx = RunCtx::new(11);
    let (before_cold, before_cold_bytes) = (allocations(), allocated_bytes());
    let cold = multi_start_with(&nlevel, &h, &constraint, 2, 0, &mut ctx);
    let cold_allocs = allocations() - before_cold;
    let cold_bytes = allocated_bytes() - before_cold_bytes;
    let (before_warm, before_warm_bytes) = (allocations(), allocated_bytes());
    let warm = multi_start_with(&nlevel, &h, &constraint, 2, 0, &mut ctx);
    let warm_allocs = allocations() - before_warm;
    let warm_bytes = allocated_bytes() - before_warm_bytes;
    assert_eq!(warm.cut, cold.cut, "workspace reuse changed the result");
    assert!(
        warm_allocs * 2 <= cold_allocs,
        "warm multi-start allocated {warm_allocs} times vs {cold_allocs} cold \
         (expected at most half)"
    );
    assert!(
        warm_bytes * 5 <= cold_bytes,
        "warm multi-start allocated {warm_bytes} bytes vs {cold_bytes} cold \
         (expected at most a fifth)"
    );
}
