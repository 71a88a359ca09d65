//! Seeded multi-trial execution of partitioning heuristics.
//!
//! Both trial runners isolate panics at the trial boundary: a trial that
//! panics is counted in [`TrialSet::failed_trials`], announced with a
//! [`RunEvent::StartAborted`], and skipped — the surviving trials are
//! unaffected, so one crashing configuration cannot take down a whole
//! experiment sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hypart_core::{BalanceConstraint, FmConfig, FmPartitioner, RunCtx, StopReason};
use hypart_hypergraph::Hypergraph;
use hypart_ml::{multi_start_with, MlConfig, MlPartitioner};
use hypart_trace::{MemorySink, NullSink, RunEvent, TraceSink};

/// One trial's outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trial {
    /// Seed of the trial.
    pub seed: u64,
    /// Weighted cut achieved.
    pub cut: u64,
    /// `true` if the solution satisfied the balance constraint.
    pub balanced: bool,
    /// Why the trial ended: ran to convergence, or was cut short by the
    /// context's deadline / cancellation token.
    pub stopped: StopReason,
    /// Wall-clock duration of the trial.
    pub elapsed: Duration,
}

/// An algorithm under experimental evaluation.
///
/// Implementations must be deterministic functions of `seed` so that
/// experiments are reproducible — one of the paper's core demands.
pub trait Heuristic {
    /// Display name used in tables and diagrams.
    fn name(&self) -> &str;

    /// Solves one instance from one seed.
    fn solve(&self, h: &Hypergraph, constraint: &BalanceConstraint, seed: u64) -> Trial;

    /// Solves one instance from one seed, narrating into `sink`.
    ///
    /// The default implementation ignores the sink and calls
    /// [`solve`](Heuristic::solve), so existing heuristics keep working;
    /// the built-in heuristics override it to thread the sink through to
    /// their engines. (`&dyn TraceSink` rather than a generic keeps the
    /// trait object-safe for `&dyn Heuristic` harness code.)
    fn solve_traced(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        seed: u64,
        sink: &dyn TraceSink,
    ) -> Trial {
        let _ = sink;
        self.solve(h, constraint, seed)
    }

    /// The canonical entry point: solves one instance under the context's
    /// sink, workspace, seed, and budget.
    ///
    /// The default implementation forwards the seed and sink to
    /// [`solve_traced`](Heuristic::solve_traced) — so pre-existing
    /// heuristics keep working but ignore the budget. The built-in
    /// heuristics override it to thread the full context through to their
    /// engines, which then stop cooperatively at the context's deadline
    /// or cancellation and record the fact in [`Trial::stopped`].
    fn solve_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> Trial {
        self.solve_traced(h, constraint, ctx.seed, ctx.sink)
    }
}

/// Flat FM / CLIP heuristic (single start of [`FmPartitioner`]).
#[derive(Clone, Debug)]
pub struct FlatFmHeuristic {
    name: String,
    partitioner: FmPartitioner,
}

impl FlatFmHeuristic {
    /// Wraps a flat engine configuration under a display name.
    pub fn new(name: impl Into<String>, config: FmConfig) -> Self {
        FlatFmHeuristic {
            name: name.into(),
            partitioner: FmPartitioner::new(config),
        }
    }
}

impl Heuristic for FlatFmHeuristic {
    fn name(&self) -> &str {
        &self.name
    }

    fn solve(&self, h: &Hypergraph, constraint: &BalanceConstraint, seed: u64) -> Trial {
        self.solve_with(h, constraint, &mut RunCtx::new(seed))
    }

    fn solve_traced(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        seed: u64,
        sink: &dyn TraceSink,
    ) -> Trial {
        self.solve_with(h, constraint, &mut RunCtx::new(seed).with_sink(sink))
    }

    fn solve_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> Trial {
        let t = Instant::now();
        let out = self.partitioner.run_with(h, constraint, ctx);
        Trial {
            seed: ctx.seed,
            cut: out.cut,
            balanced: out.balanced,
            stopped: out.stopped,
            elapsed: t.elapsed(),
        }
    }
}

/// Multilevel heuristic (single start of [`MlPartitioner`]).
#[derive(Clone, Debug)]
pub struct MlHeuristic {
    name: String,
    partitioner: MlPartitioner,
}

impl MlHeuristic {
    /// Wraps a multilevel configuration under a display name.
    pub fn new(name: impl Into<String>, config: MlConfig) -> Self {
        MlHeuristic {
            name: name.into(),
            partitioner: MlPartitioner::new(config),
        }
    }
}

impl Heuristic for MlHeuristic {
    fn name(&self) -> &str {
        &self.name
    }

    fn solve(&self, h: &Hypergraph, constraint: &BalanceConstraint, seed: u64) -> Trial {
        self.solve_with(h, constraint, &mut RunCtx::new(seed))
    }

    fn solve_traced(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        seed: u64,
        sink: &dyn TraceSink,
    ) -> Trial {
        self.solve_with(h, constraint, &mut RunCtx::new(seed).with_sink(sink))
    }

    fn solve_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> Trial {
        let t = Instant::now();
        let out = self.partitioner.run_with(h, constraint, ctx);
        Trial {
            seed: ctx.seed,
            cut: out.cut,
            balanced: out.balanced,
            stopped: out.stopped,
            elapsed: t.elapsed(),
        }
    }
}

/// hMetis-1.5-style multi-start driver: `nruns` starts then V-cycling of
/// the best (the Tables 4–5 evaluation subject; one "trial" is a full
/// multi-start configuration run).
#[derive(Clone, Debug)]
pub struct MultiStartHeuristic {
    name: String,
    partitioner: MlPartitioner,
    nruns: usize,
    max_vcycles: usize,
}

impl MultiStartHeuristic {
    /// Wraps a multilevel configuration in an `nruns`-start driver.
    pub fn new(
        name: impl Into<String>,
        config: MlConfig,
        nruns: usize,
        max_vcycles: usize,
    ) -> Self {
        MultiStartHeuristic {
            name: name.into(),
            partitioner: MlPartitioner::new(config),
            nruns,
            max_vcycles,
        }
    }

    /// Number of independent starts per trial.
    pub fn nruns(&self) -> usize {
        self.nruns
    }
}

impl Heuristic for MultiStartHeuristic {
    fn name(&self) -> &str {
        &self.name
    }

    fn solve(&self, h: &Hypergraph, constraint: &BalanceConstraint, seed: u64) -> Trial {
        self.solve_with(h, constraint, &mut RunCtx::new(seed))
    }

    fn solve_traced(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        seed: u64,
        sink: &dyn TraceSink,
    ) -> Trial {
        self.solve_with(h, constraint, &mut RunCtx::new(seed).with_sink(sink))
    }

    fn solve_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> Trial {
        let t = Instant::now();
        let out = multi_start_with(
            &self.partitioner,
            h,
            constraint,
            self.nruns,
            self.max_vcycles,
            ctx,
        );
        Trial {
            seed: ctx.seed,
            cut: out.cut,
            balanced: out.balanced,
            stopped: out.stopped,
            elapsed: t.elapsed(),
        }
    }
}

/// A set of independent trials of one heuristic on one instance.
#[derive(Clone, Debug)]
pub struct TrialSet {
    /// Heuristic display name.
    pub heuristic: String,
    /// Instance name.
    pub instance: String,
    /// Per-trial records, in seed order. Panicked trials leave no record
    /// here; they are only counted in
    /// [`failed_trials`](Self::failed_trials).
    pub trials: Vec<Trial>,
    /// Number of trials that panicked and were isolated.
    pub failed_trials: usize,
}

impl TrialSet {
    /// Number of trials.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// `true` if no trials were recorded.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// Minimum cut across trials; 0 for an empty set, as
    /// [`avg_cut`](Self::avg_cut) gives 0.0.
    pub fn min_cut(&self) -> u64 {
        self.trials.iter().map(|t| t.cut).min().unwrap_or(0)
    }

    /// Average cut across trials.
    pub fn avg_cut(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().map(|t| t.cut as f64).sum::<f64>() / self.trials.len() as f64
    }

    /// Average trial duration in seconds.
    pub fn avg_seconds(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials
            .iter()
            .map(|t| t.elapsed.as_secs_f64())
            .sum::<f64>()
            / self.trials.len() as f64
    }

    /// Cut values as `f64`, for statistics.
    pub fn cuts(&self) -> Vec<f64> {
        self.trials.iter().map(|t| t.cut as f64).collect()
    }

    /// Fraction of trials whose final solution was balanced.
    pub fn balanced_fraction(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().filter(|t| t.balanced).count() as f64 / self.trials.len() as f64
    }

    /// The traditional "min/avg" cell the partitioning literature reports,
    /// e.g. `"333/639"`.
    pub fn min_avg_cell(&self) -> String {
        format!("{}/{}", self.min_cut(), self.avg_cut().round() as u64)
    }
}

/// Runs `num_trials` independent single-start trials of `heuristic` with
/// seeds `base_seed..base_seed + num_trials`.
///
/// Equivalent to [`run_trials_with`] with a default [`RunCtx`] (no sink,
/// no deadline).
pub fn run_trials(
    heuristic: &dyn Heuristic,
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    num_trials: usize,
    base_seed: u64,
) -> TrialSet {
    run_trials_with(
        heuristic,
        h,
        constraint,
        num_trials,
        &mut RunCtx::new(base_seed),
    )
}

/// Runs one trial with `TrialBegin`/`TrialEnd` bracketing in the
/// context's sink.
fn solve_one_with(
    heuristic: &dyn Heuristic,
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    trial_index: usize,
    seed: u64,
    ctx: &mut RunCtx<'_>,
) -> Trial {
    if ctx.sink.is_enabled() {
        ctx.sink.emit(RunEvent::TrialBegin {
            trial: trial_index as u64,
            seed,
            heuristic: heuristic.name().to_string(),
            instance: h.name().to_string(),
        });
    }
    ctx.seed = seed;
    let trial = heuristic.solve_with(h, constraint, ctx);
    if ctx.sink.is_enabled() {
        ctx.sink.emit(RunEvent::TrialEnd {
            trial: trial_index as u64,
            seed,
            cut: trial.cut,
            balanced: trial.balanced,
        });
    }
    trial
}

/// [`run_trials`] with event emission: each trial's engine events are
/// bracketed by [`RunEvent::TrialBegin`]/[`RunEvent::TrialEnd`], in seed
/// order.
///
/// Equivalent to [`run_trials_with`] with a sink-only [`RunCtx`].
pub fn run_trials_traced(
    heuristic: &dyn Heuristic,
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    num_trials: usize,
    base_seed: u64,
    sink: &dyn TraceSink,
) -> TrialSet {
    run_trials_with(
        heuristic,
        h,
        constraint,
        num_trials,
        &mut RunCtx::new(base_seed).with_sink(sink),
    )
}

/// The canonical trial runner: `num_trials` independent trials with seeds
/// `ctx.seed..ctx.seed + num_trials` under the context's sink, workspace,
/// and budget. One workspace serves every trial.
///
/// On a deadline or cancellation the in-flight trial returns its
/// best-so-far (flagged in [`Trial::stopped`]) and the remaining trials
/// are skipped — the returned set then holds fewer than `num_trials`
/// records, and the stop is announced with a
/// [`RunEvent::BudgetExhausted`]. The first trial always runs so the set
/// is never empty.
pub fn run_trials_with(
    heuristic: &dyn Heuristic,
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    num_trials: usize,
    ctx: &mut RunCtx<'_>,
) -> TrialSet {
    let base_seed = ctx.seed;
    let fault = ctx.fault_plan().clone();
    let mut probe = ctx.probe();
    let mut trials = Vec::with_capacity(num_trials);
    let mut failed_trials = 0usize;
    for i in 0..num_trials {
        if i > 0 {
            if let Some(reason) = probe.stop_now() {
                ctx.sink.emit(RunEvent::BudgetExhausted { reason });
                break;
            }
        }
        let seed = base_seed.wrapping_add(i as u64);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            fault.trip_start(i as u64);
            solve_one_with(heuristic, h, constraint, i, seed, ctx)
        }));
        let trial = match attempt {
            Ok(trial) => trial,
            Err(_) => {
                // The heuristic may have unwound mid-run: replace the
                // shared workspace and press on with the next seed.
                ctx.workspace = hypart_core::FmWorkspace::new();
                ctx.coarsen = hypart_core::CoarsenWorkspace::new();
                ctx.sink.emit(RunEvent::StartAborted {
                    index: i as u64,
                    seed,
                });
                failed_trials += 1;
                continue;
            }
        };
        let trial_stopped = trial.stopped;
        trials.push(trial);
        if trial_stopped.is_stopped() {
            break;
        }
    }
    ctx.seed = base_seed;
    TrialSet {
        heuristic: heuristic.name().to_string(),
        instance: h.name().to_string(),
        trials,
        failed_trials,
    }
}

/// Parallel variant of [`run_trials`]: trials execute on up to `threads`
/// OS threads (0 = one per core). Results are **identical** to the
/// sequential version — each trial is a pure function of its seed and the
/// output is assembled in seed order — so parallelism only changes
/// wall-clock time, never the reported distribution. (Per-trial `elapsed`
/// values are measured under concurrency and may differ slightly from a
/// sequential run; cut values cannot.)
pub fn run_trials_parallel(
    heuristic: &(dyn Heuristic + Sync),
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    num_trials: usize,
    base_seed: u64,
    threads: usize,
) -> TrialSet {
    run_trials_parallel_with(
        heuristic,
        h,
        constraint,
        num_trials,
        threads,
        &mut RunCtx::new(base_seed),
    )
}

/// [`run_trials_parallel`] with event emission. Each trial buffers its
/// events (including its own `TrialBegin`/`TrialEnd` bracket) into a
/// private [`MemorySink`] on its worker thread; buffers are flushed into
/// `sink` in seed order once all trials finish, so the stream is
/// **identical** to [`run_trials_traced`]'s for any thread count.
pub fn run_trials_parallel_traced(
    heuristic: &(dyn Heuristic + Sync),
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    num_trials: usize,
    base_seed: u64,
    threads: usize,
    sink: &dyn TraceSink,
) -> TrialSet {
    run_trials_parallel_with(
        heuristic,
        h,
        constraint,
        num_trials,
        threads,
        &mut RunCtx::new(base_seed).with_sink(sink),
    )
}

/// The canonical parallel trial runner: trials execute on up to `threads`
/// OS threads (0 = one per core) under the context's sink, seed, and
/// budget.
///
/// Unbudgeted results and event streams are **identical** to
/// [`run_trials_with`]'s for any thread count: each trial is a pure
/// function of its seed, outputs are assembled in seed order, and
/// per-trial event buffers are flushed in seed order. (Per-trial
/// `elapsed` values are measured under concurrency and may differ
/// slightly from a sequential run; cut values cannot.)
///
/// Under a budget every trial still executes — the work is already
/// distributed when the deadline hits — but each trial individually
/// observes the shared deadline and cancellation token and returns its
/// best-so-far, flagged in [`Trial::stopped`]. Trials do not share the
/// context's workspace; each worker trial allocates its own.
pub fn run_trials_parallel_with(
    heuristic: &(dyn Heuristic + Sync),
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    num_trials: usize,
    threads: usize,
    ctx: &mut RunCtx<'_>,
) -> TrialSet {
    let traced = ctx.sink.is_enabled();
    let base_seed = ctx.seed;
    let audit = ctx.audit();
    let fault = ctx.fault_plan().clone();
    let deadline = ctx.deadline();
    let token = ctx.cancel_token();
    let check_moves = ctx.move_check_interval();
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
    .min(num_trials.max(1))
    .max(1);

    // `None` never survives the scope below: every index gets `Some(Ok)`
    // from a finished trial or `Some(Err)` from its panic boundary. Locks
    // are recovered, never unwrapped.
    type TrialSlot = std::sync::Mutex<Option<Result<(Trial, MemorySink), ()>>>;
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<TrialSlot> = (0..num_trials)
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= num_trials {
                    break;
                }
                let seed = base_seed.wrapping_add(i as u64);
                let buffer = MemorySink::new();
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    fault.trip_start(i as u64);
                    let trial_sink: &dyn TraceSink = if traced { &buffer } else { &NullSink };
                    let mut trial_ctx = RunCtx::new(seed)
                        .with_sink(trial_sink)
                        .with_cancel_token(token.clone())
                        .with_audit(audit)
                        .with_move_check_interval(check_moves);
                    if let Some(d) = deadline {
                        trial_ctx = trial_ctx.with_deadline(d);
                    }
                    solve_one_with(heuristic, h, constraint, i, seed, &mut trial_ctx)
                }));
                let slot = match attempt {
                    Ok(trial) => Ok((trial, buffer)),
                    Err(_) => Err(()),
                };
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(slot);
            });
        }
    });
    let mut trials = Vec::with_capacity(num_trials);
    let mut failed_trials = 0usize;
    for (i, cell) in slots.into_iter().enumerate() {
        match cell.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(Ok((trial, buffer))) => {
                if traced {
                    buffer.flush_into(ctx.sink);
                }
                trials.push(trial);
            }
            Some(Err(())) | None => {
                ctx.sink.emit(RunEvent::StartAborted {
                    index: i as u64,
                    seed: base_seed.wrapping_add(i as u64),
                });
                failed_trials += 1;
            }
        }
    }
    TrialSet {
        heuristic: heuristic.name().to_string(),
        instance: h.name().to_string(),
        trials,
        failed_trials,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_benchgen::toys::two_clusters;
    use hypart_core::FmConfig;

    fn setup() -> (Hypergraph, BalanceConstraint) {
        let h = two_clusters(8, 2);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        (h, c)
    }

    #[test]
    fn flat_trials_find_optimum() {
        let (h, c) = setup();
        let heur = FlatFmHeuristic::new("LIFO", FmConfig::lifo());
        let set = run_trials(&heur, &h, &c, 8, 0);
        assert_eq!(set.len(), 8);
        assert_eq!(set.min_cut(), 2);
        assert!(set.avg_cut() >= 2.0);
        assert_eq!(set.balanced_fraction(), 1.0);
        assert_eq!(set.heuristic, "LIFO");
    }

    #[test]
    fn trials_are_reproducible() {
        let (h, c) = setup();
        let heur = FlatFmHeuristic::new("CLIP", FmConfig::clip());
        let a = run_trials(&heur, &h, &c, 5, 42);
        let b = run_trials(&heur, &h, &c, 5, 42);
        let cuts_a: Vec<u64> = a.trials.iter().map(|t| t.cut).collect();
        let cuts_b: Vec<u64> = b.trials.iter().map(|t| t.cut).collect();
        assert_eq!(cuts_a, cuts_b);
    }

    #[test]
    fn ml_heuristic_runs() {
        let (h, c) = setup();
        let heur = MlHeuristic::new("ML LIFO", MlConfig::ml_lifo());
        let set = run_trials(&heur, &h, &c, 3, 0);
        assert_eq!(set.min_cut(), 2);
    }

    #[test]
    fn multi_start_heuristic_runs() {
        let (h, c) = setup();
        let heur = MultiStartHeuristic::new("hMetis-like x4", MlConfig::ml_lifo(), 4, 1);
        assert_eq!(heur.nruns(), 4);
        let set = run_trials(&heur, &h, &c, 2, 0);
        assert_eq!(set.min_cut(), 2);
    }

    #[test]
    fn parallel_trials_match_sequential() {
        let (h, c) = setup();
        let heur = FlatFmHeuristic::new("LIFO", FmConfig::lifo());
        let seq = run_trials(&heur, &h, &c, 12, 3);
        for threads in [0, 1, 3] {
            let par = run_trials_parallel(&heur, &h, &c, 12, 3, threads);
            let seq_cuts: Vec<u64> = seq.trials.iter().map(|t| t.cut).collect();
            let par_cuts: Vec<u64> = par.trials.iter().map(|t| t.cut).collect();
            assert_eq!(seq_cuts, par_cuts, "threads={threads}");
            let seq_seeds: Vec<u64> = seq.trials.iter().map(|t| t.seed).collect();
            let par_seeds: Vec<u64> = par.trials.iter().map(|t| t.seed).collect();
            assert_eq!(seq_seeds, par_seeds, "threads={threads}");
        }
    }

    #[test]
    fn traced_trials_bracket_each_trial() {
        let (h, c) = setup();
        let heur = MlHeuristic::new("ML", MlConfig::ml_lifo());
        let sink = MemorySink::new();
        let set = run_trials_traced(&heur, &h, &c, 3, 10, &sink);
        let events = sink.take();
        let begins: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                RunEvent::TrialBegin { trial, seed, .. } => Some((*trial, *seed)),
                _ => None,
            })
            .collect();
        assert_eq!(begins, vec![(0, 10), (1, 11), (2, 12)]);
        let ends: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                RunEvent::TrialEnd { cut, .. } => Some(*cut),
                _ => None,
            })
            .collect();
        let cuts: Vec<u64> = set.trials.iter().map(|t| t.cut).collect();
        assert_eq!(ends, cuts);
    }

    #[test]
    fn parallel_traced_trials_match_sequential_stream() {
        let (h, c) = setup();
        let heur = FlatFmHeuristic::new("CLIP", FmConfig::clip());
        let seq_sink = MemorySink::new();
        let seq = run_trials_traced(&heur, &h, &c, 9, 5, &seq_sink);
        let seq_events = seq_sink.take();
        assert!(!seq_events.is_empty());
        for threads in [1, 3, 0] {
            let par_sink = MemorySink::new();
            let par = run_trials_parallel_traced(&heur, &h, &c, 9, 5, threads, &par_sink);
            let seq_cuts: Vec<u64> = seq.trials.iter().map(|t| t.cut).collect();
            let par_cuts: Vec<u64> = par.trials.iter().map(|t| t.cut).collect();
            assert_eq!(seq_cuts, par_cuts, "threads={threads}");
            assert_eq!(par_sink.take(), seq_events, "threads={threads}");
        }
    }

    #[test]
    fn panicked_trial_is_isolated_in_both_runners() {
        use hypart_core::FaultPlan;
        let (h, c) = setup();
        let heur = FlatFmHeuristic::new("LIFO", FmConfig::lifo());
        let clean = run_trials(&heur, &h, &c, 6, 3);

        let mut seq_ctx = RunCtx::new(3).with_fault_plan(FaultPlan::panic_in_start(2));
        let seq = run_trials_with(&heur, &h, &c, 6, &mut seq_ctx);
        assert_eq!(seq.failed_trials, 1);
        assert_eq!(seq.len(), 5);

        let mut par_ctx = RunCtx::new(3).with_fault_plan(FaultPlan::panic_in_start(2));
        let par = run_trials_parallel_with(&heur, &h, &c, 6, 2, &mut par_ctx);
        assert_eq!(par.failed_trials, 1);
        // Survivors are bitwise the fault-free trials minus #2.
        let expect: Vec<u64> = clean
            .trials
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, t)| t.cut)
            .collect();
        let seq_cuts: Vec<u64> = seq.trials.iter().map(|t| t.cut).collect();
        let par_cuts: Vec<u64> = par.trials.iter().map(|t| t.cut).collect();
        assert_eq!(seq_cuts, expect);
        assert_eq!(par_cuts, expect);
    }

    #[test]
    fn min_avg_cell_formats_like_the_paper() {
        let set = TrialSet {
            heuristic: "x".into(),
            instance: "y".into(),
            trials: vec![
                Trial {
                    seed: 0,
                    cut: 333,
                    balanced: true,
                    stopped: StopReason::Completed,
                    elapsed: Duration::ZERO,
                },
                Trial {
                    seed: 1,
                    cut: 945,
                    balanced: true,
                    stopped: StopReason::Completed,
                    elapsed: Duration::ZERO,
                },
            ],
            failed_trials: 0,
        };
        assert_eq!(set.min_avg_cell(), "333/639");
    }

    #[test]
    fn empty_set_behaves() {
        let set = TrialSet {
            heuristic: "x".into(),
            instance: "y".into(),
            trials: vec![],
            failed_trials: 0,
        };
        assert!(set.is_empty());
        assert_eq!(set.avg_cut(), 0.0);
        assert_eq!(set.avg_seconds(), 0.0);
        assert_eq!(set.balanced_fraction(), 0.0);
    }
}
