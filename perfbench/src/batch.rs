//! The batch workloads: `ml_sweep` (serial ML starts then V-cycles on
//! the best), `ml_lanes2` (the deterministic 2-lane engine) and
//! `nlevel_bisect` (the n-level engine).
//!
//! A run repeats the workload's fixed work list while time remains. The
//! first pass is audited by the independent `PartitionAuditor`; every
//! later pass must reproduce it exactly. Every pass does the same work;
//! a host-speed meter (`speed`), ticked before each of its starts, scales
//! its times to a host of reference speed, and the median over passes is
//! reported. With `--trace 1` untraced and traced passes alternate (the
//! difference of their median scaled walls is the tracing overhead); then the
//! layers the engines call internally are timed standalone, outside the
//! timed window.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use hypart_benchgen::ispd98_like;
use hypart_core::{
    derive_seed, ensure_lanes, select_contractions, BalanceConstraint, Bisection, BudgetProbe,
    CoarsenWorkspace, ContractScratch, ContractionLimits, DynHypergraph, EngineKind,
    PartitionAuditor, RunCtx,
};
use hypart_hypergraph::{io::hgr, Hypergraph, PartId};
use hypart_ml::{build_hierarchy_par_with, MlConfig, MlPartitioner, PAR_REFINE_MIN_VERTICES};
use hypart_trace::{NullSink, TraceSink};

use crate::speed::Meter;
use crate::trace::{CountingSink, RunTally, Tracer};
use crate::{median, ms, quantile, scored_cut, Args, InstanceInfo, Report};

/// Balance window of every batch workload: the paper's 49–51 %.
const FRACTION: f64 = 0.02;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest passes in a run, so that every run checks that results repeat.
const MIN_PASSES: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sweep,
    Lanes2,
    NLevel,
}

/// One instance family of a work list: `count` instances of ISPD98-like
/// profile `index` at `scale`, each with `starts` starts.
struct Spec {
    index: usize,
    scale: f64,
    count: usize,
    starts: usize,
}

struct Plan {
    kind: Kind,
    specs: Vec<Spec>,
    vcycles: usize,
    config: MlConfig,
}

fn plan(workload: &str) -> Plan {
    let ibm = |index, scale, count, starts| Spec {
        index,
        scale,
        count,
        starts,
    };
    // Instance counts keep the cut sums steady from seed to seed: a single
    // 2-lane or n-level start's cut varies by about 40 % with its seed, so
    // those workloads sum many single starts.
    match workload {
        "ml_sweep" => Plan {
            kind: Kind::Sweep,
            specs: vec![ibm(1, 1.0, 24, 4)],
            vcycles: 1,
            config: MlConfig::default(),
        },
        "ml_lanes2" => Plan {
            kind: Kind::Lanes2,
            specs: vec![ibm(1, 1.0, 128, 1), ibm(10, 1.0, 1, 2)],
            vcycles: 0,
            config: MlConfig::default().with_threads(2),
        },
        _ => Plan {
            kind: Kind::NLevel,
            specs: vec![ibm(1, 0.125, 128, 1)],
            vcycles: 0,
            config: MlConfig::ml_lifo().with_engine(EngineKind::NLevel),
        },
    }
}

struct Inst {
    name: String,
    h: Hypergraph,
    constraint: BalanceConstraint,
    gen_seed: u64,
    starts: usize,
    bytes: usize,
}

impl Inst {
    fn start_seed(&self, s: usize) -> u64 {
        derive_seed(self.gen_seed, s as u64)
    }
}

/// Generates, serializes and re-parses every instance of the plan. The
/// instance the engines see is the parsed one. Returns the instances,
/// the parse time and the meter's share of the elapsed time, in ms.
fn setup(
    plan: &Plan,
    seed: u64,
    tracer: &mut Tracer,
    meter: &mut Meter,
    report: &mut Report,
) -> (Vec<Inst>, f64, f64) {
    let mut insts = Vec::new();
    let mut parse_ms = 0.0;
    let mut meter_ms = 0.0;
    let mut k = 0u64;
    for spec in &plan.specs {
        for _ in 0..spec.count {
            meter_ms += meter.tick();
            let gen_seed = derive_seed(seed, k);
            let generated = ispd98_like(spec.index, spec.scale, gen_seed);
            let mut text = Vec::new();
            hgr::write(&generated, &mut text).expect("writing to memory cannot fail");
            let t = Instant::now();
            let parsed = tracer.span("hypergraph.parse", k, || hgr::read(&text[..]));
            parse_ms += ms(t.elapsed());
            let h = match parsed {
                Ok(h) if h.content_digest() == generated.content_digest() => h,
                Ok(_) => {
                    report.mismatch(format!(
                        "instance {k}: .hgr round trip changed the instance"
                    ));
                    generated
                }
                Err(e) => {
                    report.mismatch(format!("instance {k}: .hgr round trip failed: {e}"));
                    generated
                }
            };
            let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), FRACTION);
            insts.push(Inst {
                name: format!("ibm{:02}@{}#{k}", spec.index, spec.scale),
                h,
                constraint,
                gen_seed,
                starts: spec.starts,
                bytes: text.len(),
            });
            k += 1;
        }
    }
    (insts, parse_ms, meter_ms)
}

/// One finished start (or V-cycle) as the engine reported it.
struct Run {
    inst: usize,
    seed: u64,
    ms: f64,
    /// `None` when the engine panicked.
    outcome: Option<(u64, bool, bool, Vec<PartId>)>,
}

/// What a traced pass measured inside the engines, per start.
#[derive(Default)]
struct LayerTallies {
    coarsen_levels: Vec<f64>,
    coarsest_vertices: Vec<f64>,
    initial: RunTally,
    refine: RunTally,
    vcycle: RunTally,
    vcycles_improved: u64,
    /// Per parallel start: its flat-run tallies, coarsest level first.
    par_runs: Vec<Vec<RunTally>>,
    shards_aborted: u64,
    nlevel_local_moves: Vec<f64>,
    nlevel_flat_passes: Vec<f64>,
}

struct Pass {
    /// Wall time of the pass, less the meter's ticks.
    wall_s: f64,
    /// Factor from this pass's times to reference-host times.
    scale: f64,
    starts: Vec<Run>,
    vcycles: Vec<Run>,
    tallies: LayerTallies,
}

fn outcome_of(o: &hypart_ml::MlOutcome) -> (u64, bool, bool, Vec<PartId>) {
    (
        o.cut,
        o.balanced,
        o.audit_failure.is_none(),
        o.assignment.clone(),
    )
}

fn run_pass(plan: &Plan, insts: &[Inst], sink: Option<&CountingSink>, tracer: &mut Tracer) -> Pass {
    let partitioner = MlPartitioner::new(plan.config.clone());
    let initial_tries = plan.config.initial_tries.max(1);
    let sink_ref: &dyn TraceSink = match sink {
        Some(s) => s,
        None => &NullSink,
    };
    let mut tallies = LayerTallies::default();
    let take = |t: &mut LayerTallies| -> Vec<RunTally> {
        sink.map_or_else(Vec::new, |s| {
            let (runs, shards) = s.take();
            t.shards_aborted += shards;
            runs
        })
    };
    let mut starts = Vec::new();
    let mut vcycles = Vec::new();
    let mut meter = Meter::new();
    let mut meter_ms = 0.0;
    let t_pass = Instant::now();
    tracer.enter("pass", 0);
    let mut job = 0u64;
    for (i, inst) in insts.iter().enumerate() {
        let h = &inst.h;
        let c = &inst.constraint;
        let mut ctx = RunCtx::new(0).with_sink(sink_ref);
        let mut best: Option<(u64, Vec<PartId>)> = None;
        for s in 0..inst.starts {
            let seed = inst.start_seed(s);
            ctx.seed = seed;
            meter_ms += meter.tick();
            tracer.enter("start", job);
            let t = Instant::now();
            let result = match plan.kind {
                Kind::Sweep => {
                    let hier = tracer.span("coarsen", job, || {
                        catch_unwind(AssertUnwindSafe(|| {
                            partitioner.coarsen_hierarchy_with(h, &mut ctx)
                        }))
                    });
                    hier.ok().and_then(|hier| {
                        if sink.is_some() {
                            tallies.coarsen_levels.push(hier.len() as f64);
                            let coarsest = hier.coarsest().unwrap_or(h).num_vertices();
                            tallies.coarsest_vertices.push(coarsest as f64);
                        }
                        tracer
                            .span("refine", job, || {
                                catch_unwind(AssertUnwindSafe(|| {
                                    partitioner.run_from_hierarchy_with(h, &hier, c, &mut ctx)
                                }))
                            })
                            .ok()
                    })
                }
                Kind::Lanes2 | Kind::NLevel => {
                    let name = if plan.kind == Kind::Lanes2 {
                        "par.start"
                    } else {
                        "nlevel.start"
                    };
                    tracer
                        .span(name, job, || {
                            catch_unwind(AssertUnwindSafe(|| partitioner.run_with(h, c, &mut ctx)))
                        })
                        .ok()
                }
            };
            let elapsed = ms(t.elapsed());
            tracer.exit();
            let runs = take(&mut tallies);
            match (&result, plan.kind) {
                (Some(_), Kind::Sweep) => {
                    let split = initial_tries.min(runs.len());
                    runs[..split].iter().for_each(|r| tallies.initial.add(r));
                    runs[split..].iter().for_each(|r| tallies.refine.add(r));
                }
                (Some(o), Kind::NLevel) if sink.is_some() => {
                    let flat: u64 = runs.iter().map(|r| r.passes).sum();
                    tallies.nlevel_flat_passes.push(flat as f64);
                    // The n-level outcome reports localized moves where
                    // the coarse engine reports passes.
                    tallies.nlevel_local_moves.push(o.total_passes as f64);
                }
                // One entry per start, so the probes can pair them up.
                (_, Kind::Lanes2) if sink.is_some() => tallies.par_runs.push(runs),
                _ => {}
            }
            if result.is_none() {
                // A panic may leave the workspaces half-updated.
                ctx = RunCtx::new(seed).with_sink(sink_ref);
            }
            if let Some(o) = result.as_ref().filter(|o| o.balanced) {
                if best.as_ref().is_none_or(|(cut, _)| o.cut < *cut) {
                    best = Some((o.cut, o.assignment.clone()));
                }
            }
            starts.push(Run {
                inst: i,
                seed,
                ms: elapsed,
                outcome: result.as_ref().map(outcome_of),
            });
            job += 1;
        }
        // V-cycles on the best start, kept only when they improve.
        for v in 0..plan.vcycles {
            let Some((best_cut, assignment)) = best.clone() else {
                break;
            };
            let seed = derive_seed(inst.gen_seed, 1_000_000 + v as u64);
            ctx.seed = seed;
            meter_ms += meter.tick();
            let t = Instant::now();
            let result = tracer
                .span("vcycle", job, || {
                    catch_unwind(AssertUnwindSafe(|| {
                        partitioner.vcycle_with(h, c, &assignment, &mut ctx)
                    }))
                })
                .ok();
            let elapsed = ms(t.elapsed());
            let runs = take(&mut tallies);
            runs.iter().for_each(|r| tallies.vcycle.add(r));
            if let Some(o) = &result {
                if o.balanced && o.cut < best_cut {
                    tallies.vcycles_improved += 1;
                    best = Some((o.cut, o.assignment.clone()));
                }
            } else {
                ctx = RunCtx::new(seed).with_sink(sink_ref);
            }
            vcycles.push(Run {
                inst: i,
                seed,
                ms: elapsed,
                outcome: result.as_ref().map(outcome_of),
            });
            job += 1;
        }
    }
    tracer.exit();
    Pass {
        wall_s: t_pass.elapsed().as_secs_f64() - meter_ms / 1e3,
        scale: meter.scale(),
        starts,
        vcycles,
        tallies,
    }
}

/// Audits every result of a pass against the independent auditor:
/// reported cut and balance must match the recount. Returns the number
/// of failed operations (panicked, unbalanced, or audit-dirty).
fn audit_pass(pass: &Pass, insts: &[Inst], report: &mut Report) -> u64 {
    let mut failed = 0;
    for (what, run) in pass
        .starts
        .iter()
        .map(|r| ("start", r))
        .chain(pass.vcycles.iter().map(|r| ("vcycle", r)))
    {
        let Some((cut, balanced, clean, assignment)) = &run.outcome else {
            failed += 1;
            continue;
        };
        let inst = &insts[run.inst];
        let label = format!("{what} seed {} on instance {}", run.seed, run.inst);
        let bisection = match Bisection::new(&inst.h, assignment.clone()) {
            Ok(b) => b,
            Err(e) => {
                report.mismatch(format!("{label}: invalid assignment: {e}"));
                continue;
            }
        };
        let legal = inst.constraint.is_satisfied(&bisection);
        let window = legal.then(|| (inst.constraint.lower(), inst.constraint.upper()));
        if let Err(e) = PartitionAuditor::audit_bisection(&bisection, window) {
            report.mismatch(format!("{label}: audit failed: {e}"));
        }
        if bisection.cut() != *cut || crate::recount_cut(&inst.h, |v| assignment[v].index()) != *cut
        {
            report.mismatch(format!(
                "{label}: reported cut {cut}, recount {}",
                bisection.cut()
            ));
        }
        if legal != *balanced {
            report.mismatch(format!(
                "{label}: reported balanced={balanced}, audit says {legal}"
            ));
        }
        if !balanced || !clean {
            failed += 1;
        }
    }
    failed
}

/// Later passes run the same starts with the same seeds on deterministic
/// engines, so they must reproduce the first pass exactly.
fn check_repeat(first: &Pass, later: &Pass, report: &mut Report) {
    let pairs = first
        .starts
        .iter()
        .zip(&later.starts)
        .chain(first.vcycles.iter().zip(&later.vcycles));
    for (a, b) in pairs {
        if a.outcome != b.outcome {
            report.mismatch(format!(
                "seed {} on instance {}: result differs between passes",
                a.seed, a.inst
            ));
        }
    }
}

/// Per instance: best cut (after V-cycles) and mean start cut, summed
/// over the instances. A start or V-cycle that panicked or ended
/// unbalanced scores the instance's cut ceiling.
fn cuts(pass: &Pass, insts: &[Inst]) -> (f64, f64) {
    let (mut best_sum, mut mean_sum) = (0.0, 0.0);
    for (i, inst) in insts.iter().enumerate() {
        let score = |r: &Run| scored_cut(&inst.h, r.outcome.as_ref().map(|o| (o.0, o.1)));
        let starts: Vec<f64> = pass
            .starts
            .iter()
            .filter(|r| r.inst == i)
            .map(score)
            .collect();
        let vcycles = pass.vcycles.iter().filter(|r| r.inst == i).map(score);
        best_sum += starts
            .iter()
            .copied()
            .chain(vcycles)
            .fold(f64::INFINITY, f64::min);
        mean_sum += starts.iter().sum::<f64>() / starts.len() as f64;
    }
    (best_sum, mean_sum)
}

pub fn run(args: &Args) -> Result<Report, String> {
    // One physical worker: the 2-lane engine keeps its two logical lanes
    // (its results do not depend on the worker count), but two workers on
    // a 2-core shared host wait on each other at every round barrier, and
    // other tenants' load then spreads its times by half from run to run.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    pool.install(|| run_plan(args))
}

fn run_plan(args: &Args) -> Result<Report, String> {
    let plan = plan(&args.workload);
    let origin = Instant::now();
    let mut report = Report::default();

    // Set-up, several times; the last set of instances is kept.
    let mut setup_times = Vec::new();
    let mut insts = Vec::new();
    let mut parse = Vec::new();
    let mut tracer = Tracer::new(origin, false);
    let mut meter = Meter::new();
    for k in 0..SETUPS {
        if k + 1 == SETUPS {
            tracer = Tracer::new(origin, args.trace);
        }
        let t = Instant::now();
        let (built, parse_ms, meter_ms) =
            setup(&plan, args.seed, &mut tracer, &mut meter, &mut report);
        setup_times.push(t.elapsed().as_secs_f64() - meter_ms / 1e3);
        parse.push(parse_ms);
        insts = built;
    }
    let setup_scale = meter.scale();
    report.instances = insts
        .iter()
        .map(|i| InstanceInfo::of(&i.name, &i.h, i.bytes))
        .collect();
    let bytes: usize = insts.iter().map(|i| i.bytes).sum();
    let parse_ms = median(&parse);

    // Timed passes.
    let t_run = Instant::now();
    let mut passes = Vec::new();
    // Traced runs alternate untraced and traced passes of the same list;
    // only the first traced pass keeps its spans.
    let mut traced = Vec::new();
    loop {
        let t_iter = Instant::now();
        passes.push(run_pass(
            &plan,
            &insts,
            None,
            &mut Tracer::new(origin, false),
        ));
        if args.trace {
            let sink = CountingSink::default();
            let pass = if traced.is_empty() {
                run_pass(&plan, &insts, Some(&sink), &mut tracer)
            } else {
                run_pass(&plan, &insts, Some(&sink), &mut Tracer::new(origin, true))
            };
            traced.push(pass);
        }
        let last = t_iter.elapsed().as_secs_f64();
        if passes.len() + traced.len() >= MIN_PASSES
            && t_run.elapsed().as_secs_f64() + last > args.seconds
        {
            break;
        }
    }

    // Correctness: audit the first pass, then require exact repeats.
    let first = &passes[0];
    let failed_once = audit_pass(first, &insts, &mut report);
    for later in passes.iter().skip(1).chain(&traced) {
        check_repeat(first, later, &mut report);
    }
    let n_passes = (passes.len() + traced.len()) as u64;
    let ops_once = (first.starts.len() + first.vcycles.len()) as u64;
    report.attempted = ops_once * n_passes;
    report.failed = failed_once * n_passes;

    // Every pass does identical work. A pass's wall time and start-time
    // quantiles, scaled to reference-host speed, are reported as their
    // median over passes; the raw figures are the fastest pass's, unscaled.
    let wall_s = scaled_median(&passes, |p| p.wall_s);
    let fastest = |f: fn(&Pass) -> f64| minimum(&passes.iter().map(f).collect::<Vec<_>>());
    let (cut_best, cut_mean) = cuts(first, &insts);
    report.set("setup_s", median(&setup_times) * setup_scale, "s");
    report.set("setup_raw_s", median(&setup_times), "s");
    report.set("wall_s", wall_s, "s");
    report.set("wall_raw_s", fastest(|p| p.wall_s), "s");
    report.set(
        "start_p50_ms",
        scaled_median(&passes, |p| start_quantile(p, 0.5)),
        "ms",
    );
    report.set(
        "start_p90_ms",
        scaled_median(&passes, |p| start_quantile(p, 0.9)),
        "ms",
    );
    report.set(
        "start_p50_raw_ms",
        fastest(|p| start_quantile(p, 0.5)),
        "ms",
    );
    report.set("start_samples", first.starts.len() as f64, "count");
    report.set("passes", passes.len() as f64, "count");
    report.set(
        "host_speed",
        median(&passes.iter().map(|p| p.scale).collect::<Vec<_>>()),
        "ratio",
    );
    report.set("jobs_per_s", ops_once as f64 / wall_s, "1/s");
    report.set("cut_best", cut_best, "nets");
    report.set("cut_mean", cut_mean, "nets");
    report.set(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.set("peak_rss_mb", crate::peak_rss_mb("self"), "MiB");
    report.set("hypergraph.parse_ms", parse_ms, "ms");
    report.set(
        "hypergraph.parse_mb_per_s",
        bytes as f64 / 1e6 / (parse_ms / 1e3),
        "MB/s",
    );

    if let Some(first_traced) = traced.first() {
        let overhead = (wall_s, scaled_median(&traced, |p| p.wall_s));
        layer_metrics(
            &plan,
            &insts,
            first_traced,
            overhead,
            &mut tracer,
            &mut report,
        );
    }
    Ok(report)
}

/// Per-layer metrics of the traced pass, plus the standalone timings of
/// the layers the engines call internally.
fn layer_metrics(
    plan: &Plan,
    insts: &[Inst],
    traced: &Pass,
    (untraced_wall, traced_wall): (f64, f64),
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let mut spans = Vec::new();
    tracer.drain_into(&mut spans);
    let times = crate::trace::layer_times(&spans);
    let total = |name: &str| times.get(name).map_or(0.0, |t| t.0);
    let wall_ms = traced.wall_s * 1e3;
    let t = &traced.tallies;

    // Coverage: the share of the traced pass spent inside layer calls.
    let layer_ms: f64 = ["coarsen", "refine", "vcycle", "par.start", "nlevel.start"]
        .iter()
        .map(|n| total(n))
        .sum();
    report.set("trace.coverage", layer_ms / wall_ms, "ratio");
    // Overhead: median traced pass against median untraced pass, both
    // scaled to reference-host speed.
    report.set("trace.traced_wall_s", traced_wall, "s");
    report.set("trace.untraced_wall_s", untraced_wall, "s");
    report.set("trace.overhead_s", traced_wall - untraced_wall, "s");
    report.set(
        "trace.overhead_frac",
        (traced_wall - untraced_wall) / untraced_wall,
        "ratio",
    );

    if plan.kind == Kind::Sweep {
        report.set("coarsen.ms", total("coarsen"), "ms");
        report.set("coarsen.share", total("coarsen") / wall_ms, "ratio");
        report.set("coarsen.levels", median(&t.coarsen_levels), "count");
        report.set(
            "coarsen.coarsest_vertices",
            median(&t.coarsest_vertices),
            "count",
        );
        report.set("refine.ms", total("refine"), "ms");
        report.set("refine.share", total("refine") / wall_ms, "ratio");
        report.set("initial.passes", t.initial.passes as f64, "count");
        report.set("initial.moves", t.initial.moves as f64, "count");
        report.set("refine.passes", t.refine.passes as f64, "count");
        report.set("refine.moves", t.refine.moves as f64, "count");
        report.set("refine.moves_kept_frac", t.refine.kept_frac(), "ratio");
        report.set("refine.corked_passes", t.refine.corked as f64, "count");
        report.set("vcycle.ms", total("vcycle"), "ms");
        report.set("vcycle.count", traced.vcycles.len() as f64, "count");
        report.set(
            "vcycle.improved_frac",
            t.vcycles_improved as f64 / traced.vcycles.len().max(1) as f64,
            "ratio",
        );
    }

    // Standalone layer timings, after the timed window.
    match plan.kind {
        Kind::Lanes2 => par_layers(plan, insts, traced, tracer, report),
        Kind::NLevel => nlevel_layers(plan, insts, traced, tracer, report),
        Kind::Sweep => {}
    }
    tracer.drain_into(&mut spans);
    report.spans = spans;
}

fn par_layers(
    plan: &Plan,
    insts: &[Inst],
    traced: &Pass,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let cfg = &plan.config;
    let mut lanes = Vec::new();
    ensure_lanes(&mut lanes, cfg.threads.max(1));
    let mut ws = CoarsenWorkspace::new();
    let mut hier_ms = Vec::new();
    let mut rounds = RunTally::default();
    for (run, runs) in traced.starts.iter().zip(&traced.tallies.par_runs) {
        let h = &insts[run.inst].h;
        // The engine seeds its hierarchy RNG with the start seed, so this
        // rebuilds exactly the hierarchy the traced start used.
        let mut rng = SmallRng::seed_from_u64(run.seed);
        let t = Instant::now();
        let levels = tracer.span("probe.par_hierarchy", run.seed, || {
            build_hierarchy_par_with(
                h,
                &cfg.coarsen,
                None,
                &mut rng,
                &mut ws,
                &mut lanes,
                cfg.deterministic,
                &mut BudgetProbe::unbounded(),
            )
        });
        hier_ms.push(ms(t.elapsed()));
        // Flat runs arrive coarsest level first; levels at or above the
        // parallel threshold were refined in synchronized rounds.
        let sizes: Vec<usize> = std::iter::once(h.num_vertices())
            .chain(levels.iter().map(|l| l.graph.num_vertices()))
            .rev()
            .collect();
        for (size, tally) in sizes.iter().zip(runs) {
            if *size >= PAR_REFINE_MIN_VERTICES {
                rounds.add(tally);
            }
        }
    }
    let start_ms: Vec<f64> = traced.starts.iter().map(|r| r.ms).collect();
    report.set("par.start_ms", median(&start_ms), "ms");
    report.set("par.hierarchy_ms", median(&hier_ms), "ms");
    report.set("par.rounds", rounds.passes as f64, "count");
    report.set("par.moves", rounds.moves as f64, "count");
    report.set("par.moves_kept_frac", rounds.kept_frac(), "ratio");
    report.set(
        "par.shards_aborted",
        traced.tallies.shards_aborted as f64,
        "count",
    );
}

fn nlevel_layers(
    plan: &Plan,
    insts: &[Inst],
    traced: &Pass,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let coarsen = &plan.config.coarsen;
    let mut ws = CoarsenWorkspace::new();
    let mut scratch = ContractScratch::new();
    let (mut contract_ms, mut uncontract_ms, mut contractions) = (vec![], vec![], vec![]);
    for run in &traced.starts {
        let h = &insts[run.inst].h;
        // The engine's limits: the shared coarsening stop size, net-size
        // cutoff and cluster-weight cap.
        let avg = h.total_vertex_weight() as f64 / h.num_vertices() as f64;
        let limits = ContractionLimits {
            stop_size: coarsen.stop_size,
            max_net_size: coarsen.max_net_size_for_matching,
            cluster_cap: ((avg * coarsen.cluster_cap_multiple) as u64)
                .max(h.max_vertex_weight())
                .max(1),
        };
        let mut d = DynHypergraph::new(h);
        let t = Instant::now();
        tracer.span("probe.contract", run.seed, || {
            select_contractions(
                &mut d,
                &limits,
                None,
                run.seed,
                &mut ws.conn,
                &mut scratch,
                &mut BudgetProbe::unbounded(),
            )
        });
        contract_ms.push(ms(t.elapsed()));
        contractions.push(scratch.mementos.len() as f64);
        let t = Instant::now();
        tracer.span("probe.uncontract", run.seed, || {
            for m in scratch.mementos.iter().rev() {
                d.uncontract(m);
            }
        });
        uncontract_ms.push(ms(t.elapsed()));
        if let Err(e) = d.validate_pristine(h) {
            report.mismatch(format!("contract/uncontract round trip: {e}"));
        }
    }
    let start_ms: Vec<f64> = traced.starts.iter().map(|r| r.ms).collect();
    let (s, c, u) = (
        median(&start_ms),
        median(&contract_ms),
        median(&uncontract_ms),
    );
    report.set("nlevel.start_ms", s, "ms");
    report.set("nlevel.contract_ms", c, "ms");
    report.set("nlevel.uncontract_ms", u, "ms");
    report.set("nlevel.rest_ms", s - c - u, "ms");
    report.set("nlevel.contractions", median(&contractions), "count");
    let t = &traced.tallies;
    report.set("nlevel.local_moves", median(&t.nlevel_local_moves), "count");
    report.set("nlevel.flat_passes", median(&t.nlevel_flat_passes), "count");
}

fn minimum(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median over passes of a per-pass figure scaled to reference-host speed.
fn scaled_median(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(p) * p.scale).collect::<Vec<_>>())
}

/// Quantile `q` of a pass's start times.
fn start_quantile(pass: &Pass, q: f64) -> f64 {
    quantile(&pass.starts.iter().map(|r| r.ms).collect::<Vec<_>>(), q)
}
