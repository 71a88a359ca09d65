//! hypart benchmark: four workloads driven through hypart's public entry
//! points, each timed end to end (`--trace 0`) or layer by layer
//! (`--trace 1`).
//!
//! ```text
//! perfbench run --workload ml_sweep|ml_lanes2|nlevel_bisect|serve_mixed \
//!               --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is generated from `--seed`. Every output is checked: a
//! mismatch against the independent checks prints `"correct": false` and
//! exits nonzero. The last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the full record (host,
//! inputs, every metric) goes to `.bench_out/` under the working
//! directory, and the traced run also writes its spans there.

mod batch;
mod serve;
mod speed;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use hypart_hypergraph::Hypergraph;
use hypart_trace::json::JsonValue;

use crate::trace::Span;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("start_p50_ms", "ms"),
    ("cut_best", "nets"),
    ("cut_mean", "nets"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// a workload does not call reads 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("hypergraph.parse_ms", "ms"),
    ("hypergraph.parse_mb_per_s", "MB/s"),
    ("coarsen.ms", "ms"),
    ("coarsen.levels", "count"),
    ("coarsen.coarsest_vertices", "count"),
    ("coarsen.share", "ratio"),
    ("refine.ms", "ms"),
    ("refine.share", "ratio"),
    ("initial.passes", "count"),
    ("initial.moves", "count"),
    ("refine.passes", "count"),
    ("refine.moves", "count"),
    ("refine.moves_kept_frac", "ratio"),
    ("refine.corked_passes", "count"),
    ("vcycle.ms", "ms"),
    ("vcycle.count", "count"),
    ("vcycle.improved_frac", "ratio"),
    ("par.start_ms", "ms"),
    ("par.hierarchy_ms", "ms"),
    ("par.rounds", "count"),
    ("par.moves", "count"),
    ("par.moves_kept_frac", "ratio"),
    ("par.shards_aborted", "count"),
    ("nlevel.start_ms", "ms"),
    ("nlevel.contract_ms", "ms"),
    ("nlevel.uncontract_ms", "ms"),
    ("nlevel.rest_ms", "ms"),
    ("nlevel.contractions", "count"),
    ("nlevel.local_moves", "count"),
    ("nlevel.flat_passes", "count"),
    ("server.ack_ms.inline.p50", "ms"),
    ("server.ack_ms.inline.p90", "ms"),
    ("server.ack_ms.digest.p50", "ms"),
    ("server.ack_ms.digest.p90", "ms"),
    ("server.result_ms.inline.p50", "ms"),
    ("server.result_ms.hit.p50", "ms"),
    ("server.result_ms.miss.p50", "ms"),
    ("server.result_ms.kway.p50", "ms"),
    ("server.result_ms.eval.p50", "ms"),
    ("server.result_ms.traced.p50", "ms"),
    ("server.instance_hit_frac", "ratio"),
    ("server.hierarchy_hit_frac", "ratio"),
    ("server.trace_events_per_job", "count"),
    ("server.rejected", "count"),
    ("server.errors", "count"),
    ("self.hypergraph_ms", "ms"),
    ("self.coarsen_ms", "ms"),
    ("self.refine_ms", "ms"),
    ("self.vcycle_ms", "ms"),
    ("self.par_ms", "ms"),
    ("self.nlevel_ms", "ms"),
    ("self.server_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Span name → `self.*` metric it is summed into. Spans of the bench's
/// own loop (`pass`, `start`, `job`) count as bench time.
const SELF_OF: [(&str, &str); 11] = [
    ("hypergraph.parse", "self.hypergraph_ms"),
    ("coarsen", "self.coarsen_ms"),
    ("refine", "self.refine_ms"),
    ("vcycle", "self.vcycle_ms"),
    ("par.start", "self.par_ms"),
    ("nlevel.start", "self.nlevel_ms"),
    ("server.ack", "self.server_ms"),
    ("server.result", "self.server_ms"),
    ("pass", "self.bench_ms"),
    ("start", "self.bench_ms"),
    ("job", "self.bench_ms"),
];

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Shape of one generated instance, recorded with every result.
#[derive(Clone, Debug)]
pub struct InstanceInfo {
    pub name: String,
    pub cells: usize,
    pub nets: usize,
    pub pins: usize,
    pub bytes: usize,
}

impl InstanceInfo {
    pub fn of(name: &str, h: &Hypergraph, bytes: usize) -> InstanceInfo {
        InstanceInfo {
            name: name.to_string(),
            cells: h.num_vertices(),
            nets: h.num_nets(),
            pins: h.num_pins(),
            bytes,
        }
    }
}

/// What a workload hands back: counts, checks, metrics and spans.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures (wrong cut, balance or digest, results
    /// that do not repeat); any entry makes the run exit nonzero.
    pub mismatches: Vec<String>,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub instances: Vec<InstanceInfo>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            eprintln!("correctness: {what}");
        }
        self.mismatches.push(what);
    }

    /// Fills the per-layer self times from the recorded spans.
    pub fn set_self_times(&mut self) {
        let times = trace::layer_times(&self.spans);
        for (_, metric) in SELF_OF {
            self.metrics
                .entry(metric.to_string())
                .or_insert((0.0, "ms"));
        }
        for (span, metric) in SELF_OF {
            if let Some(&(_, self_ms)) = times.get(span) {
                if let Some(e) = self.metrics.get_mut(metric) {
                    e.0 += self_ms;
                }
            }
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile of a sample (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Independent weighted cut of a k-way assignment: a net is cut when its
/// pins span more than one part.
pub fn recount_cut(h: &Hypergraph, part_of: impl Fn(usize) -> usize) -> u64 {
    let mut cut = 0u64;
    for e in h.nets() {
        let pins = h.net_pins(e);
        if let Some((first, rest)) = pins.split_first() {
            let p0 = part_of(first.index());
            if rest.iter().any(|v| part_of(v.index()) != p0) {
                cut += u64::from(h.net_weight(e));
            }
        }
    }
    cut
}

/// Cut a result scores in `cut_best` and `cut_mean`: its cut when it is
/// balanced, otherwise (failed or unbalanced) the instance's total net
/// weight, which no cut exceeds, so a broken run never reads as a lower
/// cut.
pub fn scored_cut(h: &Hypergraph, result: Option<(u64, bool)>) -> f64 {
    match result {
        Some((cut, true)) => cut as f64,
        _ => h.nets().map(|e| f64::from(h.net_weight(e))).sum(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// Trimmed standard output of a command, or `unknown` when it fails.
fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn host_record(args: &Args) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let l2 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map_or("unknown".into(), |s| s.trim().to_string());
    JsonValue::object([
        ("nproc", nproc.into()),
        ("l2_per_core", JsonValue::string(l2)),
        (
            "rayon_num_threads",
            JsonValue::string(
                std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
            ),
        ),
        (
            "git_revision",
            JsonValue::string(command_output(
                "git",
                &["--git-dir=.git", "rev-parse", "HEAD"],
            )),
        ),
        (
            "rustc",
            JsonValue::string(command_output("rustc", &["--version"])),
        ),
        (
            "date",
            JsonValue::string(command_output("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])),
        ),
        ("workload", JsonValue::string(args.workload.clone())),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
    ])
}

fn metric_json(value: f64, unit: &str) -> JsonValue {
    JsonValue::object([("value", value.into()), ("unit", JsonValue::string(unit))])
}

fn write_record(
    args: &Args,
    host: &JsonValue,
    report: &Report,
    contract: &JsonValue,
) -> std::io::Result<()> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = JsonValue::object([
        ("host", host.clone()),
        (
            "instances",
            JsonValue::array(report.instances.iter().map(|i| {
                JsonValue::object([
                    ("name", JsonValue::string(i.name.clone())),
                    ("cells", i.cells.into()),
                    ("nets", i.nets.into()),
                    ("pins", i.pins.into()),
                    ("bytes", i.bytes.into()),
                ])
            })),
        ),
        (
            "metrics",
            JsonValue::object(
                report
                    .metrics
                    .iter()
                    .map(|(k, &(v, u))| (k.clone(), metric_json(v, u))),
            ),
        ),
        (
            "mismatches",
            JsonValue::array(
                report
                    .mismatches
                    .iter()
                    .map(|m| JsonValue::string(m.clone())),
            ),
        ),
        ("result", contract.clone()),
    ]);
    std::fs::write(dir.join(format!("{stem}.json")), format!("{record}\n"))?;
    if args.trace {
        trace::write_spans(&dir.join(format!("{stem}-spans.jsonl")), &report.spans)?;
    }
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "ml_sweep" | "ml_lanes2" | "nlevel_bisect" => batch::run(args),
        "serve_mixed" => serve::run(args),
        other => Err(format!(
            "unknown workload {other} (expected ml_sweep, ml_lanes2, nlevel_bisect, serve_mixed)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("daemon") => return serve::daemon_main(),
        Some("run") => {}
        _ => {
            eprintln!("usage: perfbench run --workload W --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    }
    let args = match parse_args(&argv[1..]) {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("--workload is required");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        report.set_self_times();
    }

    // Human-readable report: host, inputs, and every metric measured, by
    // name and unit.
    let host = host_record(&args);
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("  host {host}");
    for i in &report.instances {
        println!(
            "  instance {:<14} cells {:>6} nets {:>6} pins {:>7} bytes {:>8}",
            i.name, i.cells, i.nets, i.pins, i.bytes
        );
    }
    for (name, (value, unit)) in &report.metrics {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    println!(
        "  attempted {} failed {} correctness mismatches {}",
        report.attempted,
        report.failed,
        report.mismatches.len()
    );

    let selected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in selected {
        let value = match report.metrics.get(name) {
            Some(&(v, _)) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("metric {name} was not measured");
                return ExitCode::from(1);
            }
        };
        metrics.push((name, metric_json(value, unit)));
    }
    let correct = report.mismatches.is_empty();
    let line = JsonValue::object([
        ("correct", correct.into()),
        ("attempted", report.attempted.max(1).into()),
        ("failed", report.failed.into()),
        ("metrics", JsonValue::object(metrics)),
    ]);
    if let Err(e) = write_record(&args, &host, &report, &line) {
        eprintln!("could not write the result record: {e}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
