//! The `serve_mixed` workload: a closed loop against a `hypart serve`
//! daemon (`workers: 2`) running in a child process.
//!
//! One generator holds two connections; each submits its next job only
//! after the previous result arrived. The seeded job list works through
//! not-yet-seen instances in blocks, one block per instance:
//!
//! | job | request | exercises |
//! |-----|---------|-----------|
//! | inline | `.hgr` upload, seed s0 | parse, instance-cache insert, hierarchy build |
//! | hit | digest, seed s0 again | hierarchy-cache hit |
//! | miss | digest, fresh seed s1 | hierarchy miss on a cached instance |
//! | hit | digest, seed s1 again | hierarchy-cache hit |
//! | kway | digest, k = 4 | recursive bisection |
//! | eval | digest, the inline job's assignment | evaluation only |
//! | traced | digest, fresh seed s2, `trace: true` | event streaming |
//!
//! Every result must be audit-clean and balanced, carry the instance's
//! digest, and match the benchmark's own recount of its cut; a hit must
//! repeat its miss exactly.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Instant;

use hypart_benchgen::ispd98_like;
use hypart_core::{derive_seed, BalanceConstraint};
use hypart_hypergraph::{io::hgr, Hypergraph, VertexId};
use hypart_kway::KWayBalance;
use hypart_server::protocol::{
    EvalRequest, InstanceRef, JobResult, PartitionRequest, Request, Response, StatsSnapshot,
};
use hypart_server::{Client, Server, ServerConfig};

use crate::trace::Tracer;
use crate::{median, ms, quantile, recount_cut, scored_cut, Args, InstanceInfo, Report};

/// Daemon worker threads.
const WORKERS: usize = 2;
/// Generator connections, each a closed loop.
const CONNECTIONS: usize = 2;
/// Instances (blocks of seven jobs) in the job list.
const BLOCKS: usize = 48;
/// Cells of the smallest and largest uploaded instance.
const CELLS: (u64, u64) = (1_000, 3_000);
/// Cells of the ibm01 profile at scale 1.0.
const IBM01_CELLS: f64 = 12_752.0;
/// Balance window of every job (the wire default).
const FRACTION: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// `perfbench daemon`: serves on an ephemeral localhost port,
/// prints `listening <addr>`, and exits on a remote `shutdown` or when
/// its standard input closes (the parent benchmark is gone).
pub fn daemon_main() -> ExitCode {
    let config = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    };
    let handle = match Server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("daemon: {e}");
            return ExitCode::from(1);
        }
    };
    println!("listening {}", handle.local_addr());
    if std::io::stdout().flush().is_err() {
        return ExitCode::from(1);
    }
    std::thread::spawn(|| {
        let mut buf = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut buf), Ok(n) if n > 0) {}
        std::process::exit(3);
    });
    handle.wait();
    ExitCode::SUCCESS
}

/// A daemon child process; killed and reaped on drop unless stopped.
struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            BufReader::new(out)
                .read_line(&mut line)
                .map_err(|e| format!("reading the daemon address: {e}"))?;
        }
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("unexpected daemon greeting {line:?}"))?
            .to_string();
        daemon
            .connect()?
            .ping()
            .map_err(|e| format!("readiness ping: {e}"))?;
        Ok(daemon)
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("connect: {e}"))
    }

    fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or_else(String::new, |c| c.id().to_string())
    }

    /// Remote shutdown, then wait for the process to exit.
    fn stop(mut self) -> Result<(), String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        if let Some(mut child) = self.child.take() {
            // `wait` would close stdin first, which the daemon reads as
            // its parent being gone; hold it open until the exit.
            let _stdin = child.stdin.take();
            let status = child.wait().map_err(|e| format!("waiting: {e}"))?;
            if !status.success() {
                return Err(format!("daemon exited with {status}"));
            }
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One uploaded instance and its job seeds.
struct Block {
    text: String,
    h: Hypergraph,
    digest: u128,
    seeds: [u64; 4],
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Inline,
    Hit,
    Miss,
    Kway,
    Eval,
    Traced,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Inline => "inline",
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Kway => "kway",
            Class::Eval => "eval",
            Class::Traced => "traced",
        }
    }
}

const CLASSES: [Class; 6] = [
    Class::Inline,
    Class::Hit,
    Class::Miss,
    Class::Kway,
    Class::Eval,
    Class::Traced,
];

/// One job as the generator saw it.
struct JobRec {
    /// Index of the instance block the job belongs to.
    block: usize,
    class: Class,
    ack_ms: Option<f64>,
    result_ms: f64,
    events: u64,
    /// `None` when the job was rejected or failed.
    result: Option<JobResult>,
}

fn make_blocks(seed: u64) -> (Vec<Block>, f64, usize) {
    let mut blocks = Vec::with_capacity(BLOCKS);
    let (mut parse_ms, mut bytes) = (0.0, 0);
    // Sizes are spread evenly over `CELLS` and dealt to the blocks in a
    // seeded order, so every seed uploads the same mix of sizes.
    let mut rank: Vec<u64> = (0..BLOCKS as u64).collect();
    rank.sort_by_key(|&b| derive_seed(seed, 1_000 + b));
    for b in 0..BLOCKS as u64 {
        let gen_seed = derive_seed(seed, b);
        let cells = CELLS.0 + (CELLS.1 - CELLS.0) * rank[b as usize] / (BLOCKS as u64 - 1);
        let generated = ispd98_like(1, cells as f64 / IBM01_CELLS, gen_seed);
        let mut text = Vec::new();
        hgr::write(&generated, &mut text).expect("writing to memory cannot fail");
        bytes += text.len();
        let t = Instant::now();
        let h = hgr::read(&text[..]).expect("a generated instance parses");
        parse_ms += ms(t.elapsed());
        blocks.push(Block {
            digest: h.content_digest(),
            text: String::from_utf8(text).expect("hgr text is ASCII"),
            h,
            seeds: [0, 1, 2, 3].map(|i| derive_seed(gen_seed, i)),
        });
    }
    (blocks, parse_ms, bytes)
}

/// Independent balance check of a k-way assignment under the window the
/// daemon applies to the job.
fn balanced(h: &Hypergraph, assignment: &[u16], k: usize) -> bool {
    let mut weights = vec![0u64; k];
    for (v, &p) in assignment.iter().enumerate() {
        weights[usize::from(p)] += h.vertex_weight(VertexId::from_index(v));
    }
    let total = h.total_vertex_weight();
    if k == 2 {
        let window = BalanceConstraint::with_fraction(total, FRACTION);
        weights
            .iter()
            .all(|&w| (window.lower()..=window.upper()).contains(&w))
    } else {
        let window = KWayBalance::with_fraction(total, k, FRACTION);
        weights.iter().all(|&w| window.contains(w))
    }
}

/// Submits one request and reads its frames to the end, timing the ack
/// and the result from the submit.
fn submit(
    client: &mut Client,
    block: usize,
    class: Class,
    request: &Request,
) -> Result<JobRec, String> {
    let t0 = Instant::now();
    client.send(request).map_err(|e| format!("send: {e}"))?;
    let mut rec = JobRec {
        block,
        class,
        ack_ms: None,
        result_ms: 0.0,
        events: 0,
        result: None,
    };
    loop {
        match client.read_response().map_err(|e| format!("read: {e}"))? {
            Response::Accepted { .. } => rec.ack_ms = Some(ms(t0.elapsed())),
            Response::Event { .. } => rec.events += 1,
            Response::Result { result, .. } => {
                rec.result = Some(result);
                break;
            }
            Response::Rejected { .. } | Response::Error { .. } => break,
            _ => {}
        }
    }
    rec.result_ms = ms(t0.elapsed());
    Ok(rec)
}

fn partition(id: u64, instance: InstanceRef, seed: u64, k: usize, trace: bool) -> Request {
    let mut req = PartitionRequest::new(id, instance, seed);
    req.k = k;
    req.fraction = FRACTION;
    req.trace = trace;
    req.include_assignment = true;
    Request::Partition(req)
}

/// Runs one block's seven jobs and checks each result.
fn run_block(
    client: &mut Client,
    (index, block): (usize, &Block),
    id: &mut u64,
    tracer: &mut Tracer,
    checks: &mut Vec<String>,
) -> Result<Vec<JobRec>, String> {
    let digest = || InstanceRef::Digest(block.digest);
    let [s0, s1, s2, s3] = block.seeds;
    let mut recs: Vec<JobRec> = Vec::with_capacity(7);
    let mut cold: Option<JobResult> = None;
    let mut miss: Option<JobResult> = None;
    for step in 0..7 {
        *id += 1;
        let (class, request) = match step {
            0 => (
                Class::Inline,
                partition(*id, InstanceRef::Inline(block.text.clone()), s0, 2, false),
            ),
            1 => (Class::Hit, partition(*id, digest(), s0, 2, false)),
            2 => (Class::Miss, partition(*id, digest(), s1, 2, false)),
            3 => (Class::Hit, partition(*id, digest(), s1, 2, false)),
            4 => (Class::Kway, partition(*id, digest(), s2, 4, false)),
            5 => {
                let Some(assignment) = cold.as_ref().and_then(|r| r.assignment.clone()) else {
                    continue;
                };
                (
                    Class::Eval,
                    Request::Eval(EvalRequest {
                        id: *id,
                        instance: digest(),
                        assignment,
                        k: 2,
                        fraction: FRACTION,
                        request_token: None,
                    }),
                )
            }
            _ => (Class::Traced, partition(*id, digest(), s3, 2, true)),
        };
        tracer.enter("job", *id);
        let t0 = Instant::now();
        let rec = submit(client, index, class, &request)?;
        if let Some(ack) = rec.ack_ms {
            let at = |m: f64| t0 + std::time::Duration::from_secs_f64(m / 1e3);
            tracer.record("server.ack", *id, t0, at(ack));
            tracer.record("server.result", *id, at(ack), at(rec.result_ms));
        }
        tracer.exit();
        if let Some(r) = &rec.result {
            let (h, k) = (&block.h, if class == Class::Kway { 4 } else { 2 });
            let mut check = |ok: bool, what: &str| {
                if !ok {
                    checks.push(format!("job {} ({}): {what}", *id, class.name()));
                }
            };
            check(r.audit_clean, "not audit-clean");
            check(r.digest == block.digest, "wrong instance digest");
            let assignment = match (&r.assignment, class, &cold) {
                (Some(a), _, _) => Some(a),
                (None, Class::Eval, Some(c)) => c.assignment.as_ref(),
                _ => None,
            };
            match assignment {
                Some(a) if a.len() == h.num_vertices() && a.iter().all(|&p| usize::from(p) < k) => {
                    let recount = recount_cut(h, |v| usize::from(a[v]));
                    check(recount == r.cut, "reported cut differs from the recount");
                    check(
                        balanced(h, a, k) == r.balanced,
                        "reported balance differs from the recount",
                    );
                }
                _ => check(false, "missing or malformed assignment"),
            }
            match class {
                Class::Inline => cold = Some(r.clone()),
                Class::Miss => miss = Some(r.clone()),
                _ => {}
            }
            let reused = matches!(class, Class::Hit);
            if class != Class::Kway && class != Class::Eval {
                check(
                    r.hierarchy_reused == reused,
                    "unexpected hierarchy reuse flag",
                );
            }
            if class == Class::Hit {
                let first = if step == 1 { &cold } else { &miss };
                let same = first
                    .as_ref()
                    .is_some_and(|f| f.cut == r.cut && f.assignment == r.assignment);
                check(same, "cache hit did not repeat the cold result");
            }
            if class == Class::Eval {
                let expected = cold.as_ref().map(|c| c.cut);
                check(
                    expected == Some(r.cut),
                    "eval cut differs from the partition cut",
                );
            }
            if class == Class::Traced {
                check(rec.events > 0, "traced job streamed no events");
            }
        }
        recs.push(rec);
    }
    Ok(recs)
}

/// One pass of the job list against a running daemon.
struct Round {
    wall_s: f64,
    jobs: Vec<JobRec>,
    checks: Vec<String>,
    busy_ms: f64,
    stats: StatsSnapshot,
    peak_rss_mb: f64,
}

/// What one generator connection saw.
struct Connection {
    jobs: Vec<JobRec>,
    checks: Vec<String>,
    tracer: Tracer,
}

fn run_round(
    daemon: &Daemon,
    blocks: &[Block],
    tracer_on: bool,
    origin: Instant,
    report: &mut Report,
) -> Result<Round, String> {
    let mut clients = (0..CONNECTIONS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let t = Instant::now();
    let results: Vec<Result<Connection, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(origin, tracer_on);
                    let mut checks = Vec::new();
                    let mut jobs = Vec::new();
                    let mut id = (c as u64) << 32;
                    for block in blocks.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        jobs.extend(run_block(client, block, &mut id, &mut tracer, &mut checks)?);
                    }
                    Ok(Connection {
                        jobs,
                        checks,
                        tracer,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut round = Round {
        wall_s,
        jobs: Vec::new(),
        checks: Vec::new(),
        busy_ms: 0.0,
        stats: daemon
            .connect()?
            .stats()
            .map_err(|e| format!("stats: {e}"))?,
        peak_rss_mb: crate::peak_rss_mb(&daemon.pid()),
    };
    for r in results {
        let Connection {
            jobs,
            checks,
            mut tracer,
        } = r?;
        round.busy_ms += jobs.iter().map(|j| j.result_ms).sum::<f64>();
        round.jobs.extend(jobs);
        round.checks.extend(checks);
        tracer.drain_into(&mut report.spans);
    }
    Ok(round)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let mut report = Report::default();
    // Set-ups: instances, serialization, local parse, daemon start and
    // readiness ping. Untraced runs use the last daemon; traced runs
    // compare an untraced and a traced round on the last two.
    let mut setup_times = Vec::new();
    let mut parse = Vec::new();
    let mut daemons = Vec::new();
    let mut blocks = Vec::new();
    let mut bytes = 0;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (built, parse_ms, total_bytes) = make_blocks(args.seed);
        let daemon = Daemon::start()?;
        setup_times.push(t.elapsed().as_secs_f64());
        parse.push(parse_ms);
        (blocks, bytes) = (built, total_bytes);
        daemons.push(daemon);
    }
    let keep = if args.trace { 2 } else { 1 };
    while daemons.len() > keep {
        daemons.remove(0).stop()?;
    }
    report.instances = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| InstanceInfo::of(&format!("upload#{i}"), &b.h, b.text.len()))
        .collect();

    let untraced = run_round(&daemons[0], &blocks, false, origin, &mut report)?;
    let traced = if args.trace {
        Some(run_round(&daemons[1], &blocks, true, origin, &mut report)?)
    } else {
        None
    };
    for d in daemons {
        d.stop()?;
    }

    for what in untraced
        .checks
        .iter()
        .chain(traced.iter().flat_map(|t| &t.checks))
    {
        report.mismatch(what.clone());
    }
    let all: Vec<&JobRec> = untraced
        .jobs
        .iter()
        .chain(traced.iter().flat_map(|t| &t.jobs))
        .collect();
    report.attempted = all.len() as u64;
    report.failed = all
        .iter()
        .filter(|j| !j.result.as_ref().is_some_and(|r| r.balanced))
        .count() as u64;

    let r = &untraced;
    let lat = |pred: &dyn Fn(&JobRec) -> bool| -> Vec<f64> {
        r.jobs
            .iter()
            .filter(|j| pred(j))
            .map(|j| j.result_ms)
            .collect()
    };
    let every = lat(&|_| true);
    // Deterministic results: per instance, best and mean 2-way cut over
    // its distinct seeds (hits repeat a miss and are left out); a job
    // without a balanced result scores the instance's cut ceiling.
    let (mut cut_best, mut cut_mean) = (0.0, 0.0);
    for (b, block) in blocks.iter().enumerate() {
        let cuts: Vec<f64> = r
            .jobs
            .iter()
            .filter(|j| j.block == b)
            .filter(|j| matches!(j.class, Class::Inline | Class::Miss | Class::Traced))
            .map(|j| {
                scored_cut(
                    &block.h,
                    j.result.as_ref().map(|res| (res.cut, res.balanced)),
                )
            })
            .collect();
        cut_best += cuts.iter().copied().fold(f64::INFINITY, f64::min);
        cut_mean += cuts.iter().sum::<f64>() / cuts.len() as f64;
    }
    report.set("setup_s", median(&setup_times), "s");
    report.set("wall_s", r.wall_s, "s");
    report.set("start_p50_ms", median(&every), "ms");
    report.set("job_p50_ms", median(&every), "ms");
    report.set("job_p90_ms", quantile(&every, 0.9), "ms");
    report.set("job_samples", every.len() as f64, "count");
    report.set("jobs_per_s", every.len() as f64 / r.wall_s, "1/s");
    report.set(
        "cold_job_p50_ms",
        median(&lat(&|j| j.class == Class::Inline)),
        "ms",
    );
    report.set(
        "hit_job_p50_ms",
        median(&lat(&|j| j.class == Class::Hit)),
        "ms",
    );
    report.set("cut_best", cut_best, "nets");
    report.set("cut_mean", cut_mean, "nets");
    report.set(
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.set("peak_rss_mb", r.peak_rss_mb, "MiB");
    let parse_ms = median(&parse);
    report.set("hypergraph.parse_ms", parse_ms, "ms");
    report.set(
        "hypergraph.parse_mb_per_s",
        bytes as f64 / 1e6 / (parse_ms / 1e3),
        "MB/s",
    );

    if let Some(t) = &traced {
        layer_metrics(&untraced, t, &mut report);
    }
    Ok(report)
}

fn layer_metrics(untraced: &Round, traced: &Round, report: &mut Report) {
    let acks = |inline: bool| -> Vec<f64> {
        traced
            .jobs
            .iter()
            .filter(|j| (j.class == Class::Inline) == inline)
            .filter_map(|j| j.ack_ms)
            .collect()
    };
    for (name, inline) in [("inline", true), ("digest", false)] {
        let a = acks(inline);
        report.set(&format!("server.ack_ms.{name}.p50"), median(&a), "ms");
        report.set(
            &format!("server.ack_ms.{name}.p90"),
            quantile(&a, 0.9),
            "ms",
        );
    }
    for class in CLASSES {
        let r: Vec<f64> = traced
            .jobs
            .iter()
            .filter(|j| j.class == class)
            .map(|j| j.result_ms)
            .collect();
        report.set(
            &format!("server.result_ms.{}.p50", class.name()),
            median(&r),
            "ms",
        );
    }
    let s = &traced.stats;
    let frac = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    report.set(
        "server.instance_hit_frac",
        frac(s.instance_hits, s.instance_misses),
        "ratio",
    );
    report.set(
        "server.hierarchy_hit_frac",
        frac(s.hierarchy_hits, s.hierarchy_misses),
        "ratio",
    );
    let traced_jobs: Vec<&JobRec> = traced
        .jobs
        .iter()
        .filter(|j| j.class == Class::Traced)
        .collect();
    let events: u64 = traced_jobs.iter().map(|j| j.events).sum();
    report.set(
        "server.trace_events_per_job",
        events as f64 / traced_jobs.len().max(1) as f64,
        "count",
    );
    report.set(
        "server.rejected",
        (s.rejected_overload + s.rejected_too_large) as f64,
        "count",
    );
    report.set("server.errors", s.errors as f64, "count");
    // Each connection is a closed loop: its time is either inside a job
    // span or in the generator between jobs.
    report.set(
        "trace.coverage",
        traced.busy_ms / (CONNECTIONS as f64 * traced.wall_s * 1e3),
        "ratio",
    );
    report.set("trace.traced_wall_s", traced.wall_s, "s");
    report.set("trace.untraced_wall_s", untraced.wall_s, "s");
    report.set("trace.overhead_s", traced.wall_s - untraced.wall_s, "s");
    report.set(
        "trace.overhead_frac",
        (traced.wall_s - untraced.wall_s) / untraced.wall_s,
        "ratio",
    );
}
