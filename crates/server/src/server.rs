//! The daemon: accept loop, per-connection reader threads, and a fixed
//! worker pool over the bounded job queue.
//!
//! # Thread layout and shutdown
//!
//! * **1 accept thread**, blocked in `TcpListener::accept`. Shutdown
//!   unblocks it with a throwaway self-connection.
//! * **1 reader thread per live connection**, blocked in `read_frame`
//!   with a 100 ms read timeout so it can poll the shutdown flag between
//!   frames (mid-frame timeouts are ridden out, so a slow writer cannot
//!   desynchronize the stream).
//! * **N worker threads**, blocked in [`BoundedQueue::pop`]. The queue's
//!   close-then-drain semantics mean admitted jobs still finish during a
//!   graceful shutdown; `pop` returning `None` is the workers' exit
//!   signal.
//!
//! [`ServerHandle::shutdown`] (or a remote `shutdown` op) flips one
//! flag, closes the queue, cancels in-flight job tokens, pokes the
//! accept loop, and joins *every* thread — the daemon owns all of its
//! threads, so a clean shutdown leaks none (the soak test asserts this
//! against `/proc/self/status`).
//!
//! # Stream poisoning
//!
//! Results and trace events go through one [`ConnWriter`] per
//! connection. The first failed write poisons the writer (mirroring
//! [`JsonlSink::is_poisoned`](hypart_trace::JsonlSink::is_poisoned));
//! the sink of any job streaming to it then cancels that job's token so
//! the engine stops early, and the worker reports the job as
//! `stream_aborted` instead of pretending a silently truncated trace
//! was delivered.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hypart_core::{AuditLevel, BalanceConstraint, CancelToken, EngineKind, RunCtx};
use hypart_hypergraph::{io::hgr, Hypergraph, PartId};
use hypart_kway::{recursive_bisection_with, KWayBalance};
use hypart_ml::{
    multi_start_budgeted_from_hierarchy_with, multi_start_budgeted_with, MlConfig, MlPartitioner,
};
use hypart_trace::{RunEvent, StopReason, TraceSink};

use crate::cache::{HierarchyCache, HierarchyKey, InstanceCache};
use crate::protocol::{
    encode_frame, is_timeout, read_frame, EvalRequest, FrameError, Health, InstanceRef, JobResult,
    PartitionRequest, Request, Response, StatsSnapshot, DEFAULT_MAX_FRAME_BYTES,
};
use crate::queue::BoundedQueue;

/// How often idle reader threads wake to poll the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Daemon configuration. `Default` binds an ephemeral localhost port
/// with a small worker pool, suitable for tests and the CLI alike.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port; read the
    /// actual one from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads executing jobs (clamped to at least 1).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed with a
    /// typed `rejected` response.
    pub queue_capacity: usize,
    /// Per-frame payload cap.
    pub max_frame_bytes: usize,
    /// Instances retained in the digest-keyed cache (FIFO).
    pub instance_cache_capacity: usize,
    /// Coarsening hierarchies retained (FIFO).
    pub hierarchy_cache_capacity: usize,
    /// Engine configuration shared by all partition jobs. Part of the
    /// hierarchy-cache key, so reconfiguring the daemon never serves a
    /// stale hierarchy.
    pub ml: MlConfig,
    /// Admission control: reject inline instances whose *declared*
    /// header counts (nets or vertices) exceed this, with a typed
    /// `rejected_too_large` error *before* parsing. `0` disables the
    /// check.
    pub max_cells: usize,
    /// Watchdog overshoot factor: a budgeted job still running past
    /// `budget_ms * watchdog_factor` is force-cancelled via its
    /// [`CancelToken`] and answered with a typed `watchdog_cancelled`
    /// error. `0.0` disables the watchdog (no thread is spawned).
    pub watchdog_factor: f64,
    /// How often the watchdog scans running jobs.
    pub watchdog_poll_ms: u64,
    /// Write deadline per response frame: a consumer that stalls reads
    /// longer than this poisons its connection writer, feeding the
    /// existing `stream_aborted` accounting. `0` disables the deadline.
    pub write_deadline_ms: u64,
    /// Recently-completed idempotency tokens retained for replay (FIFO).
    pub token_cache_capacity: usize,
    /// Artificial per-job delay before execution, for deterministically
    /// filling the queue in overload tests (and, because the watchdog
    /// registers a budgeted job *before* this stall, for simulating a
    /// hung job in watchdog tests).
    #[doc(hidden)]
    pub worker_delay_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            instance_cache_capacity: 16,
            hierarchy_cache_capacity: 32,
            ml: MlConfig::default(),
            max_cells: 0,
            watchdog_factor: 0.0,
            watchdog_poll_ms: 10,
            write_deadline_ms: 30_000,
            token_cache_capacity: 256,
            worker_delay_ms: 0,
        }
    }
}

/// Monotonic daemon counters (the `stats` op snapshot, minus the cache
/// counters which live on the caches themselves). The one exception is
/// `completed`, which a job whose result frame fails to go out leaves
/// again for `stream_aborted`.
#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_overload: AtomicU64,
    stream_aborted: AtomicU64,
    errors: AtomicU64,
    watchdog_cancelled: AtomicU64,
    rejected_too_large: AtomicU64,
    dedup_hits: AtomicU64,
    io_failures: AtomicU64,
}

/// One admitted unit of work.
struct Job {
    conn_id: u64,
    id: u64,
    writer: Arc<ConnWriter>,
    token: CancelToken,
    /// Idempotency token, when the client stamped one.
    request_token: Option<u64>,
    kind: JobKind,
}

enum JobKind {
    Partition(PartitionRequest, Arc<Hypergraph>, u128),
    Eval(EvalRequest, Arc<Hypergraph>, u128),
}

/// The serialized write half of one connection, shared by its reader
/// thread and every worker streaming that connection's jobs. The first
/// failed write poisons it; later sends are dropped without blocking.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    poisoned: AtomicBool,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        ConnWriter {
            stream: Mutex::new(stream),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Sends one response frame; `false` once the writer is poisoned.
    fn send(&self, response: &Response) -> bool {
        let mut frame = Vec::new();
        encode_frame(&mut frame, &response.to_json()).is_ok() && self.send_encoded(&frame)
    }

    /// Writes already-encoded frames in one `write_all`; `false` once the
    /// writer is poisoned.
    fn send_encoded(&self, frames: &[u8]) -> bool {
        if self.poisoned.load(Ordering::Relaxed) {
            return false;
        }
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        match stream.write_all(frames) {
            Ok(()) => true,
            Err(_) => {
                self.poisoned.store(true, Ordering::Relaxed);
                false
            }
        }
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }
}

/// A job's terminal outcome, as cached for idempotent replay: exactly
/// what the original submission was (or will be) answered with.
#[derive(Clone)]
enum CachedOutcome {
    /// The job produced a result (including cancelled/deadline results).
    Result(JobResult),
    /// The job ended in a typed error (e.g. `watchdog_cancelled`).
    Failed { code: String, detail: String },
}

/// A retried submission waiting on an in-flight job with the same
/// token: gets the outcome delivered under its own job id when the
/// original completes.
struct Waiter {
    writer: Arc<ConnWriter>,
    id: u64,
}

/// What the token registry decided about a submission.
enum Admission {
    /// First sighting: run the job.
    Fresh,
    /// Same token is in flight: the caller was registered as a waiter.
    Attached,
    /// Same token recently completed: replay the cached outcome.
    Replay(CachedOutcome),
}

struct TokenMaps {
    in_flight: HashMap<u64, Vec<Waiter>>,
    completed: HashMap<u64, CachedOutcome>,
    order: VecDeque<u64>,
}

/// Idempotency-token dedup: in-flight tokens re-attach, recently
/// completed tokens replay. One lock guards both maps so a completion
/// draining waiters cannot race an admission checking `in_flight`.
struct TokenRegistry {
    inner: Mutex<TokenMaps>,
    capacity: usize,
}

impl TokenRegistry {
    fn new(capacity: usize) -> Self {
        TokenRegistry {
            inner: Mutex::new(TokenMaps {
                in_flight: HashMap::new(),
                completed: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Classifies a token-stamped submission. `Fresh` registers the
    /// token as in flight; the caller must later `complete` or
    /// `abandon` it.
    fn admit(&self, token: u64, writer: &Arc<ConnWriter>, id: u64) -> Admission {
        let mut maps = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(outcome) = maps.completed.get(&token) {
            return Admission::Replay(outcome.clone());
        }
        if let Some(waiters) = maps.in_flight.get_mut(&token) {
            waiters.push(Waiter {
                writer: Arc::clone(writer),
                id,
            });
            return Admission::Attached;
        }
        maps.in_flight.insert(token, Vec::new());
        Admission::Fresh
    }

    /// Forgets a `Fresh` token whose job never ran (queue rejection or
    /// resolution failure), releasing any waiters that attached in the
    /// window — they are answered by the caller with the same typed
    /// error the primary got.
    fn abandon(&self, token: u64) -> Vec<Waiter> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .in_flight
            .remove(&token)
            .unwrap_or_default()
    }

    /// Records the job's outcome for replay (FIFO-bounded) and returns
    /// the waiters to notify.
    fn complete(&self, token: u64, outcome: CachedOutcome) -> Vec<Waiter> {
        let mut maps = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let waiters = maps.in_flight.remove(&token).unwrap_or_default();
        if maps.completed.insert(token, outcome).is_none() {
            maps.order.push_back(token);
            while maps.order.len() > self.capacity {
                if let Some(evicted) = maps.order.pop_front() {
                    maps.completed.remove(&evicted);
                }
            }
        }
        waiters
    }

    /// Number of completed outcomes retained (for the health snapshot).
    fn completed_len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .completed
            .len()
    }
}

/// Delivers a cached outcome under the given job id. Returns whether
/// the frame went out (writer not poisoned).
fn send_outcome(writer: &ConnWriter, id: u64, outcome: &CachedOutcome) -> bool {
    match outcome {
        CachedOutcome::Result(result) => writer.send(&Response::Result {
            id,
            result: result.clone(),
        }),
        CachedOutcome::Failed { code, detail } => writer.send(&Response::Error {
            id: Some(id),
            code: code.clone(),
            detail: detail.clone(),
        }),
    }
}

/// A budgeted job under watchdog supervision.
struct RunningJob {
    /// Force-cancel once past this (`start + budget_ms * factor`).
    overshoot_deadline: Instant,
    token: CancelToken,
    /// Set by the watchdog when it cancels, so the worker can tell a
    /// watchdog kill apart from a client cancel or shutdown.
    fired: Arc<AtomicBool>,
}

/// Encoded `event` frames a [`StreamSink`] holds before writing them
/// out in one go.
const STREAM_BATCH_BYTES: usize = 64 << 10;

/// The trace sink of one running job: encodes engine events as `event`
/// frames into a per-job batch and writes the batch in one go when it
/// reaches [`STREAM_BATCH_BYTES`], when the job ends, and on drop — so
/// every event leaves before the job's result frame. A poisoned writer,
/// noticed at the next flush (or at once, when another frame already
/// poisoned it), cancels the job's token, so the engine stops at its
/// next budget check instead of computing for a client that can no
/// longer hear the answer.
struct StreamSink {
    writer: Arc<ConnWriter>,
    id: u64,
    token: CancelToken,
    enabled: bool,
    /// Token-stamped jobs keep computing through a poisoned writer:
    /// their outcome is still wanted (a healed client will re-attach by
    /// request token), so the sink only stops streaming instead of
    /// cancelling.
    durable: bool,
    /// Encoded frames not yet written. The engines hold the sink as a
    /// plain `&dyn TraceSink` on one thread, so a `RefCell` suffices.
    batch: RefCell<Vec<u8>>,
}

impl StreamSink {
    /// Writes the batch out in one go.
    fn flush(&self) {
        let mut batch = self.batch.borrow_mut();
        if !batch.is_empty() {
            let sent = self.writer.send_encoded(&batch);
            batch.clear();
            if !sent {
                self.stream_failed();
            }
        }
    }

    /// The client can no longer hear this job: stop computing for it,
    /// unless it is durable.
    fn stream_failed(&self) {
        if !self.durable {
            self.token.cancel();
        }
    }
}

impl TraceSink for StreamSink {
    fn emit(&self, event: RunEvent) {
        if !self.enabled {
            return;
        }
        let mut batch = self.batch.borrow_mut();
        // Encoding for a writer another frame already poisoned is wasted.
        let queued = !self.writer.is_poisoned()
            && encode_frame(
                &mut batch,
                &Response::Event { id: self.id, event }.to_json(),
            )
            .is_ok();
        let full = batch.len() >= STREAM_BATCH_BYTES;
        drop(batch);
        if !queued {
            self.stream_failed();
        } else if full {
            self.flush();
        }
    }

    fn is_enabled(&self) -> bool {
        self.enabled
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        self.flush();
    }
}

struct Shared {
    config: ServerConfig,
    queue: BoundedQueue<Job>,
    instances: InstanceCache,
    hierarchies: HierarchyCache,
    tokens: TokenRegistry,
    stats: Stats,
    started: Instant,
    shutdown: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Budgeted jobs currently executing, scanned by the watchdog.
    running: Mutex<HashMap<(u64, u64), RunningJob>>,
    /// Cancellation tokens of admitted-but-unfinished jobs, keyed by
    /// `(connection, job id)` so `cancel` cannot reach across
    /// connections. The flag marks durable (token-stamped) jobs, which
    /// survive the death of the connection that submitted them: a
    /// healed client is about to re-attach to them by request token.
    cancels: Mutex<HashMap<(u64, u64), (CancelToken, bool)>>,
    /// Reader threads of connections seen so far (joined at shutdown;
    /// finished readers are cheap no-op joins).
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            rejected_overload: self.stats.rejected_overload.load(Ordering::Relaxed),
            stream_aborted: self.stats.stream_aborted.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            instance_hits: self.instances.hits(),
            instance_misses: self.instances.misses(),
            hierarchy_hits: self.hierarchies.hits(),
            hierarchy_misses: self.hierarchies.misses(),
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            watchdog_cancelled: self.stats.watchdog_cancelled.load(Ordering::Relaxed),
            rejected_too_large: self.stats.rejected_too_large.load(Ordering::Relaxed),
            dedup_hits: self.stats.dedup_hits.load(Ordering::Relaxed),
            io_failures: self.stats.io_failures.load(Ordering::Relaxed),
        }
    }

    fn health(&self) -> Health {
        Health {
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            instances_cached: self.instances.len(),
            hierarchies_cached: self.hierarchies.len(),
            tokens_cached: self.tokens.completed_len(),
        }
    }

    /// Flips the shutdown flag, stops admissions, cancels in-flight
    /// jobs, and wakes everyone who might be blocked. Idempotent.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue.close();
        let cancels = self.cancels.lock().unwrap_or_else(|e| e.into_inner());
        for (token, _) in cancels.values() {
            token.cancel();
        }
        drop(cancels);
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = true;
        drop(done);
        self.done_cv.notify_all();
    }
}

/// Constructor namespace for the daemon.
pub struct Server;

impl Server {
    /// Binds, spawns the accept loop and worker pool, and returns a
    /// handle controlling the daemon's lifetime.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            instances: InstanceCache::new(config.instance_cache_capacity),
            hierarchies: HierarchyCache::new(config.hierarchy_cache_capacity),
            tokens: TokenRegistry::new(config.token_cache_capacity),
            config,
            stats: Stats::default(),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            running: Mutex::new(HashMap::new()),
            cancels: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hypart-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let mut worker_threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("hypart-worker-{w}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let watchdog = if shared.config.watchdog_factor > 0.0 {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("hypart-watchdog".to_string())
                    .spawn(move || watchdog_loop(&shared))?,
            )
        } else {
            None
        };
        Ok(ServerHandle {
            local_addr,
            shared,
            accept: Some(accept),
            workers: worker_threads,
            watchdog,
        })
    }
}

/// Control handle of a running daemon. Dropping it shuts the daemon
/// down and joins every thread.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time snapshot of the daemon counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Gracefully shuts down: stops admitting, cancels in-flight jobs
    /// (they finish with `stopped: cancelled` results), drains the
    /// queue, and joins every thread the daemon spawned.
    pub fn shutdown(mut self) {
        self.finish();
    }

    /// Blocks until a remote `shutdown` op arrives, then joins all
    /// threads and returns the final counter snapshot. The
    /// `hypart serve` foreground mode.
    pub fn wait(mut self) -> StatsSnapshot {
        let mut done = self.shared.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self
                .shared
                .done_cv
                .wait(done)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(done);
        self.finish();
        self.shared.snapshot()
    }

    fn finish(&mut self) {
        self.shared.begin_shutdown();
        // Unblock the accept loop with a throwaway connection (the
        // connect result is irrelevant — the poke is the point); it
        // checks the flag right after `accept` returns.
        drop(TcpStream::connect(self.local_addr));
        // Joins only fail when the joined thread panicked; make that
        // visible instead of silently discarding it.
        if let Some(accept) = self.accept.take() {
            join_noting_panic(accept, "accept");
        }
        for worker in self.workers.drain(..) {
            join_noting_panic(worker, "worker");
        }
        if let Some(watchdog) = self.watchdog.take() {
            join_noting_panic(watchdog, "watchdog");
        }
        let readers = std::mem::take(
            &mut *self
                .shared
                .conn_threads
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for reader in readers {
            join_noting_panic(reader, "reader");
        }
    }
}

fn join_noting_panic(handle: JoinHandle<()>, role: &str) {
    if handle.join().is_err() {
        eprintln!("hypart-server: {role} thread panicked");
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            self.finish();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut next_conn_id = 0u64;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            // Transient accept failure (e.g. fd pressure): back off
            // briefly instead of spinning.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let conn_id = next_conn_id;
        next_conn_id += 1;
        let shared_conn = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name(format!("hypart-conn-{conn_id}"))
            .spawn(move || reader_loop(stream, conn_id, &shared_conn));
        if let Ok(handle) = spawned {
            shared
                .conn_threads
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle);
        }
    }
}

/// Reads frames from one connection until EOF, error, or shutdown.
fn reader_loop(stream: TcpStream, conn_id: u64, shared: &Arc<Shared>) {
    // A connection whose read timeout cannot be installed would block
    // its reader thread indefinitely (it could never poll the shutdown
    // flag); count the failure and refuse the connection instead of
    // silently entering the un-pollable state.
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        shared.stats.io_failures.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // Every response leaves in one write; with Nagle on, each small frame
    // would still wait in the kernel for the client's delayed ACK of the
    // previous one. A socket that refuses the option costs latency only.
    drop(stream.set_nodelay(true));
    let writer = match stream.try_clone() {
        Ok(w) => {
            // Slow-consumer defense: a peer that stops reading makes
            // response writes block; the deadline turns that into a
            // write error, which poisons the writer and feeds the
            // existing `stream_aborted` accounting.
            if shared.config.write_deadline_ms > 0
                && w.set_write_timeout(Some(Duration::from_millis(shared.config.write_deadline_ms)))
                    .is_err()
            {
                shared.stats.io_failures.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Arc::new(ConnWriter::new(w))
        }
        Err(_) => {
            shared.stats.io_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let mut reader = stream;
    let mut client_gone = true;
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            // Daemon-initiated exit: the client may still be reading
            // results of in-flight jobs, so leave its tokens alone
            // (begin_shutdown already cancelled them).
            client_gone = false;
            break;
        }
        match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Ok(Some(frame)) => handle_frame(&frame, conn_id, &writer, shared),
            Ok(None) => break,
            Err(FrameError::Io(e)) if is_timeout(&e) => continue,
            Err(FrameError::BadJson(detail)) => {
                // The frame was fully consumed; the stream is still in
                // sync, so answer and keep serving.
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                writer.send(&Response::Error {
                    id: None,
                    code: "parse".to_string(),
                    detail,
                });
            }
            Err(FrameError::TooLarge { declared, max }) => {
                // The payload was not consumed; the stream is
                // desynchronized beyond repair. Answer and hang up.
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                writer.send(&Response::Error {
                    id: None,
                    code: "bad_request".to_string(),
                    detail: format!("frame of {declared} bytes exceeds cap of {max}"),
                });
                break;
            }
            Err(FrameError::Io(_)) => break,
        }
    }
    if client_gone {
        // Nobody is listening any more: cancel this connection's
        // in-flight jobs so workers stop computing for a dead peer —
        // except durable (token-stamped) jobs, whose outcome is still
        // wanted: the client advertised its intent to retry, and a
        // resubmission on a fresh connection will attach by token or
        // replay the cached outcome.
        let mut cancels = shared.cancels.lock().unwrap_or_else(|e| e.into_inner());
        cancels.retain(|&(conn, _), (token, durable)| {
            if conn == conn_id && !*durable {
                token.cancel();
                false
            } else {
                true
            }
        });
    }
}

fn handle_frame(
    frame: &hypart_trace::json::JsonValue,
    conn_id: u64,
    writer: &Arc<ConnWriter>,
    shared: &Arc<Shared>,
) {
    let request = match Request::from_json(frame) {
        Ok(request) => request,
        Err(detail) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            writer.send(&Response::Error {
                id: frame.get("id").and_then(|v| v.as_u64()),
                code: "bad_request".to_string(),
                detail,
            });
            return;
        }
    };
    match request {
        Request::Stats => {
            writer.send(&Response::Stats(shared.snapshot()));
        }
        Request::Ping => {
            writer.send(&Response::Pong(shared.health()));
        }
        Request::Shutdown => {
            writer.send(&Response::Bye);
            shared.begin_shutdown();
        }
        Request::Cancel { id } => {
            let cancels = shared.cancels.lock().unwrap_or_else(|e| e.into_inner());
            match cancels.get(&(conn_id, id)) {
                Some((token, _)) => {
                    token.cancel();
                    drop(cancels);
                    writer.send(&Response::Ok { id });
                }
                None => {
                    drop(cancels);
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                    writer.send(&Response::Error {
                        id: Some(id),
                        code: "unknown_job".to_string(),
                        detail: "no in-flight job with this id on this connection".to_string(),
                    });
                }
            }
        }
        Request::Partition(req) => {
            let request_token = req.request_token;
            if !admit_token(request_token, req.id, writer, shared) {
                return;
            }
            let Some((h, digest)) = resolve_instance(&req.instance, req.id, writer, shared) else {
                abandon_token(request_token, shared);
                return;
            };
            let id = req.id;
            submit(
                Job {
                    conn_id,
                    id,
                    writer: Arc::clone(writer),
                    token: CancelToken::new(),
                    request_token,
                    kind: JobKind::Partition(req, h, digest),
                },
                shared,
            );
        }
        Request::Eval(req) => {
            let request_token = req.request_token;
            if !admit_token(request_token, req.id, writer, shared) {
                return;
            }
            let Some((h, digest)) = resolve_instance(&req.instance, req.id, writer, shared) else {
                abandon_token(request_token, shared);
                return;
            };
            if req.assignment.len() != h.num_vertices() {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                writer.send(&Response::Error {
                    id: Some(req.id),
                    code: "bad_request".to_string(),
                    detail: format!(
                        "assignment has {} entries, instance has {} vertices",
                        req.assignment.len(),
                        h.num_vertices()
                    ),
                });
                abandon_token(request_token, shared);
                return;
            }
            if let Some(&p) = req.assignment.iter().find(|&&p| usize::from(p) >= req.k) {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                writer.send(&Response::Error {
                    id: Some(req.id),
                    code: "bad_request".to_string(),
                    detail: format!("assignment uses part {p} but k = {}", req.k),
                });
                abandon_token(request_token, shared);
                return;
            }
            let id = req.id;
            submit(
                Job {
                    conn_id,
                    id,
                    writer: Arc::clone(writer),
                    token: CancelToken::new(),
                    request_token,
                    kind: JobKind::Eval(req, h, digest),
                },
                shared,
            );
        }
    }
}

/// Runs the idempotency check for a token-stamped submission. Returns
/// `true` when the job should proceed (fresh token, or no token at
/// all); `false` when it was deduplicated — the caller already got an
/// `Accepted` plus, for a completed token, the replayed outcome.
fn admit_token(
    request_token: Option<u64>,
    id: u64,
    writer: &Arc<ConnWriter>,
    shared: &Arc<Shared>,
) -> bool {
    let Some(token) = request_token else {
        return true;
    };
    match shared.tokens.admit(token, writer, id) {
        Admission::Fresh => true,
        Admission::Attached => {
            shared.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
            writer.send(&Response::Accepted { id });
            false
        }
        Admission::Replay(outcome) => {
            shared.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
            writer.send(&Response::Accepted { id });
            send_outcome(writer, id, &outcome);
            false
        }
    }
}

/// Releases a freshly admitted token whose job never made it into the
/// queue, answering any waiters that attached in the window so their
/// retries do not hang.
fn abandon_token(request_token: Option<u64>, shared: &Arc<Shared>) {
    if let Some(token) = request_token {
        for waiter in shared.tokens.abandon(token) {
            waiter.writer.send(&Response::Error {
                id: Some(waiter.id),
                code: "bad_request".to_string(),
                detail: "original submission with this token failed before running".to_string(),
            });
        }
    }
}

/// Turns an [`InstanceRef`] into a shared CSR + digest, answering the
/// client with a typed error on failure.
fn resolve_instance(
    instance: &InstanceRef,
    id: u64,
    writer: &Arc<ConnWriter>,
    shared: &Arc<Shared>,
) -> Option<(Arc<Hypergraph>, u128)> {
    match instance {
        InstanceRef::Digest(digest) => match shared.instances.get(*digest) {
            Some(h) => Some((h, *digest)),
            None => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                writer.send(&Response::Error {
                    id: Some(id),
                    code: "unknown_instance".to_string(),
                    detail: "no cached instance with this digest; resend it inline".to_string(),
                });
                None
            }
        },
        InstanceRef::Inline(text) => {
            // Admission control: reject on the *declared* header counts
            // before paying for a parse of the full instance text. An
            // unparseable header falls through to the real parser's
            // error reporting.
            if shared.config.max_cells > 0 {
                if let Some((nets, vertices)) = declared_counts(text) {
                    let max = shared.config.max_cells as u64;
                    if nets > max || vertices > max {
                        shared
                            .stats
                            .rejected_too_large
                            .fetch_add(1, Ordering::Relaxed);
                        writer.send(&Response::Error {
                            id: Some(id),
                            code: "rejected_too_large".to_string(),
                            detail: format!(
                                "declared {nets} nets x {vertices} vertices exceeds \
                                 the admission limit of {max} cells"
                            ),
                        });
                        return None;
                    }
                }
            }
            match hgr::read(text.as_bytes()) {
                Ok(h) => {
                    let digest = h.content_digest();
                    Some((shared.instances.intern(digest, h), digest))
                }
                Err(e) => {
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                    writer.send(&Response::Error {
                        id: Some(id),
                        code: "parse".to_string(),
                        detail: format!("instance is not valid .hgr: {e}"),
                    });
                    None
                }
            }
        }
    }
}

/// Extracts the `(num_nets, num_vertices)` pair an `.hgr` header
/// declares, skipping `%` comment lines. `None` when the header is
/// absent or malformed (the real parser then produces the error).
fn declared_counts(text: &str) -> Option<(u64, u64)> {
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let nets = fields.next()?.parse().ok()?;
        let vertices = fields.next()?.parse().ok()?;
        return Some((nets, vertices));
    }
    None
}

/// Registers the job's cancellation token and admits it to the queue,
/// shedding with a typed `rejected` response when the queue is full.
fn submit(job: Job, shared: &Arc<Shared>) {
    let key = (job.conn_id, job.id);
    let writer = Arc::clone(&job.writer);
    let id = job.id;
    let request_token = job.request_token;
    shared
        .cancels
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, (job.token.clone(), request_token.is_some()));
    // Acknowledge before enqueueing: a worker may finish a queued job
    // almost instantly, and the `accepted` ack must never trail the
    // result on the wire — sequential clients rely on a deterministic
    // per-connection frame order. A full queue follows up with
    // `rejected`, which supersedes the ack.
    writer.send(&Response::Accepted { id });
    match shared.queue.try_push(job) {
        Ok(_) => {
            shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        }
        Err(full) => {
            shared
                .cancels
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&key);
            abandon_token(request_token, shared);
            shared
                .stats
                .rejected_overload
                .fetch_add(1, Ordering::Relaxed);
            let depth = if full.depth == usize::MAX {
                // Closed-queue sentinel: the daemon is shutting down.
                shared.queue.capacity()
            } else {
                full.depth
            };
            writer.send(&Response::Rejected {
                id,
                queue_depth: depth,
                queue_capacity: shared.queue.capacity(),
            });
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    // Workspaces live for the worker's lifetime: arenas grown by one job
    // are reused by the next, the same amortization the multi-start
    // drivers get within a single run.
    let mut ctx_template = RunCtx::new(0);
    while let Some(job) = shared.queue.pop() {
        let key = (job.conn_id, job.id);
        // Register with the watchdog *before* the test-only stall so a
        // job that hangs before (or during) execution is still caught.
        let fired = register_watchdog(&job, shared);
        if shared.config.worker_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.config.worker_delay_ms));
        }
        let result = match &job.kind {
            JobKind::Eval(req, h, digest) => eval_job(req, h, *digest),
            JobKind::Partition(req, h, digest) => {
                partition_job(req, h, *digest, &job, shared, &mut ctx_template)
            }
        };
        shared
            .running
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key);
        shared
            .cancels
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key);
        // A watchdog kill surfaces as a typed error, not a cancelled
        // result; a job that completed despite the watchdog firing (it
        // won the race) keeps its result.
        let watchdog_killed = fired
            .map(|f| f.load(Ordering::Relaxed) && result.stopped == StopReason::Cancelled)
            .unwrap_or(false);
        let outcome = if watchdog_killed {
            shared
                .stats
                .watchdog_cancelled
                .fetch_add(1, Ordering::Relaxed);
            CachedOutcome::Failed {
                code: "watchdog_cancelled".to_string(),
                detail: "job overshot its budget and was force-cancelled by the watchdog"
                    .to_string(),
            }
        } else {
            CachedOutcome::Result(result)
        };
        // Cache the outcome for idempotent replay *before* attempting
        // delivery — a retry after a poisoned primary stream is exactly
        // the case replay exists for.
        let waiters = match job.request_token {
            Some(token) => shared.tokens.complete(token, outcome.clone()),
            None => Vec::new(),
        };
        // Count the job before its result frame goes out, so a client
        // that reads the result and then asks for `stats` sees it; a
        // failed delivery takes the count back.
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
        let delivered = !job.writer.is_poisoned() && send_outcome(&job.writer, job.id, &outcome);
        if !delivered {
            shared.stats.completed.fetch_sub(1, Ordering::Relaxed);
            // The connection writer poisoned mid-job (satellite of
            // `JsonlSink::is_poisoned`): the trace the client saw is
            // truncated, so the job is reported as aborted — the typed
            // error below is best-effort (the writer usually being the
            // very thing that failed).
            shared.stats.stream_aborted.fetch_add(1, Ordering::Relaxed);
            job.writer.send(&Response::Error {
                id: Some(job.id),
                code: "stream_poisoned".to_string(),
                detail: "response stream failed mid-job; job aborted".to_string(),
            });
        }
        for waiter in waiters {
            send_outcome(&waiter.writer, waiter.id, &outcome);
        }
    }
}

/// Puts a budgeted job under watchdog supervision. Returns the flag the
/// watchdog sets when it fires, or `None` when the job is not
/// supervised (no budget, or the watchdog is disabled).
fn register_watchdog(job: &Job, shared: &Arc<Shared>) -> Option<Arc<AtomicBool>> {
    if shared.config.watchdog_factor <= 0.0 {
        return None;
    }
    let JobKind::Partition(req, _, _) = &job.kind else {
        return None;
    };
    let budget_ms = req.budget_ms?;
    let overshoot_ms = (budget_ms as f64 * shared.config.watchdog_factor).ceil();
    let fired = Arc::new(AtomicBool::new(false));
    shared
        .running
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(
            (job.conn_id, job.id),
            RunningJob {
                overshoot_deadline: Instant::now() + Duration::from_millis(overshoot_ms as u64),
                token: job.token.clone(),
                fired: Arc::clone(&fired),
            },
        );
    Some(fired)
}

/// Scans running budgeted jobs and force-cancels overshooters. Wakes on
/// the shutdown condvar so it exits promptly with everyone else.
fn watchdog_loop(shared: &Arc<Shared>) {
    let poll = Duration::from_millis(shared.config.watchdog_poll_ms.max(1));
    loop {
        {
            let done = shared.done.lock().unwrap_or_else(|e| e.into_inner());
            if *done {
                return;
            }
            let (done, _) = shared
                .done_cv
                .wait_timeout(done, poll)
                .unwrap_or_else(|e| e.into_inner());
            if *done {
                return;
            }
        }
        let now = Instant::now();
        let running = shared.running.lock().unwrap_or_else(|e| e.into_inner());
        for job in running.values() {
            if now >= job.overshoot_deadline && !job.fired.swap(true, Ordering::Relaxed) {
                job.token.cancel();
            }
        }
    }
}

fn eval_job(req: &EvalRequest, h: &Hypergraph, digest: u128) -> JobResult {
    let mut cut = 0u64;
    for e in h.nets() {
        let pins = h.net_pins(e);
        if let Some((&first, rest)) = pins.split_first() {
            let p0 = req.assignment[first.index()];
            if rest.iter().any(|&v| req.assignment[v.index()] != p0) {
                cut += u64::from(h.net_weight(e));
            }
        }
    }
    let mut part_weights = vec![0u64; req.k];
    for (v, &p) in req.assignment.iter().enumerate() {
        part_weights[usize::from(p)] += h.vertex_weight(hypart_hypergraph::VertexId::new(v as u32));
    }
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), req.k, req.fraction);
    JobResult {
        cut,
        balanced: part_weights.iter().all(|&w| balance.contains(w)),
        stopped: StopReason::Completed,
        audit_clean: true,
        hierarchy_reused: false,
        levels: 0,
        starts: 0,
        digest,
        assignment: None,
    }
}

fn partition_job(
    req: &PartitionRequest,
    h: &Hypergraph,
    digest: u128,
    job: &Job,
    shared: &Arc<Shared>,
    ctx_template: &mut RunCtx<'static>,
) -> JobResult {
    let sink = StreamSink {
        writer: Arc::clone(&job.writer),
        id: req.id,
        token: job.token.clone(),
        enabled: req.trace,
        durable: job.request_token.is_some(),
        batch: RefCell::default(),
    };
    // Move the worker's long-lived workspaces into this job's context
    // and reclaim them afterwards.
    let workspace = std::mem::take(&mut ctx_template.workspace);
    let coarsen_ws = std::mem::take(&mut ctx_template.coarsen);
    let mut ctx = RunCtx::new(req.seed)
        .with_sink(&sink)
        .with_cancel_token(job.token.clone())
        .with_audit(AuditLevel::Checkpoints)
        .with_workspace(workspace)
        .with_coarsen_workspace(coarsen_ws);
    if let Some(ms) = req.budget_ms {
        ctx = ctx.with_budget(Duration::from_millis(ms));
    }

    let result = if req.k == 2 {
        bisection_job(req, h, digest, shared, &mut ctx)
    } else {
        kway_job(req, h, digest, &shared.config.ml, &mut ctx)
    };
    ctx_template.workspace = std::mem::take(&mut ctx.workspace);
    ctx_template.coarsen = std::mem::take(&mut ctx.coarsen);
    // The last events leave before the worker sends the result frame,
    // and a failed write here still poisons the writer in time for the
    // worker's `stream_aborted` check.
    sink.flush();
    result
}

/// 2-way jobs run the split pipeline so the hierarchy cache applies:
/// build (or reuse) the coarsening hierarchy, then partition from it.
/// A cache hit is announced with one `hierarchy_reused` trace event and
/// then replays bitwise the trace of a cold split-pipeline run — the
/// determinism contract of
/// [`MlPartitioner::run_from_hierarchy_with`].
fn bisection_job(
    req: &PartitionRequest,
    h: &Hypergraph,
    digest: u128,
    shared: &Arc<Shared>,
    ctx: &mut RunCtx<'_>,
) -> JobResult {
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), req.fraction);
    if req.engine == EngineKind::NLevel {
        // The n-level backend never builds a CSR hierarchy, so the
        // hierarchy cache does not apply: run the engine directly.
        let partitioner =
            MlPartitioner::new(shared.config.ml.clone().with_engine(EngineKind::NLevel));
        return if req.budget_ms.is_some() {
            let out = multi_start_budgeted_with(&partitioner, h, &constraint, ctx);
            JobResult {
                cut: out.cut,
                balanced: out.balanced,
                stopped: out.stopped,
                audit_clean: out.audit_failure.is_none(),
                hierarchy_reused: false,
                levels: 0,
                starts: out.stats.outcomes.len(),
                digest,
                assignment: req
                    .include_assignment
                    .then(|| part_assignment(&out.assignment)),
            }
        } else {
            let out = partitioner.run_with(h, &constraint, ctx);
            JobResult {
                cut: out.cut,
                balanced: out.balanced,
                stopped: out.stopped,
                audit_clean: out.audit_failure.is_none(),
                hierarchy_reused: false,
                levels: out.levels,
                starts: 1,
                digest,
                assignment: req
                    .include_assignment
                    .then(|| part_assignment(&out.assignment)),
            }
        };
    }
    let partitioner = MlPartitioner::new(shared.config.ml.clone());
    let (hierarchy, reused) = if req.use_hierarchy_cache {
        let key = HierarchyKey::new(digest, &shared.config.ml.coarsen, req.seed);
        match shared.hierarchies.get(&key) {
            Some(hierarchy) => (hierarchy, true),
            None => {
                let hierarchy = partitioner.coarsen_hierarchy_with(h, ctx).into_shared();
                shared.hierarchies.insert(key, Arc::clone(&hierarchy));
                (hierarchy, false)
            }
        }
    } else {
        (
            partitioner.coarsen_hierarchy_with(h, ctx).into_shared(),
            false,
        )
    };
    if reused {
        ctx.sink.emit(RunEvent::HierarchyReused {
            levels: hierarchy.len(),
        });
    }
    let levels = hierarchy.len();
    if req.budget_ms.is_some() {
        let out =
            multi_start_budgeted_from_hierarchy_with(&partitioner, h, &hierarchy, &constraint, ctx);
        JobResult {
            cut: out.cut,
            balanced: out.balanced,
            stopped: out.stopped,
            audit_clean: out.audit_failure.is_none(),
            hierarchy_reused: reused,
            levels,
            starts: out.stats.outcomes.len(),
            digest,
            assignment: req
                .include_assignment
                .then(|| part_assignment(&out.assignment)),
        }
    } else {
        let out = partitioner.run_from_hierarchy_with(h, &hierarchy, &constraint, ctx);
        JobResult {
            cut: out.cut,
            balanced: out.balanced,
            stopped: out.stopped,
            audit_clean: out.audit_failure.is_none(),
            hierarchy_reused: reused,
            levels,
            starts: 1,
            digest,
            assignment: req
                .include_assignment
                .then(|| part_assignment(&out.assignment)),
        }
    }
}

/// `k > 2` jobs go through recursive bisection; hierarchies differ per
/// induced subregion, so only the instance cache applies.
fn kway_job(
    req: &PartitionRequest,
    h: &Hypergraph,
    digest: u128,
    ml: &MlConfig,
    ctx: &mut RunCtx<'_>,
) -> JobResult {
    // Recursive bisection runs the 2-way engine per split, so the
    // request's backend choice threads through via the config.
    let ml = ml.clone().with_engine(req.engine);
    let out = recursive_bisection_with(h, req.k, req.fraction, &ml, ctx);
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), req.k, req.fraction);
    JobResult {
        cut: out.cut,
        balanced: out.is_balanced(&balance),
        stopped: out.stopped,
        audit_clean: out.audit_failure.is_none(),
        hierarchy_reused: false,
        levels: 0,
        starts: 1,
        digest,
        assignment: req.include_assignment.then(|| out.assignment.clone()),
    }
}

fn part_assignment(assignment: &[PartId]) -> Vec<u16> {
    assignment
        .iter()
        .map(|&p| match p {
            PartId::P0 => 0,
            PartId::P1 => 1,
        })
        .collect()
}
