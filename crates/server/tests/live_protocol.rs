//! Live-socket tests of the daemon: typed errors, cancellation,
//! trace streaming (per-job frame order under batching), the
//! hierarchy-cache trace contract, instance-cache accounting, and
//! poisoned-stream aborts.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use hypart_core::{AuditLevel, BalanceConstraint, RunCtx};
use hypart_ml::{MlConfig, MlPartitioner};
use hypart_server::protocol::{
    digest_to_hex, EvalRequest, InstanceRef, PartitionRequest, Request, Response,
};
use hypart_server::{Client, JobOutcome, Server, ServerConfig};
use hypart_trace::{MemorySink, RunEvent, StopReason};

fn hgr_text(cells: usize, seed: u64) -> String {
    let h = hypart_benchgen::mcnc_like(cells, seed);
    let mut text = Vec::new();
    hypart_hypergraph::io::hgr::write(&h, &mut text).unwrap();
    String::from_utf8(text).unwrap()
}

fn start_default() -> hypart_server::ServerHandle {
    Server::start(ServerConfig::default()).unwrap()
}

#[test]
fn malformed_frame_gets_typed_parse_error_and_connection_survives() {
    let server = start_default();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // A syntactically broken frame: valid length prefix, junk payload.
    let junk = b"{not json";
    raw.write_all(&(junk.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(junk).unwrap();
    raw.flush().unwrap();

    // The same socket still serves real requests afterwards.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .send(&Request::Partition(PartitionRequest::new(
            1,
            InstanceRef::Inline(hgr_text(60, 1)),
            7,
        )))
        .unwrap();
    let outcome = client.wait_outcome(1).unwrap();
    assert!(matches!(outcome, JobOutcome::Finished { .. }));
    let stats = client.stats().unwrap();
    assert!(stats.errors >= 1, "the junk frame must be counted");
    server.shutdown();
}

#[test]
fn unknown_digest_and_bad_requests_fail_typed() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();

    client
        .send(&Request::Partition(PartitionRequest::new(
            5,
            InstanceRef::Digest(0xDEAD_BEEF),
            1,
        )))
        .unwrap();
    match client.wait_outcome(5).unwrap() {
        JobOutcome::Failed { code, .. } => assert_eq!(code, "unknown_instance"),
        other => panic!("expected unknown_instance, got {other:?}"),
    }

    // k = 3 violates the power-of-two validation; the raw frame carries
    // an id, so the error comes back job-scoped.
    let text = format!(
        r#"{{"op":"partition","id":6,"digest":"{}","k":3}}"#,
        digest_to_hex(1)
    );
    let value = hypart_trace::json::JsonValue::parse(&text).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let bytes = value.to_string();
    raw.write_all(&(bytes.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(bytes.as_bytes()).unwrap();
    raw.flush().unwrap();
    // Read the job-scoped error reply off the raw socket — a
    // deterministic sync point (no sleeping and hoping the reader
    // thread got there) before checking the counter.
    let reply = hypart_server::protocol::read_frame(&mut raw, 1 << 20)
        .unwrap()
        .unwrap();
    assert_eq!(
        reply.get("reply").and_then(|v| v.as_str()),
        Some("error"),
        "raw k=3 frame must fail typed: {reply:?}"
    );
    let stats = client.stats().unwrap();
    assert!(stats.errors >= 2);

    // Eval with mismatched assignment length.
    client
        .send(&Request::Partition(PartitionRequest::new(
            7,
            InstanceRef::Inline(hgr_text(40, 2)),
            1,
        )))
        .unwrap();
    let digest = match client.wait_outcome(7).unwrap() {
        JobOutcome::Finished { result, .. } => result.digest,
        other => panic!("setup job failed: {other:?}"),
    };
    client
        .send(&Request::Eval(EvalRequest {
            id: 8,
            instance: InstanceRef::Digest(digest),
            assignment: vec![0, 1],
            k: 2,
            fraction: 0.1,
            request_token: None,
        }))
        .unwrap();
    match client.wait_outcome(8).unwrap() {
        JobOutcome::Failed { code, .. } => assert_eq!(code, "bad_request"),
        other => panic!("expected bad_request, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn cancel_stops_a_queued_job_and_unknown_cancel_is_typed() {
    let config = ServerConfig {
        workers: 1,
        worker_delay_ms: 150,
        ..ServerConfig::default()
    };
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    client
        .send(&Request::Partition(PartitionRequest::new(
            1,
            InstanceRef::Inline(hgr_text(80, 3)),
            5,
        )))
        .unwrap();
    // The worker is sleeping on the delay knob; the cancel lands while
    // the job is queued/starting, so the engine observes the token.
    assert!(client.cancel(1).unwrap(), "in-flight cancel must ack");
    match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { result, .. } => {
            assert_eq!(result.stopped, StopReason::Cancelled);
            assert_eq!(result.starts, 1, "the mandatory start still runs");
        }
        other => panic!("expected a cancelled result, got {other:?}"),
    }

    assert!(
        !client.cancel(99).unwrap(),
        "unknown job cancel returns false"
    );
    server.shutdown();
}

#[test]
fn eval_scores_an_assignment_without_running_engines() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut req = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(60, 4)), 9);
    req.include_assignment = true;
    client.send(&Request::Partition(req)).unwrap();
    let (digest, assignment, cut) = match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { result, .. } => (
            result.digest,
            result.assignment.clone().unwrap(),
            result.cut,
        ),
        other => panic!("setup job failed: {other:?}"),
    };
    client
        .send(&Request::Eval(EvalRequest {
            id: 2,
            instance: InstanceRef::Digest(digest),
            assignment,
            k: 2,
            fraction: 0.1,
            request_token: None,
        }))
        .unwrap();
    match client.wait_outcome(2).unwrap() {
        JobOutcome::Finished { result, .. } => {
            assert_eq!(result.cut, cut, "eval must agree with the engine's cut");
            assert_eq!(result.starts, 0);
            assert_eq!(result.stopped, StopReason::Completed);
        }
        other => panic!("eval failed: {other:?}"),
    }
    server.shutdown();
}

/// The acceptance contract of the hierarchy cache: a re-query with the
/// same `(digest, coarsening config, seed)` replays the cold run's
/// trace bitwise, prefixed by exactly one `hierarchy_reused` event; a
/// re-query with a *new balance* still skips hierarchy construction
/// (observable from the same leading event) while refining differently.
#[test]
fn cache_hit_trace_is_cold_trace_plus_reuse_prefix() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut cold = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(90, 5)), 11);
    cold.trace = true;
    client.send(&Request::Partition(cold)).unwrap();
    let (digest, cold_events, cold_result) = match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { result, events } => (result.digest, events, result),
        other => panic!("cold job failed: {other:?}"),
    };
    assert!(!cold_result.hierarchy_reused);
    assert!(!cold_events.is_empty());
    assert!(
        !cold_events
            .iter()
            .any(|e| matches!(e, RunEvent::HierarchyReused { .. })),
        "a cold run must not claim reuse"
    );

    // Identical re-query: bitwise replay plus the one-event prefix.
    let mut warm = PartitionRequest::new(2, InstanceRef::Digest(digest), 11);
    warm.trace = true;
    client.send(&Request::Partition(warm)).unwrap();
    let (warm_events, warm_result) = match client.wait_outcome(2).unwrap() {
        JobOutcome::Finished { result, events } => (events, result),
        other => panic!("warm job failed: {other:?}"),
    };
    assert!(warm_result.hierarchy_reused);
    assert_eq!(warm_result.levels, cold_result.levels);
    assert_eq!(warm_result.cut, cold_result.cut);
    match warm_events.first() {
        Some(RunEvent::HierarchyReused { levels }) => {
            assert_eq!(*levels, cold_result.levels)
        }
        other => panic!("warm trace must lead with hierarchy_reused, got {other:?}"),
    }
    assert_eq!(
        &warm_events[1..],
        &cold_events[..],
        "a cache hit must replay the cold trace bitwise after the reuse prefix"
    );

    // New balance over the cached hierarchy: construction still skipped.
    let mut rebalanced = PartitionRequest::new(3, InstanceRef::Digest(digest), 11);
    rebalanced.trace = true;
    rebalanced.fraction = 0.3;
    client.send(&Request::Partition(rebalanced)).unwrap();
    match client.wait_outcome(3).unwrap() {
        JobOutcome::Finished { result, events } => {
            assert!(result.hierarchy_reused);
            assert!(matches!(
                events.first(),
                Some(RunEvent::HierarchyReused { .. })
            ));
        }
        other => panic!("rebalanced job failed: {other:?}"),
    }

    let stats = client.stats().unwrap();
    assert!(stats.hierarchy_hits >= 2);
    assert!(stats.hierarchy_misses >= 1);
    assert!(
        stats.instance_hits >= 2,
        "digest re-queries hit the instance cache"
    );
    server.shutdown();
}

/// The wire contract of the `engine` field: n-level jobs run end to end
/// over a live socket (2-way and recursive-bisection k-way), replay
/// bitwise on a re-query, never touch the hierarchy cache, and emit the
/// contraction/uncontraction bracket events.
#[test]
fn nlevel_engine_jobs_run_deterministically_and_skip_hierarchy_cache() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut first = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(90, 5)), 11);
    first.engine = hypart_core::EngineKind::NLevel;
    first.trace = true;
    client.send(&Request::Partition(first)).unwrap();
    let (digest, first_events, first_result) = match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { result, events } => (result.digest, events, result),
        other => panic!("nlevel job failed: {other:?}"),
    };
    assert!(first_result.audit_clean);
    assert!(first_result.balanced);
    assert!(
        !first_result.hierarchy_reused,
        "n-level never consults the hierarchy cache"
    );
    assert!(
        first_events
            .iter()
            .any(|e| matches!(e, RunEvent::ContractionBegin { .. })),
        "n-level traces must open a contraction bracket"
    );
    assert!(
        first_events
            .iter()
            .any(|e| matches!(e, RunEvent::UncontractionEnd { .. })),
        "n-level traces must close the uncontraction bracket"
    );

    // Identical re-query by digest: bitwise trace replay, no reuse event
    // (the hierarchy cache never engages for this backend).
    let mut again = PartitionRequest::new(2, InstanceRef::Digest(digest), 11);
    again.engine = hypart_core::EngineKind::NLevel;
    again.trace = true;
    client.send(&Request::Partition(again)).unwrap();
    match client.wait_outcome(2).unwrap() {
        JobOutcome::Finished { result, events } => {
            assert_eq!(result.cut, first_result.cut);
            assert!(!result.hierarchy_reused);
            assert_eq!(
                events, first_events,
                "n-level re-queries must replay the trace bitwise"
            );
        }
        other => panic!("nlevel re-query failed: {other:?}"),
    }

    // k-way via recursive bisection inherits the backend choice.
    let mut kway = PartitionRequest::new(3, InstanceRef::Digest(digest), 7);
    kway.engine = hypart_core::EngineKind::NLevel;
    kway.k = 4;
    client.send(&Request::Partition(kway)).unwrap();
    match client.wait_outcome(3).unwrap() {
        JobOutcome::Finished { result, .. } => {
            assert!(result.audit_clean);
            assert!(result.balanced);
        }
        other => panic!("nlevel k-way job failed: {other:?}"),
    }

    let stats = client.stats().unwrap();
    assert_eq!(
        stats.hierarchy_hits + stats.hierarchy_misses,
        0,
        "n-level jobs must not touch the hierarchy cache"
    );
    server.shutdown();
}

/// Disconnecting mid-stream poisons the connection writer; the daemon
/// cancels the job and counts a `stream_aborted` instead of pretending
/// the truncated trace was delivered.
#[test]
fn client_disconnect_mid_trace_counts_stream_aborted() {
    let config = ServerConfig {
        workers: 1,
        worker_delay_ms: 100,
        ..ServerConfig::default()
    };
    let server = Server::start(config).unwrap();

    {
        let mut doomed = Client::connect(server.local_addr()).unwrap();
        let mut req = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(120, 6)), 13);
        req.trace = true;
        doomed.send(&Request::Partition(req)).unwrap();
        // Drop the connection while the job is still queued behind the
        // worker delay: every later write to it fails.
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut observer = Client::connect(server.local_addr()).unwrap();
    loop {
        let stats = observer.stats().unwrap();
        if stats.stream_aborted >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never counted the poisoned stream: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn remote_shutdown_op_stops_the_daemon() {
    let server = start_default();
    let addr = server.local_addr();
    let waiter = std::thread::spawn(move || server.wait());
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    waiter.join().unwrap();
    // The port is released once wait() returns; a fresh connect fails
    // (or connects to nothing that answers — accept loop is gone).
    std::thread::sleep(Duration::from_millis(50));
    let mut probe = Client::connect(addr);
    if let Ok(probe) = probe.as_mut() {
        assert!(
            probe.stats().is_err(),
            "daemon must not answer after shutdown"
        );
    }
}

/// Inline uploads go through the instance cache too: a new digest
/// counts as a miss, a digest job or a re-upload of known content as a
/// hit.
#[test]
fn inline_uploads_count_as_instance_cache_misses_and_hits() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = hgr_text(60, 8);
    client
        .send(&Request::Partition(PartitionRequest::new(
            1,
            InstanceRef::Inline(text.clone()),
            3,
        )))
        .unwrap();
    let digest = match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { result, .. } => result.digest,
        other => panic!("inline job failed: {other:?}"),
    };
    client
        .send(&Request::Partition(PartitionRequest::new(
            2,
            InstanceRef::Digest(digest),
            4,
        )))
        .unwrap();
    assert!(matches!(
        client.wait_outcome(2).unwrap(),
        JobOutcome::Finished { .. }
    ));
    let stats = client.stats().unwrap();
    assert_eq!(
        (stats.instance_misses, stats.instance_hits),
        (1, 1),
        "one new upload, then one digest hit"
    );

    client
        .send(&Request::Partition(PartitionRequest::new(
            3,
            InstanceRef::Inline(text),
            5,
        )))
        .unwrap();
    match client.wait_outcome(3).unwrap() {
        JobOutcome::Finished { result, .. } => assert_eq!(result.digest, digest),
        other => panic!("re-upload failed: {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        (stats.instance_misses, stats.instance_hits),
        (1, 2),
        "re-uploading known content is a hit"
    );
    server.shutdown();
}

/// A job is counted as completed before its result frame goes out, so
/// a `stats` request sent right after the result never misses it.
#[test]
fn completed_counts_every_job_whose_result_was_read() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = hgr_text(40, 9);
    for id in 1..=50u64 {
        client
            .send(&Request::Partition(PartitionRequest::new(
                id,
                InstanceRef::Inline(text.clone()),
                id,
            )))
            .unwrap();
        assert!(matches!(
            client.wait_outcome(id).unwrap(),
            JobOutcome::Finished { .. }
        ));
        let stats = client.stats().unwrap();
        assert_eq!(stats.completed, id, "stats right after result {id}");
    }
    server.shutdown();
}

/// The trace of a cold 2-way job run locally the way the daemon runs
/// it: build the hierarchy, then partition from it.
fn local_trace(request: &PartitionRequest, text: &str) -> Vec<RunEvent> {
    let h = hypart_hypergraph::io::hgr::read(text.as_bytes()).unwrap();
    let sink = MemorySink::new();
    let partitioner = MlPartitioner::new(MlConfig::default());
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), request.fraction);
    let mut ctx = RunCtx::new(request.seed)
        .with_sink(&sink)
        .with_audit(AuditLevel::Checkpoints);
    let hierarchy = partitioner.coarsen_hierarchy_with(&h, &mut ctx);
    partitioner.run_from_hierarchy_with(&h, &hierarchy, &constraint, &mut ctx);
    drop(ctx);
    sink.events()
}

/// Batched streaming keeps the per-job frame contract: with two traced
/// jobs running at once on one connection, each job's events arrive
/// after its ack, before its result, and in emission order — bitwise
/// the trace a local `MemorySink` run of the same request records.
#[test]
fn concurrent_traced_jobs_keep_frame_order_and_match_a_local_run() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let jobs: Vec<(PartitionRequest, String)> = [(1, 400, 21, 5), (2, 500, 22, 6)]
        .into_iter()
        .map(|(id, cells, instance_seed, seed)| {
            let text = hgr_text(cells, instance_seed);
            let mut req = PartitionRequest::new(id, InstanceRef::Inline(text.clone()), seed);
            req.trace = true;
            (req, text)
        })
        .collect();
    for (req, _) in &jobs {
        client.send(&Request::Partition(req.clone())).unwrap();
    }

    let slot = |id: u64| usize::try_from(id - 1).unwrap();
    let mut acked = [false; 2];
    let mut finished = [false; 2];
    let mut events: [Vec<RunEvent>; 2] = [Vec::new(), Vec::new()];
    while !finished.iter().all(|&f| f) {
        match client.read_response().unwrap() {
            Response::Accepted { id } => {
                let j = slot(id);
                assert!(
                    !acked[j] && events[j].is_empty() && !finished[j],
                    "job {id}: the ack must be its first frame"
                );
                acked[j] = true;
            }
            Response::Event { id, event } => {
                let j = slot(id);
                assert!(acked[j], "job {id}: event before its ack");
                assert!(!finished[j], "job {id}: event after its result");
                events[j].push(event);
            }
            Response::Result { id, result } => {
                let j = slot(id);
                assert!(acked[j], "job {id}: result before its ack");
                assert!(!finished[j], "job {id}: two results");
                assert!(result.audit_clean && !result.hierarchy_reused);
                finished[j] = true;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    for (j, (req, text)) in jobs.iter().enumerate() {
        let local = local_trace(req, text);
        assert!(!local.is_empty());
        assert_eq!(
            events[j], local,
            "job {}: streamed trace must equal the local run, in order",
            req.id
        );
    }
    server.shutdown();
}
