//! Edge-case coverage for the framing layer: `read_frame` (and through
//! it `read_exact_retry`) against interrupted syscalls, read timeouts
//! before vs inside a frame, torn streams, and payloads at the frame
//! cap boundary; on the write side, one `write` per frame and batched
//! event frames that are byte-identical to frames written one by one.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::io::{Read, Write};

use hypart_server::protocol::{
    encode_frame, is_timeout, read_frame, write_frame, FrameError, Request, Response,
};
use hypart_trace::RunEvent;

/// One scripted reader step: deliver bytes, or fail with an error kind.
enum Step {
    Data(Vec<u8>),
    Fail(std::io::ErrorKind),
}

/// A `Read` impl that replays a fixed script, after which it reports
/// clean EOF. Each `Data` step is delivered as one `read` return (the
/// chunking is part of the script).
struct Scripted {
    steps: VecDeque<Step>,
}

impl Scripted {
    fn new(steps: Vec<Step>) -> Self {
        Scripted {
            steps: steps.into(),
        }
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.steps.pop_front() {
            None => Ok(0),
            Some(Step::Fail(kind)) => Err(std::io::Error::new(kind, "scripted")),
            Some(Step::Data(mut bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    bytes.drain(..n);
                    self.steps.push_front(Step::Data(bytes));
                }
                Ok(n)
            }
        }
    }
}

/// A length-prefixed frame around the given JSON text.
fn frame(text: &str) -> Vec<u8> {
    let mut bytes = (u32::try_from(text.len()).unwrap()).to_be_bytes().to_vec();
    bytes.extend_from_slice(text.as_bytes());
    bytes
}

const CAP: usize = 1 << 16;

#[test]
fn interrupted_mid_frame_is_ridden_out() {
    // Interruptions scattered through the prefix and the payload must
    // all be transparent.
    let bytes = frame("{\"op\":\"stats\"}");
    let mut steps = vec![Step::Data(bytes[..1].to_vec())];
    for b in &bytes[1..] {
        steps.push(Step::Fail(std::io::ErrorKind::Interrupted));
        steps.push(Step::Data(vec![*b]));
    }
    let value = read_frame(&mut Scripted::new(steps), CAP).unwrap().unwrap();
    assert_eq!(
        value.get("op").and_then(|v| v.as_str()),
        Some("stats"),
        "interrupted reads must not lose or reorder bytes"
    );
}

#[test]
fn timeout_before_first_byte_surfaces_as_timeout() {
    // Idle timeout at a frame boundary: the caller's poll signal.
    let steps = vec![Step::Fail(std::io::ErrorKind::WouldBlock)];
    match read_frame(&mut Scripted::new(steps), CAP) {
        Err(FrameError::Io(e)) => assert!(is_timeout(&e), "expected a timeout kind, got {e:?}"),
        other => panic!("expected an Io timeout, got {other:?}"),
    }
}

#[test]
fn timeout_mid_frame_is_ridden_out() {
    // Once a frame has started, timeouts (WouldBlock and TimedOut alike)
    // must NOT surface — a slow writer is not a desynchronized stream.
    let bytes = frame("{\"op\":\"ping\"}");
    let steps = vec![
        Step::Data(bytes[..3].to_vec()), // partial length prefix
        Step::Fail(std::io::ErrorKind::WouldBlock),
        Step::Data(bytes[3..7].to_vec()), // rest of prefix + payload start
        Step::Fail(std::io::ErrorKind::TimedOut),
        Step::Data(bytes[7..].to_vec()),
    ];
    let value = read_frame(&mut Scripted::new(steps), CAP).unwrap().unwrap();
    assert_eq!(value.get("op").and_then(|v| v.as_str()), Some("ping"));
}

#[test]
fn eof_at_boundary_is_clean_but_mid_frame_is_an_error() {
    // Clean EOF before any byte: Ok(None).
    assert!(read_frame(&mut Scripted::new(Vec::new()), CAP)
        .unwrap()
        .is_none());
    // EOF after a partial frame: UnexpectedEof, never Ok(None) — the
    // client maps this distinction to `Disconnected { mid_frame }`.
    let bytes = frame("{\"op\":\"stats\"}");
    for cut in [1, 3, 4, 9] {
        let steps = vec![Step::Data(bytes[..cut].to_vec())];
        match read_frame(&mut Scripted::new(steps), CAP) {
            Err(FrameError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
            }
            other => panic!("cut at {cut}: expected UnexpectedEof, got {other:?}"),
        }
    }
}

#[test]
fn payload_exactly_at_cap_is_accepted() {
    // A JSON string payload padded to exactly CAP bytes.
    let text = format!("\"{}\"", "a".repeat(CAP - 2));
    assert_eq!(text.len(), CAP);
    let steps = vec![Step::Data(frame(&text))];
    let value = read_frame(&mut Scripted::new(steps), CAP).unwrap().unwrap();
    assert_eq!(value.as_str().map(str::len), Some(CAP - 2));
}

#[test]
fn payload_one_past_cap_is_rejected_without_reading_it() {
    let text = format!("\"{}\"", "a".repeat(CAP - 1));
    assert_eq!(text.len(), CAP + 1);
    let steps = vec![Step::Data(frame(&text))];
    let mut reader = Scripted::new(steps);
    match read_frame(&mut reader, CAP) {
        Err(FrameError::TooLarge { declared, max }) => {
            assert_eq!(declared, CAP + 1);
            assert_eq!(max, CAP);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

/// A `Write` impl that accepts everything and counts `write` calls.
#[derive(Default)]
struct CountingWriter {
    bytes: Vec<u8>,
    writes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Events covering numbers, negatives, nested kinds and strings that
/// need escaping.
fn sample_events() -> Vec<RunEvent> {
    vec![
        RunEvent::TrialBegin {
            trial: 0,
            seed: 1 << 40,
            heuristic: "ml \"clip\"\\\u{1}\t".to_string(),
            instance: "ibm01 — λ😀".to_string(),
        },
        RunEvent::RunBegin { cut: 12 },
        RunEvent::Move {
            vertex: 3,
            gain: -2,
            cut: 14,
        },
        RunEvent::PassEnd {
            pass: 0,
            cut: 9,
            moves_made: 5,
            moves_rolled_back: 2,
            leftovers: true,
            corked: true,
        },
        RunEvent::HierarchyReused { levels: 4 },
        RunEvent::RunEnd { cut: 9, passes: 1 },
    ]
}

#[test]
fn write_frame_makes_one_write_per_frame() {
    let mut out = CountingWriter::default();
    let frames = [
        Request::Stats.to_json(),
        Response::Event {
            id: 7,
            event: RunEvent::RunBegin { cut: 3 },
        }
        .to_json(),
        // Large enough that a writer splitting prefix and payload, or
        // chunking the payload, would show up as extra calls.
        hypart_trace::json::JsonValue::string("x".repeat(1 << 20)),
    ];
    for (i, value) in frames.iter().enumerate() {
        write_frame(&mut out, value).unwrap();
        assert_eq!(out.writes, i + 1, "frame {i} took more than one write");
    }
    // And the single write carried a well-formed frame each time.
    let mut reader = &out.bytes[..];
    for value in &frames {
        assert_eq!(
            read_frame(&mut reader, 2 << 20).unwrap().as_ref(),
            Some(value)
        );
    }
    assert!(reader.is_empty());
}

#[test]
fn event_batch_is_byte_identical_to_frames_written_one_by_one() {
    let events = sample_events();
    for id in [0, 42, u64::from(u32::MAX) + 1] {
        let frames: Vec<_> = events
            .iter()
            .map(|event| {
                Response::Event {
                    id,
                    event: event.clone(),
                }
                .to_json()
            })
            .collect();
        let mut batch = Vec::new();
        for frame in &frames {
            encode_frame(&mut batch, frame).unwrap();
        }
        let mut one_by_one = CountingWriter::default();
        for frame in &frames {
            write_frame(&mut one_by_one, frame).unwrap();
        }
        assert_eq!(one_by_one.writes, frames.len());
        assert_eq!(
            batch,
            one_by_one.bytes,
            "a batch of {} event frames must match {} write_frame calls",
            frames.len(),
            frames.len()
        );
    }
}
