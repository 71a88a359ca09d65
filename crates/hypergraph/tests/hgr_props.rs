//! Property tests of `.hgr` I/O and of the builder's pin deduplication.
//!
//! The reader, the writer and `add_net` are tuned for speed (a byte-level
//! scan, one reused output buffer, stamp-based deduplication), so each is
//! checked against a test-only reference of the plain implementation in
//! [`reference`]: a line-by-line `String` reader, a `to_string` writer and
//! a `Vec::contains` deduplication. On top of that:
//!
//! * write → read is the identity, for every `fmt` code;
//! * arbitrary bytes, mutated valid files and token soup never panic the
//!   reader, which agrees with the reference on each;
//! * every file of the `tests/corrupt` corpus keeps its error and line.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;

use proptest::prelude::*;

use hypart_hypergraph::io::hgr;
use hypart_hypergraph::{Hypergraph, HypergraphBuilder, ParseError, VertexId};

/// The plain implementations the optimized ones must match.
mod reference {
    use std::io::{BufRead, BufReader, Write};

    use hypart_hypergraph::io::hgr;
    use hypart_hypergraph::{BuildError, Hypergraph, HypergraphBuilder, ParseError, VertexId};

    /// Quadratic pin deduplication with `add_net`'s checks, in its order.
    pub fn dedup(
        net: usize,
        pins: &[VertexId],
        num_vertices: usize,
    ) -> Result<Vec<VertexId>, BuildError> {
        let mut kept: Vec<VertexId> = Vec::new();
        for &v in pins {
            if v.index() >= num_vertices {
                return Err(BuildError::UnknownVertex {
                    net,
                    vertex: v.raw(),
                    num_vertices,
                });
            }
            if !kept.contains(&v) {
                kept.push(v);
            }
        }
        if kept.is_empty() {
            return Err(BuildError::EmptyNet { net });
        }
        Ok(kept)
    }

    /// Writer formatting every integer with `to_string`.
    pub fn write(h: &Hypergraph) -> Vec<u8> {
        let net_weighted = h.nets().any(|e| h.net_weight(e) != 1);
        let vertex_weighted = !h.is_unit_area();
        let mut out = Vec::new();
        match (net_weighted, vertex_weighted) {
            (false, false) => writeln!(out, "{} {}", h.num_nets(), h.num_vertices()),
            (true, false) => writeln!(out, "{} {} 1", h.num_nets(), h.num_vertices()),
            (false, true) => writeln!(out, "{} {} 10", h.num_nets(), h.num_vertices()),
            (true, true) => writeln!(out, "{} {} 11", h.num_nets(), h.num_vertices()),
        }
        .unwrap();
        for e in h.nets() {
            let mut line = String::new();
            if net_weighted {
                line.push_str(&h.net_weight(e).to_string());
            }
            for &v in h.net_pins(e) {
                if !line.is_empty() {
                    line.push(' ');
                }
                line.push_str(&(v.index() + 1).to_string());
            }
            writeln!(out, "{line}").unwrap();
        }
        if vertex_weighted {
            for v in h.vertices() {
                writeln!(out, "{}", h.vertex_weight(v)).unwrap();
            }
        }
        out
    }

    fn field<T: std::str::FromStr>(
        tok: Option<&str>,
        line: usize,
        what: &str,
    ) -> Result<T, ParseError> {
        tok.ok_or_else(|| ParseError::syntax(line, format!("missing {what}")))?
            .parse()
            .map_err(|_| ParseError::syntax(line, format!("{what} is not a valid integer")))
    }

    /// Reader over `BufRead::lines` and `str::split_whitespace`, with
    /// every check of the `.hgr` format in its order.
    pub fn read(bytes: &[u8]) -> Result<Hypergraph, ParseError> {
        let mut lines = BufReader::new(bytes).lines().enumerate();
        let (header_no, header) = loop {
            let Some((i, line)) = lines.next() else {
                return Err(ParseError::syntax(1, "empty file: missing header"));
            };
            let line = line?;
            if i == 0 && line.starts_with('\u{feff}') {
                return Err(ParseError::syntax(
                    1,
                    "file begins with a UTF-8 byte-order mark; re-save without a BOM",
                ));
            }
            let t = line.trim();
            if !t.is_empty() && !t.starts_with('%') {
                break (i + 1, line);
            }
        };
        let mut it = header.split_whitespace();
        let num_nets: usize = field(it.next(), header_no, "net count")?;
        let num_vertices: usize = field(it.next(), header_no, "vertex count")?;
        let (net_weights, vertex_weights) = match it.next() {
            None => (false, false),
            Some(tok) => match tok.parse::<u32>() {
                Ok(1) => (true, false),
                Ok(10) => (false, true),
                Ok(11) => (true, true),
                Ok(other) => {
                    return Err(ParseError::syntax(
                        header_no,
                        format!("unknown hgr fmt code {other} (expected 1, 10, or 11)"),
                    ))
                }
                Err(_) => return Err(ParseError::syntax(header_no, "fmt field is not an integer")),
            },
        };
        if it.next().is_some() {
            return Err(ParseError::syntax(
                header_no,
                "trailing tokens after header",
            ));
        }
        for (count, what) in [(num_nets, "net count"), (num_vertices, "vertex count")] {
            if count > hgr::MAX_DECLARED_COUNT {
                return Err(ParseError::syntax(
                    header_no,
                    format!(
                        "declared {what} {count} exceeds the supported maximum {}",
                        hgr::MAX_DECLARED_COUNT
                    ),
                ));
            }
        }
        let mut nets: Vec<(Vec<VertexId>, u32)> = Vec::new();
        let mut weights: Vec<u64> = Vec::new();
        let mut total = 0u64;
        let mut last_line = header_no;
        for (i, line) in lines {
            let line_no = i + 1;
            last_line = line_no;
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            if nets.len() < num_nets {
                let mut toks = t.split_whitespace();
                let weight: u32 = if net_weights {
                    field(toks.next(), line_no, "net weight")?
                } else {
                    1
                };
                let mut pins = Vec::new();
                for tok in toks {
                    let p: usize = tok.parse().map_err(|_| {
                        ParseError::syntax(line_no, format!("pin `{tok}` is not an integer"))
                    })?;
                    if p == 0 || p > num_vertices {
                        return Err(ParseError::syntax(
                            line_no,
                            format!("pin {p} out of range 1..={num_vertices}"),
                        ));
                    }
                    pins.push(VertexId::from_index(p - 1));
                }
                if pins.is_empty() {
                    return Err(ParseError::syntax(line_no, "net line has no pins"));
                }
                nets.push((pins, weight));
            } else if vertex_weights && weights.len() < num_vertices {
                let w: u64 = t.parse().map_err(|_| {
                    ParseError::syntax(line_no, format!("vertex weight `{t}` is not an integer"))
                })?;
                total = total.checked_add(w).ok_or_else(|| {
                    ParseError::syntax(line_no, "total vertex weight overflows u64")
                })?;
                weights.push(w);
            } else {
                return Err(ParseError::syntax(line_no, "unexpected trailing content"));
            }
        }
        if nets.len() != num_nets {
            return Err(ParseError::syntax(
                last_line,
                format!(
                    "header promised {num_nets} nets but file contains {}",
                    nets.len()
                ),
            ));
        }
        if vertex_weights && weights.len() != num_vertices {
            return Err(ParseError::syntax(
                last_line,
                format!(
                    "header promised {num_vertices} vertex weights but file contains {}",
                    weights.len()
                ),
            ));
        }
        let mut b = HypergraphBuilder::with_capacity(num_vertices, num_nets);
        if vertex_weights {
            for &w in &weights {
                b.add_vertex(w);
            }
        } else {
            b.add_vertices(num_vertices, 1);
        }
        for (pins, w) in nets {
            b.add_net(pins, w)?;
        }
        Ok(b.build()?)
    }
}

/// Everything a reader determines: each net's pins in order and weight,
/// the vertex weights, and the content digest.
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    nets: Vec<(Vec<u32>, u32)>,
    vertex_weights: Vec<u64>,
    digest: u128,
}

fn shape(h: &Hypergraph) -> Shape {
    Shape {
        nets: h
            .nets()
            .map(|e| {
                (
                    h.net_pins(e).iter().map(|v| v.raw()).collect(),
                    h.net_weight(e),
                )
            })
            .collect(),
        vertex_weights: h.vertices().map(|v| h.vertex_weight(v)).collect(),
        digest: h.content_digest(),
    }
}

/// A parse outcome in comparable form: the shape, or the error's text
/// (which carries its kind and line).
fn outcome(r: Result<Hypergraph, ParseError>) -> Result<Shape, String> {
    r.map(|h| shape(&h)).map_err(|e| e.to_string())
}

/// Raw material for a hypergraph: vertex weights, and nets as pin
/// indices (duplicates included) with weights. `weights` picks the fmt
/// code: bit 0 net weights, bit 1 vertex weights.
#[derive(Debug, Clone)]
struct Spec {
    vertex_weights: Vec<u64>,
    nets: Vec<(Vec<usize>, u32)>,
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        1usize..40,
        0u8..4,
        proptest::collection::vec(1u64..1_000_000_000_000, 40..41),
        proptest::collection::vec(
            (proptest::collection::vec(any::<u16>(), 1..9), 1u32..2000),
            1..30,
        ),
    )
        .prop_map(|(n, weights, vertex_weights, raw_nets)| {
            let vertex_weights = if weights & 2 != 0 {
                let mut w: Vec<u64> = vertex_weights.into_iter().take(n).collect();
                w[0] += 1;
                w
            } else {
                vec![1; n]
            };
            let nets = raw_nets
                .into_iter()
                .map(|(pins, w)| {
                    let pins = pins.into_iter().map(|p| usize::from(p) % n).collect();
                    (pins, if weights & 1 != 0 { w + 1 } else { 1 })
                })
                .collect();
            Spec {
                vertex_weights,
                nets,
            }
        })
}

fn build(s: &Spec) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    for &w in &s.vertex_weights {
        b.add_vertex(w);
    }
    for (pins, w) in &s.nets {
        b.add_net(pins.iter().map(|&p| VertexId::from_index(p)), *w)
            .unwrap();
    }
    b.build().unwrap()
}

fn text_of(h: &Hypergraph) -> Vec<u8> {
    let mut out = Vec::new();
    hgr::write(h, &mut out).unwrap();
    out
}

/// Byte strings that exercise the tokenizer's edges: separators the
/// `str` reader treats as whitespace (vertical tab, form feed, CR, NBSP),
/// signs, comments, a BOM, invalid UTF-8, and integers at the `u32` and
/// `u64` limits.
const FRAGMENTS: &[&[u8]] = &[
    b"0",
    b"1",
    b"7",
    b"9",
    b" ",
    b"\t",
    b"\n",
    b"\r\n",
    b"\r",
    b"\x0b",
    b"\x0c",
    b"%",
    b"+",
    b"-",
    b"x",
    b"\xef\xbb\xbf",
    b"\xc2\xa0",
    b"\xe3\x80\x80",
    b"\xff",
    b"\xc3",
    b"4294967295",
    b"4294967296",
    b"18446744073709551615",
    b"18446744073709551616",
    b"\n\n",
    b" 10",
    b" 11",
];

/// Applies `edits` (position, fragment, kind) to `text`: insert,
/// overwrite, or delete a byte.
fn mutate(mut text: Vec<u8>, edits: &[(usize, usize, u8)]) -> Vec<u8> {
    for &(pos, frag, kind) in edits {
        let at = pos % (text.len() + 1);
        let frag = FRAGMENTS[frag % FRAGMENTS.len()];
        match kind {
            0 => {
                text.splice(at..at, frag.iter().copied());
            }
            1 => {
                let end = (at + frag.len()).min(text.len());
                text.splice(at..end, frag.iter().copied());
            }
            _ => {
                if at < text.len() {
                    text.remove(at);
                }
            }
        }
    }
    text
}

/// Tokens for [`soup`] lines: small integers (valid counts, fmt codes and
/// pins, or out of range), signed and non-numeric tokens, comments, and
/// Unicode whitespace.
const SOUP_TOKENS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "4",
    "5",
    "10",
    "11",
    "+2",
    "-1",
    "x",
    "%c",
    "4294967296",
    "18446744073709551616",
    "\u{a0}",
    "\u{feff}",
];
const SOUP_SEPARATORS: &[&str] = &[" ", "  ", "\t", "\r", "\x0b"];

/// Files of a few short lines of [`SOUP_TOKENS`]: unlike mutated valid
/// files, these reach every check of the reader often, in every order.
fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::collection::vec((any::<usize>(), any::<usize>()), 0..6),
        1..8,
    )
    .prop_map(|lines| {
        let mut text = String::new();
        for line in lines {
            for (tok, sep) in line {
                text.push_str(SOUP_TOKENS[tok % SOUP_TOKENS.len()]);
                text.push_str(SOUP_SEPARATORS[sep % SOUP_SEPARATORS.len()]);
            }
            text.push('\n');
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `add_net` keeps the first occurrence of each pin, in order, and
    /// fails as the quadratic reference does; a failed net leaves no
    /// trace in the built hypergraph.
    #[test]
    fn add_net_matches_quadratic_dedup(
        n in 1usize..30,
        nets in proptest::collection::vec(proptest::collection::vec(0u32..34, 0..12), 1..20),
    ) {
        let mut b = HypergraphBuilder::new();
        b.add_vertices(n, 1);
        let mut expected = Vec::new();
        for pins in &nets {
            let pins: Vec<VertexId> = pins.iter().map(|&p| VertexId::new(p)).collect();
            let want = reference::dedup(expected.len(), &pins, n);
            let got = b.add_net(pins.iter().copied(), 1).map(|_| ());
            prop_assert_eq!(got, want.clone().map(|_| ()));
            if let Ok(kept) = want {
                expected.push(kept.iter().map(|v| v.raw()).collect::<Vec<u32>>());
            }
        }
        let h = b.build().unwrap();
        let built: Vec<Vec<u32>> = h
            .nets()
            .map(|e| h.net_pins(e).iter().map(|v| v.raw()).collect())
            .collect();
        prop_assert_eq!(built, expected);
    }

    /// write → read is the identity for every fmt code: pin order,
    /// weights and digest survive, and the header carries the minimal
    /// code.
    #[test]
    fn write_then_read_is_the_identity(s in spec()) {
        let h = build(&s);
        let text = text_of(&h);
        let header = text.split(|&b| b == b'\n').next().unwrap();
        let code = match (
            s.nets.iter().any(|&(_, w)| w != 1),
            s.vertex_weights.iter().any(|&w| w != 1),
        ) {
            (false, false) => None,
            (true, false) => Some("1"),
            (false, true) => Some("10"),
            (true, true) => Some("11"),
        };
        let fields: Vec<&[u8]> = header.split(|&b| b == b' ').collect();
        prop_assert_eq!(fields.get(2).copied(), code.map(str::as_bytes));
        let back = hgr::read(&text[..]).unwrap();
        prop_assert_eq!(shape(&back), shape(&h));
        prop_assert_eq!(text_of(&back), text);
    }

    /// The writer's bytes equal the `to_string` reference's.
    #[test]
    fn write_matches_the_reference_writer(s in spec()) {
        let h = build(&s);
        prop_assert_eq!(text_of(&h), reference::write(&h));
    }

    /// Arbitrary bytes: never a panic, and the same hypergraph or the
    /// same error (kind, line, message) as the reference reader.
    #[test]
    fn arbitrary_bytes_parse_as_the_reference_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        prop_assert_eq!(outcome(hgr::read(&bytes[..])), outcome(reference::read(&bytes)));
    }

    /// Valid files with a few edits drawn from [`FRAGMENTS`]: never a
    /// panic, and the same outcome as the reference reader.
    #[test]
    fn mutated_files_parse_as_the_reference_reader(
        s in spec(),
        edits in proptest::collection::vec((any::<usize>(), any::<usize>(), 0u8..3), 1..5),
    ) {
        let text = mutate(text_of(&build(&s)), &edits);
        prop_assert_eq!(outcome(hgr::read(&text[..])), outcome(reference::read(&text)));
    }

    /// Token soup: the same outcome as the reference reader.
    #[test]
    fn token_soup_parses_as_the_reference_reader(text in soup()) {
        let text = text.as_bytes();
        prop_assert_eq!(outcome(hgr::read(text)), outcome(reference::read(text)));
    }
}

/// Each corrupt `.hgr` file is rejected with the same error kind, line
/// and message.
#[test]
fn corrupt_corpus_keeps_its_errors() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corrupt");
    let expected = [
        (
            "bom_crlf.hgr",
            1,
            "file begins with a UTF-8 byte-order mark; re-save without a BOM",
        ),
        ("empty_net.hgr", 2, "net line has no pins"),
        (
            "oversized_counts.hgr",
            1,
            "declared net count 999999999999 exceeds the supported maximum 268435456",
        ),
        ("pin_out_of_range.hgr", 3, "pin 5 out of range 1..=4"),
        (
            "truncated.hgr",
            2,
            "header promised 3 nets but file contains 1",
        ),
        (
            "weight_overflow.hgr",
            4,
            "total vertex weight overflows u64",
        ),
        ("zero_based_pin.hgr", 2, "pin 0 out of range 1..=2"),
    ];
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".hgr"))
        .collect();
    names.sort();
    let listed: Vec<&str> = expected.iter().map(|&(name, _, _)| name).collect();
    assert_eq!(names, listed, "every corpus file has an expected error");
    for (name, want_line, want_message) in expected {
        match hgr::read_path(dir.join(name)) {
            Err(ParseError::Syntax { line, message }) => {
                assert_eq!(
                    (line, message.as_str()),
                    (want_line, want_message),
                    "{name}"
                );
            }
            other => panic!("{name}: expected a syntax error, got {other:?}"),
        }
    }
}

/// The `InvalidData` error a line-by-line `String` reader reports for a
/// non-UTF-8 line, at that line and not before.
#[test]
fn invalid_utf8_fails_at_its_line() {
    let early = b"2 2\n1 2 x\n\xff\n";
    assert!(matches!(
        hgr::read(&early[..]),
        Err(ParseError::Syntax { line: 2, .. })
    ));
    let text = b"1 2\n1 2\n\xff\n";
    match hgr::read(&text[..]) {
        Err(ParseError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        other => panic!("expected an i/o error, got {other:?}"),
    }
}
