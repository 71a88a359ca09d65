//! hMETIS `.hgr` format.
//!
//! Layout (all indices 1-based, `%` starts a comment line):
//!
//! ```text
//! <num_nets> <num_vertices> [fmt]
//! [net-weight] v1 v2 ...        (one line per net)
//! [vertex-weight]               (one line per vertex, if fmt has 10-bit)
//! ```
//!
//! `fmt` is omitted or one of `1` (net weights), `10` (vertex weights),
//! `11` (both) — exactly as in the hMETIS user manual.

use std::io::{Read, Write};
use std::path::Path;

use crate::error::ParseError;
use crate::{Hypergraph, HypergraphBuilder, VertexId};

/// Upper bound accepted for the header's declared net/vertex counts.
///
/// A header like `99999999999999 99999999999999` is rejected up front.
/// Below the bound, the reader reserves only what the input length can
/// hold and creates vertices as pins name them, so a short file that
/// declares huge counts ends in the count-mismatch error, not in a huge
/// allocation; only a file whose declared nets are all present gets its
/// full declared vertex count. The largest published VLSI benchmarks
/// are orders of magnitude below this bound.
pub const MAX_DECLARED_COUNT: usize = 1 << 28;

/// Which weights an `.hgr` file carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HgrFormat {
    /// No weights: all nets and vertices weight 1.
    #[default]
    Plain,
    /// Net weights only (`fmt = 1`).
    NetWeights,
    /// Vertex weights only (`fmt = 10`).
    VertexWeights,
    /// Both net and vertex weights (`fmt = 11`).
    BothWeights,
}

impl HgrFormat {
    fn has_net_weights(self) -> bool {
        matches!(self, HgrFormat::NetWeights | HgrFormat::BothWeights)
    }
    fn has_vertex_weights(self) -> bool {
        matches!(self, HgrFormat::VertexWeights | HgrFormat::BothWeights)
    }
    fn code(self) -> Option<u32> {
        match self {
            HgrFormat::Plain => None,
            HgrFormat::NetWeights => Some(1),
            HgrFormat::VertexWeights => Some(10),
            HgrFormat::BothWeights => Some(11),
        }
    }
    fn from_code(code: u32, line: usize) -> Result<Self, ParseError> {
        match code {
            1 => Ok(HgrFormat::NetWeights),
            10 => Ok(HgrFormat::VertexWeights),
            11 => Ok(HgrFormat::BothWeights),
            other => Err(ParseError::syntax(
                line,
                format!("unknown hgr fmt code {other} (expected 1, 10, or 11)"),
            )),
        }
    }
}

/// Parses a hypergraph from `.hgr` text.
///
/// The input is read into memory once and scanned in place: lines split
/// at `\n`, tokens at the characters [`char::is_whitespace`] accepts, and
/// pins go straight into the builder. Lines holding non-ASCII bytes must
/// be valid UTF-8 and fall back to `str` tokenization, so every input is
/// tokenized as a line-by-line `str` reader would.
///
/// # Errors
///
/// Returns [`ParseError`] on I/O failure, malformed syntax, out-of-range
/// vertex references, or a net/vertex count mismatch.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "3 4\n1 2\n2 3 4\n1 4\n";
/// let h = hypart_hypergraph::io::hgr::read(text.as_bytes())?;
/// assert_eq!(h.num_nets(), 3);
/// assert_eq!(h.num_vertices(), 4);
/// # Ok(())
/// # }
/// ```
pub fn read<R: Read>(mut reader: R) -> Result<Hypergraph, ParseError> {
    let mut text = Vec::new();
    reader.read_to_end(&mut text)?;
    parse(&text)
}

/// Reads an `.hgr` file from `path`.
///
/// # Errors
///
/// See [`read`].
pub fn read_path(path: impl AsRef<Path>) -> Result<Hypergraph, ParseError> {
    parse(&std::fs::read(path)?)
}

fn parse(text: &[u8]) -> Result<Hypergraph, ParseError> {
    let mut lines = Lines::new(text);
    let header = lines
        .next_line()?
        .ok_or_else(|| ParseError::syntax(1, "empty file: missing header"))?;
    let header_line_no = header.no;
    let num_nets: usize = parse_field(header.field(0), header_line_no, "net count")?;
    let num_vertices: usize = parse_field(header.field(1), header_line_no, "vertex count")?;
    let fmt = match header.field(2) {
        None => HgrFormat::Plain,
        Some(tok) => {
            let code = tok
                .ok()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| ParseError::syntax(header_line_no, "fmt field is not an integer"))?;
            HgrFormat::from_code(code, header_line_no)?
        }
    };
    if header.field(3).is_some() {
        return Err(ParseError::syntax(
            header_line_no,
            "trailing tokens after header",
        ));
    }
    for (count, what) in [(num_nets, "net count"), (num_vertices, "vertex count")] {
        if count > MAX_DECLARED_COUNT {
            return Err(ParseError::syntax(
                header_line_no,
                format!(
                    "declared {what} {count} exceeds the supported maximum {MAX_DECLARED_COUNT}"
                ),
            ));
        }
    }

    // The header is only a promise: reserve no more than the input can
    // hold (a net line or a pin takes at least 2 bytes), and create
    // vertices as pins name them, so a short file declaring huge counts
    // fails with the count mismatch instead of a huge allocation. Vertex
    // weights follow the nets; unit placeholders are overwritten as the
    // weights arrive.
    let fits = text.len() / 2;
    let mut builder = HypergraphBuilder::with_capacity(num_vertices.min(fits), num_nets.min(fits));

    let mut nets_read = 0usize;
    let mut weights_read = 0usize;
    let mut total_weight = 0u64;

    while let Some(line) = lines.next_line()? {
        let line_no = line.no;
        if nets_read < num_nets {
            let (weight, first_pin) = if fmt.has_net_weights() {
                (parse_field(line.field(0), line_no, "net weight")?, 1)
            } else {
                (1, 0)
            };
            let pins = line.vals.get(first_pin..).unwrap_or_default();
            let mut max_pin = 0;
            for &p in pins {
                if p == 0 || p > num_vertices as u64 {
                    return Err(ParseError::syntax(
                        line_no,
                        format!("pin {p} out of range 1..={num_vertices}"),
                    ));
                }
                max_pin = max_pin.max(p);
            }
            if let Some(tok) = line.bad {
                return Err(ParseError::syntax(
                    line_no,
                    format!("pin `{}` is not an integer", String::from_utf8_lossy(tok)),
                ));
            }
            if pins.is_empty() {
                return Err(ParseError::syntax(line_no, "net line has no pins"));
            }
            grow_vertices(&mut builder, max_pin as usize);
            builder.add_net(
                pins.iter().map(|&p| VertexId::from_index(p as usize - 1)),
                weight,
            )?;
            nets_read += 1;
        } else if fmt.has_vertex_weights() && weights_read < num_vertices {
            // The whole trimmed line must be one integer.
            let (&[w], None) = (line.vals, line.bad) else {
                return Err(ParseError::syntax(
                    line_no,
                    format!(
                        "vertex weight `{}` is not an integer",
                        String::from_utf8_lossy(line.raw).trim()
                    ),
                ));
            };
            total_weight = total_weight
                .checked_add(w)
                .ok_or_else(|| ParseError::syntax(line_no, "total vertex weight overflows u64"))?;
            grow_vertices(&mut builder, num_vertices);
            builder.set_vertex_weight(VertexId::from_index(weights_read), w);
            weights_read += 1;
        } else {
            return Err(ParseError::syntax(line_no, "unexpected trailing content"));
        }
    }

    let last_line = lines.line_no;
    if nets_read != num_nets {
        return Err(ParseError::syntax(
            last_line,
            format!("header promised {num_nets} nets but file contains {nets_read}"),
        ));
    }
    // Every declared net is in: the rest of the declared vertices exist,
    // pins or not.
    grow_vertices(&mut builder, num_vertices);
    if fmt.has_vertex_weights() && weights_read != num_vertices {
        return Err(ParseError::syntax(
            last_line,
            format!(
                "header promised {num_vertices} vertex weights but file contains {weights_read}"
            ),
        ));
    }
    Ok(builder.build()?)
}

/// Adds unit-weight vertices until `builder` holds at least `n`.
fn grow_vertices(builder: &mut HypergraphBuilder, n: usize) {
    if n > builder.num_vertices() {
        builder.add_vertices(n - builder.num_vertices(), 1);
    }
}

/// The lines of a byte buffer, split at `\n` as
/// [`BufRead::lines`](std::io::BufRead::lines) splits them (a final `\n`
/// ends the last line rather than starting an empty one), and their
/// tokens.
struct Lines<'a> {
    rest: &'a [u8],
    /// Number of the last line read (1-based).
    line_no: usize,
    vals: Vec<u64>,
}

/// The tokens of one line that is neither blank nor a comment: the values
/// of its leading unsigned-integer tokens (`str::parse` syntax: an
/// optional `+`, then digits, no overflow), then the first token that is
/// not one. Tokens after that one are never looked at.
struct Line<'l> {
    no: usize,
    raw: &'l [u8],
    vals: &'l [u64],
    bad: Option<&'l [u8]>,
}

impl<'l> Line<'l> {
    /// Token `i` as a value or, if it is not an integer, as text; `None`
    /// past the last token, assuming tokens before `i` were integers.
    fn field(&self, i: usize) -> Option<Result<u64, &'l [u8]>> {
        match self.vals.get(i) {
            Some(&v) => Some(Ok(v)),
            None if i == self.vals.len() => self.bad.map(Err),
            None => None,
        }
    }
}

impl<'a> Lines<'a> {
    fn new(text: &'a [u8]) -> Self {
        Lines {
            rest: text,
            line_no: 0,
            vals: Vec::new(),
        }
    }

    /// Reads lines up to the next one that is neither blank nor a comment.
    /// A line is scanned as decimal tokens first; only a line with any
    /// other byte is split into text tokens.
    ///
    /// # Errors
    ///
    /// [`ParseError::Io`] of kind `InvalidData` when a line is not UTF-8,
    /// as a line-by-line `String` reader reports it; a syntax error when
    /// line 1 begins with a byte-order mark.
    fn next_line(&mut self) -> Result<Option<Line<'_>>, ParseError> {
        loop {
            if self.rest.is_empty() {
                return Ok(None);
            }
            self.line_no += 1;
            let text = self.rest;
            let (end, bad) = match scan_decimal_line(text, &mut self.vals) {
                Some(end) => (end, None),
                None => {
                    let end = text.iter().position(|&b| b == b'\n').unwrap_or(text.len());
                    (
                        end,
                        split_tokens(self.line_no, &text[..end], &mut self.vals)?,
                    )
                }
            };
            self.rest = text.get(end + 1..).unwrap_or_default();
            if self.vals.is_empty() && bad.is_none() {
                continue; // blank or comment
            }
            return Ok(Some(Line {
                no: self.line_no,
                raw: &text[..end],
                vals: &self.vals,
                bad,
            }));
        }
    }
}

/// Splits line `line_no` at whitespace, the slow path for lines the
/// decimal scan rejected: fills `vals` with the leading integer tokens
/// and returns the first other token. A comment line yields no tokens.
fn split_tokens<'t>(
    line_no: usize,
    raw: &'t [u8],
    vals: &mut Vec<u64>,
) -> Result<Option<&'t [u8]>, ParseError> {
    vals.clear();
    let s = std::str::from_utf8(raw).map_err(|_| {
        ParseError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })?;
    if line_no == 1 && s.starts_with('\u{feff}') {
        return Err(ParseError::syntax(
            1,
            "file begins with a UTF-8 byte-order mark; re-save without a BOM",
        ));
    }
    Ok(push_values(s.split_whitespace().map(str::as_bytes), vals))
}

/// Pushes the values of the leading integer tokens of `toks` and returns
/// the first other token; a first token starting with `%` makes the line
/// a comment, with no tokens.
fn push_values<'t>(toks: impl Iterator<Item = &'t [u8]>, vals: &mut Vec<u64>) -> Option<&'t [u8]> {
    let mut toks = toks.peekable();
    if toks.peek().is_some_and(|tok| tok.starts_with(b"%")) {
        return None;
    }
    for tok in toks {
        match parse_uint(tok) {
            Some(v) => vals.push(v),
            None => return Some(tok),
        }
    }
    None
}

/// Scans the line at the start of `text` in one pass, collecting its
/// tokens' values in `vals`. Returns the line's end (its `\n`, or the end
/// of `text`) when the line holds only ASCII whitespace and digit runs
/// that fit a `u64`, and `None` at the first byte of anything else.
fn scan_decimal_line(text: &[u8], vals: &mut Vec<u64>) -> Option<usize> {
    vals.clear();
    let mut i = 0;
    while let Some(&b) = text.get(i) {
        if b.is_ascii_digit() {
            let (value, len) = leading_digits(&text[i..])?;
            vals.push(value);
            i += len;
            continue;
        }
        if b == b'\n' {
            return Some(i);
        }
        if !is_whitespace(b) {
            return None;
        }
        i += 1;
    }
    Some(text.len())
}

/// The value and length of the digit run at the start of `text`, or
/// `None` when it overflows a `u64`.
fn leading_digits(text: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut len = 0;
    for &b in text.iter().take_while(|b| b.is_ascii_digit()) {
        value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        len += 1;
    }
    Some((value, len))
}

/// [`char::is_whitespace`] restricted to ASCII: unlike
/// [`u8::is_ascii_whitespace`] it includes the vertical tab.
fn is_whitespace(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// Parses an unsigned decimal as `str::parse::<u64>` does: an optional
/// `+`, then at least one digit, no overflow.
fn parse_uint(tok: &[u8]) -> Option<u64> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    match leading_digits(digits)? {
        (value, len) if len > 0 && len == digits.len() => Some(value),
        _ => None,
    }
}

fn parse_field<T: TryFrom<u64>>(
    tok: Option<Result<u64, &[u8]>>,
    line: usize,
    what: &str,
) -> Result<T, ParseError> {
    let tok = tok.ok_or_else(|| ParseError::syntax(line, format!("missing {what}")))?;
    tok.ok()
        .and_then(|v| T::try_from(v).ok())
        .ok_or_else(|| ParseError::syntax(line, format!("{what} is not a valid integer")))
}

/// Bytes the writer buffers before handing them to the sink.
const WRITE_CHUNK: usize = 64 * 1024;

/// Writes `h` in `.hgr` format. Weights are emitted only when any differ
/// from 1, choosing the minimal `fmt` code.
///
/// Integers are formatted into one reused buffer that reaches `writer`
/// in chunks of about 64 KiB, so `writer` needs no buffering of its own.
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
pub fn write<W: Write>(h: &Hypergraph, mut writer: W) -> std::io::Result<()> {
    let net_weighted = h.nets().any(|e| h.net_weight(e) != 1);
    let vertex_weighted = !h.is_unit_area();
    let fmt = match (net_weighted, vertex_weighted) {
        (false, false) => HgrFormat::Plain,
        (true, false) => HgrFormat::NetWeights,
        (false, true) => HgrFormat::VertexWeights,
        (true, true) => HgrFormat::BothWeights,
    };
    let mut out = Vec::with_capacity(WRITE_CHUNK + 64);
    push_uint(&mut out, h.num_nets() as u64);
    out.push(b' ');
    push_uint(&mut out, h.num_vertices() as u64);
    if let Some(code) = fmt.code() {
        out.push(b' ');
        push_uint(&mut out, u64::from(code));
    }
    out.push(b'\n');
    for e in h.nets() {
        let line_start = out.len();
        if fmt.has_net_weights() {
            push_uint(&mut out, u64::from(h.net_weight(e)));
        }
        for &v in h.net_pins(e) {
            if out.len() > line_start {
                out.push(b' ');
            }
            push_uint(&mut out, v.index() as u64 + 1);
        }
        out.push(b'\n');
        if out.len() >= WRITE_CHUNK {
            writer.write_all(&out)?;
            out.clear();
        }
    }
    if fmt.has_vertex_weights() {
        for v in h.vertices() {
            push_uint(&mut out, h.vertex_weight(v));
            out.push(b'\n');
            if out.len() >= WRITE_CHUNK {
                writer.write_all(&out)?;
                out.clear();
            }
        }
    }
    writer.write_all(&out)
}

/// Appends the decimal digits of `value` to `out`.
fn push_uint(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Writes `h` to an `.hgr` file at `path`.
///
/// # Errors
///
/// See [`write()`].
pub fn write_path(h: &Hypergraph, path: impl AsRef<Path>) -> std::io::Result<()> {
    write(h, std::fs::File::create(path)?)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn weighted_sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = [3u64, 1, 1, 7].iter().map(|&w| b.add_vertex(w)).collect();
        b.add_net([v[0], v[1]], 2).unwrap();
        b.add_net([v[1], v[2], v[3]], 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn decimal_scan_falls_back_on_other_bytes() {
        let mut vals = Vec::new();
        assert_eq!(
            scan_decimal_line(b" 12  3456789012\r\nnext", &mut vals),
            Some(16)
        );
        assert_eq!(vals, [12, 3456789012]);
        assert_eq!(scan_decimal_line(b"", &mut vals), Some(0));
        assert!(vals.is_empty());
        for other in [&b"1 +2"[..], b"% c", b"1 2x", b"18446744073709551616"] {
            assert_eq!(scan_decimal_line(other, &mut vals), None, "{other:?}");
        }
        assert_eq!(
            scan_decimal_line(b"18446744073709551615", &mut vals),
            Some(20)
        );
        assert_eq!(vals, [u64::MAX]);
    }

    #[test]
    fn plain_round_trip() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1]], 1).unwrap();
        b.add_net([v[1], v[2], v[3]], 1).unwrap();
        let h = b.build().unwrap();

        let mut buf = Vec::new();
        write(&h, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("2 4\n"));
        let h2 = read(&buf[..]).unwrap();
        assert_eq!(h2.num_nets(), 2);
        assert_eq!(h2.num_vertices(), 4);
        assert_eq!(h2.net_pins(crate::NetId::new(1)).len(), 3);
    }

    #[test]
    fn both_weights_round_trip() {
        let h = weighted_sample();
        let mut buf = Vec::new();
        write(&h, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("2 4 11\n"), "got: {text}");
        let h2 = read(&buf[..]).unwrap();
        assert_eq!(h2.net_weight(crate::NetId::new(0)), 2);
        assert_eq!(h2.vertex_weight(crate::VertexId::new(3)), 7);
        assert_eq!(h2.total_vertex_weight(), h.total_vertex_weight());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "% a comment\n\n2 3\n% nets follow\n1 2\n\n2 3\n";
        let h = read(text.as_bytes()).unwrap();
        assert_eq!(h.num_nets(), 2);
        assert_eq!(h.num_vertices(), 3);
    }

    #[test]
    fn pin_out_of_range_is_reported_with_line() {
        let text = "1 2\n1 5\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn missing_nets_is_an_error() {
        let text = "3 4\n1 2\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("promised 3 nets"), "{err}");
    }

    #[test]
    fn zero_pin_index_rejected() {
        let text = "1 2\n0 1\n";
        assert!(read(text.as_bytes()).is_err());
    }

    #[test]
    fn bad_fmt_code_rejected() {
        let text = "1 2 7\n1 2\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown hgr fmt"), "{err}");
    }

    #[test]
    fn net_weight_only_round_trip() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..2).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1]], 9).unwrap();
        let h = b.build().unwrap();
        let mut buf = Vec::new();
        write(&h, &mut buf).unwrap();
        assert!(String::from_utf8_lossy(&buf).starts_with("1 2 1\n"));
        let h2 = read(&buf[..]).unwrap();
        assert_eq!(h2.net_weight(crate::NetId::new(0)), 9);
    }

    #[test]
    fn path_round_trip() {
        let h = weighted_sample();
        let dir = std::env::temp_dir().join("hypart_hgr_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.hgr");
        write_path(&h, &path).unwrap();
        let h2 = read_path(&path).unwrap();
        assert_eq!(h2.num_pins(), h.num_pins());
        std::fs::remove_file(&path).ok();
    }
}
