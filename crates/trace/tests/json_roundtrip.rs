//! Round-trip properties of the JSON writer and parser: every string —
//! control characters, quotes, backslashes, multi-byte and astral
//! characters, long plain runs — parses back to itself, alone and as
//! object keys and values; and every line of the golden traces prints
//! back byte for byte after a parse.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use hypart_trace::json::JsonValue;
use proptest::collection::vec;
use proptest::prelude::*;

/// One character from a class the escaper treats differently.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        // Control characters: `\n`, `\r`, `\t` and `\u00XX` escapes.
        0u32..0x20,
        // `"` and `\`.
        prop_oneof![Just(0x22u32), Just(0x5C)],
        // Printable ASCII.
        0x20u32..0x7F,
        // Two-byte UTF-8.
        0x7Fu32..0x800,
        // Three-byte UTF-8, skipping the surrogate block.
        prop_oneof![0x800u32..0xD800, 0xE000u32..0x10000],
        // Astral (four-byte UTF-8).
        0x10000u32..0x11_0000,
    ]
    .prop_map(|c| char::from_u32(c).expect("ranges exclude surrogates"))
}

/// A string of mixed characters around a long run of plain text, so
/// both the escaping paths and the run copying get exercised.
fn any_string() -> impl Strategy<Value = String> {
    (vec(any_char(), 0..24), 0usize..300, vec(any_char(), 0..24)).prop_map(|(head, run, tail)| {
        let mut s: String = head.into_iter().collect();
        s.push_str(&"plain text ".repeat(run));
        s.extend(tail);
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip(s in any_string()) {
        let value = JsonValue::String(s);
        let text = value.to_string();
        prop_assert_eq!(JsonValue::parse(&text), Ok(value));
    }

    #[test]
    fn objects_with_arbitrary_keys_and_values_round_trip(
        pairs in vec((any_string(), any_string()), 0..6),
    ) {
        let map: BTreeMap<String, JsonValue> = pairs
            .into_iter()
            .map(|(k, v)| (k, JsonValue::String(v)))
            .collect();
        let value = JsonValue::Object(map);
        let text = value.to_string();
        prop_assert_eq!(JsonValue::parse(&text), Ok(value));
    }
}

#[test]
fn golden_trace_lines_print_back_byte_for_byte() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut lines = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            let value = JsonValue::parse(line).unwrap();
            assert_eq!(value.to_string(), line, "{}", path.display());
            lines += 1;
        }
    }
    assert!(lines > 0, "no golden traces found in {}", dir.display());
}
