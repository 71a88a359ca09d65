//! Minimal JSON emission for experiment results.
//!
//! The value builder/parser itself lives in [`hypart_trace::json`] (the
//! trace crate defines the JSONL event schema, so it owns the
//! serializer); this module re-exports it and adds the experiment-record
//! conversions.

pub use hypart_trace::json::JsonValue;

/// Serializes a [`crate::runner::TrialSet`] to a JSON object with the full
/// per-trial records (the distribution data the paper says a flexible
/// medium should publish).
pub fn trial_set_to_json(set: &crate::runner::TrialSet) -> JsonValue {
    JsonValue::object([
        ("heuristic", JsonValue::string(set.heuristic.clone())),
        ("instance", JsonValue::string(set.instance.clone())),
        ("failed_trials", JsonValue::from(set.failed_trials as u64)),
        (
            "trials",
            JsonValue::array(set.trials.iter().map(|t| {
                JsonValue::object([
                    ("seed", JsonValue::from(t.seed as f64)),
                    ("cut", JsonValue::from(t.cut)),
                    ("balanced", JsonValue::from(t.balanced)),
                    ("seconds", JsonValue::from(t.elapsed.as_secs_f64())),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn reexported_builder_works() {
        let v = JsonValue::object([
            ("cut", JsonValue::Number(42.0)),
            ("balanced", JsonValue::Bool(true)),
        ]);
        assert_eq!(v.to_string(), r#"{"balanced":true,"cut":42}"#);
    }

    #[test]
    fn trial_set_export() {
        use crate::runner::{Trial, TrialSet};
        let set = TrialSet {
            heuristic: "H".into(),
            instance: "I".into(),
            trials: vec![Trial {
                seed: 1,
                cut: 10,
                balanced: true,
                stopped: hypart_core::StopReason::Completed,
                elapsed: std::time::Duration::from_millis(250),
            }],
            failed_trials: 0,
        };
        let json = trial_set_to_json(&set).to_string();
        assert!(json.contains(r#""heuristic":"H""#));
        assert!(json.contains(r#""cut":10"#));
        assert!(json.contains(r#""seconds":0.25"#));

        // Experiment records parse back with the workspace parser.
        let parsed = JsonValue::parse(&json).unwrap();
        assert_eq!(
            parsed.get("trials").and_then(|t| match t {
                JsonValue::Array(items) => items[0].get("cut").and_then(JsonValue::as_u64),
                _ => None,
            }),
            Some(10)
        );
    }
}
