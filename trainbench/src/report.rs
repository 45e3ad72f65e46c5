//! The metric catalogue, step-outcome accounting and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("samples_per_s", "1/s"),
    ("step_ms.p50", "ms"),
    ("step_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_near_bytes", "B"),
    ("ok_step_share", "ratio"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Setup, one entry per setup call (median over the set-ups of a run).
    ("sim.profile_ms", "ms"),
    ("core.search_ms", "ms"),
    ("core.schedule_ms", "ms"),
    ("tensor.probe_forward_ms", "ms"),
    ("bridge.replay_ms", "ms"),
    ("bridge.lower_ms", "ms"),
    ("dp.register_ms", "ms"),
    ("exec.warmup_ms", "ms"),
    // Plan shape.
    ("plan.blocks", "count"),
    ("plan.swap_blocks", "count"),
    ("plan.recompute_blocks", "count"),
    // karma-tensor.
    ("tensor.in_core_step_ms", "ms"),
    ("tensor.conv2d.fwd_ms", "ms"),
    ("tensor.conv2d.bwd_ms", "ms"),
    ("tensor.dense.fwd_ms", "ms"),
    ("tensor.dense.bwd_ms", "ms"),
    ("tensor.other_ms", "ms"),
    // karma-runtime::exec.
    ("exec.ooc_overhead_ms", "ms"),
    ("exec.recomputed_layers_per_step", "count"),
    ("exec.self_ms", "ms"),
    // karma-runtime::store and rayon::io.
    ("store.swap_wait_ms", "ms"),
    ("io.swap_hidden_ms", "ms"),
    ("io.hidden_share", "ratio"),
    ("store.swapped_bytes_per_step", "B"),
    ("store.transfer_ops_per_step", "count"),
    ("store.peak_far_bytes", "B"),
    ("store.peak_tier0_bytes", "B"),
    ("store.host_transfer_ms", "ms"),
    ("store.nvme_transfer_ms", "ms"),
    ("store.link_transfer_ms", "ms"),
    // Model predictions beside the measurements above.
    ("model.swap_stall_ms", "ms"),
    ("model.exchange_exposed_ms", "ms"),
    // karma-runtime::dp.
    ("dp.compute_ms", "ms"),
    ("dp.exchange_exposed_ms", "ms"),
    ("dp.bookkeeping_ms", "ms"),
    ("dp.group_window_ms", "ms"),
    ("dp.exchanged_bytes_per_step", "B"),
    ("dp.messages_per_step", "count"),
    ("dp.seq_step_ms", "ms"),
    ("dp.speedup_vs_seq", "ratio"),
    // The traced run itself.
    ("trace.overhead", "ratio"),
    ("trace.spans_per_step", "count"),
];

/// Is `name` a valid metric name: a letter or digit, then at most 63
/// more letters, digits, `_`, `.` or `-`?
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Is `unit` a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.`
/// or `-`?
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Per-step verdicts: a step is ok when it completed and every check on
/// it matched the reference.
#[derive(Debug, Default)]
pub struct Checker {
    bad: Vec<bool>,
    failures: Vec<String>,
}

impl Checker {
    /// Count one more attempted step; returns its index.
    pub fn attempt(&mut self) -> usize {
        self.bad.push(false);
        self.bad.len() - 1
    }

    /// Check `what` on `step`: a mismatch marks the step failed.
    pub fn expect<T: PartialEq + std::fmt::Debug>(
        &mut self,
        step: usize,
        what: &str,
        got: T,
        want: T,
    ) {
        if got != want {
            self.fail(step, format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    /// Mark `step` failed for `why`.
    pub fn fail(&mut self, step: usize, why: String) {
        if self.failures.len() < 8 {
            self.failures.push(format!("step {step}: {why}"));
        }
        self.bad[step] = true;
    }

    /// Steps attempted.
    pub fn attempted(&self) -> usize {
        self.bad.len()
    }

    /// Steps that did not complete or mismatched the reference.
    pub fn failed(&self) -> usize {
        self.bad.iter().filter(|b| **b).count()
    }

    /// Ok steps over attempted steps.
    pub fn ok_share(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.attempted().max(1) as f64
    }

    /// The first few failure descriptions.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Render the result line: `correct`, `attempted`, `failed`, and the
/// metrics of `catalogue` taken from `values`, each with its unit.
///
/// # Errors
/// When a catalogued name or unit is invalid, `values` lacks a
/// catalogued metric, or a value is not finite.
pub fn result_line(
    checker: &Checker,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.failed() == 0 && checker.attempted() > 0,
        checker.attempted(),
        checker.failed()
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!("invalid metric {name:?} with unit {unit:?}"));
        }
        let v = *values
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest text that reads back as the same f64.
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Error, Value};

    /// The parsed JSON tree, whatever its shape.
    struct Json(Value);

    impl Deserialize for Json {
        fn from_value(v: &Value) -> Result<Self, Error> {
            Ok(Json(v.clone()))
        }
    }

    fn parse(s: &str) -> Value {
        serde_json::from_str::<Json>(s).expect("valid JSON").0
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.expect_field(key).expect("field present")
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", "x".repeat(65).as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("step_ms.p90") && valid_name("9-a_b.c"));
    }

    #[test]
    fn injected_mismatch_counts_against_ok_step_share() {
        let mut c = Checker::default();
        for _ in 0..10 {
            c.attempt();
        }
        c.expect(2, "loss bits", 1u32, 1u32);
        assert_eq!((c.failed(), c.ok_share()), (0, 1.0));
        c.expect(3, "loss bits", 0x3f80_0000u32, 0x3f80_0001u32);
        // A second mismatch on the same step still fails one step.
        c.expect(3, "peak_near_bytes", 10usize, 11usize);
        c.fail(9, "final weights differ".into());
        assert_eq!(c.attempted(), 10);
        assert_eq!(c.failed(), 2);
        assert!((c.ok_share() - 0.8).abs() < 1e-12);
        assert_eq!(c.failures().len(), 3);
        assert!(c.failures()[0].starts_with("step 3: loss bits"));
        let line = result_line(
            &c,
            &[("ok_step_share", "ratio")],
            &BTreeMap::from([("ok_step_share", c.ok_share())]),
        )
        .unwrap();
        let v = parse(&line);
        assert_eq!(field(&v, "correct"), &Value::Bool(false));
        assert_eq!(field(&v, "failed"), &Value::U64(2));
    }

    #[test]
    fn result_line_has_four_keys_and_a_value_and_unit_per_metric() {
        let mut c = Checker::default();
        c.attempt();
        let values: BTreeMap<&'static str, f64> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (*n, 0.1 + i as f64 / 3.0))
            .chain([("not.catalogued", 1.0)])
            .collect();
        let line = result_line(&c, END_TO_END, &values).unwrap();
        assert!(!line.contains('\n'));
        let v = parse(&line);
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&v, "correct"), &Value::Bool(true));
        assert_eq!(field(&v, "attempted"), &Value::U64(1));
        let metrics = field(&v, "metrics").as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, unit), (i, (key, m))) in END_TO_END.iter().zip(metrics.iter().enumerate()) {
            assert_eq!(name, key);
            let entry: Vec<&str> = m
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(entry, ["value", "unit"]);
            // Every digit survives the round trip.
            assert_eq!(field(m, "value"), &Value::F64(0.1 + i as f64 / 3.0));
            assert_eq!(field(m, "unit"), &Value::Str(unit.to_string()));
        }
        // A missing or non-finite metric is refused, not printed.
        assert!(result_line(&c, PER_LAYER, &values).is_err());
        let nan = BTreeMap::from([("setup_s", f64::NAN)]);
        assert!(result_line(&c, &[("setup_s", "s")], &nan).is_err());
        let one = BTreeMap::from([("a b", 1.0)]);
        assert!(result_line(&c, &[("a b", "s")], &one).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text);
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = field(&doc, key)
                .as_array()
                .unwrap()
                .iter()
                .map(|m| match (field(m, "name"), field(m, "unit")) {
                    (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                    other => panic!("bad metric entry {other:?}"),
                })
                .collect();
            let want: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
    }
}
