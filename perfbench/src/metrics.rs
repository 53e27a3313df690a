//! Metric names and units, and the result line.
//!
//! The names here are the contract with `BENCHMARK.json` at the
//! repository root; a self-test keeps the two in step.

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_energy_uj", "uJ"),
];

/// The eight grid job kinds, in the grid's order.
pub const JOB_KINDS: [&str; 8] = [
    "support",
    "bare",
    "run",
    "fig7",
    "ablation",
    "retentive",
    "sound",
    "shadow",
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
///
/// Span metrics (`calls`, `busy_ms`) and work counts are the set-up's
/// totals plus the mean over traced operations.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut span = |layer: &str| {
        m.push((format!("{layer}.calls"), "count"));
        m.push((format!("{layer}.busy_ms"), "ms"));
    };
    for layer in [
        "ir.hash",
        "energy",
        "benchsuite.build",
        "benchsuite.oracle",
        "core.profile",
        "core.compile",
        "core.check",
        "baselines.supports",
        "baselines.compile",
        "emu.decode",
        "emu.run.aot",
        "emu.run.shadow",
    ] {
        span(layer);
    }
    for name in [
        "core.compile.rejected",
        "core.compile.checkpoints",
        "core.compile.repairs",
        "core.check.regions",
        "core.check.unsound",
        "baselines.compile.rejected",
    ] {
        m.push((name.to_string(), "count"));
    }
    for tier in ["aot", "shadow"] {
        m.push((format!("emu.run.{tier}.insts"), "count"));
        m.push((format!("emu.run.{tier}.minsts_per_s"), "Minst/s"));
        m.push((format!("emu.run.{tier}.power_failures"), "count"));
    }
    for supply in ["continuous", "periodic", "stochastic", "trace"] {
        m.push((format!("emu.run.{supply}.busy_ms"), "ms"));
    }
    for kind in JOB_KINDS {
        m.push((format!("bench.grid.{kind}.busy_ms"), "ms"));
    }
    for (name, unit) in [
        ("bench.grid.cell_p50_ms", "ms"),
        ("bench.grid.cell_tail_ms", "ms"),
        ("bench.parallel.busy_ms", "ms"),
        ("bench.parallel.utilization", "ratio"),
        ("bench.parallel.tail_idle_ms", "ms"),
        ("bench.cache.open_ms", "ms"),
        ("bench.cache.resolve_ms", "ms"),
        ("bench.cache.put_ms", "ms"),
        ("bench.cache.bytes", "B"),
        ("bench.cache.gets", "count"),
        ("bench.cache.hits", "count"),
        ("bench.cache.hit_ratio", "ratio"),
        ("bench.cache.puts", "count"),
        ("bench.json.encode_ms", "ms"),
        ("bench.json.parse_ms", "ms"),
        ("bench.json.bytes", "B"),
        ("bench.service.submit_ms", "ms"),
        ("bench.service.fetch_ms", "ms"),
        ("bench.service.stats_ms", "ms"),
        ("bench.service.frame_bytes", "B"),
        ("bench.experiments.render_ms", "ms"),
        ("trace.unattributed_pct", "%"),
        ("trace.overhead_pct", "%"),
    ] {
        m.push((name.to_string(), unit));
    }
    m
}

/// Whether `name` is a well-formed metric name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and
/// `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a well-formed unit: at most 16 letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The last line a run prints: one JSON object with the outcome and
/// every metric with its unit.
///
/// # Panics
///
/// When a value is not finite (JSON has no spelling for it) or a name
/// or unit is malformed.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            assert!(
                valid_name(name) && valid_unit(unit),
                "malformed metric {name} [{unit}]"
            );
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn all_names() -> Vec<(String, String)> {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .chain(per_layer().into_iter().map(|(n, u)| (n, u.to_string())))
            .collect()
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let names = all_names();
        let mut seen = BTreeSet::new();
        for (name, unit) in &names {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name.clone()), "duplicate name {name}");
        }
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END.len() <= 16);
    }

    #[test]
    fn validators_reject_malformed_input() {
        assert!(valid_name("bench.grid.run.busy_ms"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("Minst/s"));
        assert!(!valid_unit("") && !valid_unit("m s"));
    }

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn manifest_names(text: &str, key: &str) -> Vec<String> {
        let start = text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &text[start..];
        let end = body.find(']').expect("array is closed");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let open = rest.find('"').expect("name value") + 1;
                let close = rest[open..].find('"').expect("closing quote") + open;
                rest[open..close].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_manifest_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(manifest_names(&text, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(manifest_names(&text, "per_layer"), layers);
        for (name, unit) in all_names() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let line = result_line(
            true,
            12,
            0,
            &[
                ("op_p50_ms".into(), "ms", 1.25),
                ("setup_s".into(), "s", 0.5),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
