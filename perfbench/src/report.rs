//! The metric catalogue and the output format: a human-readable table,
//! then one JSON line (`correct`, `attempted`, `failed`, `metrics`).
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `catalogue_matches_benchmark_json` test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: its name and unit.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Printed by every untraced run (`--trace 0`), on every workload. An
/// operation is one acquire+release cycle on `serve_*` and one complete
/// verification (`check_with` to verdict) on `check_*`.
pub const END_TO_END: &[Spec] = &[
    spec("ops_per_s", "1/s"),
    spec("op_p50_ns", "ns"),
    spec("peak_rss_mb", "MB"),
    spec("setup_s", "s"),
];

/// Printed by every traced run (`--trace 1`). A layer that is not on a
/// workload's path (the checker on `serve_*`, the served path on
/// `check_*`) reads 0 there.
pub const PER_LAYER: &[Spec] = &[
    spec("arena.acquire_self_p50_ns", "ns"),
    spec("arena.acquire_self_p99_ns", "ns"),
    spec("arena.release_self_p50_ns", "ns"),
    spec("arena.wait_share", "ratio"),
    spec("session.acquire_p50_ns", "ns"),
    spec("session.release_p50_ns", "ns"),
    spec("session.solo_cycle_ns", "ns"),
    spec("core.solo_cycle_ns", "ns"),
    spec("core.steps_per_acquire", "steps"),
    spec("core.steps_per_release", "steps"),
    spec("core.accesses_per_acquire", "accesses"),
    spec("core.accesses_per_release", "accesses"),
    spec("mem.pair_ns", "ns"),
    spec("mc.step_calls", "count"),
    spec("mc.step_cpu_s", "s"),
    spec("mc.key_calls", "count"),
    spec("mc.key_cpu_s", "s"),
    spec("mc.invariant_calls", "count"),
    spec("mc.invariant_cpu_s", "s"),
    spec("mc.accesses_per_step", "accesses"),
    spec("mc.footprint_calls", "count"),
    spec("mc.footprint_cpu_s", "s"),
    spec("mc.engine_cpu_s", "s"),
    spec("mc.cpu_util", "ratio"),
    spec("mc.states", "count"),
    spec("mc.transitions", "count"),
    spec("mc.max_depth", "count"),
    spec("mc.new_state_share", "ratio"),
    spec("mc.peak_resident_mb", "MB"),
    spec("mc.spilled_mb", "MB"),
    spec("mc.spilled_bytes_per_state", "B"),
    spec("frontier.record_bytes", "B"),
    spec("frontier.write_mb_per_s", "MB/s"),
    spec("frontier.read_mb_per_s", "MB/s"),
    spec("trace.overhead_share", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
        .unit
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Header lines (run metadata).
    pub meta: Vec<String>,
    /// Table rows: name, value, unit, note.
    rows: Vec<(String, f64, String, String)>,
    metrics: BTreeMap<&'static str, f64>,
    /// Outputs attempted and failed (cycles on `serve_*`, verifications
    /// on `check_*`).
    pub attempted: u64,
    pub failed: u64,
    /// Self-checks of the benchmark itself that failed; any makes the run
    /// incorrect.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a catalogue metric (and shows it in the table).
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let unit = unit_of(name);
        self.metrics.insert(name, value);
        self.show(name, value, unit, note);
    }

    /// Shows a value in the table only.
    pub fn show(&mut self, name: &str, value: f64, unit: &str, note: impl Into<String>) {
        self.rows
            .push((name.to_string(), value, unit.to_string(), note.into()));
    }

    /// Prints the table and, last, the JSON result line with the
    /// `END_TO_END` (untraced) or `PER_LAYER` (traced) metrics.
    pub fn print(&self, traced: bool) {
        let mut out = String::new();
        for m in &self.meta {
            let _ = writeln!(out, "# {m}");
        }
        let w = self.rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
        for (name, value, unit, note) in &self.rows {
            let _ = writeln!(out, "{name:<w$}  {value:>16.6}  {unit:<8}  {note}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "# SELF-CHECK FAILED: {p}");
        }
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|s| {
                let value = match self.metrics.get(s.name) {
                    Some(&v) => v,
                    // A layer this workload does not exercise.
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {} was not measured", s.name),
                };
                assert!(value.is_finite(), "metric {} is {value}", s.name);
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    s.name, s.unit
                )
            })
            .collect();
        let correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        print!("{out}");
    }
}

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every catalogue metric is declared in `BENCHMARK.json` with the same
    /// unit, and the file declares no metric the catalogue lacks.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let compact: String = json.split_whitespace().collect();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{}\",\"unit\":\"{}\"", s.name, s.unit);
            assert!(
                compact.contains(&entry),
                "{} ({}) missing from BENCHMARK.json",
                s.name,
                s.unit
            );
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
