//! The declared metrics (mirrored by `BENCHMARK.json`) and the result
//! line the benchmark prints last.

use std::fmt::Write as _;

/// A metric name and its unit.
pub type Metric = (&'static str, &'static str);

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    ("gates_per_s", "gates/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cvs_pct", "%"),
    ("dscale_pct", "%"),
    ("gscale_pct", "%"),
];

/// Metrics of a traced run (`--trace 1`), grouped by layer.
pub const PER_LAYER: &[Metric] = &[
    ("celllib.build_ms", "ms"),
    ("synth.generate_ms", "ms"),
    ("synth.electrical_ms", "ms"),
    ("synth.electrical_bumps", "count"),
    ("synth.min_delay_ms", "ms"),
    ("synth.min_delay_ns_per_gate", "ns/gate"),
    ("synth.min_delay_upsized", "count"),
    ("synth.recover_area_ms", "ms"),
    ("synth.recover_area_steps", "count"),
    ("sta.analyze_ms", "ms"),
    ("sta.analyze_ns_per_node", "ns/node"),
    ("sta.events", "count"),
    ("sta.full_analyses", "count"),
    ("sta.rebuilds_avoided", "count"),
    ("power.measure_ms", "ms"),
    ("power.resims", "count"),
    ("power.full_power", "count"),
    ("power.full_power_avoided", "count"),
    ("core.session_new_ms", "ms"),
    ("core.cvs_ms", "ms"),
    ("core.dscale_ms", "ms"),
    ("core.gscale_ms", "ms"),
    ("core.rollback_ms", "ms"),
    ("core.audit_ms", "ms"),
    ("core.final_power_ms", "ms"),
    ("core.dscale.iterations", "count"),
    ("core.dscale.converters", "count"),
    ("core.gscale.iterations", "count"),
    ("core.gscale.resized", "count"),
    ("core.rail_edits", "count"),
    ("core.size_edits", "count"),
    ("core.gscale.degenerate_ratio", "ratio"),
    ("flow.separators", "count"),
    ("flow.separator_ms", "ms"),
    ("flow.separator_nodes", "count"),
    ("flow.augmenting_paths", "count"),
    ("flow.found_ratio", "ratio"),
    ("pool.par_tasks", "count"),
    ("pool.par_batches", "count"),
    ("sweep.grid_ms", "ms"),
    ("sweep.render_ms", "ms"),
    ("sweep.validate_ms", "ms"),
    ("sweep.doc_bytes", "B"),
    ("obs.rollup_ms", "ms"),
    ("obs.drain_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.coverage_pct", "%"),
];

/// Metric values of one run, checked against a declared table.
pub struct Report {
    table: &'static [Metric],
    values: Vec<Option<f64>>,
}

impl Report {
    /// An empty report for `table`.
    pub fn new(table: &'static [Metric]) -> Self {
        Report {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in the table.
    pub fn set(&mut self, name: &str, value: f64) {
        let ix = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.values[ix] = Some(value);
    }

    /// `(name, unit, value)` of every metric, in table order.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was never set.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), v)| {
                (
                    name,
                    unit,
                    v.unwrap_or_else(|| panic!("metric `{name}` was never set")),
                )
            })
            .collect()
    }

    /// The one-line JSON result:
    /// `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
    /// A value that is not finite is written as 0.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit, value)) in self.rows().into_iter().enumerate() {
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        line
    }
}
