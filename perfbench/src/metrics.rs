//! Metric names, units and the two output forms: an aligned table for
//! people and one JSON object on the last line for tools.

use std::fmt::Write as _;

/// The end-to-end metrics every untraced run reports (`BENCHMARK.json`'s
/// `end_to_end`, in order).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("msgs_per_s", "msg/s"),
    ("peak_rss_mb", "MB"),
];

/// FTD phase names, in the order the phase hook reports them.
pub const FTD_PHASES: [&str; 6] = [
    "reset",
    "clear_sram",
    "reload_mcp",
    "restart_engines",
    "restore_page_table",
    "restore_routes",
];

/// Workload phase names.
pub const WORKLOAD_PHASES: [&str; 4] = ["warmup", "steady", "fault", "drain"];

/// Outcome classes of the bit-flip campaign.
pub const OUTCOMES: [&str; 7] = [
    "local_interface_hung",
    "messages_corrupted",
    "remote_interface_hung",
    "mcp_restart",
    "host_computer_crash",
    "other_errors",
    "no_impact",
];

/// Every per-layer metric a traced run reports (`BENCHMARK.json`'s
/// `per_layer`, in order), with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("sim.events", "count"),
        ("sim.events_per_msg", "count"),
        ("sim.host_ns_per_event", "ns"),
        ("mcp.ltimer_runs", "count"),
        ("mcp.data_tx", "count"),
        ("mcp.retransmits", "count"),
        ("mcp.lanai_busy_us_per_msg", "us"),
        ("lanai.send_chunk_ns", "ns"),
        ("lanai.send_chunk_cold_ns", "ns"),
        ("lanai.est_share_permille", "permille"),
        ("net.fabric.injected", "count"),
        ("net.fabric.dropped", "count"),
        ("net.fabric.inject_ns", "ns"),
        ("net.fabric.est_share_permille", "permille"),
        ("net.mapper_s", "s"),
        ("host.pci.transfers", "count"),
        ("host.pci.bytes", "B"),
        ("host.vm_peak_mb", "MB"),
        ("host.backup_us_per_msg", "us"),
        ("gm.build_s", "s"),
        ("gm.app_events", "count"),
        ("alloc.per_event", "count"),
        ("alloc.per_msg", "count"),
        ("alloc.setup_bytes", "B"),
        ("core.recoveries", "count"),
        ("core.false_alarms", "count"),
        ("core.fault_host_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    v.extend(
        FTD_PHASES
            .iter()
            .map(|p| (format!("core.ftd_phase_host_s.{p}"), "s")),
    );
    v.extend(
        WORKLOAD_PHASES
            .iter()
            .map(|p| (format!("workload.host_s.{p}"), "s")),
    );
    v.push(("workload.max_in_flight".to_string(), "count"));
    v.push(("faults.trials".to_string(), "count"));
    v.extend(
        OUTCOMES
            .iter()
            .map(|o| (format!("faults.outcome.{o}"), "count")),
    );
    v.extend(
        [
            ("faults.hangs_recovered", "count"),
            ("faults.trial_host_s_p50", "s"),
            ("faults.trial_host_s_max", "s"),
            ("unattributed.share_permille", "permille"),
            ("trace.overhead_permille", "permille"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    v
}

/// Whether `name` is a legal metric name (`[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters).
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Table note (`estimate`, `n/a`, `sim`, ...); not part of the JSON.
    pub note: &'static str,
}

/// An ordered set of metrics with name lookup.
#[derive(Clone, Debug, Default)]
pub struct MetricSet(pub Vec<Metric>);

impl MetricSet {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64, note: &'static str) {
        let m = Metric {
            name: name.to_string(),
            unit,
            value,
            note,
        };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(slot) => *slot = m,
            None => self.0.push(m),
        }
    }

    /// Appends one aligned `name value unit [note]` line per metric.
    pub fn write_table(&self, out: &mut String) {
        let width = self.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.0 {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            let _ = writeln!(
                out,
                "  {:<width$}  {:>16.6}  {}{note}",
                m.name, m.value, m.unit
            );
        }
    }

    /// The `"metrics"` JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust prints (non-finite → 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}
