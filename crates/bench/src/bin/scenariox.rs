//! `scenariox` — replay the scenario-DSL corpus, gate on it, and write
//! its artifacts.
//!
//! The `scenarios/*.ftsc` corpus is the only definition of the
//! repository's chaos campaigns. `scenariox` loads it (sorted by name),
//! runs every file over `ftgm_sim::par_map`, and then gates three ways:
//!
//! 1. **Expect** — each outcome's verdict must equal the file's
//!    `expect` line (a disagreement is a typed `ExpectMismatch`);
//! 2. **Oracles** — no chaos-oracle or SLO-bound violations anywhere;
//! 3. **Goldens** — each outcome's JSON must be byte-identical to
//!    `scenarios/golden/<name>.json`.
//!
//! From the same run it writes, one entry per corpus file:
//!
//! * `results/scenario_summary.json` — expected and produced verdicts;
//! * `BENCH_chaos.json` (schema `ftgm-chaos-v2`) — the chaos rollup:
//!   terminal states, recoveries, escalations, coordinator activity,
//!   fabric drops and the worst flow blackout;
//! * `results/metrics_summary.json` — each run's metrics snapshot;
//! * `results/traces/<name>.{jsonl,chrome.json}` — each run's trace, as
//!   JSON lines and as a Chrome `trace_event` file (Perfetto,
//!   `about:tracing`).
//!
//! Exit codes: 0 clean, 1 load or write errors, 2 gate failures.
//! `--update` rewrites the goldens in place (still exits 2 on expect or
//! oracle failures, so a broken corpus cannot be "updated" green).

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use ftgm_faults::classify::Resolution;
use ftgm_scenario::{load_corpus, run_compiled, CompiledScenario, ScenarioOutcome};
use ftgm_sim::{default_threads, par_map, DropKind};
use ftgm_workload::topology_label;

fn summary_json(
    outcomes: &[ScenarioOutcome],
    mismatches: u64,
    violations: u64,
    golden_diffs: u64,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"ftgm-scenario-v1\",");
    let _ = writeln!(out, "  \"corpus\": {},", outcomes.len());
    let _ = writeln!(out, "  \"mismatches\": {mismatches},");
    let _ = writeln!(out, "  \"violations\": {violations},");
    let _ = writeln!(out, "  \"golden_diffs\": {golden_diffs},");
    out.push_str("  \"scenarios\": [");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"seed\": {}, \"expected\": \"{}\", \
             \"verdict\": \"{}\", \"violations\": {}}}",
            o.name,
            o.seed,
            o.expected.label(),
            o.verdict.label(),
            o.violations().len()
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The chaos rollup, one row per corpus file (`BENCH_chaos.json`; keep
/// its keys in sync with `ci.sh`'s greps and `tests/determinism.rs`'s
/// schema check). `fault` is the scenario name without its
/// `<topology>-` prefix, or the whole name when it has none.
fn chaos_bench_json(corpus: &[CompiledScenario], outcomes: &[ScenarioOutcome]) -> String {
    let total_violations: usize = outcomes.iter().map(|o| o.violations().len()).sum();
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"ftgm-chaos-v2\",\n");
    let _ = writeln!(out, "  \"violations\": {total_violations},");
    out.push_str("  \"scenarios\": [");
    for (i, (c, o)) in corpus.iter().zip(outcomes).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let r = &o.chaos.report;
        let topology = topology_label(c.chaos.topology);
        let fault = o
            .name
            .strip_prefix(topology.as_str())
            .and_then(|rest| rest.strip_prefix('-'))
            .unwrap_or(&o.name);
        let count = |want: Resolution| r.nodes.iter().filter(|n| n.resolution == want).count();
        let recoveries: u64 = r.nodes.iter().map(|n| n.recoveries).sum();
        let delivered: u64 = r.flows.iter().map(|f| f.delivered).sum();
        let max_blackout_ns = r.flows.iter().map(|f| f.blackout_ns).max().unwrap_or(0);
        let cascades = o.chaos.trace_jsonl.matches("\"trigger\":\"cascade\"").count();
        let _ = write!(
            out,
            "\n    {{\n      \"name\": \"{}\",\n      \"seed\": {},\n      \
             \"topology\": \"{topology}\",\n      \"fault\": \"{fault}\",\n      \
             \"verdict\": \"{}\",\n      \"resolutions\": {{\"healthy\": {}, \
             \"recovered\": {}, \"escalated\": {}, \"stranded_hung\": {}, \
             \"stuck_recovering\": {}}},\n      \
             \"recoveries\": {recoveries},\n      \"escalations\": {},\n      \
             \"stalls\": {},\n      \"cascades\": {cascades},\n      \"isolations\": {},\n      \
             \"zone_reroutes\": {},\n      \"fabric_drops\": {},\n      \
             \"bad_link_drops\": {},\n      \"max_blackout_ns\": {max_blackout_ns},\n      \
             \"delivered\": {delivered},\n      \"violations\": {}\n    }}",
            o.name,
            o.seed,
            o.verdict.label(),
            count(Resolution::Healthy),
            count(Resolution::Recovered),
            count(Resolution::Escalated),
            count(Resolution::StrandedHung),
            count(Resolution::StuckRecovering),
            o.escalations,
            r.metrics.counter("PeerStallDetected"),
            r.metrics.counter("PeerIsolated"),
            o.zone_reroutes,
            r.metrics.fabric_drops_total(),
            r.metrics.fabric_drops(DropKind::BadLink),
            o.violations().len()
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Every run's metrics snapshot, keyed by scenario name.
fn metrics_summary_json(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::from("{\n  \"scenarios\": {");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": ", o.name);
        out.push_str(&o.chaos.report.metrics.to_json_indented(4));
    }
    out.push_str("\n  }\n}\n");
    out
}

fn main() -> ExitCode {
    let update = std::env::args().any(|a| a == "--update");
    let root = Path::new("scenarios");
    let golden_dir = root.join("golden");

    let corpus: Vec<CompiledScenario> = match load_corpus(root) {
        Ok(files) if !files.is_empty() => files.into_iter().map(|(_, c)| c).collect(),
        Ok(_) => {
            eprintln!("scenariox: no .ftsc files under {}", root.display());
            return ExitCode::from(1);
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("scenariox: {e}");
            }
            eprintln!("scenariox: {} corpus file(s) failed to load", errors.len());
            return ExitCode::from(1);
        }
    };
    let outcomes = par_map(&corpus, default_threads(), run_compiled);

    let mut mismatches = 0u64;
    let mut violations = 0u64;
    let mut golden_diffs = 0u64;
    for o in &outcomes {
        let v = o.violations();
        violations += v.len() as u64;
        for line in &v {
            eprintln!("  violation [{}]: {line}", o.name);
        }
        match o.check() {
            Ok(()) => println!(
                "  {:34} expect {:9} -> {:9} ok",
                o.name,
                o.expected.label(),
                o.verdict.label()
            ),
            Err(m) => {
                mismatches += 1;
                eprintln!("  MISMATCH: {m}");
            }
        }

        let golden_path = golden_dir.join(format!("{}.json", o.name));
        let json = o.to_json();
        if update {
            if fs::create_dir_all(&golden_dir).is_err()
                || fs::write(&golden_path, &json).is_err()
            {
                eprintln!("scenariox: cannot write {}", golden_path.display());
                golden_diffs += 1;
            }
        } else {
            match fs::read_to_string(&golden_path) {
                Ok(expected) if expected == json => {}
                Ok(_) => {
                    golden_diffs += 1;
                    eprintln!(
                        "  GOLDEN DIFF: {} (rerun with --update after verifying the change)",
                        golden_path.display()
                    );
                }
                Err(_) => {
                    golden_diffs += 1;
                    eprintln!("  GOLDEN MISSING: {}", golden_path.display());
                }
            }
        }
    }

    let summary = summary_json(&outcomes, mismatches, violations, golden_diffs);
    let chaos_bench = chaos_bench_json(&corpus, &outcomes);
    let metrics = metrics_summary_json(&outcomes);
    let mut artifacts: Vec<(String, &str)> = vec![
        ("results/scenario_summary.json".to_string(), &summary),
        ("BENCH_chaos.json".to_string(), &chaos_bench),
        ("results/metrics_summary.json".to_string(), &metrics),
    ];
    for o in &outcomes {
        let base = format!("results/traces/{}", o.name);
        artifacts.push((format!("{base}.jsonl"), &o.chaos.trace_jsonl));
        artifacts.push((format!("{base}.chrome.json"), &o.chaos.chrome_trace));
    }
    if let Err(e) = fs::create_dir_all("results/traces") {
        eprintln!("scenariox: cannot create results/traces: {e}");
        return ExitCode::from(1);
    }
    for (path, body) in &artifacts {
        if let Err(e) = fs::write(path, body) {
            eprintln!("scenariox: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }

    println!(
        "scenariox: {} scenarios, {mismatches} mismatches, {violations} violations, \
         {golden_diffs} golden diffs",
        outcomes.len()
    );
    if mismatches > 0 || violations > 0 || golden_diffs > 0 {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
