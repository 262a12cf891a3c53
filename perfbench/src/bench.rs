//! Runs one workload, untraced (end-to-end metrics) or traced (per-layer
//! metrics), and gathers its metrics, correctness verdict and counts.

use std::time::Instant;

use ftgm_faults::inject::RunConfig;
use ftgm_gm::World;
use ftgm_workload::WorkloadSpec;

use crate::alloc::{self, Phase};
use crate::bitflip::{self, outcome_name, Trial};
use crate::cell::{run_cell, setup_only, CellRun, Spans};
use crate::check;
use crate::metrics::{per_layer_names, MetricSet, FTD_PHASES, OUTCOMES};
use crate::replay::{run_replays, Replays, TrafficShape};
use crate::stats::{median, proc_status_mb};
use crate::workloads::{bitflip_trials, Workload};

/// Set-up samples every world run takes, at least: one 1024-host build
/// varies by a third from sample to sample, so the median needs many.
const MIN_SETUPS: usize = 15;
/// Set-up samples of a campaign run: a two-node build takes about 0.1 ms,
/// so many are cheap.
const CAMPAIGN_SETUPS: usize = 31;

/// One invocation's settings.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The seed every input is generated from.
    pub seed: u64,
    /// Measuring budget in host seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub traced: bool,
    /// Worker threads for the bit-flip campaign.
    pub threads: usize,
}

/// Everything one invocation produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted: offered messages, or campaign trials.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: MetricSet,
    /// Context printed in the table only.
    pub info: MetricSet,
    /// Every correctness violation.
    pub errors: Vec<String>,
}

/// Runs `opts.workload`.
pub fn run(opts: &Options) -> Outcome {
    let mut out = match (opts.workload.spec(opts.seed), opts.traced) {
        (Some(spec), false) => world_untraced(opts, &spec),
        (Some(spec), true) => world_traced(opts, &spec),
        (None, false) => bitflip_untraced(opts),
        (None, true) => bitflip_traced(opts),
    };
    out.correct = out.errors.is_empty();
    out
}

/// Minimum cells per untraced world run: enough for a median even when
/// one cell takes a third of the budget.
fn min_cells(workload: Workload) -> usize {
    match workload {
        Workload::Ft8Dense => 5,
        _ => 3,
    }
}

fn world_untraced(opts: &Options, spec: &WorkloadSpec) -> Outcome {
    let start = Instant::now();
    let mut cells: Vec<CellRun> = vec![run_cell(spec, false)];
    // The peak of one cell in a fresh process: later cells and set-up
    // samples reuse freed heap and would only blur it.
    let peak_rss_mb = proc_status_mb("VmHWM");
    loop {
        let per_cell = median(
            &cells
                .iter()
                .map(|c| c.setup_s + c.run_s)
                .collect::<Vec<_>>(),
        );
        let next_end = start.elapsed().as_secs_f64() + per_cell;
        if cells.len() >= min_cells(opts.workload) && next_end > opts.seconds as f64 {
            break;
        }
        cells.push(run_cell(spec, false));
    }
    let mut setups: Vec<f64> = cells.iter().map(|c| c.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(setup_only(spec));
    }
    let run_s = median(&cells.iter().map(|c| c.run_s).collect::<Vec<_>>());

    let first = &cells[0];
    let mut out = Outcome {
        errors: check::check_cell(opts.workload, opts.seed, first),
        ..Outcome::default()
    };
    for (i, c) in cells.iter().enumerate().skip(1) {
        if check::cell_digest(c) != check::cell_digest(first) || c.counters != first.counters {
            out.errors
                .push(format!("cell {i} differs from cell 0 on the same inputs"));
        }
    }
    out.attempted = cells.iter().map(|c| c.report.total_issued).sum();
    out.failed = cells.iter().map(check::cell_failures).sum();

    out.metrics.set("setup_s", "s", median(&setups), "");
    out.metrics
        .set("msgs_per_s", "msg/s", first.completed() as f64 / run_s, "");
    out.metrics.set("peak_rss_mb", "MB", peak_rss_mb, "");

    let r = &first.report;
    let steady = r.steady();
    let info = &mut out.info;
    info.set("run_s", "s", run_s, "median cell");
    info.set("cells", "count", cells.len() as f64, "");
    info.set("msgs", "count", first.completed() as f64, "per cell");
    info.set("events", "count", first.counters.events as f64, "per cell");
    info.set(
        "p50_us",
        "us",
        steady.map_or(0.0, |p| p.p50_ns as f64 / 1e3),
        "sim, steady",
    );
    info.set(
        "p99_us",
        "us",
        steady.map_or(0.0, |p| p.p99_ns as f64 / 1e3),
        "sim, steady",
    );
    info.set(
        "p_samples",
        "count",
        steady.map_or(0.0, |p| p.completed as f64),
        "steady",
    );
    if opts.workload == Workload::Ft1024IdleHang {
        info.set("blackout_ms", "ms", check::blackout_ms(first), "sim");
        let detect = first.counters.detect_ns.map_or(0.0, |ns| ns as f64 / 1e3);
        info.set("detect_us", "us", detect, "sim");
    }
    info.set(
        "failed_permille",
        "permille",
        permille(out.failed, out.attempted),
        "",
    );
    out
}

fn world_traced(opts: &Options, spec: &WorkloadSpec) -> Outcome {
    // Untraced and traced cells alternate until the budget is spent, so
    // host drift hits both sides of the overhead alike.
    let start = Instant::now();
    let mut pairs: Vec<(CellRun, CellRun)> = Vec::new();
    loop {
        pairs.push((run_cell(spec, false), run_cell(spec, true)));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / pairs.len() as f64 > opts.seconds as f64 {
            break;
        }
    }
    let replays = run_replays(&TrafficShape::of_spec(spec), opts.seed);

    let base = &pairs[0].0;
    let mut out = Outcome {
        errors: check::check_cell(opts.workload, opts.seed, base),
        ..Outcome::default()
    };
    for (i, (b, t)) in pairs.iter().enumerate() {
        if check::cell_digest(b) != check::cell_digest(base) || b.counters != base.counters {
            out.errors
                .push(format!("cell {i} differs from cell 0 on the same inputs"));
        }
        if let Err(e) = t.same_outputs(b) {
            out.errors
                .push(format!("traced cell {i} changed the simulation: {e}"));
        }
    }
    out.attempted = base.report.total_issued;
    out.failed = check::cell_failures(base);

    let c = &base.counters;
    let msgs = base.completed().max(1) as f64;
    let base_run_s = median(&pairs.iter().map(|(b, _)| b.run_s).collect::<Vec<_>>());
    let traced_run_s = median(&pairs.iter().map(|(_, t)| t.run_s).collect::<Vec<_>>());
    let spans = median_spans(pairs.iter().filter_map(|(_, t)| t.spans.as_ref()));
    let build_s = median(&pairs.iter().map(|(b, _)| b.build_s).collect::<Vec<_>>());
    let m = &mut out.metrics;
    zero_all(m);
    m.set("sim.events", "count", c.events as f64, "");
    m.set("sim.events_per_msg", "count", c.events as f64 / msgs, "");
    m.set(
        "sim.host_ns_per_event",
        "ns",
        base_run_s * 1e9 / c.events.max(1) as f64,
        "",
    );
    m.set("mcp.ltimer_runs", "count", c.ltimer_runs as f64, "");
    m.set("mcp.data_tx", "count", c.data_tx as f64, "");
    m.set("mcp.retransmits", "count", c.retransmits as f64, "");
    m.set(
        "mcp.lanai_busy_us_per_msg",
        "us",
        c.lanai_busy_ns as f64 / 1e3 / msgs,
        "sim",
    );
    m.set("net.fabric.injected", "count", c.fabric_injected as f64, "");
    m.set("net.fabric.dropped", "count", c.fabric_dropped as f64, "");
    m.set("host.pci.transfers", "count", c.pci_transfers as f64, "");
    m.set("host.pci.bytes", "B", c.pci_bytes as f64, "");
    m.set(
        "host.backup_us_per_msg",
        "us",
        c.backup_ns as f64 / 1e3 / msgs,
        "sim",
    );
    m.set("gm.build_s", "s", build_s, "");
    m.set("gm.app_events", "count", c.app_events as f64, "");
    let traced_events = c.events + spans.markers;
    m.set(
        "alloc.per_event",
        "count",
        spans.alloc.run_allocs as f64 / traced_events as f64,
        "",
    );
    m.set(
        "alloc.per_msg",
        "count",
        spans.alloc.run_allocs as f64 / msgs,
        "",
    );
    m.set("alloc.setup_bytes", "B", spans.alloc.setup_bytes as f64, "");
    m.set("core.recoveries", "count", c.recoveries as f64, "");
    m.set("core.false_alarms", "count", c.false_alarms as f64, "");
    m.set("core.fault_host_s", "s", spans.fault_s, "");
    for (name, s) in FTD_PHASES.iter().zip(&spans.ftd_phase_s) {
        m.set(
            &format!("core.ftd_phase_host_s.{name}"),
            "s",
            *s,
            "first includes detection",
        );
    }
    for (name, s) in &spans.phase_s {
        m.set(&format!("workload.host_s.{name}"), "s", *s, "traced");
    }
    let in_flight = base
        .report
        .phases
        .iter()
        .map(|p| p.max_in_flight)
        .max()
        .unwrap_or(0);
    m.set("workload.max_in_flight", "count", in_flight as f64, "");
    layer_estimates(m, &replays, c.data_tx, c.fabric_injected, base_run_s);
    m.set(
        "trace.overhead_permille",
        "permille",
        overhead(traced_run_s, base_run_s),
        "",
    );
    out
}

fn bitflip_untraced(opts: &Options) -> Outcome {
    let setups: Vec<f64> = (0..CAMPAIGN_SETUPS)
        .map(|_| bitflip::setup_once())
        .collect();
    // The campaign's own peak depends on how many hang recoveries (each
    // clears its NIC's 8 MB SRAM) overlap on the workers, 4, 12 or 20 MB
    // by seed; the set-up peak does not, so it is the end-to-end figure.
    let peak_rss_mb = proc_status_mb("VmHWM");
    let (trials, elapsed) =
        bitflip::run_campaign(opts.seed, bitflip_trials(opts.seconds), opts.threads);
    let mut out = campaign_outcome(opts, &trials);
    let worker_s: f64 = trials.iter().map(|t| t.host_s).sum();
    let msgs: u64 = trials.iter().map(|t| t.msgs).sum();
    out.metrics.set("setup_s", "s", median(&setups), "");
    out.metrics
        .set("msgs_per_s", "msg/s", msgs as f64 / worker_s, "per worker");
    out.metrics
        .set("peak_rss_mb", "MB", peak_rss_mb, "after set-up");
    let info = &mut out.info;
    info.set("run_s", "s", elapsed, "all trials");
    info.set(
        "campaign_peak_rss_mb",
        "MB",
        proc_status_mb("VmHWM"),
        "after the trials",
    );
    info.set("worker_s", "s", worker_s, "sum of trial times");
    info.set("threads", "count", opts.threads as f64, "");
    info.set("trials", "count", trials.len() as f64, "");
    info.set(
        "hangs",
        "count",
        trials.iter().filter(|t| t.hung()).count() as f64,
        "",
    );
    info.set("msgs", "count", msgs as f64, "");
    info.set(
        "failed_permille",
        "permille",
        permille(out.failed, out.attempted),
        "",
    );
    out
}

fn bitflip_traced(opts: &Options) -> Outcome {
    // Two campaigns share the budget: untraced, then traced.
    let n = bitflip_trials(opts.seconds / 2);
    let (base, _) = bitflip::run_campaign(opts.seed, n, opts.threads);

    let config = RunConfig::effectiveness();
    let builds: Vec<f64> = (0..CAMPAIGN_SETUPS)
        .map(|_| {
            let t = Instant::now();
            let world = World::two_node(config.world.clone());
            let s = t.elapsed().as_secs_f64();
            drop(world);
            s
        })
        .collect();
    alloc::take();
    alloc::set_phase(Phase::Setup);
    bitflip::setup_once();
    alloc::set_phase(Phase::Run);
    let (traced, _) = bitflip::run_campaign(opts.seed, n, opts.threads);
    let counts = alloc::take();
    let replays = run_replays(&TrafficShape::bitflip(), opts.seed);

    let mut out = campaign_outcome(opts, &base);
    let prints = |t: &[Trial]| t.iter().map(Trial::fingerprint).collect::<Vec<_>>();
    if prints(&traced) != prints(&base) {
        out.errors
            .push("traced campaign differs from the untraced one".to_string());
    }
    let base_s: f64 = base.iter().map(|t| t.host_s).sum();
    let traced_s: f64 = traced.iter().map(|t| t.host_s).sum();
    let msgs: u64 = base.iter().map(|t| t.msgs).sum();
    let resent: u64 = base.iter().map(|t| t.resent).sum();
    let mut host_s: Vec<f64> = base.iter().map(|t| t.host_s).collect();
    host_s.sort_by(f64::total_cmp);

    let m = &mut out.metrics;
    zero_all(m);
    // Each 256 B message is one chunk; resent chunks come from the trace.
    let chunks = msgs + resent;
    m.set(
        "mcp.data_tx",
        "count",
        chunks as f64,
        "estimate: msgs + resent",
    );
    m.set("mcp.retransmits", "count", resent as f64, "");
    m.set("gm.build_s", "s", median(&builds), "two-node");
    m.set(
        "alloc.per_msg",
        "count",
        counts.run_allocs as f64 / msgs.max(1) as f64,
        "",
    );
    m.set("alloc.setup_bytes", "B", counts.setup_bytes as f64, "");
    m.set(
        "core.recoveries",
        "count",
        base.iter().map(|t| t.recoveries).sum::<u64>() as f64,
        "",
    );
    m.set("faults.trials", "count", base.len() as f64, "");
    for name in OUTCOMES {
        let k = base
            .iter()
            .filter(|t| outcome_name(t.outcome) == name)
            .count();
        m.set(&format!("faults.outcome.{name}"), "count", k as f64, "");
    }
    let recovered = base
        .iter()
        .filter(|t| t.hung() && t.recovered_clean)
        .count();
    m.set("faults.hangs_recovered", "count", recovered as f64, "");
    m.set("faults.trial_host_s_p50", "s", median(&host_s), "");
    m.set(
        "faults.trial_host_s_max",
        "s",
        host_s.last().copied().unwrap_or(0.0),
        "",
    );
    // Frames: one data frame and one acknowledgement per chunk.
    layer_estimates(m, &replays, chunks, 2 * chunks, base_s);
    m.set(
        "trace.overhead_permille",
        "permille",
        overhead(traced_s, base_s),
        "",
    );
    out
}

/// Attempted and failed counts and the correctness checks of a campaign.
fn campaign_outcome(opts: &Options, trials: &[Trial]) -> Outcome {
    Outcome {
        attempted: trials.len() as u64,
        failed: trials.iter().filter(|t| t.failed()).count() as u64,
        errors: check::check_campaign(opts.seed, trials),
        ..Outcome::default()
    }
}

/// Sets every per-layer metric to 0 and "n/a", so a workload a layer does
/// not apply to still reports the full set.
fn zero_all(m: &mut MetricSet) {
    for (name, unit) in per_layer_names() {
        m.set(&name, unit, 0.0, "n/a");
    }
}

/// The replay-based layer shares and the unattributed remainder, in
/// permille of `run_s`.
fn layer_estimates(m: &mut MetricSet, r: &Replays, chunks: u64, frames: u64, run_s: f64) {
    let share = |ns: f64, calls: u64| ns * calls as f64 / 1e9 / run_s * 1e3;
    let lanai = share(r.send_chunk_ns, chunks);
    let net = share(r.inject_ns, frames);
    m.set("lanai.send_chunk_ns", "ns", r.send_chunk_ns, "replay");
    m.set(
        "lanai.send_chunk_cold_ns",
        "ns",
        r.send_chunk_cold_ns,
        "replay",
    );
    m.set("lanai.est_share_permille", "permille", lanai, "estimate");
    m.set("net.fabric.inject_ns", "ns", r.inject_ns, "replay");
    m.set("net.fabric.est_share_permille", "permille", net, "estimate");
    m.set("net.mapper_s", "s", r.mapper_s, "replay");
    m.set("host.vm_peak_mb", "MB", proc_status_mb("VmPeak"), "");
    m.set(
        "unattributed.share_permille",
        "permille",
        1e3 - lanai - net,
        "estimate",
    );
}

/// Field-wise medians of traced cells' spans (counts from the first).
fn median_spans<'a>(spans: impl Iterator<Item = &'a Spans>) -> Spans {
    let all: Vec<&Spans> = spans.collect();
    let Some(first) = all.first() else {
        return Spans::default();
    };
    let med = |f: &dyn Fn(&Spans) -> Option<f64>| {
        median(&all.iter().filter_map(|s| f(s)).collect::<Vec<_>>())
    };
    Spans {
        phase_s: first
            .phase_s
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| (name, med(&|s| s.phase_s.get(i).map(|p| p.1))))
            .collect(),
        fault_s: med(&|s| Some(s.fault_s)),
        ftd_phase_s: (0..first.ftd_phase_s.len())
            .map(|i| med(&|s| s.ftd_phase_s.get(i).copied()))
            .collect(),
        alloc: first.alloc,
        markers: first.markers,
    }
}

fn overhead(traced_s: f64, base_s: f64) -> f64 {
    (traced_s - base_s) / base_s * 1e3
}

fn permille(part: u64, whole: u64) -> f64 {
    part as f64 * 1e3 / whole.max(1) as f64
}
