//! The correctness gate: invariants that hold at every seed, and values
//! committed with the benchmark that hold at [`GOLDEN_SEED`].

use crate::bitflip::Trial;
use crate::cell::CellRun;
use crate::stats::fnv1a;
use crate::workloads::Workload;

/// The seed the committed values were recorded at (the default seed).
pub const GOLDEN_SEED: u64 = 2003;

/// `(FNV-1a of the SloReport JSON, scheduler events)` of one untraced cell
/// at [`GOLDEN_SEED`].
const FT8_DENSE_GOLDEN: (u64, u64) = (0x9f93_516c_f892_ce6a, 859_916);
/// As [`FT8_DENSE_GOLDEN`], for `ft1024_idle_hang`.
const FT1024_IDLE_HANG_GOLDEN: (u64, u64) = (0xa988_be92_cd55_b206, 12_709_449);
/// [`Trial::fingerprint`] of the first bit-flip trials at [`GOLDEN_SEED`].
const BITFLIP_GOLDEN: &[&str] = &[
    "2003 303 no_impact 0 false 496238",
    "2004 1365 no_impact 0 false 496238",
    "2005 822 other_errors 0 false 1239",
    "2006 1881 no_impact 0 false 496238",
    "2007 2024 no_impact 0 false 496238",
    "2008 1661 no_impact 0 false 496238",
    "2009 637 local_interface_hung 1 true 290169",
    "2010 2048 local_interface_hung 1 true 290169",
    "2011 449 no_impact 0 false 496238",
    "2012 12 no_impact 0 false 496238",
    "2013 576 local_interface_hung 1 true 290169",
    "2014 277 other_errors 0 false 1239",
    "2015 2149 no_impact 0 false 496238",
    "2016 385 no_impact 0 false 496238",
    "2017 995 messages_corrupted 0 false 1239",
    "2018 2063 no_impact 0 false 496238",
    "2019 1249 local_interface_hung 1 true 290169",
    "2020 343 other_errors 0 false 1239",
    "2021 2399 local_interface_hung 1 true 290169",
    "2022 489 no_impact 0 false 496238",
    "2023 1390 messages_corrupted 0 false 1239",
    "2024 139 no_impact 0 false 496238",
    "2025 1969 no_impact 0 false 496238",
    "2026 1432 messages_corrupted 0 false 1239",
    "2027 1312 no_impact 0 false 496238",
    "2028 200 no_impact 0 false 496238",
    "2029 637 local_interface_hung 1 true 290169",
    "2030 2100 no_impact 0 false 496238",
    "2031 980 no_impact 0 false 496238",
    "2032 897 messages_corrupted 0 false 1239",
    "2033 2100 no_impact 0 false 496238",
    "2034 242 no_impact 0 false 496238",
    "2035 1173 messages_corrupted 0 false 1239",
    "2036 1229 messages_corrupted 0 false 1239",
    "2037 1551 no_impact 0 false 496238",
    "2038 1086 local_interface_hung 1 true 290169",
    "2039 3 no_impact 0 false 496238",
    "2040 364 no_impact 0 false 496238",
    "2041 2096 no_impact 0 false 636139",
    "2042 1263 messages_corrupted 0 false 1239",
];

/// The paper's detection bound (§5.2: under 1 ms).
pub const DETECT_BOUND_US: f64 = 1_000.0;
/// The paper's recovery bound (under 2 s).
pub const BLACKOUT_BOUND_MS: f64 = 2_000.0;

/// The deterministic digest of a world cell: SloReport JSON and events.
pub fn cell_digest(cell: &CellRun) -> (u64, u64) {
    (
        fnv1a(cell.report.to_json().as_bytes()),
        cell.counters.events,
    )
}

/// Offered messages of a world cell that did not complete exactly once:
/// lost ones plus any the NICs delivered more (or fewer) times than they
/// completed the send.
pub fn cell_failures(cell: &CellRun) -> u64 {
    let r = &cell.report;
    let c = &cell.counters;
    r.total_issued.saturating_sub(r.total_completed)
        + c.messages_delivered.abs_diff(c.sends_completed)
}

/// Checks one untraced world cell; returns every violation found.
pub fn check_cell(workload: Workload, seed: u64, cell: &CellRun) -> Vec<String> {
    let mut errors = Vec::new();
    let r = &cell.report;
    let c = &cell.counters;
    if r.total_completed != r.total_issued {
        errors.push(format!(
            "{} of {} offered messages did not complete",
            r.total_issued.saturating_sub(r.total_completed),
            r.total_issued
        ));
    }
    if r.send_errors + r.bad_responses + r.iface_dead != 0 {
        errors.push(format!(
            "send errors {}, bad responses {}, dead interfaces {}",
            r.send_errors, r.bad_responses, r.iface_dead
        ));
    }
    if c.corrupt_deliveries != 0 {
        errors.push(format!("{} corrupt deliveries", c.corrupt_deliveries));
    }
    if c.messages_delivered != c.sends_completed {
        errors.push(format!(
            "NICs delivered {} messages for {} completed sends (duplicate or lost delivery)",
            c.messages_delivered, c.sends_completed
        ));
    }
    if workload == Workload::Ft1024IdleHang {
        if c.recoveries != 1 {
            errors.push(format!("{} recoveries, expected exactly 1", c.recoveries));
        }
        match c.detect_ns {
            Some(ns) if (ns as f64) / 1e3 < DETECT_BOUND_US => {}
            other => errors.push(format!("hang detection {other:?} ns, bound 1 ms")),
        }
        let blackout_ms = blackout_ms(cell);
        if blackout_ms >= BLACKOUT_BOUND_MS {
            errors.push(format!("blackout {blackout_ms} ms, bound 2000 ms"));
        }
    }
    if seed == GOLDEN_SEED {
        let golden = match workload {
            Workload::Ft8Dense => FT8_DENSE_GOLDEN,
            _ => FT1024_IDLE_HANG_GOLDEN,
        };
        let got = cell_digest(cell);
        if got != golden {
            errors.push(format!(
                "seed {GOLDEN_SEED} digest (slo {:#018x}, events {}) differs from the committed (slo {:#018x}, events {})",
                got.0, got.1, golden.0, golden.1
            ));
        }
    }
    errors
}

/// Longest per-flow completion gap in the fault phase, in simulated ms
/// (0 for a workload without one).
pub fn blackout_ms(cell: &CellRun) -> f64 {
    cell.report
        .fault()
        .map_or(0.0, |p| p.longest_gap_ns as f64 / 1e6)
}

/// Checks a bit-flip campaign; returns every violation found.
pub fn check_campaign(seed: u64, trials: &[Trial]) -> Vec<String> {
    let mut errors = Vec::new();
    for t in trials.iter().filter(|t| t.hung() && t.recoveries == 0) {
        errors.push(format!(
            "trial {}: interface hung but no recovery ran",
            t.seed
        ));
    }
    if seed == GOLDEN_SEED {
        for (i, t) in trials.iter().enumerate() {
            let got = t.fingerprint();
            match BITFLIP_GOLDEN.get(i) {
                Some(want) if got == *want => {}
                Some(want) => {
                    errors.push(format!("trial {}: got `{got}`, committed `{want}`", t.seed))
                }
                None => errors.push(format!("trial {}: `{got}` has no committed value", t.seed)),
            }
        }
    }
    errors
}
