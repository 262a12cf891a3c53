//! The benchmark's own tests. The world and campaign tests simulate
//! seconds of traffic; run them optimized:
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeSet;

use ftgm_faults::chaos::ChaosTopology;
use ftgm_sim::SimDuration;
use ftgm_workload::WorkloadSpec;
use perfbench::bitflip::{run_campaign, Trial};
use perfbench::cell::run_cell;
use perfbench::check::{cell_digest, check_cell};
use perfbench::metrics::{per_layer_names, valid_name, END_TO_END};
use perfbench::workloads::{ft1024_idle_hang_spec, ft8_dense_spec, Workload};

/// `ft8_dense` with a 20 ms steady phase.
fn short_dense(seed: u64) -> WorkloadSpec {
    let mut spec = ft8_dense_spec(seed);
    spec.phases[1].duration = SimDuration::from_ms(20);
    spec
}

/// The `ft1024_idle_hang` flows, phases and hang on an 8-host fat tree.
fn small_hang(seed: u64) -> WorkloadSpec {
    let mut spec = ft1024_idle_hang_spec(seed);
    let topology = ChaosTopology::FatTree {
        spines: 2,
        leaves: 2,
        hosts_per_leaf: 4,
    };
    let n = topology.node_count() as u16;
    spec.topology = topology;
    for flow in &mut spec.flows {
        for end in [&mut flow.src, &mut flow.dst] {
            *end = match *end {
                512 => n / 2,
                1023 => n - 1,
                other => other,
            };
        }
    }
    spec
}

#[test]
fn world_cells_repeat_exactly() {
    let spec = short_dense(11);
    let a = run_cell(&spec, false);
    let b = run_cell(&spec, false);
    assert_eq!(cell_digest(&a), cell_digest(&b));
    assert_eq!(a.counters, b.counters);
    assert!(
        a.report.total_completed > 1_000,
        "{}",
        a.report.total_completed
    );
    assert_eq!(check_cell(Workload::Ft8Dense, 11, &a), Vec::<String>::new());
}

#[test]
fn traced_cell_differs_only_by_its_markers() {
    let spec = small_hang(5);
    let base = run_cell(&spec, false);
    let traced = run_cell(&spec, true);
    traced
        .same_outputs(&base)
        .expect("tracing must not change the simulation");
    let spans = traced.spans.expect("a traced cell has spans");
    // Run start, four phase boundaries (the last is the end) and the hang.
    assert_eq!(spans.markers, 6);
    assert_eq!(traced.counters.events, base.counters.events + 6);
    assert_eq!(spans.phase_s.len(), 4);
    assert_eq!(spans.ftd_phase_s.len(), 6, "one span per FTD phase");
    assert!(spans.fault_s > 0.0);
    assert_eq!(base.counters.recoveries, 1);
    let detect = base.counters.detect_ns.expect("the hang was detected");
    assert!(detect < 1_000_000, "detection took {detect} ns");
    // The invariants hold on the small fabric too (the 1024-host golden
    // does not apply to this spec's seed).
    assert_eq!(
        check_cell(Workload::Ft1024IdleHang, 5, &base),
        Vec::<String>::new()
    );
}

#[test]
fn campaign_is_thread_count_invariant() {
    // Trials 2009 and 2010 hang and recover; 2011 has no impact.
    let (one, _) = run_campaign(2009, 3, 1);
    let (two, _) = run_campaign(2009, 3, 2);
    let prints = |t: &[Trial]| t.iter().map(Trial::fingerprint).collect::<Vec<_>>();
    assert_eq!(prints(&one), prints(&two));
    assert!(one.iter().any(Trial::hung), "{:?}", prints(&one));
    assert!(one.iter().all(|t| !t.failed()), "{:?}", prints(&one));
}

#[test]
fn metric_names_are_valid_and_unique() {
    let names: Vec<String> = END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(per_layer_names().into_iter().map(|(n, _)| n))
        .collect();
    for n in &names {
        assert!(valid_name(n), "bad metric name {n}");
    }
    let unique: BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len());
    assert!(per_layer_names().len() <= 128);
}

#[test]
fn benchmark_json_matches_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside this directory");
    let quoted = |s: &str| format!("\"name\": \"{s}\"");
    let mut expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
    expected.extend(per_layer_names().into_iter().map(|(n, _)| n));
    for name in &expected {
        assert!(json.contains(&quoted(name)), "BENCHMARK.json lacks {name}");
    }
    assert_eq!(json.matches("\"name\": ").count(), expected.len());
}
