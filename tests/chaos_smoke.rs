//! Tier-1 chaos smoke: the standard single-fault scenarios from the
//! `scenarios/` corpus must finish quickly and pass every oracle. This is
//! the CI gate for the composed multi-fault behaviours
//! (fault-during-recovery, retry, escalation) that the paper's
//! single-fault campaign never reaches.

use std::path::Path;

use ftgm_core::ftd::FtdPhase;
use ftgm_faults::chaos::{run_scenario, ChaosAction, ChaosEvent, ChaosScenario, PhaseTrigger};
use ftgm_faults::{InjectionTarget, Resolution};
use ftgm_scenario::{load_corpus, CompiledScenario};
use ftgm_sim::SimDuration;

const SEED: u64 = 42;

/// The corpus files that port the standard scenario set.
const STANDARD: [&str; 6] = [
    "double-flip-during-reload",
    "back-to-back-hangs",
    "persistent-hang-escalates",
    "ring4-two-nodes-flipped",
    "star3-link-flap",
    "lossy-link-exactly-once",
];

/// Loads the named scenarios from `scenarios/`, in the order given.
fn load(names: &[&str]) -> Vec<CompiledScenario> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let corpus = load_corpus(Path::new(dir)).unwrap_or_else(|e| panic!("{}", e.join("\n")));
    names
        .iter()
        .map(|name| {
            corpus
                .iter()
                .find(|(spec, _)| spec.name == *name)
                .map(|(_, c)| c.clone())
                .unwrap_or_else(|| panic!("scenarios/{name}.ftsc is missing"))
        })
        .collect()
}

/// The chaos run of one named corpus scenario.
fn chaos(name: &str) -> ChaosScenario {
    load(&[name]).remove(0).chaos
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs in the release-mode chaos_smoke CI step")]
fn standard_scenarios_pass_all_oracles() {
    let mut recovered = 0u64;
    let mut escalated = 0u64;
    for scenario in load(&STANDARD) {
        let report = run_scenario(&scenario.chaos, SEED);
        assert!(
            report.ok(),
            "{}: oracle violations {:?}",
            scenario.name,
            report.violations
        );
        recovered += report.nodes.iter().map(|n| n.recoveries).sum::<u64>();
        escalated += report.nodes.iter().map(|n| n.escalations).sum::<u64>();
    }
    // The set exercises both terminal paths of the FTD state machine.
    assert!(recovered > 0, "no scenario completed a recovery");
    assert!(escalated > 0, "no scenario reached escalation");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs in the release-mode chaos_smoke CI step")]
fn same_seed_replays_byte_identically() {
    let scenarios = load(&STANDARD);
    let run = |seed| -> Vec<String> {
        scenarios
            .iter()
            .map(|s| run_scenario(&s.chaos, seed).to_json())
            .collect()
    };
    assert_eq!(run(7), run(7), "same-seed replay diverged");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs in the release-mode chaos_smoke CI step")]
fn persistent_hang_escalates_loudly() {
    // The bounded-retry acceptance path: a hang that re-manifests at the
    // end of every reload exhausts the attempt budget, the interface is
    // declared dead, and the applications *see* it — no silent hang.
    let report = run_scenario(&chaos("persistent-hang-escalates"), SEED);
    assert!(report.ok(), "{:?}", report.violations);
    let n0 = report
        .nodes
        .iter()
        .find(|n| n.node == 0)
        .expect("node 0 reported");
    assert_eq!(n0.resolution, Resolution::Escalated, "{n0:?}");
    assert!(n0.failed_attempts >= 3, "{n0:?}");
    let surfaced: u64 = report
        .flows
        .iter()
        .map(|f| f.iface_dead + f.send_errors)
        .sum();
    assert!(surfaced > 0, "escalation was silent: {report:?}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs in the release-mode chaos_smoke CI step")]
fn second_flip_during_reload_never_hangs_silently() {
    // The headline acceptance scenario, swept over seeds: a second
    // code-section flip lands during the ReloadMcp phase. Every run must
    // end fully recovered or explicitly dead — never stranded.
    let s = chaos("double-flip-during-reload");
    let mut saw_recovery = false;
    for seed in 0..5u64 {
        let report = run_scenario(&s, seed);
        assert!(report.ok(), "seed {seed}: {:?}", report.violations);
        for n in &report.nodes {
            assert!(
                n.resolution.acceptable(),
                "seed {seed}: node {} ended {}",
                n.node,
                n.resolution
            );
        }
        saw_recovery |= report.nodes.iter().any(|n| n.recoveries > 0);
    }
    assert!(saw_recovery, "no seed ever hung and recovered");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs in the release-mode chaos_smoke CI step")]
fn faults_inside_every_ftd_phase_converge() {
    // Parameterized over the FTD's phase order: a code flip timed inside
    // each recovery phase. Whatever the phase, the interface converges to
    // recovered-or-escalated within the horizon.
    for phase in FtdPhase::ORDER {
        let mut s = ChaosScenario::two_node(&format!("flip-inside-{phase:?}"));
        s.events.push(ChaosEvent {
            at: SimDuration::from_ms(0),
            action: ChaosAction::ForceHang { node: 0 },
        });
        s.phase_triggers.push(PhaseTrigger {
            node: 0,
            phase,
            action: ChaosAction::BitFlip {
                node: 0,
                target: InjectionTarget::SendChunkCode,
            },
            remaining: 1,
        });
        let report = run_scenario(&s, SEED);
        let n0 = report
            .nodes
            .iter()
            .find(|n| n.node == 0)
            .expect("node 0 reported");
        assert!(
            matches!(n0.resolution, Resolution::Recovered | Resolution::Escalated),
            "{phase:?}: node 0 ended {} — {:?}",
            n0.resolution,
            report.violations
        );
        assert!(report.ok(), "{phase:?}: {:?}", report.violations);
    }
}

#[test]
fn lossy_link_stays_exactly_once() {
    let report = run_scenario(&chaos("lossy-link-exactly-once"), 11);
    assert!(report.ok(), "{:?}", report.violations);
    let f = &report.flows[0];
    assert_eq!(f.corrupt, 0);
    assert_eq!(f.misordered, 0);
    assert!(f.progress > 0);
}

#[test]
fn link_flap_recovers_without_ftd_involvement() {
    let report = run_scenario(&chaos("star3-link-flap"), 3);
    assert!(report.ok(), "{:?}", report.violations);
    for n in &report.nodes {
        assert_eq!(n.resolution, Resolution::Healthy, "{n:?}");
    }
    for f in &report.flows {
        assert!(f.progress > 0, "{f:?}");
    }
}

#[test]
fn different_seeds_differ() {
    let s = chaos("double-flip-during-reload");
    let mut jsons: Vec<String> = (0..4).map(|seed| run_scenario(&s, seed).to_json()).collect();
    jsons.sort();
    jsons.dedup();
    assert!(jsons.len() >= 2, "all four seeds produced identical runs");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs in the release-mode chaos_smoke CI step")]
fn spine_death_without_reroute_breaches_blackout_despite_progress() {
    // Why the corpus's blackout bound is the gate for spine death, not
    // a per-flow progress check: with no coordinator nothing reroutes,
    // yet every cross-spine flow still reports progress from the
    // deliveries it made before the spine died. Only the blackout
    // oracle sees that those flows never came back.
    let c = load(&["fat_tree64-switch-death"]).remove(0);
    let mut s = c.chaos;
    s.coordinator = None;
    let bound_ns = s.blackout_bound.expect("the file pins flow_blackout").as_nanos();
    let report = run_scenario(&s, c.seed);
    assert!(!report.ok(), "a spine death with nothing rerouting passed the oracles");
    let breached: Vec<_> = report
        .flows
        .iter()
        .filter(|f| f.blackout_ns >= bound_ns)
        .collect();
    let pairs: Vec<(u16, u16)> = breached.iter().map(|f| (f.src, f.dst)).collect();
    assert_eq!(pairs, [(0, 8), (17, 25), (33, 41)], "{:?}", report.violations);
    for f in breached {
        assert!(f.progress > 0, "{f:?}");
    }
}
