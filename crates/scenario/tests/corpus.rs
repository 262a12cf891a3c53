//! Corpus gates.
//!
//! Debug tier: every `scenarios/*.ftsc` loads (parses, compiles, and
//! names itself after its file stem) and prints round-trip — so a
//! grammar change that orphans the corpus fails `cargo test`
//! immediately. The release-gated replay below repeats, in-process, the
//! gate CI runs through the `scenariox` bin: expect verdicts, oracle
//! cleanliness, and byte-stable goldens. Thread-count invariance of
//! the corpus run is pinned by `tests/determinism.rs`.

use std::fs;
use std::path::PathBuf;

use ftgm_scenario::{
    load_corpus, parse, print, render_diags, run_compiled, run_text, CompiledScenario, Spec,
};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn corpus() -> Vec<(Spec, CompiledScenario)> {
    load_corpus(&corpus_dir()).unwrap_or_else(|errors| panic!("{}", errors.join("\n")))
}

#[test]
fn corpus_has_at_least_25_scenarios() {
    let n = corpus().len();
    assert!(n >= 25, "corpus shrank below the 25-file floor ({n})");
}

#[test]
fn every_corpus_file_parses_compiles_and_round_trips() {
    for (spec, _) in corpus() {
        // Canonical spelling must survive a reparse.
        let canon = print(&spec);
        let reparsed = parse(&canon).unwrap_or_else(|d| {
            panic!("{}: canonical form rejected:\n{}", spec.name, render_diags(&d))
        });
        assert_eq!(reparsed, spec, "{}: print/parse round trip drifted", spec.name);
    }
}

/// A scenario whose `expect` disagrees with the run's verdict must fail
/// with a typed mismatch naming both sides — never pass silently.
#[test]
fn expect_disagreement_is_a_typed_mismatch() {
    // A do-nothing noise fault: the run survives, the file claims
    // escalation. Small phases keep this cheap enough for debug.
    let src = "scenario \"wrong-expect\" {\n\
               \x20 topology two_node\n\
               \x20 flow 0 -> 1 validated size 256 pipeline 2\n\
               \x20 phases { warmup 5ms fault 50ms }\n\
               \x20 fault in fault at 0ms noise drop 0 corrupt 0 for 1ms\n\
               \x20 expect escalated\n\
               }\n";
    let outcome = run_text(src).expect("scenario must parse");
    let err = outcome.check().expect_err("verdicts disagree");
    assert_eq!(err.scenario, "wrong-expect");
    assert_eq!(err.expected.label(), "escalated");
    assert_eq!(err.actual.label(), "survived");
    let msg = err.to_string();
    assert!(msg.contains("escalated") && msg.contains("survived"), "{msg}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-gated: full corpus replay is release-only")]
fn release_corpus_replays_green_and_matches_goldens() {
    let golden_dir = corpus_dir().join("golden");
    let mut failures = Vec::new();
    for (_, c) in &corpus() {
        let outcome = run_compiled(c);
        for v in outcome.violations() {
            failures.push(format!("{}: violation: {v}", outcome.name));
        }
        if let Err(m) = outcome.check() {
            failures.push(m.to_string());
        }
        let golden_path = golden_dir.join(format!("{}.json", outcome.name));
        match fs::read_to_string(&golden_path) {
            Ok(expected) if expected == outcome.to_json() => {}
            Ok(_) => failures.push(format!(
                "{}: golden drifted (scenariox --update after verifying)",
                golden_path.display()
            )),
            Err(_) => failures.push(format!("{}: golden missing", golden_path.display())),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
