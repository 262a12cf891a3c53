//! The §5.2 bit-flip campaign: trials of the unmodified
//! `RunConfig::effectiveness()` through `ftgm_faults::inject::run_one`,
//! each timed from outside, on up to two worker threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ftgm_core::FtSystem;
use ftgm_faults::classify::Outcome;
use ftgm_faults::inject::{run_one, RunConfig};
use ftgm_gm::World;

/// One trial's deterministic result and its measured host time.
#[derive(Clone, Debug)]
pub struct Trial {
    /// The trial seed (campaign seed + index).
    pub seed: u64,
    /// The flipped bit's offset within `send_chunk`.
    pub bit: u64,
    /// The classified outcome.
    pub outcome: Outcome,
    /// Completed FTD recoveries.
    pub recoveries: u64,
    /// Whether a recovery ran and traffic came back clean.
    pub recovered_clean: bool,
    /// Validated messages received over warm-up and window.
    pub msgs: u64,
    /// Chunks resent, from the trial's trace metrics (the campaign runs
    /// with milestones on).
    pub resent: u64,
    /// Host seconds `run_one` took.
    pub host_s: f64,
}

impl Trial {
    /// Whether the interface hung (the §5.2 denominator).
    pub fn hung(&self) -> bool {
        matches!(
            self.outcome,
            Outcome::LocalInterfaceHung | Outcome::RemoteInterfaceHung
        )
    }

    /// A hang that did not end in a clean recovery: the campaign's failure.
    pub fn failed(&self) -> bool {
        self.hung() && !self.recovered_clean
    }

    /// The deterministic part, as one line (digests and goldens use it).
    pub fn fingerprint(&self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.seed,
            self.bit,
            outcome_name(self.outcome),
            self.recoveries,
            self.recovered_clean,
            self.msgs
        )
    }
}

/// A metric-name-safe label for an outcome class.
pub fn outcome_name(o: Outcome) -> &'static str {
    match o {
        Outcome::LocalInterfaceHung => "local_interface_hung",
        Outcome::MessagesCorrupted => "messages_corrupted",
        Outcome::RemoteInterfaceHung => "remote_interface_hung",
        Outcome::McpRestart => "mcp_restart",
        Outcome::HostComputerCrash => "host_computer_crash",
        Outcome::OtherErrors => "other_errors",
        Outcome::NoImpact => "no_impact",
    }
}

/// Runs `trials` trials from `seed` on `threads` workers. Results are in
/// trial order and independent of `threads`; returns them with the
/// campaign's elapsed host seconds.
pub fn run_campaign(seed: u64, trials: u64, threads: usize) -> (Vec<Trial>, f64) {
    let config = RunConfig::effectiveness();
    let cursor = AtomicU64::new(0);
    let slots: Mutex<Vec<Option<Trial>>> = Mutex::new(vec![None; trials as usize]);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, trials.max(1) as usize) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::SeqCst);
                if i >= trials {
                    break;
                }
                let trial = run_trial(&config, seed.wrapping_add(i));
                slots
                    .lock()
                    .expect("no worker panics while holding the slots")[i as usize] = Some(trial);
            });
        }
    });
    let elapsed = t.elapsed().as_secs_f64();
    let trials = slots
        .into_inner()
        .expect("no worker panics while holding the slots")
        .into_iter()
        .map(|t| t.expect("every trial index below the count ran"))
        .collect();
    (trials, elapsed)
}

fn run_trial(config: &RunConfig, seed: u64) -> Trial {
    let t = Instant::now();
    let r = run_one(config, seed);
    let host_s = t.elapsed().as_secs_f64();
    // `expected_progress` is the warm-up count scaled by window / warm-up.
    let scale = (config.window.as_nanos() / config.warmup.as_nanos().max(1)).max(1);
    let warmup_msgs = r.observables.expected_progress / scale;
    Trial {
        seed,
        bit: r.bit,
        outcome: r.outcome,
        recoveries: r.recoveries,
        recovered_clean: r.recovered_clean,
        msgs: warmup_msgs + r.observables.progress_after,
        resent: r.metrics.resent_chunks(),
        host_s,
    }
}

/// Host seconds of one campaign set-up: the two-node FTGM world build and
/// FTD install every trial performs inside `run_one`.
pub fn setup_once() -> f64 {
    let config = RunConfig::effectiveness();
    let t = Instant::now();
    let mut world = World::two_node(config.world);
    let _ft = FtSystem::install(&mut world);
    let s = t.elapsed().as_secs_f64();
    drop(world);
    s
}
