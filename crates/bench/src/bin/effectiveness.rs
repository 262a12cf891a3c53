//! **§5.2** — recovery effectiveness: the Table 1 campaign repeated under
//! FTGM with the watchdog + FTD installed.
//!
//! Usage: `effectiveness [runs] [seed]` (defaults: 400 runs, seed 2003 —
//! the paper used 1000; pass it explicitly if you have the minutes).
//!
//! The paper: all 286 hangs were detected; 281/286 recovered correctly.

use ftgm_faults::{run_campaign, RunConfig};

fn main() {
    let runs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2003);
    let threads = ftgm_sim::default_threads();
    eprintln!("§5.2: {runs} injection runs on FTGM with recovery (seed {seed})…");
    let c = run_campaign(&RunConfig::effectiveness(), seed, runs, threads);
    println!("\nRecovery effectiveness under FTGM ({runs} runs)\n");
    println!("{}", c.render_table1());
    let hangs = c.hangs();
    let detected = c.hangs_detected();
    let recovered = c.hangs_recovered();
    println!("interface hangs          : {hangs}");
    println!("  detected by watchdog   : {detected}");
    println!("  recovered transparently: {recovered}");
    println!("\npaper: 286 hangs, all detected, 281 recovered (5 under investigation)");
}
