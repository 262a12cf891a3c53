//! **Table 1** — fault-injection outcome distribution on stock GM.
//!
//! Usage: `table1 [runs] [seed]` (defaults: 1000 runs, seed 2003).
//!
//! Flips one uniformly random bit of the sender's `send_chunk` image per
//! run while validated traffic flows, classifies each outcome, and prints
//! the distribution next to the paper's two reference columns.

use ftgm_faults::{run_campaign, RunConfig};

fn main() {
    let runs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2003);
    let threads = ftgm_sim::default_threads();
    eprintln!("Table 1: {runs} injection runs on GM (seed {seed}, {threads} threads)…");
    let c = run_campaign(&RunConfig::table1(), seed, runs, threads);
    println!("\nTable 1. Results of fault injection on the simulated Myrinet system ({runs} runs)\n");
    println!("{}", c.render_table1());
}
