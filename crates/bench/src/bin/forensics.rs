//! **Forensics** — why Table 1's distribution looks the way it does.
//!
//! Usage: `forensics [runs] [seed]` (default 300).
//!
//! Re-runs the Table 1 campaign and correlates each flipped bit with the
//! encoding field and instruction it landed in: opcode flips trap (hangs),
//! register/immediate flips corrupt the data path, dead paths absorb
//! everything silently.

use ftgm_faults::{analyze, run_campaign, RunConfig};
use ftgm_mcp::FirmwareImage;

fn main() {
    let runs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2003);
    let threads = ftgm_sim::default_threads();
    eprintln!("forensics: {runs} runs (seed {seed})…");
    let campaign = run_campaign(&RunConfig::table1(), seed, runs, threads);
    let image = FirmwareImage::build().bytes().to_vec();
    let (matrix, table) = analyze(&campaign, &image);

    println!("\nOutcome by encoding field ({} runs):\n", campaign.total());
    println!("{}", matrix.render());

    println!("Most fault-sensitive instructions:");
    println!("{:>5} {:<28} {:>6} {:>10}", "word", "instruction", "runs", "impactful");
    for t in table.iter().take(15) {
        println!(
            "{:>5} {:<28} {:>6} {:>10}",
            t.word_index, t.instr, t.runs, t.impactful
        );
    }
    let dead: Vec<&ftgm_faults::InstrSensitivity> =
        table.iter().filter(|t| t.impactful == 0 && t.runs >= 3).collect();
    println!(
        "\n{} instruction words absorbed every flip silently (dead paths / unused fields)",
        dead.len()
    );
}
