//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a metric table, then one JSON result line as the last line of
//! standard output. Exits 1 when a correctness check fails and 2 on a bad
//! command line.

use std::process::ExitCode;

use perfbench::alloc::CountingAlloc;
use perfbench::bench::{run, Options};
use perfbench::metrics::result_line;
use perfbench::workloads::Workload;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <ft8_dense|ft1024_idle_hang|bitflip_ftgm> \
[--seed N (2003)] [--seconds S (30)] [--trace 0|1 (0)]";

fn parse(args: &[String]) -> Result<Options, String> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut opts = Options {
        workload: Workload::Ft8Dense,
        seed: 2003,
        seconds: 30,
        traced: false,
        threads,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?.clamp(1, 600),
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// Pins glibc's mmap threshold at 4 MB, so every world's 8 MB NIC SRAMs
/// and 64 MB host memories are fresh, lazily zeroed mappings. Left
/// dynamic, freeing the first world raises the threshold past 8 MB, the
/// next world's SRAMs come from the heap, and `calloc` zeroes them page by
/// page: every cell after the first would pay for, and keep resident,
/// memory the first one never touched (8 GB of it at 1024 hosts).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called before
    // any other thread exists and takes no pointers.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 4 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&opts);
    let mut table = format!(
        "perfbench {} seed {} seconds {} trace {} threads {}\n",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        opts.threads
    );
    out.metrics.write_table(&mut table);
    if !out.info.0.is_empty() {
        table.push_str("context:\n");
        out.info.write_table(&mut table);
    }
    print!("{table}");
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
