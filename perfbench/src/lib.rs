//! The FTGM simulator benchmark, measured from outside the simulator.
//!
//! Three workloads (see [`workloads`]) run through the simulator's public
//! world constructors and run functions. An untraced run reports the end-to-end metrics;
//! a traced run adds a full trace, host-time markers, a counting
//! allocator and kernel replays, and reports per-layer metrics. Both check
//! the simulator's outputs (see [`check`]). `README.md` in this directory
//! describes the workloads, the metrics and how to run them.

pub mod alloc;
pub mod bench;
pub mod bitflip;
pub mod cell;
pub mod check;
pub mod metrics;
pub mod replay;
pub mod stats;
pub mod workloads;
