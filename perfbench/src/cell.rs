//! One world cell: build a fat tree with `ChaosTopology::build`, install
//! the FTD, drive the workload spec through `run_spec_on`, and read the
//! world's counters through public accessors.
//!
//! A traced cell adds three things from outside the simulator: a full
//! trace, `schedule_call` markers that stamp host time at every phase
//! boundary and at the hang, and a wrapper around the FTD phase hook that
//! stamps host time after each recovery phase. The markers are the only
//! extra events; everything else the simulator computes must come out
//! byte-identical (see [`CellRun::same_outputs`]).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use ftgm_core::FtSystem;
use ftgm_gm::{World, WorldConfig};
use ftgm_host::accounting::CpuCost;
use ftgm_net::NodeId;
use ftgm_sim::{SimDuration, SimTime, Trace};
use ftgm_workload::{run_spec_on, PhaseKind, SloReport, WorkloadSpec};

use crate::alloc::{self, AllocCounts, Phase};
use crate::workloads::{HANG_NODE, HANG_OFFSET};

/// Counters the simulator computes; identical between a traced and an
/// untraced cell except `events`, which grows by the marker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorldCounters {
    /// Scheduler events delivered.
    pub events: u64,
    /// `L_timer()` runs, summed over NICs.
    pub ltimer_runs: u64,
    /// Data chunks transmitted, retransmissions included.
    pub data_tx: u64,
    /// Retransmitted chunks.
    pub retransmits: u64,
    /// Simulated LANai busy time, summed over NICs.
    pub lanai_busy_ns: u64,
    /// Messages the NICs delivered into host buffers.
    pub messages_delivered: u64,
    /// Sends the NICs completed.
    pub sends_completed: u64,
    /// Frames the fabric accepted.
    pub fabric_injected: u64,
    /// Frames the fabric dropped.
    pub fabric_dropped: u64,
    /// Frames delivered with a bad link CRC.
    pub corrupt_deliveries: u64,
    /// PCI transfers, summed over hosts.
    pub pci_transfers: u64,
    /// PCI bytes, summed over hosts.
    pub pci_bytes: u64,
    /// Simulated host time spent on FTGM token backups (send + receive).
    pub backup_ns: u64,
    /// GM events handed to applications.
    pub app_events: u64,
    /// Completed FTD recoveries.
    pub recoveries: u64,
    /// FTD probes that found the NIC alive.
    pub false_alarms: u64,
    /// Simulated time from the hang to the FTD's detection, if one ran.
    pub detect_ns: Option<u64>,
}

/// Host-time stamps taken by a traced cell.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Host seconds spent in each workload phase, by phase name.
    pub phase_s: Vec<(&'static str, f64)>,
    /// Host seconds from the hang to the end of the fault phase.
    pub fault_s: f64,
    /// Host seconds per FTD phase of the first recovery, in FTD order. The
    /// first phase's span starts at the hang, so it includes detection and
    /// the probe.
    pub ftd_phase_s: Vec<f64>,
    /// Allocations counted during set-up and run.
    pub alloc: AllocCounts,
    /// Markers scheduled (the only extra simulator events).
    pub markers: u64,
}

/// Everything one cell produced.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Host seconds for `ChaosTopology::build` alone.
    pub build_s: f64,
    /// Host seconds for the build plus `FtSystem::install`.
    pub setup_s: f64,
    /// Host seconds for `run_spec_on`.
    pub run_s: f64,

    /// The workload's SLO report.
    pub report: SloReport,
    /// The simulator's counters after the run.
    pub counters: WorldCounters,
    /// Host-time stamps (traced cells only).
    pub spans: Option<Spans>,
}

impl CellRun {
    /// Whether `self` (traced) reproduced `base` (untraced): identical SLO
    /// report JSON and counters, with `events` larger by the marker count.
    pub fn same_outputs(&self, base: &CellRun) -> Result<(), String> {
        if self.report.to_json() != base.report.to_json() {
            return Err("SloReport JSON differs".to_string());
        }
        let markers = self.spans.as_ref().map_or(0, |s| s.markers);
        let mut expect = base.counters;
        expect.events += markers;
        if self.counters != expect {
            return Err(format!(
                "counters differ: {:?} vs {:?} (+{markers} marker events)",
                self.counters, base.counters
            ));
        }
        Ok(())
    }

    /// Messages completed, from the SLO report.
    pub fn completed(&self) -> u64 {
        self.report.total_completed
    }
}

/// Host `Instant`s of the hang marker, the phase markers and the FTD phase
/// hook, shared with the closures that record them.
#[derive(Default)]
struct Stamps {
    phases: Vec<Instant>,
    hang: Option<Instant>,
    ftd: Vec<(usize, Instant)>,
}

/// Builds a world for `spec` and runs it. `traced` turns on the full
/// trace, the markers, the hook timing and the allocation counters.
pub fn run_cell(spec: &WorkloadSpec, traced: bool) -> CellRun {
    let hang_at = hang_time(spec);
    if traced {
        alloc::set_phase(Phase::Setup);
    }
    let t = Instant::now();
    let mut world = spec.topology.build(WorldConfig::ftgm());
    let build_s = t.elapsed().as_secs_f64();
    let ft = FtSystem::install(&mut world);
    let setup_s = t.elapsed().as_secs_f64();

    let stamps = Rc::new(RefCell::new(Stamps::default()));
    let detected: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    wrap_ftd_phase_hook(&mut world, &ft, &stamps, &detected, traced);
    let markers = if traced {
        world.trace = Trace::full();
        schedule_markers(&mut world, spec, hang_at, &stamps)
    } else {
        0
    };

    if traced {
        alloc::set_phase(Phase::Run);
    }
    let t0 = world.now();
    let t = Instant::now();
    let report = run_spec_on(spec, &mut world, Some(&ft));
    let run_s = t.elapsed().as_secs_f64();
    let alloc = if traced {
        alloc::take()
    } else {
        AllocCounts::default()
    };

    let detect_ns = match (*detected.borrow(), hang_at) {
        (Some(at), Some(hang)) => Some(at.saturating_since(t0 + hang).as_nanos()),
        _ => None,
    };
    let counters = read_counters(&world, &ft, detect_ns);
    let spans = traced.then(|| spans_from(&stamps.borrow(), spec, alloc, markers));
    CellRun {
        build_s,
        setup_s,
        run_s,
        report,
        counters,
        spans,
    }
}

/// Builds and installs the world `spec` runs on, returning the host seconds
/// it took (a set-up sample without a run).
pub fn setup_only(spec: &WorkloadSpec) -> f64 {
    let t = Instant::now();
    let mut world = spec.topology.build(WorldConfig::ftgm());
    let _ft = FtSystem::install(&mut world);
    let s = t.elapsed().as_secs_f64();
    drop(world);
    s
}

/// Offset of the spec's scripted hang from the run start, if it has one.
fn hang_time(spec: &WorkloadSpec) -> Option<SimDuration> {
    let fault = spec
        .phases
        .iter()
        .position(|p| p.kind == PhaseKind::Fault)?;
    (!spec.faults.is_empty()).then(|| spec.phase_start(fault) + HANG_OFFSET)
}

/// Wraps `hooks.ftd_phase` (keeping any hook already there) so each
/// recovery phase on the hang node records the FTD's detection time and,
/// when traced, a host stamp. Reads only; schedules nothing.
fn wrap_ftd_phase_hook(
    world: &mut World,
    ft: &FtSystem,
    stamps: &Rc<RefCell<Stamps>>,
    detected: &Rc<RefCell<Option<SimTime>>>,
    traced: bool,
) {
    let inner = world.hooks.ftd_phase.clone();
    let ft = ft.clone();
    let stamps = stamps.clone();
    let detected = detected.clone();
    world.hooks.ftd_phase = Some(Rc::new(move |w: &mut World, node: NodeId, phase: usize| {
        if node == NodeId(HANG_NODE) {
            let mut d = detected.borrow_mut();
            if d.is_none() {
                *d = ft.detected_at(node);
            }
            if traced {
                stamps.borrow_mut().ftd.push((phase, Instant::now()));
            }
        }
        if let Some(hook) = &inner {
            hook(w, node, phase);
        }
    }));
}

/// Schedules the host-time markers: one at the run start, one at every
/// phase boundary, one at the end of the last phase, and one at the hang.
/// Returns how many it scheduled.
fn schedule_markers(
    world: &mut World,
    spec: &WorkloadSpec,
    hang_at: Option<SimDuration>,
    stamps: &Rc<RefCell<Stamps>>,
) -> u64 {
    let mut at: Vec<SimDuration> = (0..spec.phases.len())
        .map(|i| spec.phase_start(i))
        .collect();
    at.push(spec.total_duration());
    let mut markers = 0;
    for delay in at {
        let s = stamps.clone();
        world.schedule_call(delay, move |_| s.borrow_mut().phases.push(Instant::now()));
        markers += 1;
    }
    if let Some(delay) = hang_at {
        let s = stamps.clone();
        world.schedule_call(delay, move |_| s.borrow_mut().hang = Some(Instant::now()));
        markers += 1;
    }
    markers
}

fn spans_from(stamps: &Stamps, spec: &WorkloadSpec, alloc: AllocCounts, markers: u64) -> Spans {
    let secs = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64();
    let phase_s = spec
        .phases
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let s = match (stamps.phases.get(i), stamps.phases.get(i + 1)) {
                (Some(&a), Some(&b)) => secs(a, b),
                _ => 0.0,
            };
            (p.kind.name(), s)
        })
        .collect();
    let fault = spec.phases.iter().position(|p| p.kind == PhaseKind::Fault);
    let fault_end = fault.and_then(|i| stamps.phases.get(i + 1).copied());
    let fault_s = match (stamps.hang, fault_end) {
        (Some(a), Some(b)) => secs(a, b),
        _ => 0.0,
    };
    // The first recovery's phases: stamps up to the first repeat of phase 0.
    let mut ftd_phase_s = Vec::new();
    let mut prev = stamps.hang;
    for (i, &(phase, at)) in stamps.ftd.iter().enumerate() {
        if phase == 0 && i > 0 {
            break;
        }
        if let Some(p) = prev {
            ftd_phase_s.push(secs(p, at));
        }
        prev = Some(at);
    }
    Spans {
        phase_s,
        fault_s,
        ftd_phase_s,
        alloc,
        markers,
    }
}

fn read_counters(world: &World, ft: &FtSystem, detect_ns: Option<u64>) -> WorldCounters {
    let mut c = WorldCounters {
        events: world.events_delivered(),
        detect_ns,
        ..WorldCounters::default()
    };
    for (i, node) in world.nodes.iter().enumerate() {
        let s = node.mcp.stats();
        c.ltimer_runs += s.ltimer_runs;
        c.data_tx += s.data_tx;
        c.retransmits += s.retransmits;
        c.messages_delivered += s.messages_delivered;
        c.sends_completed += s.sends_completed;
        c.lanai_busy_ns += node.mcp.lanai_busy().as_nanos();
        let (transfers, bytes) = node.host.pci.totals();
        c.pci_transfers += transfers;
        c.pci_bytes += bytes;
        c.backup_ns += node.host.cpu.total_for(CpuCost::SendTokenBackup).as_nanos()
            + node.host.cpu.total_for(CpuCost::RecvTokenBackup).as_nanos();
        c.recoveries += ft.recoveries(NodeId(i as u16));
        c.false_alarms += ft.false_alarms(NodeId(i as u16));
    }
    let fabric = world.fabric.stats();
    c.fabric_injected = fabric.injected;
    c.fabric_dropped = fabric.dropped;
    let stats = world.stats();
    c.corrupt_deliveries = stats.corrupt_deliveries;
    c.app_events = stats.app_events;
    c
}
