//! The three workloads and the inputs each one generates from the seed.
//!
//! The simulator only ever sees the [`WorkloadSpec`]s built here (for the
//! two world workloads) or the per-trial seeds of the bit-flip campaign.

use ftgm_faults::chaos::{ChaosAction, ChaosTopology};
use ftgm_sim::SimDuration;
use ftgm_workload::{Arrival, ClientModel, FlowSpec, PhaseKind, SizeMix, Variant, WorkloadSpec};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8-host fat tree, every host an open-loop sender: the per-message path.
    Ft8Dense,
    /// 1024-host fat tree, light traffic and a NIC hang: idle hosts and recovery.
    Ft1024IdleHang,
    /// The §5.2 campaign: one `send_chunk` bit flip per two-node trial.
    BitflipFtgm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Ft8Dense,
        Workload::Ft1024IdleHang,
        Workload::BitflipFtgm,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ft8Dense => "ft8_dense",
            Workload::Ft1024IdleHang => "ft1024_idle_hang",
            Workload::BitflipFtgm => "bitflip_ftgm",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The world spec of a world workload (`None` for the campaign).
    pub fn spec(self, seed: u64) -> Option<WorkloadSpec> {
        match self {
            Workload::Ft8Dense => Some(ft8_dense_spec(seed)),
            Workload::Ft1024IdleHang => Some(ft1024_idle_hang_spec(seed)),
            Workload::BitflipFtgm => None,
        }
    }
}

/// The node whose NIC the 1024-host workload hangs.
pub const HANG_NODE: u16 = 0;
/// When the hang fires, relative to the start of the fault phase.
pub const HANG_OFFSET: SimDuration = SimDuration::from_ms(10);

/// `ft8_dense`: 2 spines × 2 leaves × 4 hosts. Host `i` sends open-loop to
/// host `i + 4 mod 8`, the host in the same slot on the other leaf, with
/// uniform 30–50 µs gaps and 64/256/1024/8192 B messages weighted 4/3/2/1.
pub fn ft8_dense_spec(seed: u64) -> WorkloadSpec {
    let topology = ChaosTopology::FatTree {
        spines: 2,
        leaves: 2,
        hosts_per_leaf: 4,
    };
    let mut spec = WorkloadSpec::new("ft8_dense", topology, Variant::Ftgm, seed);
    for src in 0..8u16 {
        spec = spec.flow(FlowSpec {
            src,
            src_port: 0,
            dst: (src + 4) % 8,
            dst_port: 2,
            model: ClientModel::OpenLoop {
                arrival: Arrival::UniformJitter {
                    min: SimDuration::from_us(30),
                    max: SimDuration::from_us(50),
                },
            },
            sizes: SizeMix::Weighted {
                options: vec![(64, 4), (256, 3), (1024, 2), (8192, 1)],
            },
        });
    }
    spec.phase(PhaseKind::Warmup, SimDuration::from_ms(10))
        .phase(PhaseKind::Steady, SimDuration::from_ms(180))
        .phase(PhaseKind::Drain, SimDuration::from_ms(10))
}

/// `ft1024_idle_hang`: 16 spines × 32 leaves × 32 hosts running the scale
/// sweep's light four-flow mix (one closed-loop 256 B client, three
/// open-loop flows). Node 0's NIC hangs 10 ms into a 2.3 s fault phase.
pub fn ft1024_idle_hang_spec(seed: u64) -> WorkloadSpec {
    let topology = ChaosTopology::FatTree {
        spines: 16,
        leaves: 32,
        hosts_per_leaf: 32,
    };
    let n = topology.node_count() as u16;
    WorkloadSpec::new("ft1024_idle_hang", topology, Variant::Ftgm, seed)
        .flow(FlowSpec {
            src: 1,
            src_port: 0,
            dst: 0,
            dst_port: 2,
            model: ClientModel::ClosedLoop {
                think: SimDuration::from_us(20),
            },
            sizes: SizeMix::Fixed { bytes: 256 },
        })
        .flow(FlowSpec {
            src: n / 2,
            src_port: 0,
            dst: 0,
            dst_port: 3,
            model: ClientModel::OpenLoop {
                arrival: Arrival::Fixed {
                    gap: SimDuration::from_us(50),
                },
            },
            sizes: SizeMix::Fixed { bytes: 512 },
        })
        .flow(FlowSpec {
            src: n - 1,
            src_port: 0,
            dst: n / 2,
            dst_port: 2,
            model: ClientModel::OpenLoop {
                arrival: Arrival::UniformJitter {
                    min: SimDuration::from_us(20),
                    max: SimDuration::from_us(80),
                },
            },
            sizes: SizeMix::Weighted {
                options: vec![(128, 3), (1024, 1)],
            },
        })
        .flow(FlowSpec {
            src: 2,
            src_port: 0,
            dst: n - 1,
            dst_port: 3,
            model: ClientModel::OpenLoop {
                arrival: Arrival::Fixed {
                    gap: SimDuration::from_us(40),
                },
            },
            sizes: SizeMix::Fixed { bytes: 256 },
        })
        .phase(PhaseKind::Warmup, SimDuration::from_ms(2))
        .phase(PhaseKind::Steady, SimDuration::from_ms(20))
        .phase(PhaseKind::Fault, SimDuration::from_ms(2300))
        .fault_at(HANG_OFFSET, ChaosAction::ForceHang { node: HANG_NODE })
        .phase(PhaseKind::Drain, SimDuration::from_ms(20))
}

/// Bit-flip trials for a run of `seconds`: about two worker-seconds of
/// campaign per trial at two workers, never fewer than four. A pure
/// function of the argument, so the same command line runs the same
/// trials on any machine.
pub fn bitflip_trials(seconds: u64) -> u64 {
    (seconds * 2 / 3).max(4)
}
