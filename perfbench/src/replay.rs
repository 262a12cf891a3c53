//! Kernel replays for the two hot layers the benchmark cannot time in
//! place: `Fabric::inject` and `LanaiChip::run_routine` on the firmware's
//! `send_chunk`, plus the mapper that dominates world set-up.
//!
//! Each replay feeds its kernel inputs shaped like one workload's traffic
//! (topology, routes, flow pairs and chunk sizes) through the kernel's
//! public function and reports host nanoseconds per call, the median of
//! [`REPEATS`] timed passes. Multiplying by a call count from the run gives
//! an *estimate* of that layer's share of the run, never a measurement.

use std::time::Instant;

use ftgm_faults::chaos::ChaosTopology;
use ftgm_gm::WorldConfig;
use ftgm_lanai::cpu::RETURN_ADDR;
use ftgm_lanai::{ChipEffect, LanaiChip, Reg, RunOutcome};
use ftgm_mcp::packet::{flags, stream_word, HEADER_LEN};
use ftgm_mcp::{layout, FirmwareImage};
use ftgm_net::{Fabric, Mapper, NodeId, Topology};
use ftgm_sim::{SimDuration, SimRng, SimTime};
use ftgm_workload::{SizeMix, WorkloadSpec};

use crate::stats::median;

/// Timed passes per replay; the median is reported.
pub const REPEATS: usize = 5;
/// Calls per timed pass.
const CALLS: usize = 4_000;
/// Size of the acknowledgement frames that flow back for every chunk.
const ACK_FRAME: usize = HEADER_LEN;

/// Traffic shape of one workload, as the replays need it.
#[derive(Clone, Debug)]
pub struct TrafficShape {
    /// The fabric.
    pub topology: ChaosTopology,
    /// `(src, dst, size mix)` per flow.
    pub flows: Vec<(u16, u16, SizeMix)>,
}

impl TrafficShape {
    /// The shape of a world workload's spec.
    pub fn of_spec(spec: &WorkloadSpec) -> TrafficShape {
        TrafficShape {
            topology: spec.topology,
            flows: spec
                .flows
                .iter()
                .map(|f| (f.src, f.dst, f.sizes.clone()))
                .collect(),
        }
    }

    /// The shape of a bit-flip trial: 256 B messages from node 0 to node 1.
    pub fn bitflip() -> TrafficShape {
        TrafficShape {
            topology: ChaosTopology::TwoNode,
            flows: vec![(0, 1, SizeMix::Fixed { bytes: 256 })],
        }
    }

    /// Chunk payload sizes drawn from the flows' mixes, split at the MCP's
    /// chunk limit the way the MCP splits messages.
    fn chunks(&self, rng: &mut SimRng, n: usize) -> Vec<(u16, u16, usize)> {
        let max_chunk = WorldConfig::ftgm().mcp.max_chunk as usize;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let (src, dst, sizes) = &self.flows[out.len() % self.flows.len()];
            let mut left = sizes.sample(rng) as usize;
            while left > 0 && out.len() < n {
                let len = left.min(max_chunk);
                out.push((*src, *dst, len));
                left -= len;
            }
        }
        out
    }
}

/// The replay results for one workload (host nanoseconds and seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct Replays {
    /// `Fabric::inject` per frame, data and acknowledgement frames mixed.
    pub inject_ns: f64,
    /// `send_chunk` per call with a warm decode cache.
    pub send_chunk_ns: f64,
    /// `send_chunk` per call right after a write into its code page.
    pub send_chunk_cold_ns: f64,
    /// One `Mapper::map` over the workload's topology.
    pub mapper_s: f64,
}

/// Runs every replay for `shape`.
pub fn run_replays(shape: &TrafficShape, seed: u64) -> Replays {
    let topo = net_topology(shape.topology);
    let mapper_s = median(
        &(0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                let tables = Mapper::map(&topo);
                let s = t.elapsed().as_secs_f64();
                std::hint::black_box(tables);
                s
            })
            .collect::<Vec<_>>(),
    );
    Replays {
        inject_ns: inject_ns(shape, &topo, seed),
        send_chunk_ns: send_chunk_ns(shape, seed, false),
        send_chunk_cold_ns: send_chunk_ns(shape, seed, true),
        mapper_s,
    }
}

/// The `ftgm-net` topology a chaos topology builds.
fn net_topology(t: ChaosTopology) -> Topology {
    match t {
        ChaosTopology::FatTree {
            spines,
            leaves,
            hosts_per_leaf,
        } => Topology::fat_tree(spines, leaves, hosts_per_leaf),
        ChaosTopology::TwoNode => Topology::two_nodes_one_switch(),
        other => panic!("no replay topology for {other:?}"),
    }
}

/// Host ns per `Fabric::inject`: each chunk is a data frame along the
/// mapper's route and an acknowledgement frame back. Frames are built
/// before the clock starts; the timed loop only injects.
fn inject_ns(shape: &TrafficShape, topo: &Topology, seed: u64) -> f64 {
    let tables = Mapper::map(topo);
    let route = |src: u16, dst: u16| -> Vec<u8> {
        tables[src as usize]
            .route(NodeId(dst))
            .cloned()
            .expect("the mapper routes every pair of a connected fat tree")
    };
    let mut rng = SimRng::new(seed ^ 0x0FAB_0001);
    let mut frames: Vec<(NodeId, Vec<u8>, usize)> = Vec::with_capacity(CALLS);
    for (src, dst, len) in shape.chunks(&mut rng, CALLS / 2) {
        frames.push((NodeId(src), route(src, dst), HEADER_LEN + len));
        frames.push((NodeId(dst), route(dst, src), ACK_FRAME));
    }
    let params = WorldConfig::ftgm().fabric;
    let passes: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut fabric = Fabric::new(topo.clone(), params);
            let payloads: Vec<Vec<u8>> = frames.iter().map(|(_, _, n)| vec![0x5A; *n]).collect();
            let mut now = SimTime::ZERO;
            let t = Instant::now();
            for ((src, route, _), bytes) in frames.iter().zip(payloads) {
                let d = fabric.inject(now, *src, route, bytes);
                std::hint::black_box(d.is_ok());
                now += SimDuration::from_us(10);
            }
            t.elapsed().as_nanos() as f64 / frames.len() as f64
        })
        .collect();
    median(&passes)
}

/// Host ns per `send_chunk` call on a chip loaded with the production
/// firmware, over the shape's chunk sizes. `cold` flips one bit of the
/// routine's code page and flips it back before every call, so the code
/// is unchanged but the chip's decode cache must refill, as it must after
/// a write into executing code.
fn send_chunk_ns(shape: &TrafficShape, seed: u64, cold: bool) -> f64 {
    let fw = FirmwareImage::build();
    let mut chip = LanaiChip::new(layout::SRAM_LEN);
    chip.sram.write_bytes(layout::CODE_BASE, fw.bytes());
    let code_bit = u64::from(fw.code_range().start) * 8;
    let mut rng = SimRng::new(seed ^ 0x0C4C_0002);
    let chunks = shape.chunks(&mut rng, CALLS / 4);
    let stage = FirmwareImage::slab_addr(0);
    let rec = layout::SENDREC;
    let payload = vec![0xA5u8; WorldConfig::ftgm().mcp.max_chunk as usize];
    let passes: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut ns = 0u128;
            for (i, &(_, dst, len)) in chunks.iter().enumerate() {
                stage_record(&mut chip, stage, rec, &payload[..len], i as u32, dst);
                if cold {
                    chip.sram.flip_bit(code_bit);
                    chip.sram.flip_bit(code_bit);
                }
                chip.cpu.set_reg(Reg::LINK, RETURN_ADDR);
                let t = Instant::now();
                let out = chip.run_routine(SimTime::ZERO, fw.entry_send(), 20_000);
                ns += t.elapsed().as_nanos();
                assert!(
                    matches!(out, RunOutcome::Completed { .. }),
                    "send_chunk replay did not complete: {out:?}"
                );
                for effect in chip.take_effects() {
                    if let ChipEffect::TxFrame(f) = effect {
                        std::hint::black_box(f.bytes.len());
                    }
                }
            }
            ns as f64 / chunks.len() as f64
        })
        .collect();
    median(&passes)
}

fn stage_record(chip: &mut LanaiChip, stage: u32, rec: u32, payload: &[u8], seq: u32, dst: u16) {
    let len = payload.len() as u32;
    chip.sram.write_bytes(stage, payload);
    let stream = stream_word(NodeId(dst), 0, 2, flags::LAST_CHUNK);
    let fields = [
        (layout::sendrec::STAGE_ADDR, stage),
        (layout::sendrec::LEN, len),
        (layout::sendrec::SEQ, seq),
        (layout::sendrec::STREAM, stream),
        (layout::sendrec::MSG_LEN, len),
        (layout::sendrec::CHUNK_OFF, 0),
        (layout::sendrec::HDR_BUF, layout::PKT_BUF),
        (layout::sendrec::STATUS, 0),
    ];
    for (field, value) in fields {
        chip.sram
            .write_u32(rec + field, value)
            .expect("the send record lies inside SRAM");
    }
}
