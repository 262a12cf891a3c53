//! Pinned behaviour of the LN32 interpreter on the `send_chunk` firmware.
//!
//! The paper's fault campaign (§5.2) flips bits in the interpreted
//! `send_chunk` routine, so its results are exactly what [`Cpu::run`]
//! does with healthy and corrupted code. The tests here pin that:
//!
//! * every `send_chunk` path (send and resend, inline vs gather, the 4 KB
//!   maximum, both parameter-error exits, with and without the completion
//!   DMA), cold on fresh chips and in sequence on one long-lived chip, is
//!   folded into an FNV-1a digest of every observation (outcome, cycles,
//!   registers, ISR, hang state, chip effects including frame bytes) plus
//!   the whole SRAM image;
//! * a fixed table of code-bit flips, covering every outcome class the
//!   campaign sees (clean completion, parameter error, illegal
//!   instruction, memory fault, wild jump, runaway loop, wedged engine,
//!   duplicate frame), is pinned to its exact outcome and hang cause;
//! * random send records and random code flips never panic, and the
//!   outcome always agrees with the chip's hang state.
//!
//! The digests and the flip table were captured while a second,
//! decoded-op interpreter still existed and agreed with this one on all
//! of them. Campaign-level bit-flip outcomes are pinned separately by the
//! `scenarios/golden/*flip*.json` goldens.
//!
//! [`Cpu::run`]: ftgm_lanai::Cpu::run

use ftgm_lanai::chip::{ChipEffect, HangCause, LanaiChip};
use ftgm_lanai::cpu::{RunOutcome, TrapKind, RETURN_ADDR};
use ftgm_lanai::isa::Reg;
use ftgm_mcp::layout::{self, sendrec};
use ftgm_mcp::FirmwareImage;
use ftgm_sim::SimTime;
use proptest::prelude::*;

/// Everything externally observable about one `run_routine` call.
#[derive(Debug)]
struct Observed {
    outcome: RunOutcome,
    regs: [u32; 16],
    isr: u32,
    hang: Option<HangCause>,
    effects: Vec<ChipEffect>,
}

/// Runs one routine and captures the observable machine state.
fn observe(chip: &mut LanaiChip, entry: u32, budget: u64) -> Observed {
    let outcome = chip.run_routine(SimTime::ZERO, entry, budget);
    Observed {
        outcome,
        regs: std::array::from_fn(|i| chip.cpu.reg(Reg::new(i as u8))),
        isr: chip.isr(),
        hang: chip.hang_cause(),
        effects: chip.take_effects(),
    }
}

/// FNV-1a, over bytes for observations and over little-endian 64-bit
/// words for the (8 MB) SRAM image.
struct Fnv(u64);

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    fn words(&mut self, bytes: &[u8]) {
        for w in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..w.len()].copy_from_slice(w);
            self.0 = (self.0 ^ u64::from_le_bytes(word)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds one send: its observation, status word and the chip's SRAM.
    fn fold(&mut self, chip: &LanaiChip, obs: &Observed, status: u32) {
        let head = (obs.outcome, obs.regs, obs.isr, obs.hang, status);
        self.bytes(format!("{head:?}").as_bytes());
        for e in &obs.effects {
            self.bytes(format!("{e:?}").as_bytes());
            if let ChipEffect::TxFrame(f) = e {
                self.bytes(&f.bytes);
            }
        }
        self.words(chip.sram.read_bytes(0, chip.sram.len()));
    }
}

/// The outcome and the chip's hang state tell the same story.
fn assert_outcome_matches_hang(outcome: RunOutcome, hang: Option<HangCause>) {
    match outcome {
        // A routine can complete after wedging a DMA/packet engine.
        RunOutcome::Completed { .. } => {
            assert!(
                matches!(hang, None | Some(HangCause::EngineWedged)),
                "{outcome:?} but {hang:?}"
            )
        }
        RunOutcome::Trap { .. } => assert_eq!(hang, Some(HangCause::Trap), "{outcome:?}"),
        RunOutcome::OutOfGas { .. } => {
            assert_eq!(hang, Some(HangCause::RunawayLoop), "{outcome:?}")
        }
    }
}

/// A fully-described `send_chunk` invocation.
#[derive(Clone, Debug)]
struct SendCase {
    resend: bool,
    payload: Vec<u8>,
    seq: u32,
    stream: u32,
    msg_len: u32,
    chunk_off: u32,
    /// Non-zero arms the completion-record host DMA.
    status_host: u32,
}

fn fw_chip(fw: &FirmwareImage) -> LanaiChip {
    let mut chip = LanaiChip::new(layout::SRAM_LEN);
    chip.sram.write_bytes(layout::CODE_BASE, fw.bytes());
    chip
}

/// Stages one send and runs it, returning the observation plus the
/// completion status word.
fn run_send(chip: &mut LanaiChip, fw: &FirmwareImage, case: &SendCase) -> (Observed, u32) {
    let stage = FirmwareImage::slab_addr(0);
    chip.sram.write_bytes(stage, &case.payload);
    let r = layout::SENDREC;
    chip.sram.write_u32(r + sendrec::STAGE_ADDR, stage).unwrap();
    chip.sram
        .write_u32(r + sendrec::LEN, case.payload.len() as u32)
        .unwrap();
    chip.sram.write_u32(r + sendrec::SEQ, case.seq).unwrap();
    chip.sram
        .write_u32(r + sendrec::STREAM, case.stream)
        .unwrap();
    chip.sram
        .write_u32(r + sendrec::MSG_LEN, case.msg_len)
        .unwrap();
    chip.sram
        .write_u32(r + sendrec::CHUNK_OFF, case.chunk_off)
        .unwrap();
    chip.sram
        .write_u32(r + sendrec::HDR_BUF, layout::PKT_BUF)
        .unwrap();
    chip.sram.write_u32(r + sendrec::STATUS, 0).unwrap();
    chip.sram
        .write_u32(r + sendrec::STATUS_HOST, case.status_host)
        .unwrap();
    chip.cpu.set_reg(Reg::LINK, RETURN_ADDR);
    let entry = if case.resend {
        fw.entry_resend()
    } else {
        fw.entry_send()
    };
    let obs = observe(chip, entry, 20_000);
    let status = chip.sram.read_u32(r + sendrec::STATUS).unwrap();
    (obs, status)
}

fn frames(obs: &Observed) -> usize {
    obs.effects
        .iter()
        .filter(|e| matches!(e, ChipEffect::TxFrame(_)))
        .count()
}

// ---- every send_chunk path ---------------------------------------------

/// The path matrix: send and resend entries × inline (≤ 64 B), the
/// inline/gather boundary, the gather/DMA path, the 4 KB maximum, and
/// both parameter-error exits — with and without the completion DMA.
fn path_matrix() -> Vec<SendCase> {
    let mut cases = Vec::new();
    for resend in [false, true] {
        for (i, len) in [1usize, 48, 64, 65, 300, 4096, 0, 4097].iter().enumerate() {
            for status_host in [0u32, 0x4000] {
                let payload: Vec<u8> = (0..*len).map(|b| (b as u8) ^ (i as u8)).collect();
                cases.push(SendCase {
                    resend,
                    payload,
                    seq: i as u32 + 3,
                    stream: 0x0123_4000 + i as u32,
                    msg_len: 8192,
                    chunk_off: (i as u32) * 4096,
                    status_host,
                });
            }
        }
    }
    cases
}

/// Digest of the whole matrix, each case on a fresh chip.
const COLD_MATRIX_DIGEST: u64 = 0xfabd_e83d_7add_5c8f;
/// Digest of the whole matrix run in order on one chip.
const LONG_LIVED_MATRIX_DIGEST: u64 = 0x7e6e_6dab_8690_736b;

/// Every `send_chunk` path on a fresh chip: the right status and frame
/// count, and bit-for-bit the pinned observations and SRAM images.
#[test]
fn send_chunk_paths_match_pinned_digests() {
    let fw = FirmwareImage::build();
    let mut digest = Fnv::new();
    for case in path_matrix() {
        let mut chip = fw_chip(&fw);
        let (obs, status) = run_send(&mut chip, &fw, &case);
        // Successful sends must actually emit a frame; the error paths
        // must not.
        let len = case.payload.len();
        if len == 0 || len > 4096 {
            assert_eq!(status, 0xFFFF_FFFF, "error path must report -1");
            assert_eq!(frames(&obs), 0);
        } else {
            assert_eq!(status, 1, "ok path must report success");
            assert_eq!(frames(&obs), 1, "exactly one frame per send");
        }
        digest.fold(&chip, &obs, status);
    }
    assert_eq!(
        digest.0, COLD_MATRIX_DIGEST,
        "cold send_chunk digest changed: {:#018x}",
        digest.0
    );
}

/// The same matrix in sequence on one long-lived chip: state left by case
/// N (staging buffers, registers, the completion DMA) carries into N+1.
#[test]
fn send_chunk_paths_on_one_long_lived_chip_match_pinned_digest() {
    let fw = FirmwareImage::build();
    let mut digest = Fnv::new();
    let mut chip = fw_chip(&fw);
    for case in path_matrix() {
        // Error paths leave the chip healthy, so the sequence continues;
        // completion DMAs must be drained like the world would.
        let (obs, status) = run_send(&mut chip, &fw, &case);
        digest.fold(&chip, &obs, status);
        if chip.hdma_busy() {
            chip.host_dma_complete();
        }
        assert!(!chip.is_hung(), "matrix case unexpectedly hung: {case:?}");
    }
    assert_eq!(
        digest.0, LONG_LIVED_MATRIX_DIGEST,
        "long-lived send_chunk digest changed: {:#018x}",
        digest.0
    );
}

// ---- bit flips in send_chunk code --------------------------------------

/// A healthy 80 B send run before the flip.
fn warm_case() -> SendCase {
    SendCase {
        resend: false,
        payload: vec![0x5A; 80],
        seq: 1,
        stream: 0x0100_0000,
        msg_len: 80,
        chunk_off: 0,
        status_host: 0,
    }
}

/// Warms a fresh chip with a healthy send, flips bit `bit` of the
/// `send_chunk` code and sends `len` bytes.
fn send_after_flip(fw: &FirmwareImage, bit: u64, len: usize) -> (LanaiChip, Observed, u32) {
    let warm = warm_case();
    let hot = SendCase {
        payload: (0..len).map(|b| b as u8).collect(),
        seq: 2,
        ..warm.clone()
    };
    let mut chip = fw_chip(fw);
    let (obs, _) = run_send(&mut chip, fw, &warm);
    assert!(
        obs.outcome.is_completed() && !chip.is_hung(),
        "warm pass failed: {obs:?}"
    );
    chip.sram
        .flip_bit(u64::from(fw.code_range().start) * 8 + bit);
    let (obs, status) = run_send(&mut chip, fw, &hot);
    (chip, obs, status)
}

/// One pinned flip: code bit, hot-send length, then what happened.
struct Flip {
    bit: u64,
    len: usize,
    outcome: RunOutcome,
    hang: Option<HangCause>,
    status: u32,
    frames: usize,
}

const fn done(cycles: u64, steps: u64) -> RunOutcome {
    RunOutcome::Completed { cycles, steps }
}

const fn trap(kind: TrapKind, pc: u32, cycles: u64) -> RunOutcome {
    RunOutcome::Trap { kind, pc, cycles }
}

const fn mem(addr: u32, misaligned: bool) -> TrapKind {
    TrapKind::MemFault { addr, misaligned }
}

#[rustfmt::skip]
fn pinned_flips() -> Vec<Flip> {
    use HangCause::{EngineWedged, RunawayLoop, Trap};
    use TrapKind::{IllegalInstruction as Illegal, PcOutOfRange};
    let f = |bit, len, outcome, hang, status, frames| Flip { bit, len, outcome, hang, status, frames };
    vec![
        f(5, 36, done(440, 293), None, 0x1, 1),
        f(225, 81, done(13, 8), None, 0x0, 0),
        f(234, 144, trap(mem(8_421_376, false), 4132, 2), Some(Trap), 0x0, 0),
        f(250, 256, trap(Illegal, 4124, 0), Some(Trap), 0x0, 0),
        f(256, 298, trap(mem(32_769, true), 4132, 2), Some(Trap), 0x0, 0),
        f(322, 162, done(16, 11), None, 0xFFFF_FFFF, 0),
        f(536, 165, done(119, 78), Some(EngineWedged), 0x1, 0),
        f(942, 17, done(269, 179), Some(EngineWedged), 0x1, 1),
        f(1049, 168, trap(Illegal, 0, 119), Some(Trap), 0x1, 1),
        f(1101, 233, RunOutcome::OutOfGas { pc: 4244, cycles: 28_006 }, Some(RunawayLoop), 0x0, 0),
        f(1176, 160, trap(PcOutOfRange, 3_029_099_568, 119), Some(Trap), 0x1, 1),
        f(1259, 143, trap(PcOutOfRange, 4_294_963_340, 52), Some(Trap), 0x0, 0),
        f(1378, 79, done(119, 78), None, 0x1, 2),
        f(1536, 288, done(119, 78), None, 0x1, 0),
        f(1571, 234, done(1977, 1316), None, 0x1, 2),
        f(1997, 226, done(119, 78), None, 0xFFFF_E001, 1),
        f(2016, 60, trap(mem(32_801, true), 4348, 648), Some(Trap), 0x0, 1),
        f(2080, 209, done(122, 80), None, 0xFFFF_FFFF, 1),
    ]
}

/// Each pinned flip produces exactly its recorded outcome, hang cause,
/// status word and frame count.
#[test]
fn send_chunk_bit_flips_match_pinned_outcomes() {
    let fw = FirmwareImage::build();
    for p in pinned_flips() {
        let (chip, obs, status) = send_after_flip(&fw, p.bit, p.len);
        let what = format!("flip of code bit {} before a {} B send", p.bit, p.len);
        assert_eq!(obs.outcome, p.outcome, "{what}: outcome");
        assert_eq!(chip.hang_cause(), p.hang, "{what}: hang cause");
        assert_eq!(status, p.status, "{what}: status word");
        assert_eq!(frames(&obs), p.frames, "{what}: frames");
        assert_outcome_matches_hang(obs.outcome, chip.hang_cause());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized send records — arbitrary payload bytes and lengths
    /// spanning the inline/gather boundary, random header fields, both
    /// entries — never panic, and the outcome agrees with the hang state.
    #[test]
    fn send_chunk_random_records_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 0..700),
        resend in any::<bool>(),
        seq in any::<u32>(),
        stream in any::<u32>(),
        msg_len in any::<u32>(),
        chunk_off in any::<u32>(),
        report in any::<bool>(),
    ) {
        let fw = FirmwareImage::build();
        let case = SendCase {
            resend,
            payload,
            seq,
            stream,
            msg_len,
            chunk_off,
            status_host: if report { 0x4000 } else { 0 },
        };
        let mut chip = fw_chip(&fw);
        let (obs, _) = run_send(&mut chip, &fw, &case);
        assert_outcome_matches_hang(obs.outcome, chip.hang_cause());
    }

    /// A flip anywhere in the `send_chunk` code, after a healthy warm-up
    /// send, never panics the interpreter and always ends in an outcome
    /// that agrees with the chip's hang state.
    #[test]
    fn send_chunk_random_flips_never_panic(
        bit in any::<u64>(),
        len in 1usize..300,
    ) {
        let fw = FirmwareImage::build();
        let code_bits = u64::from(fw.code_range().end - fw.code_range().start) * 8;
        let (chip, obs, _) = send_after_flip(&fw, bit % code_bits, len);
        assert_outcome_matches_hang(obs.outcome, chip.hang_cause());
    }
}
