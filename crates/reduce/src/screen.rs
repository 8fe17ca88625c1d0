//! Cheap functional screening of candidate moves.
//!
//! Before a candidate earns the expensive glitch-power confirm (a full
//! scoring pass over every seed, with hazard classification), it must
//! survive a *functional* co-simulation against the current netlist: same
//! stimulus in, identical settled output values out, through the
//! rewrite's mapping and latency. A rewrite with a structural bug dies
//! here for the price of a few dozen functional cycles instead of a full
//! analysis.
//!
//! Two backends compute the same decision:
//!
//! * [`ScreenBackend::Kernel`] — both netlists compiled to bit-parallel
//!   [`KernelProgram`]s, stimulus driven and outputs compared a 64-lane
//!   word at a time. This is the batch path the reducer always takes,
//!   whatever its scoring engine.
//! * [`ScreenBackend::Queue`] — one event-driven [`ClockedSimulator`]
//!   per lane per side. The reference path the pin test compares against.
//!
//! Settled end-of-cycle values are delay-independent, and the kernel is
//! pinned bit-for-bit against the event-driven simulator (the kernel
//! oracle), so **both backends accept and reject exactly the same
//! candidates** — `crates/reduce/tests/screen_pin.rs` pins this.

use std::collections::VecDeque;

use glitch_kernel::KernelProgram;
use glitch_netlist::{NetId, Netlist, Tri};
use glitch_retime::Rewrite;
use glitch_sim::{kernel_eval_mode, ClockedSimulator, InputAssignment, UnitDelay, Value, XEval};

use crate::error::ReduceError;

/// Which engine computes the screen decision; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenBackend {
    /// Compiled bit-parallel kernel, all lanes per word.
    Kernel,
    /// One event-driven simulator per lane per side.
    Queue,
}

/// The result of screening one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenOutcome {
    /// `true` when every compared output value matched.
    pub accepted: bool,
    /// Cycles co-simulated.
    pub cycles: u64,
    /// Independent stimulus lanes.
    pub lanes: usize,
    /// Location of the first divergence when rejected.
    pub mismatch: Option<String>,
}

/// `splitmix64`: the screen's stimulus generator — tiny, seedable, and
/// identical across backends by construction.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One stimulus word per `(cycle, input)`: bit `lane` drives that lane.
fn stimulus_word(seed: u64, cycle: u64, input_index: usize) -> u64 {
    splitmix64(
        seed ^ cycle.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ (input_index as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB),
    )
}

/// Screens `candidate` against `current`: `cycles` of shared seeded
/// stimulus across `lanes` independent lanes, comparing every original
/// output (through the candidate's mapping, shifted by its latency)
/// against the current netlist's settled value. Flipflops start at zero
/// on both sides, matching [`glitch_sim::SimOptions::default`].
///
/// # Errors
///
/// Returns [`ReduceError::InvalidNetlist`] if a netlist cannot be
/// compiled ([`ScreenBackend::Kernel`]) and [`ReduceError::Sim`] if an
/// event-driven settle fails ([`ScreenBackend::Queue`]).
pub fn screen_candidate(
    current: &Netlist,
    candidate: &Rewrite,
    backend: ScreenBackend,
    cycles: u64,
    lanes: usize,
    seed: u64,
) -> Result<ScreenOutcome, ReduceError> {
    match backend {
        ScreenBackend::Kernel => kernel_screen(current, candidate, cycles, lanes, seed),
        ScreenBackend::Queue => queue_screen(current, candidate, cycles, lanes, seed),
    }
}

/// One cycle of output values: `(value, mask)` plane words, output-major,
/// `words` per output — lane `l` is bit `l % 64` of word `l / 64`.
type OutputWords = Vec<(u64, u64)>;

/// The comparison spine shared by both backends: feeds per-cycle output
/// words of the current netlist into a latency ring and diffs the
/// candidate's words against the ring head. Returns the first mismatch,
/// output-major, then lowest lane.
struct LatencyDiff {
    latency: u64,
    words: usize,
    ring: VecDeque<OutputWords>,
}

impl LatencyDiff {
    fn new(latency: usize, lanes: usize) -> Self {
        LatencyDiff {
            latency: latency as u64,
            words: lanes.div_ceil(64),
            ring: VecDeque::with_capacity(latency + 1),
        }
    }

    /// Pushes one cycle of reference words and compares once the ring has
    /// aged past the latency.
    fn step(
        &mut self,
        cycle: u64,
        reference: OutputWords,
        transformed: &[(u64, u64)],
        describe: impl Fn(usize, usize) -> String,
    ) -> Option<String> {
        self.ring.push_back(reference);
        if cycle < self.latency {
            return None;
        }
        let expected = self.ring.pop_front().expect("ring holds latency+1 rows");
        let (flat, diff) = expected
            .iter()
            .zip(transformed)
            .map(|(&(va, ma), &(vb, mb))| (va ^ vb) | (ma ^ mb))
            .enumerate()
            .find(|&(_, diff)| diff != 0)?;
        let bit = diff.trailing_zeros() as usize;
        let lane = (flat % self.words) * 64 + bit;
        Some(format!(
            "{} diverged at cycle {}: {:?} vs {:?}",
            describe(flat / self.words, lane),
            cycle - self.latency,
            lane_value(expected[flat], bit),
            lane_value(transformed[flat], bit),
        ))
    }
}

/// The three-valued value of bit `bit` of a `(value, mask)` word.
fn lane_value((val, msk): (u64, u64), bit: usize) -> Tri {
    if msk >> bit & 1 == 1 {
        Tri::X
    } else if val >> bit & 1 == 1 {
        Tri::One
    } else {
        Tri::Zero
    }
}

fn kernel_screen(
    current: &Netlist,
    candidate: &Rewrite,
    cycles: u64,
    lanes: usize,
    seed: u64,
) -> Result<ScreenOutcome, ReduceError> {
    let prog_a = KernelProgram::compile(current)?;
    let prog_b = KernelProgram::compile(&candidate.netlist)?;
    let mode = kernel_eval_mode(XEval::default());
    let mut state_a = prog_a.new_state(lanes, Tri::Zero);
    let mut state_b = prog_b.new_state(lanes, Tri::Zero);
    let words = state_a.words();
    let inputs: Vec<(NetId, NetId)> = current
        .inputs()
        .iter()
        .map(|&net| (net, candidate.map.new_net(net)))
        .collect();
    let outputs: Vec<(NetId, NetId)> = current
        .outputs()
        .iter()
        .map(|&net| (net, candidate.map.output_net(net)))
        .collect();
    let mut diff = LatencyDiff::new(candidate.map.latency(), lanes);
    for cycle in 0..cycles {
        prog_a.begin_cycle(&mut state_a);
        prog_b.begin_cycle(&mut state_b);
        for (index, &(a, b)) in inputs.iter().enumerate() {
            // Every word of the lane range repeats the same 64 stimulus bits.
            let word = stimulus_word(seed, cycle, index);
            for w in 0..words {
                state_a.set_word(a, w, word);
                state_b.set_word(b, w, word);
            }
        }
        prog_a.eval(&mut state_a, mode);
        prog_b.eval(&mut state_b, mode);
        let reference = outputs
            .iter()
            .flat_map(|&(a, _)| (0..words).map(move |w| (a, w)))
            .map(|(a, w)| state_a.word(a, w))
            .collect();
        let transformed: OutputWords = outputs
            .iter()
            .flat_map(|&(_, b)| (0..words).map(move |w| (b, w)))
            .map(|(b, w)| state_b.word(b, w))
            .collect();
        let mismatch = diff.step(cycle, reference, &transformed, |output, lane| {
            locate(current, outputs[output].0, lane)
        });
        if let Some(mismatch) = mismatch {
            return Ok(ScreenOutcome {
                accepted: false,
                cycles: cycle + 1,
                lanes,
                mismatch: Some(mismatch),
            });
        }
        prog_a.latch(&mut state_a);
        prog_b.latch(&mut state_b);
    }
    Ok(ScreenOutcome {
        accepted: true,
        cycles,
        lanes,
        mismatch: None,
    })
}

fn queue_screen(
    current: &Netlist,
    candidate: &Rewrite,
    cycles: u64,
    lanes: usize,
    seed: u64,
) -> Result<ScreenOutcome, ReduceError> {
    let mut sims_a: Vec<ClockedSimulator<'_>> = (0..lanes)
        .map(|_| ClockedSimulator::new(current, UnitDelay))
        .collect::<Result<_, _>>()?;
    let mut sims_b: Vec<ClockedSimulator<'_>> = (0..lanes)
        .map(|_| ClockedSimulator::new(&candidate.netlist, UnitDelay))
        .collect::<Result<_, _>>()?;
    let inputs = current.inputs().to_vec();
    let outputs = current.outputs().to_vec();
    let mut diff = LatencyDiff::new(candidate.map.latency(), lanes);
    for cycle in 0..cycles {
        let words: Vec<u64> = (0..inputs.len())
            .map(|index| stimulus_word(seed, cycle, index))
            .collect();
        for lane in 0..lanes {
            let mut a = InputAssignment::new();
            let mut b = InputAssignment::new();
            for (index, &input) in inputs.iter().enumerate() {
                let bit = (words[index] >> (lane % 64)) & 1 == 1;
                a = a.with(input, bit);
                b = b.with(candidate.map.new_net(input), bit);
            }
            sims_a[lane].step(a)?;
            sims_b[lane].step(b)?;
        }
        let reference = outputs
            .iter()
            .flat_map(|&out| pack_lanes(lanes, |lane| sims_a[lane].net_value(out)))
            .collect();
        let transformed: OutputWords = outputs
            .iter()
            .map(|&out| candidate.map.output_net(out))
            .flat_map(|out| pack_lanes(lanes, |lane| sims_b[lane].net_value(out)))
            .collect();
        let mismatch = diff.step(cycle, reference, &transformed, |output, lane| {
            locate(current, outputs[output], lane)
        });
        if let Some(mismatch) = mismatch {
            return Ok(ScreenOutcome {
                accepted: false,
                cycles: cycle + 1,
                lanes,
                mismatch: Some(mismatch),
            });
        }
    }
    Ok(ScreenOutcome {
        accepted: true,
        cycles,
        lanes,
        mismatch: None,
    })
}

/// Packs one output's per-lane values into `(value, mask)` words.
fn pack_lanes(lanes: usize, value: impl Fn(usize) -> Value) -> OutputWords {
    let mut words = vec![(0u64, 0u64); lanes.div_ceil(64)];
    for lane in 0..lanes {
        let bit = 1u64 << (lane % 64);
        let (val, msk) = &mut words[lane / 64];
        match value(lane) {
            Value::Zero => {}
            Value::One => *val |= bit,
            Value::X => *msk |= bit,
        }
    }
    words
}

/// `output `name` lane N`.
fn locate(current: &Netlist, output: NetId, lane: usize) -> String {
    format!("output `{}` lane {lane}", current.net(output).name())
}
