//! Cheap functional screening of candidate moves.
//!
//! Before a candidate earns the expensive glitch-power confirm (a full
//! multi-seed event-driven analysis pass), it must survive a *functional*
//! co-simulation against the current netlist: same stimulus in, identical
//! settled output values out, through the rewrite's mapping and latency.
//! A rewrite with a structural bug dies here for the price of a few dozen
//! functional cycles instead of a full analysis.
//!
//! Two backends compute the same decision:
//!
//! * [`ScreenBackend::Kernel`] — both netlists compiled to bit-parallel
//!   [`KernelProgram`]s, all lanes evaluated per machine word. This is
//!   the batch path the reducer always takes, whatever its scoring engine.
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
use glitch_sim::{kernel_eval_mode, ClockedSimulator, InputAssignment, UnitDelay, XEval};

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

/// The comparison spine shared by both backends: feeds per-cycle values of
/// the current netlist's outputs into a latency ring and diffs the
/// candidate's values against the ring head. Returns the first mismatch.
struct LatencyDiff {
    latency: u64,
    /// Ring of output value rows, one row per pending cycle.
    ring: VecDeque<Vec<Tri>>,
    compared_cycle: u64,
}

impl LatencyDiff {
    fn new(latency: usize) -> Self {
        LatencyDiff {
            latency: latency as u64,
            ring: VecDeque::with_capacity(latency + 1),
            compared_cycle: 0,
        }
    }

    /// Pushes one cycle of reference rows and compares when the ring has
    /// aged past the latency. Rows are `outputs × lanes`, flattened.
    fn step(
        &mut self,
        cycle: u64,
        reference: Vec<Tri>,
        transformed: &[Tri],
        describe: impl Fn(usize) -> String,
    ) -> Option<String> {
        self.ring.push_back(reference);
        if cycle < self.latency {
            return None;
        }
        let expected = self.ring.pop_front().expect("ring holds latency+1 rows");
        let source_cycle = self.compared_cycle;
        self.compared_cycle += 1;
        for (flat, (&want, &got)) in expected.iter().zip(transformed).enumerate() {
            if want != got {
                return Some(format!(
                    "{} diverged at cycle {source_cycle}: {want:?} vs {got:?}",
                    describe(flat)
                ));
            }
        }
        None
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
    let inputs = current.inputs().to_vec();
    let outputs = current.outputs().to_vec();
    let mut diff = LatencyDiff::new(candidate.map.latency());
    for cycle in 0..cycles {
        prog_a.begin_cycle(&mut state_a);
        prog_b.begin_cycle(&mut state_b);
        for (index, &input) in inputs.iter().enumerate() {
            let word = stimulus_word(seed, cycle, index);
            let mapped = candidate.map.new_net(input);
            for lane in 0..lanes {
                let bit = (word >> (lane % 64)) & 1 == 1;
                state_a.set_bool(input, lane, bit);
                state_b.set_bool(mapped, lane, bit);
            }
        }
        prog_a.eval(&mut state_a, mode);
        prog_b.eval(&mut state_b, mode);
        let reference: Vec<Tri> = outputs
            .iter()
            .flat_map(|&out| (0..lanes).map(move |lane| (out, lane)))
            .map(|(out, lane)| state_a.get(out, lane))
            .collect();
        let transformed: Vec<Tri> = outputs
            .iter()
            .map(|&out| candidate.map.output_net(out))
            .flat_map(|out| (0..lanes).map(move |lane| (out, lane)))
            .map(|(out, lane)| state_b.get(out, lane))
            .collect();
        let mismatch = diff.step(cycle, reference, &transformed, |flat| {
            locate(current, &outputs, lanes, flat)
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
    let mut diff = LatencyDiff::new(candidate.map.latency());
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
        let reference: Vec<Tri> = outputs
            .iter()
            .flat_map(|&out| (0..lanes).map(move |lane| (out, lane)))
            .map(|(out, lane)| Tri::from(sims_a[lane].net_value(out)))
            .collect();
        let transformed: Vec<Tri> = outputs
            .iter()
            .map(|&out| candidate.map.output_net(out))
            .flat_map(|out| (0..lanes).map(move |lane| (out, lane)))
            .map(|(out, lane)| Tri::from(sims_b[lane].net_value(out)))
            .collect();
        let mismatch = diff.step(cycle, reference, &transformed, |flat| {
            locate(current, &outputs, lanes, flat)
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

/// Maps a flattened `outputs × lanes` index back to `output `name` lane N`.
fn locate(current: &Netlist, outputs: &[NetId], lanes: usize, flat: usize) -> String {
    let output = outputs[flat / lanes];
    let lane = flat % lanes;
    format!("output `{}` lane {lane}", current.net(output).name())
}
