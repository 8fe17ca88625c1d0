//! Functional screening of candidate moves by a co-simulation of their
//! own, kept for the benchmark's traced reduce mirror (`glitchbench`),
//! which screens each candidate with [`screen_candidate`].
//!
//! The [`crate::Reducer`] does not use it: it screens each candidate from
//! the candidate's own confirm score ([`crate::screen_scores`]), which
//! settles on the same stimulus as the current netlist's score and
//! records every output at every cycle end. This module goes with the
//! mirror when the benchmark reads the reducer's own phase spans.
//!
//! A screen co-simulates a candidate against the current netlist: same
//! stimulus in, identical settled output values out, through the
//! rewrite's mapping and latency. Two backends compute the same decision:
//!
//! * [`ScreenBackend::Kernel`] — both netlists compiled to bit-parallel
//!   [`KernelProgram`]s, stimulus driven and outputs compared a 64-lane
//!   word at a time.
//! * [`ScreenBackend::Queue`] — one event-driven [`ClockedSimulator`]
//!   per lane per side. The reference path the pin test compares against.
//!
//! The current netlist's side does not depend on the candidate: a
//! [`Screen`] settles it once (one compile, the output words of every
//! screen cycle) and checks each candidate against those words, with the
//! word comparison [`crate::screen_scores`] uses.
//!
//! Settled end-of-cycle values are delay-independent, and the kernel is
//! pinned bit-for-bit against the event-driven simulator (the kernel
//! oracle), so **both backends accept and reject exactly the same
//! candidates** — `crates/reduce/tests/screen_pin.rs` pins this.

use glitch_kernel::KernelProgram;
use glitch_netlist::{NetId, Netlist, Tri};
use glitch_retime::Rewrite;
use glitch_sim::{kernel_eval_mode, ClockedSimulator, InputAssignment, UnitDelay, Value, XEval};

use crate::compare::{first_divergence, ScreenOutcome};
use crate::error::ReduceError;

/// Which engine computes the screen decision; see the module docs. Kept
/// only for the benchmark's reduce mirror, like the rest of the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenBackend {
    /// Compiled bit-parallel kernel, all lanes per word.
    Kernel,
    /// One event-driven simulator per lane per side.
    Queue,
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
/// on both sides, matching [`glitch_sim::SimOptions::default`]. This
/// builds a [`Screen`] for the one candidate; to check several against
/// the same netlist, build the [`Screen`] once. Kept only for the
/// benchmark's reduce mirror; the reducer uses [`crate::screen_scores`].
///
/// # Errors
///
/// As [`Screen::new`] and [`Screen::check`].
pub fn screen_candidate(
    current: &Netlist,
    candidate: &Rewrite,
    backend: ScreenBackend,
    cycles: u64,
    lanes: usize,
    seed: u64,
) -> Result<ScreenOutcome, ReduceError> {
    Screen::new(current, backend, cycles, lanes, seed)?.check(candidate)
}

/// One cycle of output values: `(value, mask)` plane words, output-major,
/// `words` per output — lane `l` is bit `l % 64` of word `l / 64`.
type OutputWords = Vec<(u64, u64)>;

/// The current netlist's side of the screen, settled once: its output
/// words in every screen cycle, against which any number of candidates
/// are checked. A candidate's cycle `c` compares with reference cycle
/// `c - latency`; the first mismatch is reported output-major, then
/// lowest lane. Kept only for the benchmark's reduce mirror; the reducer
/// uses [`crate::screen_scores`].
#[derive(Debug, Clone)]
pub struct Screen<'a> {
    current: &'a Netlist,
    backend: ScreenBackend,
    cycles: u64,
    lanes: usize,
    seed: u64,
    /// Per cycle, the current netlist's output words.
    reference: Vec<OutputWords>,
}

impl<'a> Screen<'a> {
    /// Settles `current` for `cycles` of the screen's stimulus (seeded
    /// with `seed`) across `lanes` lanes on `backend`, keeping its output
    /// words.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidNetlist`] if `current` cannot be
    /// compiled ([`ScreenBackend::Kernel`]) and [`ReduceError::Sim`] if an
    /// event-driven settle fails ([`ScreenBackend::Queue`]).
    pub fn new(
        current: &'a Netlist,
        backend: ScreenBackend,
        cycles: u64,
        lanes: usize,
        seed: u64,
    ) -> Result<Self, ReduceError> {
        let mut screen = Screen {
            current,
            backend,
            cycles,
            lanes,
            seed,
            reference: Vec::new(),
        };
        let mut reference = Vec::with_capacity(cycles as usize);
        screen.settle(current, current.inputs(), current.outputs(), |_, words| {
            reference.push(words);
            true
        })?;
        screen.reference = reference;
        Ok(screen)
    }

    /// Screens `candidate`: the same stimulus through its input mapping,
    /// its outputs (through the output mapping) compared with the
    /// reference `latency` cycles back. Stops at the first mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidNetlist`] if the candidate cannot be
    /// compiled ([`ScreenBackend::Kernel`]) and [`ReduceError::Sim`] if an
    /// event-driven settle fails ([`ScreenBackend::Queue`]).
    pub fn check(&self, candidate: &Rewrite) -> Result<ScreenOutcome, ReduceError> {
        let inputs: Vec<NetId> = self
            .current
            .inputs()
            .iter()
            .map(|&net| candidate.map.new_net(net))
            .collect();
        let outputs: Vec<NetId> = self
            .current
            .outputs()
            .iter()
            .map(|&net| candidate.map.output_net(net))
            .collect();
        let latency = candidate.map.latency() as u64;
        let mut mismatch = None;
        let compare = |cycle: u64, words: OutputWords| {
            let Some(expected) = cycle
                .checked_sub(latency)
                .map(|reference| &self.reference[reference as usize])
            else {
                return true;
            };
            mismatch = self.locate(cycle, latency, expected, &words);
            mismatch.is_none()
        };
        let settled = self.settle(&candidate.netlist, &inputs, &outputs, compare)?;
        Ok(ScreenOutcome {
            accepted: mismatch.is_none(),
            cycles: settled,
            lanes: self.lanes,
            mismatch,
        })
    }

    /// The first difference between the reference words `expected` and a
    /// candidate's words in `cycle`, located and described.
    fn locate(
        &self,
        cycle: u64,
        latency: u64,
        expected: &[(u64, u64)],
        transformed: &[(u64, u64)],
    ) -> Option<String> {
        let divergence = first_divergence(expected, transformed, self.lanes.div_ceil(64))?;
        Some(format!(
            "output `{}` lane {} diverged at cycle {}: {:?} vs {:?}",
            self.current
                .net(self.current.outputs()[divergence.output])
                .name(),
            divergence.lane,
            cycle - latency,
            divergence.expected,
            divergence.transformed,
        ))
    }

    /// Settles `netlist` on the screen's backend for up to its cycles
    /// across its lanes, flipflops from zero, driving `inputs` (one per
    /// screen input, in order) and handing each cycle's `outputs` words to
    /// `visit`, which returns whether to go on. Returns the cycles
    /// settled.
    fn settle(
        &self,
        netlist: &Netlist,
        inputs: &[NetId],
        outputs: &[NetId],
        visit: impl FnMut(u64, OutputWords) -> bool,
    ) -> Result<u64, ReduceError> {
        match self.backend {
            ScreenBackend::Kernel => {
                let program = KernelProgram::compile(netlist)?;
                Ok(self.kernel_settle(&program, inputs, outputs, visit))
            }
            ScreenBackend::Queue => self.queue_settle(netlist, inputs, outputs, visit),
        }
    }

    fn kernel_settle(
        &self,
        program: &KernelProgram,
        inputs: &[NetId],
        outputs: &[NetId],
        mut visit: impl FnMut(u64, OutputWords) -> bool,
    ) -> u64 {
        let mode = kernel_eval_mode(XEval::default());
        let mut state = program.new_state(self.lanes, Tri::Zero);
        let words = state.words();
        for cycle in 0..self.cycles {
            program.begin_cycle(&mut state);
            for (index, &net) in inputs.iter().enumerate() {
                // Every word of the lane range repeats the same 64 stimulus bits.
                let word = stimulus_word(self.seed, cycle, index);
                for w in 0..words {
                    state.set_word(net, w, word);
                }
            }
            program.eval(&mut state, mode);
            let settled = outputs
                .iter()
                .flat_map(|&net| (0..words).map(move |w| (net, w)))
                .map(|(net, w)| state.word(net, w))
                .collect();
            if !visit(cycle, settled) {
                return cycle + 1;
            }
            program.latch(&mut state);
        }
        self.cycles
    }

    fn queue_settle(
        &self,
        netlist: &Netlist,
        inputs: &[NetId],
        outputs: &[NetId],
        mut visit: impl FnMut(u64, OutputWords) -> bool,
    ) -> Result<u64, ReduceError> {
        let mut sims: Vec<ClockedSimulator<'_>> = (0..self.lanes)
            .map(|_| ClockedSimulator::new(netlist, UnitDelay))
            .collect::<Result<_, _>>()?;
        for cycle in 0..self.cycles {
            let words: Vec<u64> = (0..inputs.len())
                .map(|index| stimulus_word(self.seed, cycle, index))
                .collect();
            for (lane, sim) in sims.iter_mut().enumerate() {
                let mut assignment = InputAssignment::new();
                for (&net, word) in inputs.iter().zip(&words) {
                    assignment = assignment.with(net, (word >> (lane % 64)) & 1 == 1);
                }
                sim.step(assignment)?;
            }
            let settled = outputs
                .iter()
                .flat_map(|&out| pack_lanes(self.lanes, |lane| sims[lane].net_value(out)))
                .collect();
            if !visit(cycle, settled) {
                return Ok(cycle + 1);
            }
        }
        Ok(self.cycles)
    }
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
