//! Differential functional equivalence: co-simulating an original netlist
//! against a transformed one through an explicit net mapping.
//!
//! This is the machine-checked half of every "glitch power −N% **at equal
//! function**" claim: the reduction loop may only accept a move if the
//! rewritten netlist, driven with the *same* stimulus through the move's
//! input mapping, produces **cycle-accurate identical output values**
//! through the output mapping — shifted by the rewrite's added latency,
//! under any delay model, and including three-valued `x_init` runs where
//! uninitialised flipflops power on `X`.
//!
//! The check is differential, not symbolic: both netlists are settled on
//! their compiled [`KernelProgram`]s on seeded random stimulus, so a
//! passing verdict is a statement about the compared cycles (like the
//! repo's other oracles), and any mismatch comes back located — output,
//! cycle, both values — ready for shrinking. Consecutive cycles are the
//! lanes of [`KernelProgram::settle_cycles`] blocks of up to 256, the
//! flipflop state carried from block to block: one evaluation per 64-lane
//! word for a pipelined netlist, a fixpoint only around feedback. Each
//! side draws a block's stimulus straight into lane words
//! ([`RandomStimulus::next_lanes`], the same stream in the same order as
//! its per-cycle assignments); the transformed side runs `latency` cycles
//! ahead, so the outputs compare a 64-cycle word at a time.
//!
//! Settled end-of-cycle values do not depend on the delays under the
//! simulator's pure-delay models (glitches are transient), so the
//! functional settle the timed kernel starts every lane from is exactly
//! what the event-driven [`glitch_sim::ClockedSimulator`] holds at each
//! cycle end, whatever the delay model. The oracle test
//! `crates/verify/tests/equivalence_oracle.rs` pins every outcome field
//! against that event-driven co-simulation.

use glitch_netlist::{Bus, NetId, Netlist, Tri};
use glitch_sim::{
    kernel_eval_mode, DelayKind, EvalMode, KernelProgram, KernelState, RandomStimulus, SimError,
    SimOptions, Value,
};

/// Maximum input-bus width the stimulus generator is fed — mirrors the
/// CLI's bus chunking so equivalence runs see the same shape of stimulus
/// as analysis runs.
const STIMULUS_BUS_WIDTH: usize = 32;

/// Cycles settled per kernel block: the lanes of one
/// [`KernelProgram::settle_cycles`] call, which bounds each side's planes
/// however many cycles run.
const BLOCK_CYCLES: u64 = 256;

/// Ways an equivalence-checker construction can be rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EquivalenceError {
    /// An original primary input has no counterpart mapped.
    InputNotMapped(String),
    /// A mapped input pair does not land on a primary input of the
    /// transformed netlist.
    NotAnInput(String),
    /// An original primary output has no observation point mapped.
    OutputNotMapped(String),
}

impl std::fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivalenceError::InputNotMapped(name) => {
                write!(f, "primary input `{name}` has no mapped counterpart")
            }
            EquivalenceError::NotAnInput(name) => write!(
                f,
                "`{name}` is mapped onto a net that is not a primary input of the transformed netlist"
            ),
            EquivalenceError::OutputNotMapped(name) => {
                write!(f, "primary output `{name}` has no mapped observation point")
            }
        }
    }
}

impl std::error::Error for EquivalenceError {}

/// One located disagreement between the two netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceMismatch {
    /// Name of the original primary output that diverged.
    pub output: String,
    /// The (original-side) cycle whose value diverged.
    pub cycle: u64,
    /// What the original netlist produced.
    pub original: Value,
    /// What the transformed netlist produced `latency` cycles later.
    pub transformed: Value,
}

/// The result of one co-simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceOutcome {
    /// Cycles simulated on each side.
    pub cycles: u64,
    /// Output values compared (outputs × compared cycles).
    pub compared: u64,
    /// The first mismatch, if any; `None` is a pass.
    pub mismatch: Option<EquivalenceMismatch>,
}

impl EquivalenceOutcome {
    /// `true` when no mismatch was observed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.mismatch.is_none()
    }
}

/// One entry of an [`EquivalenceReport`]: which configuration ran and what
/// it found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceCheck {
    /// Stable delay-model label (`unit`, `zero`, `adder`, `custom`).
    pub delay: String,
    /// Whether the run used [`SimOptions::x_init`].
    pub x_init: bool,
    /// The run's outcome.
    pub outcome: EquivalenceOutcome,
}

/// The outcome of [`EquivalenceChecker::verify`]: one check per
/// (delay model × init mode) combination, in a deterministic order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceReport {
    /// All runs, delay-major, binary before `x_init`.
    pub checks: Vec<EquivalenceCheck>,
}

impl EquivalenceReport {
    /// `true` when every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.outcome.passed())
    }

    /// Total output values compared across all checks.
    #[must_use]
    pub fn compared(&self) -> u64 {
        self.checks.iter().map(|c| c.outcome.compared).sum()
    }

    /// The first failing check, if any.
    #[must_use]
    pub fn first_failure(&self) -> Option<&EquivalenceCheck> {
        self.checks.iter().find(|c| !c.outcome.passed())
    }
}

/// The stable label for a delay model in equivalence reports.
#[must_use]
pub fn delay_label(delay: &DelayKind) -> &'static str {
    match delay {
        DelayKind::Unit => "unit",
        DelayKind::Zero => "zero",
        DelayKind::RealisticAdderCells => "adder",
        DelayKind::Custom(_) => "custom",
    }
}

/// Co-simulates two netlists through a net mapping; see the module docs.
#[derive(Debug, Clone)]
pub struct EquivalenceChecker<'a> {
    original: &'a Netlist,
    transformed: &'a Netlist,
    inputs: Vec<(NetId, NetId)>,
    outputs: Vec<(NetId, NetId)>,
    latency: usize,
}

impl<'a> EquivalenceChecker<'a> {
    /// Builds a checker from explicit input/output pairs (original net,
    /// transformed net) and the transform's added latency in cycles.
    ///
    /// # Errors
    ///
    /// Rejects mappings that miss an original primary input or output, or
    /// that map an input onto a non-input of the transformed netlist.
    pub fn new(
        original: &'a Netlist,
        transformed: &'a Netlist,
        inputs: Vec<(NetId, NetId)>,
        outputs: Vec<(NetId, NetId)>,
        latency: usize,
    ) -> Result<Self, EquivalenceError> {
        for &input in original.inputs() {
            let Some(&(_, mapped)) = inputs.iter().find(|&&(old, _)| old == input) else {
                return Err(EquivalenceError::InputNotMapped(
                    original.net(input).name().to_string(),
                ));
            };
            if !transformed.net(mapped).is_primary_input() {
                return Err(EquivalenceError::NotAnInput(
                    original.net(input).name().to_string(),
                ));
            }
        }
        for &output in original.outputs() {
            if !outputs.iter().any(|&(old, _)| old == output) {
                return Err(EquivalenceError::OutputNotMapped(
                    original.net(output).name().to_string(),
                ));
            }
        }
        Ok(EquivalenceChecker {
            original,
            transformed,
            inputs,
            outputs,
            latency,
        })
    }

    /// Builds the identity mapping by net name — the common case of a
    /// rewrite that preserves primary input/output names (all the rebuild
    /// moves do).
    ///
    /// # Errors
    ///
    /// As for [`EquivalenceChecker::new`], with a missing name reported as
    /// an unmapped net.
    pub fn by_name(
        original: &'a Netlist,
        transformed: &'a Netlist,
        latency: usize,
    ) -> Result<Self, EquivalenceError> {
        let mut inputs = Vec::with_capacity(original.inputs().len());
        for &input in original.inputs() {
            let name = original.net(input).name();
            let mapped = transformed
                .find_net(name)
                .ok_or_else(|| EquivalenceError::InputNotMapped(name.to_string()))?;
            inputs.push((input, mapped));
        }
        let mut outputs = Vec::with_capacity(original.outputs().len());
        for &output in original.outputs() {
            let name = original.net(output).name();
            let mapped = transformed
                .find_net(name)
                .ok_or_else(|| EquivalenceError::OutputNotMapped(name.to_string()))?;
            outputs.push((output, mapped));
        }
        Self::new(original, transformed, inputs, outputs, latency)
    }

    /// The added latency the comparison compensates for.
    #[must_use]
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// The mapped input pairs, in original-input order as supplied.
    #[must_use]
    pub fn input_pairs(&self) -> &[(NetId, NetId)] {
        &self.inputs
    }

    /// The mapped output pairs.
    #[must_use]
    pub fn output_pairs(&self) -> &[(NetId, NetId)] {
        &self.outputs
    }

    /// The original's primary inputs chunked into stimulus buses.
    fn stimulus_buses(&self) -> Vec<Bus> {
        self.original
            .inputs()
            .chunks(STIMULUS_BUS_WIDTH)
            .map(|chunk| Bus::new(chunk.to_vec()))
            .collect()
    }

    /// Runs one co-simulation: `cycles` of seeded random stimulus under
    /// `options`, comparing every mapped output every compared cycle.
    /// Stops at the first mismatch. `delay` names the model the verdict
    /// covers; settled values are the same under every model (see the
    /// module docs), so it does not change the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNetlist`] when either side fails
    /// structural validation.
    pub fn check(
        &self,
        delay: &DelayKind,
        cycles: u64,
        seed: u64,
        options: SimOptions,
    ) -> Result<EquivalenceOutcome, SimError> {
        let _ = delay;
        Ok(self.settle(&self.compile()?, cycles, seed, options))
    }

    /// Both sides' compiled programs, original first.
    fn compile(&self) -> Result<[KernelProgram; 2], SimError> {
        Ok([
            KernelProgram::compile(self.original)?,
            KernelProgram::compile(self.transformed)?,
        ])
    }

    /// The co-simulation behind [`EquivalenceChecker::check`], on
    /// precompiled programs: each side settles its cycles as the lanes of
    /// [`KernelProgram::settle_cycles`] blocks, the transformed side
    /// `latency` cycles ahead, so original lane `c` and transformed lane
    /// `c + latency` sit at the same lane and compare word by word.
    fn settle(
        &self,
        [program_a, program_b]: &[KernelProgram; 2],
        cycles: u64,
        seed: u64,
        options: SimOptions,
    ) -> EquivalenceOutcome {
        let latency = self.latency as u64;
        let Some(window) = cycles.checked_sub(latency).filter(|&window| window > 0) else {
            return EquivalenceOutcome {
                cycles,
                compared: 0,
                mismatch: None,
            };
        };
        let mode = kernel_eval_mode(options.x_eval);
        let dff_init = Tri::from(options.dff_init);
        // Dense original-net → counterpart table; the first pair for a net
        // wins, as a lookup through the pair list would.
        let mut counterpart: Vec<Option<NetId>> = vec![None; self.original.net_count()];
        for &(old, new) in self.inputs.iter().rev() {
            if let Some(slot) = counterpart.get_mut(old.index()) {
                *slot = Some(new);
            }
        }
        let stimulus = || RandomStimulus::new(self.stimulus_buses(), cycles, seed);
        let mut original = Side::new(program_a, stimulus(), dff_init, Some);
        let mut transformed = Side::new(program_b, stimulus(), dff_init, |net| {
            counterpart[net.index()]
        });
        let mut ahead = 0;
        while ahead < latency {
            let lanes = (latency - ahead).min(BLOCK_CYCLES);
            transformed.settle(lanes, mode);
            ahead += lanes;
        }
        let mut done = 0u64;
        while done < window {
            let lanes = (window - done).min(BLOCK_CYCLES);
            let a = original.settle(lanes, mode);
            let b = transformed.settle(lanes, mode);
            for w in 0..a.words() {
                // The lowest diverging lane of the word, then the first
                // output diverging there.
                let first = self
                    .outputs
                    .iter()
                    .enumerate()
                    .filter_map(|(index, &(old, new))| {
                        let (va, ma) = a.word(old, w);
                        let (vb, mb) = b.word(new, w);
                        let diff = (va ^ vb) | (ma ^ mb);
                        (diff != 0).then(|| (diff.trailing_zeros(), index))
                    })
                    .min();
                if let Some((bit, index)) = first {
                    let lane = 64 * w + bit as usize;
                    let (old, new) = self.outputs[index];
                    let cycle = done + lane as u64;
                    return EquivalenceOutcome {
                        cycles: cycle + latency + 1,
                        compared: cycle * self.outputs.len() as u64 + index as u64 + 1,
                        mismatch: Some(EquivalenceMismatch {
                            output: self.original.net(old).name().to_string(),
                            cycle,
                            original: Value::from(a.get(old, lane)),
                            transformed: Value::from(b.get(new, lane)),
                        }),
                    };
                }
            }
            done += lanes;
        }
        EquivalenceOutcome {
            cycles,
            compared: window * self.outputs.len() as u64,
            mismatch: None,
        }
    }

    /// The full matrix: every delay model × {binary, `x_init`}, in a
    /// deterministic order. This is the configuration the reduction loop
    /// pins its headline claim with. Settled values are the same under
    /// every delay model, so each init mode is settled once and its
    /// outcome stands for every listed model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNetlist`] when either side fails
    /// structural validation (only checked when `delays` is non-empty).
    pub fn verify(
        &self,
        delays: &[DelayKind],
        cycles: u64,
        seed: u64,
    ) -> Result<EquivalenceReport, SimError> {
        if delays.is_empty() {
            return Ok(EquivalenceReport { checks: Vec::new() });
        }
        let programs = self.compile()?;
        let outcomes = [SimOptions::default(), SimOptions::x_init()]
            .map(|options| self.settle(&programs, cycles, seed, options));
        let checks = delays
            .iter()
            .flat_map(|delay| {
                [false, true]
                    .into_iter()
                    .zip(&outcomes)
                    .map(|(x_init, outcome)| EquivalenceCheck {
                        delay: delay_label(delay).to_string(),
                        x_init,
                        outcome: outcome.clone(),
                    })
            })
            .collect();
        Ok(EquivalenceReport { checks })
    }
}

/// One side of the co-simulation: its program, its copy of the stimulus
/// stream, the flipflop state entering its next cycle and the planes of
/// its last block.
struct Side<'p> {
    program: &'p KernelProgram,
    stimulus: RandomStimulus,
    /// Per drive of the stimulus, the net it sets on this side.
    drives: Vec<NetId>,
    dff_init: Tri,
    carry: Vec<Tri>,
    /// Per drive, its lane words in the current block.
    planes: Vec<u64>,
    state: KernelState,
}

impl<'p> Side<'p> {
    /// The side settling `program`, whose stimulus drives every net
    /// through `map`.
    fn new(
        program: &'p KernelProgram,
        stimulus: RandomStimulus,
        dff_init: Tri,
        map: impl Fn(NetId) -> Option<NetId>,
    ) -> Self {
        let drives = stimulus
            .drives()
            .map(|net| map(net).expect("constructor checked every input is mapped"))
            .collect();
        Side {
            program,
            stimulus,
            drives,
            dff_init,
            carry: program.power_on_state(dff_init),
            planes: Vec::new(),
            state: program.new_state(1, dff_init),
        }
    }

    /// Settles the next `lanes` cycles, one lane each, drawing the
    /// stimulus a block of lane words at a time, and returns their planes.
    fn settle(&mut self, lanes: u64, mode: EvalMode) -> &KernelState {
        let lanes = lanes as usize;
        let drawn = self.stimulus.next_lanes(lanes, &mut self.planes);
        assert_eq!(drawn, lanes, "the stimulus covers the requested cycles");
        let state = &mut self.state;
        self.program.reset_state(state, lanes, self.dff_init);
        let words = state.words();
        // In drive order, so a net driven twice takes its last drive.
        for (&net, plane) in self.drives.iter().zip(self.planes.chunks(words)) {
            for (w, &bits) in plane.iter().enumerate() {
                state.set_word(net, w, bits);
            }
        }
        self.carry = self
            .program
            .settle_cycles(state, &self.carry, mode)
            .next_state;
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitch_sim::CellDelay;

    fn xor_chain() -> Netlist {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.xor2(a, b, "x");
        let y = nl.xor2(x, c, "y");
        nl.mark_output(y);
        nl
    }

    #[test]
    fn a_netlist_is_equivalent_to_itself() {
        let nl = xor_chain();
        let checker = EquivalenceChecker::by_name(&nl, &nl, 0).unwrap();
        let report = checker
            .verify(
                &[
                    DelayKind::Unit,
                    DelayKind::Zero,
                    DelayKind::RealisticAdderCells,
                ],
                40,
                7,
            )
            .unwrap();
        assert!(report.passed());
        assert_eq!(report.checks.len(), 6);
        assert!(report.compared() > 0);
    }

    #[test]
    fn a_functional_difference_is_located() {
        let nl = xor_chain();
        let mut other = Netlist::new("chain");
        let a = other.add_input("a");
        let b = other.add_input("b");
        let c = other.add_input("c");
        let x = other.xor2(a, b, "x");
        // and2 instead of xor2: differs whenever x & c disagree with x ^ c.
        let y = other.and2(x, c, "y");
        other.mark_output(y);
        let checker = EquivalenceChecker::by_name(&nl, &other, 0).unwrap();
        let outcome = checker
            .check(&DelayKind::Unit, 60, 3, SimOptions::default())
            .unwrap();
        let mismatch = outcome.mismatch.expect("and is not xor");
        assert_eq!(mismatch.output, "y");
        assert_ne!(mismatch.original, mismatch.transformed);
    }

    #[test]
    fn latency_shifts_the_comparison_window() {
        let nl = xor_chain();
        // The same function behind a 2-deep register chain on the output.
        let mut piped = Netlist::new("chain_p2");
        let a = piped.add_input("a");
        let b = piped.add_input("b");
        let c = piped.add_input("c");
        let x = piped.xor2(a, b, "x");
        let y = piped.xor2(x, c, "y");
        let q = piped.dff_chain(y, 2, "y_pipe");
        piped.mark_output(q);
        let outputs = vec![(nl.find_net("y").unwrap(), q)];
        let inputs = nl
            .inputs()
            .iter()
            .map(|&i| (i, piped.find_net(nl.net(i).name()).unwrap()))
            .collect();
        let checker = EquivalenceChecker::new(&nl, &piped, inputs, outputs, 2).unwrap();
        for options in [SimOptions::default(), SimOptions::x_init()] {
            let outcome = checker.check(&DelayKind::Unit, 50, 11, options).unwrap();
            assert!(outcome.passed(), "{:?}: {:?}", options, outcome.mismatch);
        }
        // With the latency misdeclared the same pair must fail.
        let wrong = EquivalenceChecker::by_name(&nl, &nl, 0).unwrap();
        assert!(wrong
            .check(&DelayKind::Unit, 50, 11, SimOptions::default())
            .unwrap()
            .passed());
    }

    #[test]
    fn bad_mappings_are_rejected_at_construction() {
        let nl = xor_chain();
        let mut other = Netlist::new("other");
        let p = other.add_input("p");
        let q = other.inv(p, "q");
        other.mark_output(q);
        assert!(matches!(
            EquivalenceChecker::by_name(&nl, &other, 0),
            Err(EquivalenceError::InputNotMapped(_))
        ));
        // Mapping an input onto a non-input is caught too.
        let inputs = nl.inputs().iter().map(|&i| (i, q)).collect();
        let outputs = vec![(nl.find_net("y").unwrap(), q)];
        assert!(matches!(
            EquivalenceChecker::new(&nl, &other, inputs, outputs, 0),
            Err(EquivalenceError::NotAnInput(_))
        ));
    }

    #[test]
    fn custom_delay_models_are_labelled() {
        assert_eq!(delay_label(&DelayKind::Unit), "unit");
        assert_eq!(delay_label(&DelayKind::Zero), "zero");
        assert_eq!(delay_label(&DelayKind::RealisticAdderCells), "adder");
        assert_eq!(
            delay_label(&DelayKind::Custom(CellDelay::new().with_default(2))),
            "custom"
        );
    }
}
