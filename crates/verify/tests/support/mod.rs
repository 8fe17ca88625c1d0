//! The event-driven equivalence co-simulation that
//! [`EquivalenceChecker::check`] replaced: the oracle of
//! `equivalence_oracle.rs` and the `equivalence_queue` side of the reduce
//! benchmark.

use std::collections::VecDeque;

use glitch_netlist::{Bus, Netlist};
use glitch_sim::{
    ClockedSimulator, DelayKind, InputAssignment, RandomStimulus, SimError, SimOptions, Value,
};
use glitch_verify::{EquivalenceChecker, EquivalenceMismatch, EquivalenceOutcome};

/// The event-driven co-simulation: both sides stepped on
/// [`ClockedSimulator`]s under `delay`, outputs compared through the
/// checker's mapping and latency.
pub fn event_check(
    original: &Netlist,
    transformed: &Netlist,
    checker: &EquivalenceChecker<'_>,
    delay: &DelayKind,
    cycles: u64,
    seed: u64,
    options: SimOptions,
) -> Result<EquivalenceOutcome, SimError> {
    let buses = original
        .inputs()
        .chunks(32)
        .map(|chunk| Bus::new(chunk.to_vec()))
        .collect();
    let mut stimulus = RandomStimulus::new(buses, cycles, seed);
    let mut sim_a = ClockedSimulator::with_options(original, delay.clone().into_model(), options)?;
    let mut sim_b =
        ClockedSimulator::with_options(transformed, delay.clone().into_model(), options)?;
    let latency = checker.latency();
    let mut history: VecDeque<Vec<Value>> = VecDeque::with_capacity(latency + 1);
    let mut compared = 0u64;
    for cycle in 0..cycles {
        let assignment = stimulus.next().expect("the stimulus covers every cycle");
        let mut mapped = InputAssignment::new();
        for &(net, value) in assignment.assignments() {
            let &(_, counterpart) = checker
                .input_pairs()
                .iter()
                .find(|&&(old, _)| old == net)
                .expect("every input is mapped");
            mapped = mapped.with(counterpart, value);
        }
        sim_a.step(assignment)?;
        sim_b.step(mapped)?;
        history.push_back(
            checker
                .output_pairs()
                .iter()
                .map(|&(old, _)| sim_a.net_value(old))
                .collect(),
        );
        if cycle >= latency as u64 {
            let expected = history.pop_front().expect("ring holds latency+1 rows");
            for (index, &(old, new)) in checker.output_pairs().iter().enumerate() {
                let got = sim_b.net_value(new);
                compared += 1;
                if got != expected[index] {
                    return Ok(EquivalenceOutcome {
                        cycles: cycle + 1,
                        compared,
                        mismatch: Some(EquivalenceMismatch {
                            output: original.net(old).name().to_string(),
                            cycle: cycle - latency as u64,
                            original: expected[index],
                            transformed: got,
                        }),
                    });
                }
            }
        }
    }
    Ok(EquivalenceOutcome {
        cycles,
        compared,
        mismatch: None,
    })
}
