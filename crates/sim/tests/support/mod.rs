//! Shared test support: deterministic random netlists, random stimuli and
//! random input flips, driven from plain integer words so the vendored
//! proptest's range/vec strategies can generate them.
//!
//! Used by the flip oracle (`tests/incremental.rs`) and the timed-kernel
//! oracle (`crates/kernel/tests/timed_oracle.rs`), both of which compare
//! flipped jobs against [`merged_stimulus`], and reusable by any suite
//! that needs "some random synchronous circuit". Construction is
//! feed-forward (every gate
//! input is an already-existing net), so the netlists are structurally
//! valid by construction: no floating nets, no combinational loops.

use glitch_netlist::{NetId, Netlist};
use glitch_sim::{DeltaStimulus, InputAssignment};

/// A random synchronous netlist plus its primary inputs.
pub struct RandomNetlist {
    pub netlist: Netlist,
    pub inputs: Vec<NetId>,
}

/// Builds a random netlist from `input_count` primary inputs and one gate
/// per word in `gate_words`. Each word selects a gate kind (including
/// D-flipflops, so sequential feedback-free state shows up) and wires its
/// operands to pseudo-random existing nets.
pub fn build_netlist(input_count: usize, gate_words: &[u64]) -> RandomNetlist {
    let mut nl = Netlist::new("random oracle circuit");
    let inputs: Vec<NetId> = (0..input_count.max(1))
        .map(|i| nl.add_input(format!("in{i}")))
        .collect();
    let mut nets: Vec<NetId> = inputs.clone();
    for (g, &word) in gate_words.iter().enumerate() {
        let pick = |shift: u32| nets[(word >> shift) as usize % nets.len()];
        let a = pick(8);
        let b = pick(20);
        let c = pick(32);
        let name = format!("g{g}");
        let out = match word % 8 {
            0 => nl.inv(a, &name),
            1 => nl.and2(a, b, &name),
            2 => nl.or2(a, b, &name),
            3 => nl.xor2(a, b, &name),
            4 => nl.nand2(a, b, &name),
            5 => nl.mux2(a, b, c, &name),
            6 => nl.dff(a, &name),
            _ => nl.xnor2(a, b, &name),
        };
        nets.push(out);
    }
    // Mark the most recently created nets as outputs so the whole tail of
    // the circuit is observable.
    for &net in nets.iter().rev().take(3) {
        nl.mark_output(net);
    }
    RandomNetlist {
        netlist: nl,
        inputs,
    }
}

/// One input assignment per word: bit `i` of the word drives input `i`.
/// A word with its high bit set leaves a pseudo-random input unassigned
/// that cycle, exercising held-over values.
pub fn build_assignments(inputs: &[NetId], cycle_words: &[u64]) -> Vec<InputAssignment> {
    cycle_words
        .iter()
        .map(|&word| {
            let skip = if word & (1 << 63) != 0 {
                Some((word >> 48) as usize % inputs.len())
            } else {
                None
            };
            let mut assignment = InputAssignment::new();
            for (i, &net) in inputs.iter().enumerate() {
                if Some(i) == skip {
                    continue;
                }
                assignment.set(net, (word >> i) & 1 == 1);
            }
            assignment
        })
        .collect()
}

/// A random delta: each word overrides one input bit in one cycle. Words
/// that would duplicate an existing `(cycle, net)` override are skipped —
/// duplicates are rejected at construction.
pub fn build_delta(inputs: &[NetId], cycles: u64, delta_words: &[u64]) -> DeltaStimulus {
    let mut delta = DeltaStimulus::new();
    for &word in delta_words {
        let net = inputs[(word >> 8) as usize % inputs.len()];
        let cycle = (word >> 24) % cycles.max(1);
        if !delta.overrides(cycle, net) {
            delta = delta.set(cycle, net, word & 1 == 1);
        }
    }
    delta
}

/// The flipped stimulus a flipped job must be bit-identical to: the
/// configured assignments with the delta applied cycle by cycle via the
/// public [`DeltaStimulus::apply_to`] contract.
pub fn merged_stimulus(
    baseline: &[InputAssignment],
    delta: &DeltaStimulus,
) -> Vec<InputAssignment> {
    baseline
        .iter()
        .enumerate()
        .map(|(cycle, base)| delta.apply_to(cycle as u64, base))
        .collect()
}
