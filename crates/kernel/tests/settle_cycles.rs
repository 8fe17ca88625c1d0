//! Differential test of [`KernelProgram::settle_cycles`] against
//! stepping a one-lane state one clock cycle at a time.
//!
//! The reference steps one lane per clock cycle — `begin_cycle`, drive
//! the cycle's inputs, `eval`, `latch` — and records every net's settled
//! value. `settle_cycles` settles the same cycles as the lanes of blocks,
//! each block starting from the flipflop state the previous one returned.
//! Every net of every cycle must agree, and so must the state after the
//! last cycle. Cases: random sequential circuits, the 4-bit counter of
//! the corpus (feedback), the 8-bit multiplier pipelined to 2, 4 and 6
//! register ranks with and without an input rank, a flipflop fed straight
//! by a primary input, a shift register and the counter with a pipeline
//! beside it; one block of 1, 63, 64, 65 and 256 lanes and 300 lanes
//! chained across two blocks; both eval modes; flipflops initialised 0, 1
//! and `X`. The evaluation count is pinned too: exactly one per 64-lane
//! word wherever no flipflop feeds back, at most 65 per word around
//! feedback.

#[path = "../../sim/tests/support/mod.rs"]
#[allow(dead_code)]
mod support;

use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::retime::{pipeline_netlist, PipelineOptions};
use glitch_io::{parse_netlist, Format, GateLibrary};
use glitch_kernel::{EvalMode, KernelProgram};
use glitch_netlist::{DffInit, NetId, Netlist, Tri};
use proptest::prelude::*;

/// Block plans: one block each, then 300 cycles chained across two.
const PLANS: [&[usize]; 7] = [&[1], &[63], &[64], &[65], &[256], &[256, 44], &[130, 170]];

const MODES: [EvalMode; 2] = [EvalMode::Coarse, EvalMode::TriTable];

/// Flipflop inits under test: every cell `0`, every cell `1`, every cell
/// `DontCare` powered on `X`.
const INITS: [DffInit; 3] = [DffInit::Zero, DffInit::One, DffInit::DontCare];

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stimulus of input `index` in `cycle`: mostly binary, one in eight
/// `X`.
fn input_value(seed: u64, cycle: usize, index: usize) -> Tri {
    let h = splitmix64(seed ^ (cycle as u64) << 20 ^ index as u64);
    match h % 8 {
        0 => Tri::X,
        k if k % 2 == 1 => Tri::One,
        _ => Tri::Zero,
    }
}

fn with_inits(netlist: &Netlist, init: DffInit) -> Netlist {
    let mut netlist = netlist.clone();
    let cells: Vec<_> = netlist.dff_cells().collect();
    for cell in cells {
        netlist.set_dff_init(cell, init);
    }
    netlist
}

/// The stepped reference: every net's value in every cycle, and the
/// flipflop state after the last one.
fn stepped(
    program: &KernelProgram,
    cycles: usize,
    seed: u64,
    mode: EvalMode,
) -> (Vec<Vec<Tri>>, Vec<Tri>) {
    let mut state = program.new_state(1, Tri::X);
    let mut values = Vec::with_capacity(cycles);
    let mut next = program.power_on_state(Tri::X);
    for cycle in 0..cycles {
        program.begin_cycle(&mut state);
        for (index, &net) in program.inputs().iter().enumerate() {
            state.set(net, 0, input_value(seed, cycle, index));
        }
        program.eval(&mut state, mode);
        values.push(
            (0..program.net_count())
                .map(|n| state.get(NetId::from_index(n), 0))
                .collect(),
        );
        next = program.dffs().iter().map(|d| state.get(d.d(), 0)).collect();
        program.latch(&mut state);
    }
    (values, next)
}

/// Settles `plan`'s blocks with `settle_cycles`, asserts every plane and
/// the returned state equal the stepped reference, and returns the
/// one-word evaluations of each block with its lane count.
fn check_plan(
    program: &KernelProgram,
    plan: &[usize],
    seed: u64,
    mode: EvalMode,
    case: &str,
) -> Vec<(usize, usize)> {
    let cycles: usize = plan.iter().sum();
    let (values, expected_next) = stepped(program, cycles, seed, mode);
    let mut carry = program.power_on_state(Tri::X);
    let mut first = 0;
    let mut evals = Vec::new();
    for &lanes in plan {
        let mut state = program.new_state(lanes, Tri::X);
        for lane in 0..lanes {
            for (index, &net) in program.inputs().iter().enumerate() {
                state.set(net, lane, input_value(seed, first + lane, index));
            }
        }
        let settled = program.settle_cycles(&mut state, &carry, mode);
        for lane in 0..lanes {
            for (n, &value) in values[first + lane].iter().enumerate() {
                assert_eq!(
                    state.get(NetId::from_index(n), lane),
                    value,
                    "net {n} in cycle {}: {case}",
                    first + lane
                );
            }
        }
        // Lanes beyond the block stay zero in both planes.
        let words = state.words();
        for (n, (val, msk)) in state
            .val_planes()
            .chunks(words)
            .zip(state.msk_planes().chunks(words))
            .enumerate()
        {
            let tail = !state.word_mask(words - 1);
            assert_eq!(
                (val[words - 1] | msk[words - 1]) & tail,
                0,
                "net {n}: {case}"
            );
        }
        evals.push((settled.word_evals, lanes));
        carry = settled.next_state;
        first += lanes;
    }
    assert_eq!(carry, expected_next, "state after the last cycle: {case}");
    evals
}

/// Every plan × mode × init on `netlist`; returns the evaluation counts
/// of every block with its lane count.
fn check_all(netlist: &Netlist, seed: u64) -> Vec<(usize, usize)> {
    let mut evals = Vec::new();
    for init in INITS {
        let netlist = with_inits(netlist, init);
        let program = KernelProgram::compile(&netlist).expect("acyclic");
        for plan in PLANS {
            for mode in MODES {
                let case = format!("{} {init:?} {mode:?} {plan:?}", netlist.name());
                evals.extend(check_plan(&program, plan, seed, mode, &case));
            }
        }
    }
    evals
}

/// The most evaluations a block of `lanes` may take when every word needs
/// at most `per_word(lanes_in_word)`.
fn word_bound(lanes: usize, per_word: impl Fn(usize) -> usize) -> usize {
    (0..lanes.div_ceil(64))
        .map(|w| per_word((lanes - 64 * w).min(64)))
        .sum()
}

fn corpus(file: &str) -> Netlist {
    let path = format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("corpus file readable");
    parse_netlist(&text, Format::Blif, &GateLibrary::standard()).expect("corpus parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn settle_cycles_matches_stepping_on_random_circuits(
        input_count in 1usize..6,
        gate_words in proptest::collection::vec(0u64..u64::MAX, 1..40),
        seed in 0u64..1000,
    ) {
        // Feed-forward by construction: every flipflop is acyclic.
        let built = support::build_netlist(input_count, &gate_words);
        for (evals, lanes) in check_all(&built.netlist, seed) {
            prop_assert_eq!(evals, lanes.div_ceil(64), "{} lanes", lanes);
        }
    }
}

#[test]
fn settle_cycles_matches_stepping_on_the_counter() {
    let counter = corpus("counter4.blif");
    assert!(counter.dff_count() > 0);
    for (evals, lanes) in check_all(&counter, 0xC0DE) {
        assert!(
            evals <= word_bound(lanes, |l| l + 1),
            "the counter's feedback takes at most one eval per lane plus one \
             per word: {evals} evals for {lanes} lanes"
        );
    }
}

/// Asserts every block of `netlist` settles in one evaluation per word.
fn check_one_eval_per_word(netlist: &Netlist, seed: u64) {
    for (evals, lanes) in check_all(netlist, seed) {
        assert_eq!(
            evals,
            lanes.div_ceil(64),
            "{}: an acyclic register graph settles in one eval per word ({lanes} lanes)",
            netlist.name()
        );
    }
}

#[test]
fn settle_cycles_matches_stepping_on_the_pipelined_multiplier() {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell).netlist;
    for register_inputs in [true, false] {
        for ranks in [2, 4, 6] {
            let piped = pipeline_netlist(&mult, ranks, PipelineOptions { register_inputs })
                .expect("the multiplier pipelines");
            assert_eq!(piped.map.latency(), ranks);
            check_one_eval_per_word(&piped.netlist, 0xDA7E + ranks as u64);
        }
    }
}

#[test]
fn a_flipflop_fed_by_a_primary_input_settles_in_one_eval() {
    let mut nl = Netlist::new("input_register");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let qa = nl.dff(a, "qa");
    let y = nl.and2(qa, b, "y");
    let qy = nl.dff(y, "qy");
    nl.mark_output(qa);
    nl.mark_output(qy);
    check_one_eval_per_word(&nl, 0x1A);
}

#[test]
fn a_shift_register_settles_in_one_eval() {
    let mut nl = Netlist::new("shift_register");
    let a = nl.add_input("a");
    let q = nl.dff_chain(a, 5, "sr");
    nl.mark_output(q);
    check_one_eval_per_word(&nl, 0x5F);
}

#[test]
fn a_pipeline_beside_a_counter_still_matches_stepping() {
    // The counter's feedback puts the whole program on the fixpoint.
    let mut nl = corpus("counter4.blif");
    let p = nl.add_input("p");
    let q3 = nl.find_net("q3").expect("the counter's top bit");
    let x = nl.xor2(p, q3, "x");
    let piped = nl.dff_chain(x, 3, "pipe");
    let y = nl.and2(piped, p, "y");
    nl.mark_output(y);
    for (evals, lanes) in check_all(&nl, 0xC0DE) {
        assert!(
            evals <= word_bound(lanes, |l| l + 1),
            "{evals} evals for {lanes} lanes"
        );
    }
}

#[test]
fn a_netlist_without_flipflops_is_one_eval() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell).netlist;
    let program = KernelProgram::compile(&mult).expect("acyclic");
    for plan in PLANS {
        for (evals, lanes) in check_plan(&program, plan, 5, EvalMode::Coarse, "mult4") {
            assert_eq!(evals, lanes.div_ceil(64));
        }
    }
}
