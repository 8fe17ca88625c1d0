//! Pins the event-driven reference engine's exact transition stream.
//!
//! Every observable of a `ClockedSimulator` run — each `Transition` (net,
//! cycle, time, value, kind), each cycle's `CycleStats` and the final
//! `QueueStats` — is folded into an explicit FNV-1a 64 digest over
//! little-endian fields, and the digest is compared against a constant.
//! The constants were generated by the binary-heap event queue this engine
//! started out with, so any rewrite of the settle loop or the queue must
//! reproduce that engine's stream bit for bit. Never regenerate them to
//! make a change pass: a mismatch means the change altered a transition.
//!
//! Cases: the 8-bit compound-cell array multiplier and a few fixed random
//! sequential circuits, under unit, zero, realistic-adder and a custom
//! (default 9) delay model, each with binary and X-init options. One more
//! case runs the multiplier under a settle budget it cannot meet, pinning
//! the stream up to and including the `DidNotSettle` cycle.

#[path = "../../sim/tests/support/mod.rs"]
#[allow(dead_code)]
mod support;

use glitch_arith::{AdderStyle, ArrayMultiplier};
use glitch_netlist::{NetId, Netlist};
use glitch_sim::{
    CellDelay, ClockedSimulator, CycleStats, DelayKind, InputAssignment, Probe, QueueStats,
    SimError, SimOptions, Transition, TransitionKind, Value,
};

/// FNV-1a 64 over explicit little-endian words: stable across Rust
/// releases, unlike `DefaultHasher`.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

fn value_code(value: Value) -> u64 {
    match value {
        Value::Zero => 0,
        Value::One => 1,
        Value::X => 2,
    }
}

fn kind_code(kind: TransitionKind) -> u64 {
    match kind {
        TransitionKind::Rise => 0,
        TransitionKind::Fall => 1,
        TransitionKind::Unknown => 2,
    }
}

/// Folds every transition and every cycle's statistics, in hook order.
#[derive(Debug)]
struct DigestProbe {
    fnv: Fnv,
}

impl Probe for DigestProbe {
    fn on_transition(&mut self, t: &Transition) {
        self.fnv.word(t.net.index() as u64);
        self.fnv.word(t.cycle);
        self.fnv.word(t.time);
        self.fnv.word(value_code(t.value));
        self.fnv.word(kind_code(t.kind));
    }

    fn on_cycle_end(&mut self, cycle: u64, stats: &CycleStats) {
        self.fnv.word(cycle);
        self.fnv.word(stats.transitions);
        self.fnv.word(stats.settle_time);
        self.fnv.word(stats.events);
        self.fnv.word(stats.cell_evals);
    }
}

/// SplitMix64: a fixed word stream for netlists and stimuli.
fn words(seed: u64, count: usize) -> Vec<u64> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

fn delay_kinds() -> [(&'static str, DelayKind); 4] {
    [
        ("unit", DelayKind::Unit),
        ("zero", DelayKind::Zero),
        ("adder", DelayKind::RealisticAdderCells),
        (
            "custom9",
            DelayKind::Custom(CellDelay::new().with_default(9)),
        ),
    ]
}

fn option_sets() -> [(&'static str, SimOptions); 2] {
    [
        ("binary", SimOptions::default()),
        ("x-init", SimOptions::x_init()),
    ]
}

/// Runs the stimulus until it ends or a cycle fails. Returns the digest of
/// the observed stream, the final queue statistics and the failure, plus
/// the cycle that failed to settle (if any).
fn digest(
    netlist: &Netlist,
    delay: DelayKind,
    options: SimOptions,
    stimulus: Vec<InputAssignment>,
) -> (u64, Option<u64>) {
    let mut sim = ClockedSimulator::with_options(netlist, delay.into_model(), options)
        .expect("pinned circuits validate");
    sim.attach_probe(Box::new(DigestProbe { fnv: Fnv::new() }));
    let mut failure = None;
    for assignment in stimulus {
        if let Err(error) = sim.step(assignment) {
            failure = Some(error);
            break;
        }
    }
    let mut fnv = sim.probe_ref::<DigestProbe>().expect("attached").fnv;
    let QueueStats {
        pushes,
        pops,
        peak_depth,
    } = sim.queue_stats();
    fnv.word(pushes);
    fnv.word(pops);
    fnv.word(peak_depth);
    let failed_cycle = match failure {
        None => None,
        Some(SimError::DidNotSettle { cycle, .. }) => Some(cycle),
        Some(other) => panic!("unexpected simulation error: {other}"),
    };
    fnv.word(failed_cycle.map_or(0, |cycle| cycle + 1));
    (fnv.0, failed_cycle)
}

fn multiplier() -> (Netlist, Vec<NetId>) {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let inputs = mult.x.bits().iter().chain(mult.y.bits()).copied().collect();
    (mult.netlist, inputs)
}

/// Compares every `(delay, options)` digest of one circuit against its
/// pinned table and describes each mismatch.
fn mismatches(
    circuit: &str,
    netlist: &Netlist,
    stimulus: &[InputAssignment],
    pinned: &[u64; 8],
) -> Vec<String> {
    let cases = delay_kinds().into_iter().flat_map(|(delay_name, delay)| {
        option_sets()
            .into_iter()
            .map(move |(options_name, options)| (delay_name, delay.clone(), options_name, options))
    });
    cases
        .zip(pinned)
        .filter_map(|((delay_name, delay, options_name, options), &want)| {
            let (got, failed) = digest(netlist, delay, options, stimulus.to_vec());
            assert_eq!(
                failed, None,
                "{circuit} {delay_name}/{options_name} settles"
            );
            (got != want).then(|| {
                format!(
                    "{circuit} {delay_name}/{options_name}: got {got:#018x}, pinned {want:#018x}"
                )
            })
        })
        .collect()
}

#[test]
fn array_multiplier_stream_is_pinned() {
    let (netlist, inputs) = multiplier();
    let stimulus = support::build_assignments(&inputs, &words(0x51CE, 48));
    let changed = mismatches("mult8", &netlist, &stimulus, &MULT8);
    assert!(
        changed.is_empty(),
        "transition stream changed:\n{}",
        changed.join("\n")
    );
}

#[test]
fn random_sequential_streams_are_pinned() {
    let mut changed = Vec::new();
    for (i, &(input_count, gates, seed)) in SEQUENTIAL.iter().enumerate() {
        let circuit = support::build_netlist(input_count, &words(seed, gates));
        assert!(
            circuit.netlist.dff_cells().next().is_some(),
            "pinned circuit {i} must be sequential"
        );
        let stimulus = support::build_assignments(&circuit.inputs, &words(seed ^ 0xFEED, 40));
        changed.extend(mismatches(
            &format!("sequential {i}"),
            &circuit.netlist,
            &stimulus,
            &SEQUENTIAL_PINS[i],
        ));
    }
    assert!(
        changed.is_empty(),
        "transition stream changed:\n{}",
        changed.join("\n")
    );
}

#[test]
fn over_budget_stream_is_pinned_through_did_not_settle() {
    // The multiplier needs more than 6 unit delays to settle, so some
    // cycle fails; the in-budget events before the failure are pinned.
    let (netlist, inputs) = multiplier();
    let stimulus = support::build_assignments(&inputs, &words(0xB0D6, 24));
    let options = SimOptions {
        settle_budget: 6,
        ..SimOptions::default()
    };
    let (got, failed) = digest(&netlist, DelayKind::Unit, options, stimulus);
    assert!(failed.is_some(), "the budget must be exceeded");
    assert_eq!(got, OVER_BUDGET, "got {got:#018x}");
}

/// `(input count, gate count, seed)` of the pinned sequential circuits.
const SEQUENTIAL: [(usize, usize, u64); 3] = [(4, 24, 11), (6, 48, 23), (8, 96, 37)];

// Pinned digests, in `delay_kinds() × option_sets()` order:
// unit/binary, unit/x-init, zero/…, adder/…, custom9/….
const MULT8: [u64; 8] = [
    0x424b_a7ad_1741_a0c3,
    0xe7bb_7965_abe7_13b6,
    0x744e_6a67_2a35_852d,
    0xa254_9d8f_adcb_494c,
    0x04a1_35de_ac1a_3702,
    0xf8ad_5c77_bf3c_d558,
    0x8593_9655_f04c_cf93,
    0xac31_897e_daf6_63ce,
];
const SEQUENTIAL_PINS: [[u64; 8]; 3] = [
    [
        0xbe28_6266_d415_7d2f,
        0xf138_e2c5_03ed_3a79,
        0x6224_0cd2_9d4e_6464,
        0xdb69_1f7e_ebcc_b4b1,
        0xbe28_6266_d415_7d2f,
        0xf138_e2c5_03ed_3a79,
        0x655f_5d33_6abe_d877,
        0x4311_4665_b400_9379,
    ],
    [
        0xb190_964f_357f_ce61,
        0x629d_de3a_75bc_7b77,
        0x2a88_831a_dc05_ea66,
        0x7920_31a5_eb4c_61e4,
        0xb190_964f_357f_ce61,
        0x629d_de3a_75bc_7b77,
        0x0597_942e_9f60_8649,
        0x95cc_5993_b235_956f,
    ],
    [
        0x31e7_8eea_eb8b_21da,
        0x1878_f024_dcf5_0ac4,
        0xe3e2_5f3a_dc73_1793,
        0x1444_40df_ca69_9a05,
        0x31e7_8eea_eb8b_21da,
        0x1878_f024_dcf5_0ac4,
        0x9571_40b9_d475_d3ea,
        0xff62_9cef_fcb4_be3c,
    ],
];
const OVER_BUDGET: u64 = 0x25f7_1a1f_640a_f96d;
