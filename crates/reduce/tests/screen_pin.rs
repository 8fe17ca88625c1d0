//! Pins the screen-backend identity: the 64-lane compiled-kernel batch
//! screen accepts and rejects **exactly** the same candidates as the
//! event-queue screen — same decision, same first-divergence message,
//! same cycle count — on the corpus circuits and on random netlists.
//!
//! This is what lets the reducer batch-screen through the kernel
//! without changing any reduction result: kernel settled values equal
//! queue settled values (the kernel oracle), and both backends share the
//! stimulus generator and comparison order.

#[path = "../../sim/tests/support/mod.rs"]
#[allow(dead_code)]
mod support;

use std::collections::HashMap;

use glitch_arith::{AdderStyle, ArrayMultiplier, RippleCarryAdder};
use glitch_netlist::{NetId, Netlist};
use glitch_reduce::{screen_candidate, Screen, ScreenBackend, ScreenOutcome};
use glitch_retime::{insert_buffer, pipeline_netlist, NetMap, PipelineOptions, Rewrite};

const CYCLES: u64 = 32;
const LANES: usize = 64;
const SEED: u64 = 0x5C12_EE4D;

/// Every applicable rewrite on `netlist`, capped per kind: buffers on the
/// first nets with loads and (for combinational netlists) shallow
/// pipeline ranks.
fn candidates(netlist: &Netlist) -> Vec<Rewrite> {
    let mut rewrites = Vec::new();
    let loaded: Vec<NetId> = netlist
        .nets()
        .filter(|(_, net)| !net.loads().is_empty())
        .map(|(id, _)| id)
        .collect();
    rewrites.extend(
        loaded
            .iter()
            .filter_map(|&net| insert_buffer(netlist, net).ok())
            .take(4),
    );
    if netlist.dff_count() == 0 {
        rewrites.extend([1usize, 2, 3].iter().filter_map(|&ranks| {
            pipeline_netlist(netlist, ranks, PipelineOptions::default()).ok()
        }));
    }
    rewrites
}

fn assert_backends_agree(netlist: &Netlist, rewrite: &Rewrite, expect_accept: bool) {
    assert_backends_agree_at(netlist, rewrite, LANES, expect_accept);
}

fn assert_backends_agree_at(
    netlist: &Netlist,
    rewrite: &Rewrite,
    lanes: usize,
    expect_accept: bool,
) -> ScreenOutcome {
    let kernel = screen_candidate(netlist, rewrite, ScreenBackend::Kernel, CYCLES, lanes, SEED)
        .expect("kernel screen runs");
    let queue = screen_candidate(netlist, rewrite, ScreenBackend::Queue, CYCLES, lanes, SEED)
        .expect("queue screen runs");
    assert_eq!(
        kernel,
        queue,
        "`{}` on `{}`: the backends must return identical outcomes",
        rewrite.description,
        netlist.name()
    );
    assert_eq!(
        kernel.accepted,
        expect_accept,
        "`{}` on `{}`: wrong decision ({:?})",
        rewrite.description,
        netlist.name(),
        kernel.mismatch
    );
    kernel
}

#[test]
fn backends_accept_the_same_moves_on_the_corpus() {
    let corpus: Vec<Netlist> = vec![
        RippleCarryAdder::new(4, AdderStyle::Gates).netlist,
        RippleCarryAdder::new(6, AdderStyle::CompoundCell).netlist,
        ArrayMultiplier::new(3, AdderStyle::Gates).netlist,
    ];
    let mut screened = 0usize;
    for netlist in &corpus {
        for rewrite in candidates(netlist) {
            assert_backends_agree(netlist, &rewrite, true);
            screened += 1;
        }
    }
    assert!(
        screened >= 12,
        "the corpus must exercise a real move set, got {screened}"
    );
}

#[test]
fn backends_accept_the_same_moves_on_random_netlists() {
    for seed in 0u64..6 {
        let words: Vec<u64> = (0..20)
            .map(|i| {
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i * 0x0123_4567_89AB_CDEF)
            })
            .collect();
        let built = support::build_netlist(2 + (seed as usize % 3), &words);
        for rewrite in candidates(&built.netlist) {
            assert_backends_agree(&built.netlist, &rewrite, true);
        }
    }
}

/// A deliberately broken "move" — the same shape with an AND where the
/// XOR belongs — must be rejected by **both** backends, with the same
/// divergence location and the same early-exit cycle count.
#[test]
fn backends_reject_a_broken_rewrite_identically() {
    let mut original = Netlist::new("sum_bit");
    let a = original.add_input("a");
    let b = original.add_input("b");
    let y = original.xor2(a, b, "y");
    original.mark_output(y);

    // Built in the same order, so net ids line up and the identity map
    // is total over both netlists.
    let mut broken = Netlist::new("sum_bit");
    let a2 = broken.add_input("a");
    let b2 = broken.add_input("b");
    let y2 = broken.and2(a2, b2, "y");
    broken.mark_output(y2);
    assert_eq!((a, b, y), (a2, b2, y2));

    let rewrite = Rewrite {
        map: NetMap::identity(&original),
        netlist: broken,
        description: "and2 masquerading as xor2".to_string(),
    };
    let kernel = screen_candidate(
        &original,
        &rewrite,
        ScreenBackend::Kernel,
        CYCLES,
        LANES,
        SEED,
    )
    .unwrap();
    let queue = screen_candidate(
        &original,
        &rewrite,
        ScreenBackend::Queue,
        CYCLES,
        LANES,
        SEED,
    )
    .unwrap();
    assert_eq!(kernel, queue);
    assert!(!kernel.accepted);
    let mismatch = kernel.mismatch.expect("rejections carry a location");
    assert!(
        mismatch.contains("output `y`"),
        "divergence must be located: {mismatch}"
    );
    assert!(kernel.cycles < CYCLES, "rejections exit early");
}

/// A lane count that is not a multiple of 64 leaves a partial tail word;
/// the backends still agree on every corpus move.
#[test]
fn backends_agree_on_a_partial_tail_word() {
    let netlist = ArrayMultiplier::new(3, AdderStyle::Gates).netlist;
    let mut screened = 0usize;
    for rewrite in candidates(&netlist) {
        let outcome = assert_backends_agree_at(&netlist, &rewrite, 100, true);
        assert_eq!(outcome.lanes, 100);
        screened += 1;
    }
    assert!(screened >= 4, "the multiplier offers moves, got {screened}");
}

/// A broken rewrite whose first output is right and whose second is not,
/// screened over 100 lanes: both backends locate the same output, lane
/// and cycle, and print the same message.
#[test]
fn backends_locate_a_broken_second_output_identically() {
    let build = |broken: bool| {
        let mut nl = Netlist::new("two_outputs");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let y0 = nl.and2(a, b, "y0");
        let y1 = if broken {
            nl.or2(b, c, "y1")
        } else {
            nl.xor2(b, c, "y1")
        };
        nl.mark_output(y0);
        nl.mark_output(y1);
        nl
    };
    let original = build(false);
    let rewrite = Rewrite {
        map: NetMap::identity(&original),
        netlist: build(true),
        description: "or2 masquerading as xor2".to_string(),
    };
    let outcome = assert_backends_agree_at(&original, &rewrite, 100, false);
    let mismatch = outcome.mismatch.expect("rejections carry a location");
    assert!(
        mismatch.starts_with("output `y1` lane "),
        "the first output is right, so the second is named: {mismatch}"
    );
    // XOR and OR differ only on `b = c = 1`.
    assert!(mismatch.ends_with(": Zero vs One"), "{mismatch}");
}

/// One [`Screen`] per backend, built once from the current netlist,
/// checks a whole candidate set — good moves and a broken one — with the
/// outcome a fresh `screen_candidate` returns for each candidate.
#[test]
fn one_screen_checks_several_candidates_like_fresh_screens() {
    let netlist = ArrayMultiplier::new(3, AdderStyle::Gates).netlist;
    let mut rewrites = candidates(&netlist);
    // The unchanged multiplier under a misdeclared latency of one cycle.
    let identity = (0..netlist.net_count()).map(NetId::from_index).collect();
    rewrites.push(Rewrite {
        map: NetMap::new(identity, HashMap::new(), 1),
        netlist: netlist.clone(),
        description: "a latency the rewrite does not add".to_string(),
    });
    assert!(rewrites.len() >= 5, "a real candidate set");
    for backend in [ScreenBackend::Kernel, ScreenBackend::Queue] {
        let screen = Screen::new(&netlist, backend, CYCLES, 100, SEED).expect("screen builds");
        let mut rejected = 0;
        for rewrite in &rewrites {
            let shared = screen.check(rewrite).expect("screen runs");
            let fresh = screen_candidate(&netlist, rewrite, backend, CYCLES, 100, SEED)
                .expect("screen runs");
            assert_eq!(shared, fresh, "`{}` on {backend:?}", rewrite.description);
            rejected += usize::from(!shared.accepted);
        }
        assert_eq!(rejected, 1, "only the broken candidate is rejected");
    }
}
