//! Pins the functional screen the reducer reads off its confirm scores
//! (`screen_scores`): a candidate passes when every output of the current
//! netlist at cycle `c` equals its image in the candidate at `c +
//! latency`, for every seed. Good moves (a buffer, 2/4/6-rank retimes)
//! pass, and so does every move the co-simulated `Screen` passes; a
//! broken rewrite and a retime whose map misstates its latency by one
//! cycle fail, with the diverging output named.

use std::collections::HashMap;

use glitch_arith::{AdderStyle, ArrayMultiplier};
use glitch_core::{AnalysisConfig, EngineKind, ReduceScore, ReduceSession};
use glitch_netlist::{Bus, NetId, Netlist};
use glitch_reduce::{screen_candidate, screen_scores, ScreenBackend, ScreenOutcome};
use glitch_retime::{insert_buffer, pipeline_rewrite, NetMap, PipelineOptions, Rewrite};

fn session(engine: EngineKind) -> ReduceSession {
    ReduceSession::new(
        AnalysisConfig {
            cycles: 150,
            engine,
            ..AnalysisConfig::default()
        },
        vec![3, 8],
        1,
    )
}

/// Scores `current` on `buses`, then `rewrite` on the buses remapped
/// through it, as the reducer does, and screens the rewrite from the two.
fn screen(
    engine: EngineKind,
    current: &Netlist,
    buses: &[Bus],
    rewrite: &Rewrite,
) -> ScreenOutcome {
    let session = session(engine);
    let before = session.score(current, buses, &[]).expect("scores");
    let remapped: Vec<Bus> = buses
        .iter()
        .map(|bus| Bus::new(bus.iter().map(|&net| rewrite.map.new_net(net)).collect()))
        .collect();
    let after: ReduceScore = session
        .score(&rewrite.netlist, &remapped, &[])
        .expect("scores");
    assert_eq!(before.outputs.len(), 2, "one record per seed");
    screen_scores(current, &before, rewrite, &after)
}

/// The multiplier's good moves: a buffer behind its most loaded net and
/// retimes of 2, 4 and 6 ranks.
fn good_moves(netlist: &Netlist) -> Vec<Rewrite> {
    let loaded = netlist
        .nets()
        .max_by_key(|(id, net)| (net.loads().len(), std::cmp::Reverse(*id)))
        .map(|(id, _)| id)
        .expect("nets");
    let mut moves = vec![insert_buffer(netlist, loaded).expect("buffer applies")];
    for ranks in [2, 4, 6] {
        moves
            .push(pipeline_rewrite(netlist, ranks, PipelineOptions::default()).expect("pipelines"));
    }
    moves
}

#[test]
fn good_moves_pass_on_both_engines_as_the_screen_passes_them() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);
    let buses = [mult.x.clone(), mult.y.clone()];
    for rewrite in good_moves(&mult.netlist) {
        let cosimulated =
            screen_candidate(&mult.netlist, &rewrite, ScreenBackend::Kernel, 48, 64, 7)
                .expect("screen runs");
        assert!(cosimulated.accepted, "{}", rewrite.description);
        for engine in [EngineKind::Hybrid, EngineKind::Queue] {
            let outcome = screen(engine, &mult.netlist, &buses, &rewrite);
            assert!(
                outcome.accepted,
                "`{}` on {engine:?}: {:?}",
                rewrite.description, outcome.mismatch
            );
            assert_eq!(outcome.lanes, 2, "two seeds");
            assert_eq!(outcome.cycles, 150 - rewrite.map.latency() as u64);
        }
    }
}

/// The broken rewrite of `screen_pin.rs`: an AND where the sum XOR
/// belongs.
#[test]
fn a_broken_rewrite_fails_with_its_output_named() {
    let build = |broken: bool| {
        let mut nl = Netlist::new("sum_bit");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = if broken {
            nl.and2(a, b, "y")
        } else {
            nl.xor2(a, b, "y")
        };
        nl.mark_output(y);
        nl
    };
    let original = build(false);
    let rewrite = Rewrite {
        map: NetMap::identity(&original),
        netlist: build(true),
        description: "and2 masquerading as xor2".to_string(),
    };
    let buses = [Bus::new(original.inputs().to_vec())];
    for engine in [EngineKind::Hybrid, EngineKind::Queue] {
        let outcome = screen(engine, &original, &buses, &rewrite);
        assert!(!outcome.accepted, "{engine:?}");
        let mismatch = outcome.mismatch.expect("rejections carry a location");
        assert!(
            mismatch.starts_with("output `y` diverged at cycle "),
            "{engine:?}: {mismatch}"
        );
        // XOR and AND agree only on `a = b = 0`.
        assert!(
            mismatch.ends_with(": One vs Zero") || mismatch.ends_with(": Zero vs One"),
            "{mismatch}"
        );
    }
}

/// A 2-rank retime whose map claims one cycle more, or one less, than
/// the ranks it adds.
#[test]
fn a_retime_with_its_latency_off_by_one_fails() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);
    let buses = [mult.x.clone(), mult.y.clone()];
    let retime = pipeline_rewrite(&mult.netlist, 2, PipelineOptions::default()).expect("pipelines");
    let forward: Vec<NetId> = (0..mult.netlist.net_count())
        .map(|index| retime.map.new_net(NetId::from_index(index)))
        .collect();
    let outputs: HashMap<NetId, NetId> = mult
        .netlist
        .outputs()
        .iter()
        .map(|&net| (net, retime.map.output_net(net)))
        .collect();
    for latency in [1, 3] {
        let misstated = Rewrite {
            map: NetMap::new(forward.clone(), outputs.clone(), latency),
            netlist: retime.netlist.clone(),
            description: format!("2 ranks declared as {latency}"),
        };
        let outcome = screen(EngineKind::Hybrid, &mult.netlist, &buses, &misstated);
        assert!(!outcome.accepted, "{}", misstated.description);
        let mismatch = outcome.mismatch.expect("rejections carry a location");
        assert!(
            mismatch.starts_with("output `") && mismatch.contains(" diverged at cycle "),
            "{mismatch}"
        );
        let cosimulated =
            screen_candidate(&mult.netlist, &misstated, ScreenBackend::Kernel, 48, 64, 7)
                .expect("screen runs");
        assert!(!cosimulated.accepted, "the screen agrees: {latency}");
    }
}
