//! The reducer builds each candidate just before scoring it, from a lazy
//! [`proposals`] iterator, and [`generate_candidates`] collects that same
//! iterator. On mult16 (`reduce mult16.blif --cycles 200 --seed 5`), both
//! iterations of the descent must propose the same candidates either way,
//! in the same order, with the same kind, description and netlist
//! fingerprint: four buffers and three retimes on the original, four
//! buffers on the 6-rank netlist the first iteration accepts, and no
//! duplication anywhere.

use glitch_arith::{AdderStyle, ArrayMultiplier};
use glitch_core::{AnalysisConfig, EngineKind, ReduceScore, ReduceSession};
use glitch_io::{emit_blif, parse_netlist, Format, GateLibrary};
use glitch_netlist::{Bus, Netlist};
use glitch_reduce::{generate_candidates, proposals, Candidate, MoveKind, ReduceOptions, Reducer};

fn mult16() -> Netlist {
    let text = emit_blif(&ArrayMultiplier::new(16, AdderStyle::CompoundCell).netlist);
    parse_netlist(&text, Format::Blif, &GateLibrary::standard()).expect("mult16 parses")
}

fn session() -> ReduceSession {
    let config = AnalysisConfig {
        cycles: 200,
        seed: 5,
        engine: EngineKind::Hybrid,
        ..AnalysisConfig::default()
    };
    ReduceSession::new(config, vec![5], 1)
}

fn summary(candidate: &Candidate) -> (MoveKind, String, u64) {
    (
        candidate.kind,
        candidate.rewrite.description.clone(),
        candidate.rewrite.netlist.fingerprint(),
    )
}

/// The round proposed both ways, checked equal, as summaries.
fn round(netlist: &Netlist, score: &ReduceScore) -> Vec<(MoveKind, String, u64)> {
    let options = ReduceOptions::default();
    let lazy: Vec<_> = proposals(
        netlist,
        score,
        &options.moves,
        options.per_kind,
        options.pipeline,
    )
    .map(|candidate| summary(&candidate))
    .collect();
    let eager: Vec<_> = generate_candidates(
        netlist,
        score,
        &options.moves,
        options.per_kind,
        options.pipeline,
    )
    .iter()
    .map(summary)
    .collect();
    assert_eq!(lazy, eager);
    lazy
}

fn count(round: &[(MoveKind, String, u64)], kind: MoveKind) -> usize {
    round.iter().filter(|(k, _, _)| *k == kind).count()
}

#[test]
fn lazy_proposals_equal_the_collected_round_in_both_iterations() {
    let netlist = mult16();
    let session = session();
    let buses: Vec<Bus> = netlist
        .inputs()
        .chunks(32)
        .map(|chunk| Bus::new(chunk.to_vec()))
        .collect();

    let score = session.score(&netlist, &buses, &[]).expect("scores");
    let first = round(&netlist, &score);
    assert_eq!(count(&first, MoveKind::Buffer), 4, "{first:?}");
    assert_eq!(count(&first, MoveKind::Retime), 3, "{first:?}");

    let one_move = ReduceOptions {
        max_iters: 1,
        ..ReduceOptions::default()
    };
    let report = Reducer::new(session.clone(), one_move)
        .run(&netlist, &buses, &[])
        .expect("reduces");
    assert_eq!(report.proposed, first.len());
    let accepted = &report.netlist;
    assert_eq!(
        (accepted.cell_count(), accepted.net_count()),
        (995, 1283),
        "the 6-rank retime wins the first iteration"
    );
    let next_buses: Vec<Bus> = buses
        .iter()
        .map(|bus| Bus::new(bus.iter().map(|&net| report.map.new_net(net)).collect()))
        .collect();
    let score = session.score(accepted, &next_buses, &[]).expect("scores");
    let second = round(accepted, &score);
    assert_eq!(count(&second, MoveKind::Buffer), 4, "{second:?}");
    assert_eq!(second.len(), 4, "a pipelined netlist is not retimed again");

    let full = Reducer::new(session, ReduceOptions::default())
        .run(&netlist, &buses, &[])
        .expect("reduces");
    assert_eq!(full.iterations, 2);
    assert_eq!(full.proposed, first.len() + second.len());
}
