//! Pins the cross-netlist mapping contract: every rewrite reports a
//! *total* old-net → new-net mapping, including the nets that pipelining
//! copies into `_pipeK` register chains or that moves insert fresh.
//!
//! Callers read output locations from the mapping, never from `_pipe`
//! name prefixes, which would be lossy for inserted nets.

use glitch_arith::{AdderStyle, ArrayMultiplier, RippleCarryAdder, WallaceTreeMultiplier};
use glitch_netlist::{NetId, Netlist};
use glitch_retime::{insert_buffer, pipeline_netlist, NetMap, PipelineOptions};

/// Every original net must have an image, every original output an
/// observation point that is actually marked as an output, and distinct
/// same-stage values must not collapse onto one new net.
fn assert_total(original: &Netlist, transformed: &Netlist, map: &NetMap) {
    map.validate(original, transformed)
        .expect("mapping is total and well-targeted");
    assert_eq!(map.len(), original.net_count());
    let mut seen = vec![false; transformed.net_count()];
    for (old, _) in original.nets() {
        let new = map.new_net(old);
        assert!(
            !seen[new.index()],
            "two original nets collapsed onto `{}`",
            transformed.net(new).name()
        );
        seen[new.index()] = true;
    }
}

#[test]
fn pipeline_mapping_is_total_at_every_rank() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);
    for ranks in [0usize, 1, 2, 4, 6] {
        let piped = pipeline_netlist(&mult.netlist, ranks, PipelineOptions::default()).unwrap();
        assert_total(&mult.netlist, &piped.netlist, &piped.map);
        assert_eq!(piped.map.latency(), ranks);
    }
}

#[test]
fn pipeline_mapping_tracks_reregistered_outputs() {
    // At 4 ranks the multiplier's early product bits are re-registered to
    // the final stage: their observation point must differ from their
    // same-stage copy and carry a `_pipe` name — exactly the nets the old
    // name-prefix hack guessed at.
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);
    let piped = pipeline_netlist(&mult.netlist, 4, PipelineOptions::default()).unwrap();
    let mut reregistered = 0;
    for &output in mult.netlist.outputs() {
        let observed = piped.map.output_net(output);
        assert!(piped.netlist.net(observed).is_primary_output());
        if observed != piped.map.new_net(output) {
            reregistered += 1;
            assert!(
                piped.netlist.net(observed).name().contains("_pipe"),
                "re-registered output should sit on a pipeline register"
            );
        }
    }
    assert!(
        reregistered > 0,
        "a 4-rank pipeline re-registers at least one early product bit"
    );
}

#[test]
fn pipeline_mapping_covers_wallace_and_ripple_shapes() {
    let wallace = WallaceTreeMultiplier::new(4, AdderStyle::CompoundCell);
    let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
    for netlist in [&wallace.netlist, &adder.netlist] {
        for ranks in [1usize, 3] {
            let piped = pipeline_netlist(netlist, ranks, PipelineOptions::default()).unwrap();
            assert_total(netlist, &piped.netlist, &piped.map);
        }
    }
}

#[test]
fn move_rewrites_report_total_mappings() {
    let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
    // Buffer every bufferable net.
    for (net, _) in adder.netlist.nets() {
        if adder.netlist.net(net).loads().is_empty() {
            continue;
        }
        let rewrite = insert_buffer(&adder.netlist, net).unwrap();
        assert_total(&adder.netlist, &rewrite.netlist, &rewrite.map);
    }
}

#[test]
fn composed_move_chains_stay_total() {
    let mult = ArrayMultiplier::new(3, AdderStyle::CompoundCell);
    // retime, then buffer a net in the pipelined netlist, composing maps
    // back to the original.
    let retimed = pipeline_netlist(&mult.netlist, 2, PipelineOptions::default()).unwrap();
    let hot = retimed
        .netlist
        .nets()
        .map(|(id, _)| id)
        .find(|&id| !retimed.netlist.net(id).loads().is_empty())
        .unwrap();
    let buffered = insert_buffer(&retimed.netlist, hot).unwrap();
    let composed = retimed.map.compose(&buffered.map);
    assert_total(&mult.netlist, &buffered.netlist, &composed);
    assert_eq!(composed.latency(), 2);
}

#[test]
fn identity_map_round_trips_net_ids() {
    let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
    let map = NetMap::identity(&adder.netlist);
    assert_total(&adder.netlist, &adder.netlist, &map);
    for index in 0..adder.netlist.net_count() {
        let id = NetId::from_index(index);
        assert_eq!(map.new_net(id), id);
    }
}
