//! The in-place buffer move against a name-by-name rebuild.
//!
//! [`insert_buffer`] clones the netlist and edits the clone. The reference
//! below rebuilds the whole netlist net by net and cell by cell instead,
//! rewiring the moved pins on the way, which is how the move used to work.
//! On every net of rca4, mult4, counter4 and a 4-rank pipelined mult8, the
//! edited netlist must equal the rebuilt one in fingerprint, in every
//! net's load order, in its BLIF text and in its map; an inapplicable site
//! must be refused by both.

use std::collections::HashMap;

use glitch_arith::{AdderStyle, ArrayMultiplier};
use glitch_io::{emit_blif, parse_netlist, Format, GateLibrary};
use glitch_netlist::{CellKind, NetId, Netlist, Pin};
use glitch_retime::{
    insert_buffer, pipeline_netlist, NetMap, PipelineOptions, RetimeError, Rewrite,
};

/// Copies every net of `src` into `out` in id order, preserving names and
/// primary-input marking. Returns the dense forward table.
fn copy_nets(src: &Netlist, out: &mut Netlist) -> Vec<NetId> {
    let mut forward = Vec::with_capacity(src.net_count());
    for (_, net) in src.nets() {
        let id = if net.is_primary_input() {
            out.add_input(net.name())
        } else {
            out.add_net(net.name())
        };
        forward.push(id);
    }
    forward
}

/// A net name not yet present in `out`: `{base}{suffix}`, numbered on
/// collision.
fn fresh_name(out: &Netlist, base: &str, suffix: &str) -> String {
    let first = format!("{base}{suffix}");
    if out.find_net(&first).is_none() {
        return first;
    }
    (2..)
        .map(|k| format!("{base}{suffix}{k}"))
        .find(|name| out.find_net(name).is_none())
        .expect("some numbered suffix is free")
}

/// Copies every cell of `src` into `out` through `forward`, redirecting
/// the input pins in `redirect` to their replacement nets.
fn copy_cells(
    src: &Netlist,
    out: &mut Netlist,
    forward: &[NetId],
    redirect: &HashMap<Pin, NetId>,
) -> Result<(), RetimeError> {
    for (cell_id, cell) in src.cells() {
        let inputs: Vec<NetId> = cell
            .inputs()
            .iter()
            .enumerate()
            .map(|(index, &net)| {
                redirect
                    .get(&Pin {
                        cell: cell_id,
                        index,
                    })
                    .copied()
                    .unwrap_or(forward[net.index()])
            })
            .collect();
        let outputs: Vec<NetId> = cell.outputs().iter().map(|&n| forward[n.index()]).collect();
        let new_id = out
            .add_cell(cell.kind(), cell.name(), inputs, outputs)
            .map_err(RetimeError::InvalidNetlist)?;
        if cell.is_sequential() {
            out.set_dff_init(new_id, cell.dff_init());
        }
    }
    Ok(())
}

fn rebuilt_buffer(netlist: &Netlist, net: NetId) -> Result<Rewrite, RetimeError> {
    let loads = netlist.net(net).loads();
    if loads.is_empty() {
        return Err(RetimeError::MoveNotApplicable {
            reason: format!(
                "net `{}` has no cell loads to buffer",
                netlist.net(net).name()
            ),
        });
    }
    netlist.validate()?;
    let mut out = Netlist::new(netlist.name());
    let forward = copy_nets(netlist, &mut out);
    let name = fresh_name(&out, netlist.net(net).name(), "_dly");
    let buffered = out.add_net(name.clone());
    let redirect: HashMap<Pin, NetId> = loads.iter().map(|&pin| (pin, buffered)).collect();
    copy_cells(netlist, &mut out, &forward, &redirect)?;
    out.add_cell(
        CellKind::Buf,
        &name,
        vec![forward[net.index()]],
        vec![buffered],
    )
    .map_err(RetimeError::InvalidNetlist)?;
    for &output in netlist.outputs() {
        out.mark_output(forward[output.index()]);
    }
    Ok(Rewrite {
        netlist: out,
        map: NetMap::new(forward, HashMap::new(), 0),
        description: format!("buffer net `{}`", netlist.net(net).name()),
    })
}

fn assert_same(
    edited: Result<Rewrite, RetimeError>,
    rebuilt: Result<Rewrite, RetimeError>,
    case: &str,
) -> Option<Rewrite> {
    let (edited, rebuilt) = match (edited, rebuilt) {
        (Ok(edited), Ok(rebuilt)) => (edited, rebuilt),
        (Err(edited), Err(rebuilt)) => {
            assert_eq!(edited.to_string(), rebuilt.to_string(), "{case}: refusals");
            return None;
        }
        (edited, rebuilt) => panic!("{case}: edited {edited:?} but rebuilt {rebuilt:?}"),
    };
    let (a, b) = (&edited.netlist, &rebuilt.netlist);
    assert_eq!(a.fingerprint(), b.fingerprint(), "{case}: fingerprint");
    assert_eq!(a.net_count(), b.net_count(), "{case}: nets");
    for (id, net) in a.nets() {
        assert_eq!(net.loads(), b.net(id).loads(), "{case}: loads of {id}");
        assert_eq!(net.driver(), b.net(id).driver(), "{case}: driver of {id}");
    }
    assert_eq!(a.inputs(), b.inputs(), "{case}: inputs");
    assert_eq!(a.outputs(), b.outputs(), "{case}: outputs");
    assert_eq!(emit_blif(a), emit_blif(b), "{case}: BLIF");
    assert_eq!(edited.map, rebuilt.map, "{case}: map");
    assert_eq!(
        edited.description, rebuilt.description,
        "{case}: description"
    );
    a.validate()
        .unwrap_or_else(|e| panic!("{case}: edited netlist invalid: {e}"));
    Some(edited)
}

/// Every buffer site of `netlist`, plus one more buffer on the result of
/// the first (the clone of an edited clone).
fn check_every_site(netlist: &Netlist, label: &str) {
    let mut first_buffer = None;
    for (net, _) in netlist.nets() {
        let case = format!("{label}: buffer {net}");
        let edited = assert_same(
            insert_buffer(netlist, net),
            rebuilt_buffer(netlist, net),
            &case,
        );
        first_buffer = first_buffer.or(edited.map(|rewrite| (net, rewrite)));
    }
    let (net, once) = first_buffer.expect("some net can be buffered");
    assert_same(
        insert_buffer(&once.netlist, net),
        rebuilt_buffer(&once.netlist, net),
        &format!("{label}: buffer {net} twice"),
    )
    .expect("a buffered net can be buffered again");
}

fn corpus(file: &str) -> Netlist {
    let path = format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("corpus file exists");
    parse_netlist(&text, Format::Blif, &GateLibrary::standard()).expect("corpus parses")
}

#[test]
fn edits_equal_rebuilds_on_rca4() {
    check_every_site(&corpus("rca4.blif"), "rca4");
}

#[test]
fn edits_equal_rebuilds_on_mult4() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell).netlist;
    check_every_site(&mult, "mult4");
}

#[test]
fn edits_equal_rebuilds_on_counter4() {
    check_every_site(&corpus("counter4.blif"), "counter4");
}

#[test]
fn edits_equal_rebuilds_on_a_pipelined_mult8() {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell).netlist;
    let piped = pipeline_netlist(&mult, 4, PipelineOptions::default()).expect("pipelines");
    check_every_site(&piped.netlist, "mult8 p4");
}
