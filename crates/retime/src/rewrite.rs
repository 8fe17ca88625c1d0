//! Function-preserving netlist rewrites — the move vocabulary of the
//! reduction loop.
//!
//! Every move is exposed as a `Netlist → Netlist` function that returns the
//! transformed netlist *together with* a total [`NetMap`], so callers can
//! co-simulate original against transformed (the equivalence oracle) and
//! compose accepted moves into one original → final mapping. The two
//! in-place moves edit a clone ([`Netlist::move_loads`] plus one net and
//! one cell); pipelining rebuilds the netlist stage by stage:
//!
//! * [`insert_buffer`] — a delay buffer behind a hazard-hot net: all cell
//!   loads read the buffered copy, shifting their arrival time by one
//!   buffer delay. Zero latency; function preserved because `Buf` is the
//!   identity on settled values.
//! * [`duplicate_driver`] — splits a reconvergent driver: a copy of the
//!   cell takes over every second load of its output net, halving the
//!   switched load capacitance each glitch charges. Zero latency.
//! * [`pipeline_rewrite`] — the paper's register-rank insertion
//!   ([`crate::pipeline_netlist`]) wrapped as a move: `ranks` cycles of
//!   latency, arrival times realigned at the cut boundaries.

use std::collections::HashSet;

use glitch_netlist::{CellId, CellKind, NetId, Netlist, Pin};

use crate::error::RetimeError;
use crate::mapping::NetMap;
use crate::pipeline::{pipeline_netlist, PipelineOptions};

/// A rewritten netlist with the mapping back to its source.
#[derive(Debug, Clone)]
pub struct Rewrite {
    /// The transformed netlist.
    pub netlist: Netlist,
    /// Total source-net → new-net mapping (plus added latency).
    pub map: NetMap,
    /// One human-readable move description, e.g. `buffer net `p3``.
    pub description: String,
}

/// A net name not yet present in `netlist`: `{base}{suffix}`, numbered on
/// collision so repeated moves on the same net stay well-formed.
fn fresh_name(netlist: &Netlist, base: &str, suffix: &str) -> String {
    let first = format!("{base}{suffix}");
    if netlist.find_net(&first).is_none() {
        return first;
    }
    (2..)
        .map(|k| format!("{base}{suffix}{k}"))
        .find(|name| netlist.find_net(name).is_none())
        .expect("some numbered suffix is free")
}

/// `netlist` with one new net named `name`, `moved` rewired onto it, and a
/// new `kind` cell of the same name driving it from `inputs`. Net and cell
/// ids of `netlist` are kept, so the map is the identity.
fn edit(
    netlist: &Netlist,
    name: &str,
    moved: &[Pin],
    kind: CellKind,
    inputs: &[NetId],
) -> Result<Netlist, RetimeError> {
    let mut out = netlist.clone();
    let net = out.add_net(name);
    out.move_loads(moved, net)
        .and_then(|()| out.add_cell(kind, name, inputs, [net]))
        .map_err(RetimeError::InvalidNetlist)?;
    Ok(out)
}

/// Inserts a unit buffer behind `net`: the buffer reads `net` and every
/// cell load is rewired to the buffered output. The primary output
/// marking (if any) stays on the unbuffered net, so observation points do
/// not move. The result is a copy of `netlist` plus one net (the buffered
/// copy, named `{net}_dly`) and one cell (the buffer, named alike), so
/// every id of `netlist` keeps its meaning.
///
/// # Errors
///
/// * [`RetimeError::MoveNotApplicable`] if `net` has no cell loads to
///   rewire (buffering would be dead logic). This is decided first, so an
///   inapplicable site costs no validation pass.
/// * [`RetimeError::InvalidNetlist`] if `netlist` fails validation.
pub fn insert_buffer(netlist: &Netlist, net: NetId) -> Result<Rewrite, RetimeError> {
    let source = netlist.net(net);
    if source.loads().is_empty() {
        return Err(RetimeError::MoveNotApplicable {
            reason: format!("net `{}` has no cell loads to buffer", source.name()),
        });
    }
    netlist.validate()?;
    let name = fresh_name(netlist, source.name(), "_dly");
    Ok(Rewrite {
        netlist: edit(netlist, &name, source.loads(), CellKind::Buf, &[net])?,
        map: NetMap::identity(netlist),
        description: format!("buffer net `{}`", source.name()),
    })
}

/// Duplicates the combinational cell `cell` to break a reconvergent
/// fanout: the copy drives every second cell load of the original output
/// net, so each glitch on that cone charges roughly half the load
/// capacitance. Output marking stays on the original net. Like
/// [`insert_buffer`], the result is `netlist` plus one net and one cell
/// (both named `{net}_dup`).
///
/// # Errors
///
/// * [`RetimeError::MoveNotApplicable`] if the cell is sequential, has
///   more than one output, or its output has fewer than two cell loads.
///   This is decided first, so an inapplicable site costs no validation
///   pass.
/// * [`RetimeError::InvalidNetlist`] if `netlist` fails validation.
pub fn duplicate_driver(netlist: &Netlist, cell: CellId) -> Result<Rewrite, RetimeError> {
    let source = netlist.cell(cell);
    if source.is_sequential() || source.outputs().len() != 1 {
        return Err(RetimeError::MoveNotApplicable {
            reason: format!(
                "cell `{}` is not a single-output combinational gate",
                source.name()
            ),
        });
    }
    let target = netlist.net(source.outputs()[0]);
    let loads = target.loads();
    if loads.len() < 2 {
        return Err(RetimeError::MoveNotApplicable {
            reason: format!(
                "net `{}` has {} load(s); duplication needs at least two",
                target.name(),
                loads.len()
            ),
        });
    }
    netlist.validate()?;
    let name = fresh_name(netlist, target.name(), "_dup");
    // Every second load (deterministic: load-list order) moves to the copy.
    let moved: Vec<Pin> = loads.iter().skip(1).step_by(2).copied().collect();
    Ok(Rewrite {
        netlist: edit(netlist, &name, &moved, source.kind(), source.inputs())?,
        map: NetMap::identity(netlist),
        description: format!("duplicate gate `{}`", source.name()),
    })
}

/// Register-rank insertion as a move: [`pipeline_netlist`] with its total
/// mapping, `ranks` cycles of latency.
///
/// # Errors
///
/// As for [`pipeline_netlist`].
pub fn pipeline_rewrite(
    netlist: &Netlist,
    ranks: usize,
    options: PipelineOptions,
) -> Result<Rewrite, RetimeError> {
    let piped = pipeline_netlist(netlist, ranks, options)?;
    Ok(Rewrite {
        netlist: piped.netlist,
        map: piped.mapping,
        description: format!("retime with {ranks} register rank(s)"),
    })
}

/// The cell loads of `net` that are rewired by [`duplicate_driver`] —
/// exposed for tests pinning the deterministic split.
#[must_use]
pub fn duplicated_loads(netlist: &Netlist, net: NetId) -> HashSet<Pin> {
    netlist
        .net(net)
        .loads()
        .iter()
        .skip(1)
        .step_by(2)
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitch_arith::{AdderStyle, RippleCarryAdder};
    use glitch_sim::{ClockedSimulator, InputAssignment, UnitDelay};

    fn exhaustive_equal(original: &Netlist, rewrite: &Rewrite, input_bits: usize) {
        assert_eq!(rewrite.map.latency(), 0, "in-place moves add no latency");
        rewrite
            .map
            .validate(original, &rewrite.netlist)
            .expect("total mapping");
        for word in 0..(1u64 << input_bits) {
            let mut a = InputAssignment::new();
            let mut b = InputAssignment::new();
            for (bit, &input) in original.inputs().iter().enumerate() {
                let value = (word >> bit) & 1 == 1;
                a = a.with(input, value);
                b = b.with(rewrite.map.new_net(input), value);
            }
            let mut sim_a = ClockedSimulator::new(original, UnitDelay).unwrap();
            let mut sim_b = ClockedSimulator::new(&rewrite.netlist, UnitDelay).unwrap();
            sim_a.step(a).unwrap();
            sim_b.step(b).unwrap();
            for &output in original.outputs() {
                assert_eq!(
                    sim_a.net_value(output),
                    sim_b.net_value(rewrite.map.output_net(output)),
                    "output `{}` diverged at input word {word}",
                    original.net(output).name()
                );
            }
        }
    }

    #[test]
    fn buffering_preserves_function_exhaustively() {
        let adder = RippleCarryAdder::new(2, AdderStyle::CompoundCell);
        for (net, _) in adder.netlist.nets() {
            if adder.netlist.net(net).loads().is_empty() {
                continue;
            }
            let rewrite = insert_buffer(&adder.netlist, net).unwrap();
            rewrite.netlist.validate().unwrap();
            assert_eq!(rewrite.netlist.cell_count(), adder.netlist.cell_count() + 1);
            exhaustive_equal(&adder.netlist, &rewrite, adder.netlist.inputs().len());
        }
    }

    #[test]
    fn duplication_preserves_function_and_splits_loads() {
        let adder = RippleCarryAdder::new(2, AdderStyle::Gates);
        let mut tested = 0;
        for cell_id in adder.netlist.combinational_cells().collect::<Vec<_>>() {
            let cell = adder.netlist.cell(cell_id);
            if cell.outputs().len() != 1 {
                continue;
            }
            let target = cell.outputs()[0];
            if adder.netlist.net(target).loads().len() < 2 {
                continue;
            }
            let rewrite = duplicate_driver(&adder.netlist, cell_id).unwrap();
            rewrite.netlist.validate().unwrap();
            let dup = duplicated_loads(&adder.netlist, target);
            assert!(!dup.is_empty(), "at least one load moves to the copy");
            exhaustive_equal(&adder.netlist, &rewrite, adder.netlist.inputs().len());
            tested += 1;
        }
        assert!(tested > 0, "the adder has multi-load gates to duplicate");
    }

    #[test]
    fn inapplicable_moves_are_rejected_loudly() {
        let mut nl = Netlist::new("reject");
        let a = nl.add_input("a");
        let q = nl.dff(a, "q");
        let y = nl.inv(q, "y");
        nl.mark_output(y);
        // `y` drives nothing a buffer could rewire.
        assert!(matches!(
            insert_buffer(&nl, y),
            Err(RetimeError::MoveNotApplicable { .. })
        ));
        // The inverter's output has a single load (the output marking is
        // not a load), so duplication is pointless.
        let inv_cell = nl.combinational_cells().next().unwrap();
        assert!(matches!(
            duplicate_driver(&nl, inv_cell),
            Err(RetimeError::MoveNotApplicable { .. })
        ));
        // Flipflops cannot be duplicated by this move.
        let dff_cell = nl.dff_cells().next().unwrap();
        assert!(matches!(
            duplicate_driver(&nl, dff_cell),
            Err(RetimeError::MoveNotApplicable { .. })
        ));
    }

    #[test]
    fn duplication_decides_applicability_before_validating() {
        // A floating net with a load makes the netlist invalid, so any
        // verdict other than `InvalidNetlist` was reached without
        // validating.
        let mut nl = Netlist::new("dup");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let floating = nl.add_net("floating");
        let lonely = nl.inv(a, "lonely");
        let (s, co) = (nl.add_net("s"), nl.add_net("co"));
        let fa = nl
            .add_cell(CellKind::FullAdder, "fa", vec![a, b, c], vec![s, co])
            .unwrap();
        let shared = nl.and2(a, b, "shared");
        let x = nl.xor2(shared, s, "x");
        let y = nl.or2(shared, co, "y");
        let z = nl.and2(lonely, floating, "z");
        for out in [x, y, z] {
            nl.mark_output(out);
        }
        assert!(nl.validate().is_err());
        let lonely_cell = nl.net(lonely).driver().unwrap().cell;
        let shared_cell = nl.net(shared).driver().unwrap().cell;
        for cell in [lonely_cell, fa] {
            assert!(matches!(
                duplicate_driver(&nl, cell),
                Err(RetimeError::MoveNotApplicable { .. })
            ));
        }
        assert!(matches!(
            duplicate_driver(&nl, shared_cell),
            Err(RetimeError::InvalidNetlist(_))
        ));

        // Once valid, the two-load gate is duplicated and the rest stay
        // inapplicable.
        nl.add_cell(CellKind::Const(true), "tie", vec![], vec![floating])
            .unwrap();
        let rewrite = duplicate_driver(&nl, shared_cell).unwrap();
        rewrite.netlist.validate().unwrap();
        assert_eq!(rewrite.netlist.cell_count(), nl.cell_count() + 1);
        exhaustive_equal(&nl, &rewrite, nl.inputs().len());
        for cell in [lonely_cell, fa] {
            assert!(matches!(
                duplicate_driver(&nl, cell),
                Err(RetimeError::MoveNotApplicable { .. })
            ));
        }
    }

    #[test]
    fn repeated_buffering_of_one_net_stays_well_formed() {
        let mut nl = Netlist::new("rebuffer");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.xor2(a, b, "x");
        let y = nl.and2(a, x, "y");
        nl.mark_output(y);
        let once = insert_buffer(&nl, x).unwrap();
        let x_again = once.map.new_net(x);
        let twice = insert_buffer(&once.netlist, x_again).unwrap();
        twice.netlist.validate().unwrap();
        assert!(twice.netlist.find_net("x_dly").is_some());
        assert!(twice.netlist.find_net("x_dly2").is_some());
        let composed = once.map.compose(&twice.map);
        composed.validate(&nl, &twice.netlist).unwrap();
    }
}
