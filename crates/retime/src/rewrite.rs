//! Function-preserving netlist rewrites — the move vocabulary of the
//! reduction loop.
//!
//! Every move returns a [`Rewrite`]: the transformed netlist *together
//! with* a total [`NetMap`], so callers can co-simulate original against
//! transformed (the equivalence oracle) and compose accepted moves into one
//! original → final mapping.
//!
//! * [`insert_buffer`] — a delay buffer behind a hazard-hot net: all cell
//!   loads read the buffered copy, shifting their arrival time by one
//!   buffer delay. Zero latency; function preserved because `Buf` is the
//!   identity on settled values. It edits a clone
//!   ([`Netlist::move_loads`] plus one net and one cell).
//! * [`crate::pipeline_netlist`] — the paper's register-rank insertion:
//!   `ranks` cycles of latency, arrival times realigned at the cut
//!   boundaries. It rebuilds the netlist stage by stage.

use glitch_netlist::{CellKind, NetId, Netlist};

use crate::error::RetimeError;
use crate::mapping::NetMap;

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
    let mut out = netlist.clone();
    let buffered = out.add_net(&name);
    out.move_loads(source.loads(), buffered)
        .and_then(|()| out.add_cell(CellKind::Buf, &name, [net], [buffered]))
        .map_err(RetimeError::InvalidNetlist)?;
    Ok(Rewrite {
        netlist: out,
        map: NetMap::identity(netlist),
        description: format!("buffer net `{}`", source.name()),
    })
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
