//! Structural validation: floating nets, combinational loops, arity checks.

use crate::cell::CellId;
use crate::error::NetlistError;
use crate::net::NetId;
use crate::netlist::Netlist;

impl Netlist {
    /// Checks the structural invariants the simulator and the retimer rely
    /// on:
    ///
    /// * every net is either a primary input or driven by exactly one cell
    ///   output (one-driver is enforced at construction, floating nets are
    ///   caught here),
    /// * every cell has a legal input arity (also enforced at construction,
    ///   re-checked here for netlists built through lower-level means),
    /// * there is no combinational loop, i.e. every cycle in the circuit
    ///   graph passes through at least one D-flipflop.
    ///
    /// The verdict is part of the cached topology (see the crate docs), so
    /// validating an unchanged netlist again costs nothing.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        self.topology().check.clone()
    }
}

/// The floating-net and arity checks, in that order; `has_loads` tells
/// whether a net feeds any cell.
pub(crate) fn check(
    netlist: &Netlist,
    has_loads: impl Fn(NetId) -> bool,
) -> Result<(), NetlistError> {
    for (id, net) in netlist.nets() {
        if net.is_floating() && has_loads(id) {
            return Err(NetlistError::FloatingNet(id));
        }
    }
    for (id, cell) in netlist.cells() {
        if !cell.kind().accepts_arity(cell.inputs().len()) {
            return Err(NetlistError::BadArity {
                cell: id,
                got: cell.inputs().len(),
            });
        }
    }
    Ok(())
}

/// Names a cell on a combinational loop, found by an iterative
/// three-colour DFS over combinational cells only (flipflops break
/// paths); `successors` gives each cell's distinct combinational
/// successors in id order.
pub(crate) fn find_combinational_loop<'a>(
    netlist: &Netlist,
    successors: impl Fn(CellId) -> &'a [CellId],
) -> Result<(), NetlistError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour = vec![Colour::White; netlist.cell_count()];
    // Explicit stack of (cell, next successor to visit) to avoid recursion
    // depth issues on deep circuits like wide multipliers.
    let mut stack: Vec<(CellId, usize)> = Vec::new();

    for start in netlist.combinational_cells() {
        if colour[start.index()] != Colour::White {
            continue;
        }
        colour[start.index()] = Colour::Grey;
        stack.push((start, 0));
        while let Some(&mut (cell, ref mut next)) = stack.last_mut() {
            if let Some(&s) = successors(cell).get(*next) {
                *next += 1;
                match colour[s.index()] {
                    Colour::White => {
                        colour[s.index()] = Colour::Grey;
                        stack.push((s, 0));
                    }
                    Colour::Grey => {
                        return Err(NetlistError::CombinationalLoop { cell: s });
                    }
                    Colour::Black => {}
                }
            } else {
                colour[cell.index()] = Colour::Black;
                stack.pop();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::cell::CellKind;
    use crate::error::NetlistError;
    use crate::netlist::Netlist;

    #[test]
    fn valid_combinational_circuit_passes() {
        let mut nl = Netlist::new("ok");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.and2(a, b, "x");
        let y = nl.inv(x, "y");
        nl.mark_output(y);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn floating_net_with_load_detected() {
        let mut nl = Netlist::new("bad");
        let floating = nl.add_net("floating");
        let y = nl.inv(floating, "y");
        nl.mark_output(y);
        assert!(matches!(nl.validate(), Err(NetlistError::FloatingNet(_))));
    }

    #[test]
    fn unused_floating_net_is_tolerated() {
        let mut nl = Netlist::new("ok");
        let a = nl.add_input("a");
        let _unused = nl.add_net("scratch");
        let y = nl.inv(a, "y");
        nl.mark_output(y);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn combinational_loop_detected() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_input("a");
        // y = and(a, z); z = inv(y)  — a purely combinational cycle.
        let z = nl.add_net("z");
        let y = nl.add_net("y");
        nl.add_cell(CellKind::And, "g_and", vec![a, z], vec![y])
            .unwrap();
        nl.add_cell(CellKind::Inv, "g_inv", vec![y], vec![z])
            .unwrap();
        nl.mark_output(y);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn loop_broken_by_flipflop_is_legal() {
        let mut nl = Netlist::new("counter_bit");
        let en = nl.add_input("en");
        // q' = q xor en with a flipflop in the loop: legal sequential logic.
        let q = nl.add_net("q");
        let next = nl.xor2(en, q, "next");
        nl.add_cell(CellKind::Dff, "ff", vec![next], vec![q])
            .unwrap();
        nl.mark_output(q);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut nl = Netlist::new("chain");
        let mut cur = nl.add_input("a");
        for i in 0..50_000 {
            cur = nl.inv(cur, &format!("n{i}"));
        }
        nl.mark_output(cur);
        assert!(nl.validate().is_ok());
    }
}
