//! Structural validation: floating nets, combinational loops, arity checks.

use crate::cell::CellId;
use crate::error::NetlistError;
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
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, net) in self.nets() {
            if net.is_floating() && !net.loads().is_empty() {
                return Err(NetlistError::FloatingNet(id));
            }
        }
        for (id, cell) in self.cells() {
            if !cell.kind().accepts_arity(cell.inputs().len()) {
                return Err(NetlistError::BadArity {
                    cell: id,
                    got: cell.inputs().len(),
                });
            }
        }
        self.check_combinational_loops()
    }

    /// Detects combinational loops with an iterative three-colour DFS over
    /// combinational cells only (flipflops break paths).
    fn check_combinational_loops(&self) -> Result<(), NetlistError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; self.cell_count()];
        // Explicit stack of (cell, start of its successors in `succ`, next
        // successor to visit) to avoid recursion depth issues on deep
        // circuits like wide multipliers. The top frame's successors are
        // the tail of `succ`; a frame's are dropped when it is popped.
        let mut stack: Vec<(CellId, usize, usize)> = Vec::new();
        let mut succ: Vec<CellId> = Vec::new();

        for start in self.combinational_cells() {
            if colour[start.index()] != Colour::White {
                continue;
            }
            colour[start.index()] = Colour::Grey;
            self.push_combinational_successors(start, &mut succ);
            stack.push((start, 0, 0));
            while let Some(&mut (cell, begin, ref mut next)) = stack.last_mut() {
                if *next < succ.len() {
                    let s = succ[*next];
                    *next += 1;
                    match colour[s.index()] {
                        Colour::White => {
                            colour[s.index()] = Colour::Grey;
                            let begin = succ.len();
                            self.push_combinational_successors(s, &mut succ);
                            stack.push((s, begin, begin));
                        }
                        Colour::Grey => {
                            return Err(NetlistError::CombinationalLoop { cell: s });
                        }
                        Colour::Black => {}
                    }
                } else {
                    colour[cell.index()] = Colour::Black;
                    succ.truncate(begin);
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Appends the combinational cells driven directly by outputs of
    /// `cell` to `out`, sorted; a cell driven through several pins repeats.
    pub(crate) fn push_combinational_successors(&self, cell: CellId, out: &mut Vec<CellId>) {
        let begin = out.len();
        for &net in self.cell(cell).outputs() {
            for load in self.net(net).loads() {
                if !self.cell(load.cell).is_sequential() {
                    out.push(load.cell);
                }
            }
        }
        out[begin..].sort_unstable();
    }
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
