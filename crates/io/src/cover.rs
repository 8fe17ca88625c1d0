//! Sum-of-products covers: the logic representation of a BLIF `.names`
//! block, classification of covers onto [`CellKind`]s and generic
//! AND–OR–INV decomposition for covers that match no library cell.

use std::sync::OnceLock;

use glitch_netlist::{CellKind, NetId, Netlist};

/// One literal position of a product term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lit {
    /// The input must be 0 (`0` in BLIF).
    Zero,
    /// The input must be 1 (`1` in BLIF).
    One,
    /// The input does not matter (`-` in BLIF).
    DontCare,
}

impl Lit {
    fn matches(self, value: bool) -> bool {
        match self {
            Lit::Zero => !value,
            Lit::One => value,
            Lit::DontCare => true,
        }
    }
}

/// A single-output sum-of-products cover over `inputs` ordered inputs.
///
/// `phase == true` is an on-set cover (the function is 1 exactly where some
/// row matches); `phase == false` is an off-set cover (the function is 0
/// exactly where some row matches). A cover with no rows is the constant
/// `!phase`... almost: BLIF defines an empty `.names` as constant 0, which
/// is what [`SopCover::constant_zero`] builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SopCover {
    /// Number of inputs.
    pub inputs: usize,
    /// The product terms.
    pub rows: Vec<Vec<Lit>>,
    /// Output phase shared by every row.
    pub phase: bool,
}

/// Covers with more inputs than this are not truth-table classified (they
/// go straight to generic decomposition).
const MAX_CLASSIFY_INPUTS: usize = 12;

/// 64-bit words in the packed truth table of the widest classified cover.
const MAX_TABLE_WORDS: usize = 1 << (MAX_CLASSIFY_INPUTS - 6);

/// Words in the packed truth table of an `inputs`-input function: bit
/// `x % 64` of word `x / 64` is the value at input assignment `x`.
fn table_words(inputs: usize) -> usize {
    (1usize << inputs).div_ceil(64)
}

impl SopCover {
    /// The empty cover: constant 0 regardless of input count.
    #[must_use]
    pub fn constant_zero(inputs: usize) -> Self {
        SopCover {
            inputs,
            rows: Vec::new(),
            phase: true,
        }
    }

    /// Evaluates the cover for one input assignment (bit `i` of `x` is
    /// input `i`).
    #[must_use]
    pub fn evaluate(&self, x: u64) -> bool {
        let hit = self.rows.iter().any(|row| {
            row.iter()
                .enumerate()
                .all(|(i, lit)| lit.matches((x >> i) & 1 == 1))
        });
        if self.phase {
            hit
        } else {
            !hit
        }
    }

    /// Finds the [`CellKind`] with this cover's exact truth table under the
    /// cover's input order, if one exists. Allocates nothing: the tables
    /// are packed into words, and each candidate kind's table is computed
    /// once per process.
    #[must_use]
    pub fn classify(&self) -> Option<CellKind> {
        if self.inputs > MAX_CLASSIFY_INPUTS {
            return None;
        }
        let mut table = [0u64; MAX_TABLE_WORDS];
        let table = &mut table[..table_words(self.inputs)];
        self.pack_truth_table(table);
        candidate_kinds(self.inputs)
            .iter()
            .zip(kind_tables(self.inputs))
            .find(|(_, kind_table)| kind_table.as_slice() == &table[..])
            .map(|(&kind, _)| kind)
    }

    /// Writes the truth table into `table`, packed as by [`table_words`].
    fn pack_truth_table(&self, table: &mut [u64]) {
        let assignments = 1u64 << self.inputs;
        for row in &self.rows {
            // `x` matches the row iff it agrees with the row on every
            // literal that is not a don't-care.
            let (care, value) =
                row.iter()
                    .enumerate()
                    .fold((0u64, 0u64), |(care, value), (i, lit)| match lit {
                        Lit::Zero => (care | 1 << i, value),
                        Lit::One => (care | 1 << i, value | 1 << i),
                        Lit::DontCare => (care, value),
                    });
            for x in (0..assignments).filter(|x| x & care == value) {
                table[(x / 64) as usize] |= 1 << (x % 64);
            }
        }
        if !self.phase {
            let valid = u64::MAX >> (64 - assignments.min(64));
            for word in table {
                *word = !*word & valid;
            }
        }
    }

    /// Instantiates the cover's function in `netlist`, driving the existing
    /// net `out`. Uses a single cell when [`SopCover::classify`] finds one,
    /// and a generic AND–OR–INV network otherwise (intermediate nets are
    /// prefixed with the output net's name).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`glitch_netlist::NetlistError`] when `out`
    /// is already driven or an input id is foreign.
    pub fn instantiate(
        &self,
        netlist: &mut Netlist,
        inputs: &[NetId],
        out: NetId,
    ) -> Result<(), glitch_netlist::NetlistError> {
        assert_eq!(
            inputs.len(),
            self.inputs,
            "cover arity must match the input list"
        );
        if let Some(kind) = self.classify() {
            // Gates with fixed arities (Buf/Inv/Const) drop unused inputs
            // is not a concern: classification only matches exact arities.
            let cell_name = format!("g_{}_{}", netlist.net(out).name(), netlist.cell_count());
            netlist.add_cell(kind, cell_name, inputs, [out])?;
            return Ok(());
        }
        let out_name = netlist.net(out).name().to_string();
        self.decompose(netlist, inputs, out, &out_name)
    }

    /// Generic AND–OR–INV synthesis of the cover into `netlist`.
    fn decompose(
        &self,
        netlist: &mut Netlist,
        inputs: &[NetId],
        out: NetId,
        prefix: &str,
    ) -> Result<(), glitch_netlist::NetlistError> {
        // Cache of inverted inputs so each input is inverted at most once.
        let mut inverted: Vec<Option<NetId>> = vec![None; inputs.len()];
        let mut literal = |netlist: &mut Netlist, i: usize, lit: Lit| -> Option<NetId> {
            match lit {
                Lit::DontCare => None,
                Lit::One => Some(inputs[i]),
                Lit::Zero => Some(
                    *inverted[i]
                        .get_or_insert_with(|| netlist.inv(inputs[i], &format!("{prefix}$n{i}"))),
                ),
            }
        };

        // One conjunction per product term.
        let mut products: Vec<NetId> = Vec::with_capacity(self.rows.len());
        for (r, row) in self.rows.iter().enumerate() {
            let lits: Vec<NetId> = row
                .iter()
                .enumerate()
                .filter_map(|(i, &l)| literal(netlist, i, l))
                .collect();
            let product = match lits.len() {
                // An all-don't-care row is the constant 1 term.
                0 => netlist.constant(true, &format!("{prefix}$p{r}")),
                1 => lits[0],
                _ => netlist.and(&lits, &format!("{prefix}$p{r}")),
            };
            products.push(product);
        }

        // Disjunction of the products, in the cover's phase, driving `out`.
        let cell_name = format!("g_{prefix}_{}", netlist.cell_count());
        match (products.len(), self.phase) {
            (0, phase) => {
                // No matching row anywhere: constant !phase; BLIF's empty
                // cover is constant 0 (phase == true here).
                netlist.add_cell(CellKind::Const(!phase), cell_name, [], [out])?;
            }
            (1, true) => {
                netlist.add_cell(CellKind::Buf, cell_name, [products[0]], [out])?;
            }
            (1, false) => {
                netlist.add_cell(CellKind::Inv, cell_name, [products[0]], [out])?;
            }
            (_, true) => {
                netlist.add_cell(CellKind::Or, cell_name, products, [out])?;
            }
            (_, false) => {
                netlist.add_cell(CellKind::Nor, cell_name, products, [out])?;
            }
        }
        Ok(())
    }
}

/// The kinds a cover of the given arity could classify to, in match order.
fn candidate_kinds(inputs: usize) -> &'static [CellKind] {
    match inputs {
        0 => &[CellKind::Const(false), CellKind::Const(true)],
        1 => &[CellKind::Buf, CellKind::Inv],
        3 => &[
            CellKind::And,
            CellKind::Or,
            CellKind::Nand,
            CellKind::Nor,
            CellKind::Xor,
            CellKind::Xnor,
            CellKind::Mux2,
            CellKind::Maj3,
        ],
        _ => &[
            CellKind::And,
            CellKind::Or,
            CellKind::Nand,
            CellKind::Nor,
            CellKind::Xor,
            CellKind::Xnor,
        ],
    }
}

/// The packed truth tables of [`candidate_kinds`]`(inputs)`, in the same
/// order, computed on first use of each arity.
fn kind_tables(inputs: usize) -> &'static [Vec<u64>] {
    static TABLES: [OnceLock<Vec<Vec<u64>>>; MAX_CLASSIFY_INPUTS + 1] =
        [const { OnceLock::new() }; MAX_CLASSIFY_INPUTS + 1];
    TABLES[inputs].get_or_init(|| {
        candidate_kinds(inputs)
            .iter()
            .map(|&kind| kind_truth_table(kind, inputs))
            .collect()
    })
}

/// Packed truth table of a single-output kind at the given arity.
///
/// Only called with kinds from [`candidate_kinds`], all of which accept the
/// arity they are listed under.
fn kind_truth_table(kind: CellKind, inputs: usize) -> Vec<u64> {
    let mut table = vec![0u64; table_words(inputs)];
    let mut scratch = vec![false; inputs];
    for x in 0..1u64 << inputs {
        for (i, slot) in scratch.iter_mut().enumerate() {
            *slot = (x >> i) & 1 == 1;
        }
        let mut out = [false];
        kind.try_evaluate_into(&scratch, &mut out)
            .expect("candidate kinds accept the arity they are listed under");
        if out[0] {
            table[(x / 64) as usize] |= 1 << (x % 64);
        }
    }
    table
}

/// The canonical cover emitted for a single-output kind — the exact inverse
/// of [`SopCover::classify`], so emission followed by parsing reproduces
/// the kind.
#[must_use]
pub fn canonical_cover(kind: CellKind, inputs: usize) -> SopCover {
    let row = |spec: &[Lit]| spec.to_vec();
    let single = |i: usize, lit: Lit| {
        let mut r = vec![Lit::DontCare; inputs];
        r[i] = lit;
        r
    };
    let (rows, phase) = match kind {
        CellKind::Const(false) => (Vec::new(), true),
        CellKind::Const(true) => (vec![Vec::new()], true),
        CellKind::Buf => (vec![row(&[Lit::One])], true),
        CellKind::Inv => (vec![row(&[Lit::Zero])], true),
        CellKind::And => (vec![vec![Lit::One; inputs]], true),
        CellKind::Nor => (vec![vec![Lit::Zero; inputs]], true),
        CellKind::Or => ((0..inputs).map(|i| single(i, Lit::One)).collect(), true),
        CellKind::Nand => ((0..inputs).map(|i| single(i, Lit::Zero)).collect(), true),
        CellKind::Xor => (parity_rows(inputs, true), true),
        CellKind::Xnor => (parity_rows(inputs, false), true),
        CellKind::Mux2 => (
            vec![
                row(&[Lit::Zero, Lit::One, Lit::DontCare]),
                row(&[Lit::One, Lit::DontCare, Lit::One]),
            ],
            true,
        ),
        CellKind::Maj3 => (
            vec![
                row(&[Lit::One, Lit::One, Lit::DontCare]),
                row(&[Lit::One, Lit::DontCare, Lit::One]),
                row(&[Lit::DontCare, Lit::One, Lit::One]),
            ],
            true,
        ),
        CellKind::HalfAdder | CellKind::FullAdder | CellKind::Dff => {
            unreachable!("{kind} is not a single-output combinational cell")
        }
    };
    SopCover {
        inputs,
        rows,
        phase,
    }
}

/// All minterm rows with odd (when `odd`) or even parity — the SOP of an
/// n-ary XOR / XNOR.
fn parity_rows(inputs: usize, odd: bool) -> Vec<Vec<Lit>> {
    (0..1u64 << inputs)
        .filter(|x| (x.count_ones() % 2 == 1) == odd)
        .map(|x| {
            (0..inputs)
                .map(|i| {
                    if (x >> i) & 1 == 1 {
                        Lit::One
                    } else {
                        Lit::Zero
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(rows: &[&str], phase: bool) -> SopCover {
        let inputs = rows.first().map_or(0, |r| r.len());
        SopCover {
            inputs,
            rows: rows
                .iter()
                .map(|r| {
                    r.chars()
                        .map(|c| match c {
                            '0' => Lit::Zero,
                            '1' => Lit::One,
                            '-' => Lit::DontCare,
                            _ => panic!("bad literal {c}"),
                        })
                        .collect()
                })
                .collect(),
            phase,
        }
    }

    #[test]
    fn classify_standard_gates() {
        assert_eq!(cover(&["11"], true).classify(), Some(CellKind::And));
        assert_eq!(cover(&["1-", "-1"], true).classify(), Some(CellKind::Or));
        assert_eq!(cover(&["00"], true).classify(), Some(CellKind::Nor));
        assert_eq!(cover(&["0-", "-0"], true).classify(), Some(CellKind::Nand));
        assert_eq!(cover(&["01", "10"], true).classify(), Some(CellKind::Xor));
        assert_eq!(cover(&["00", "11"], true).classify(), Some(CellKind::Xnor));
        assert_eq!(cover(&["1"], true).classify(), Some(CellKind::Buf));
        assert_eq!(cover(&["0"], true).classify(), Some(CellKind::Inv));
        assert_eq!(
            cover(&["01-", "1-1"], true).classify(),
            Some(CellKind::Mux2)
        );
        assert_eq!(
            cover(&["11-", "1-1", "-11"], true).classify(),
            Some(CellKind::Maj3)
        );
    }

    #[test]
    fn classify_uses_phase() {
        // NAND written as an off-set cover: output 0 exactly when both are 1.
        assert_eq!(cover(&["11"], false).classify(), Some(CellKind::Nand));
        // AND written as an off-set cover over the three zero rows.
        assert_eq!(cover(&["0-", "-0"], false).classify(), Some(CellKind::And));
    }

    #[test]
    fn classify_constants() {
        assert_eq!(
            SopCover::constant_zero(0).classify(),
            Some(CellKind::Const(false))
        );
        let one = SopCover {
            inputs: 0,
            rows: vec![Vec::new()],
            phase: true,
        };
        assert_eq!(one.classify(), Some(CellKind::Const(true)));
    }

    #[test]
    fn three_input_parity_is_xor() {
        assert_eq!(
            cover(&["001", "010", "100", "111"], true).classify(),
            Some(CellKind::Xor)
        );
    }

    #[test]
    fn canonical_covers_round_trip_through_classify() {
        let cases: Vec<(CellKind, usize)> = vec![
            (CellKind::Const(false), 0),
            (CellKind::Const(true), 0),
            (CellKind::Buf, 1),
            (CellKind::Inv, 1),
            (CellKind::And, 2),
            (CellKind::And, 4),
            (CellKind::Or, 3),
            (CellKind::Nand, 2),
            (CellKind::Nor, 5),
            (CellKind::Xor, 2),
            (CellKind::Xor, 3),
            (CellKind::Xnor, 4),
            (CellKind::Mux2, 3),
            (CellKind::Maj3, 3),
        ];
        for (kind, n) in cases {
            let c = canonical_cover(kind, n);
            assert_eq!(c.classify(), Some(kind), "{kind} at arity {n}");
        }
    }

    #[test]
    fn irregular_cover_decomposes_correctly() {
        // f(a, b, c) = a·b + !c  — matches no single kind.
        let c = cover(&["11-", "--0"], true);
        assert_eq!(c.classify(), None);
        let mut nl = Netlist::new("dec");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cc = nl.add_input("c");
        let out = nl.add_net("f");
        c.instantiate(&mut nl, &[a, b, cc], out).unwrap();
        nl.mark_output(out);
        nl.validate().unwrap();
        // Exhaustive functional check through the cover's own evaluate.
        let levels = nl.clone();
        let sim_check = |x: u64| -> bool {
            // Evaluate combinationally by topological relaxation.
            let mut values = vec![None::<bool>; levels.net_count()];
            values[a.index()] = Some(x & 1 == 1);
            values[b.index()] = Some(x >> 1 & 1 == 1);
            values[cc.index()] = Some(x >> 2 & 1 == 1);
            for _ in 0..levels.cell_count() {
                for (_, cell) in levels.cells() {
                    let ins: Option<Vec<bool>> =
                        cell.inputs().iter().map(|n| values[n.index()]).collect();
                    if let Some(ins) = ins {
                        let mut outs = vec![false; cell.kind().output_count()];
                        cell.kind().evaluate_into(&ins, &mut outs);
                        for (pin, &net) in cell.outputs().iter().enumerate() {
                            values[net.index()] = Some(outs[pin]);
                        }
                    }
                }
            }
            values[out.index()].expect("combinational circuit must settle")
        };
        for x in 0..8 {
            assert_eq!(sim_check(x), c.evaluate(x), "mismatch at input {x:03b}");
        }
    }

    #[test]
    fn empty_cover_is_constant_zero() {
        let c = SopCover::constant_zero(0);
        let mut nl = Netlist::new("k0");
        let out = nl.add_net("f");
        c.instantiate(&mut nl, &[], out).unwrap();
        nl.mark_output(out);
        assert_eq!(nl.stats().count_of(CellKind::Const(false)), 1);
    }
}
