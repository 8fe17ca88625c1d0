//! The BLIF (Berkeley Logic Interchange Format) reader.
//!
//! Supported constructs: `.model`, `.inputs`, `.outputs`, `.names` with a
//! sum-of-products cover (mapped onto a [`glitch_netlist::CellKind`] when
//! the cover's truth table matches one, decomposed into an AND–OR–INV
//! network otherwise), `.latch` (mapped onto the single-clock D-flipflop),
//! `.subckt` / `.gate` resolved through a [`GateLibrary`], `.end`, `#`
//! comments and `\` line continuations.
//!
//! The text is read in one pass: logical lines stream through one reused
//! token buffer, tokens borrow the source, library cells are borrowed, and
//! net names resolve through the netlist's own name map.

use glitch_netlist::{CellKind, DffInit, FxHashMap, NetId, Netlist, NetlistError};

use crate::cover::{Lit, SopCover};
use crate::error::{IoError, Loc};
use crate::library::GateLibrary;

/// One whitespace-separated token with its source location. Borrows the
/// source text — tokenizing allocates nothing per token.
#[derive(Debug, Clone, Copy)]
struct Token<'t> {
    text: &'t str,
    loc: Loc,
}

/// Streams the text's non-empty logical lines (continuations joined,
/// comments stripped).
struct Lines<'t> {
    physical: std::iter::Enumerate<std::str::Lines<'t>>,
}

impl<'t> Lines<'t> {
    fn new(text: &'t str) -> Self {
        Lines {
            physical: text.lines().enumerate(),
        }
    }

    /// Replaces `line` with the next logical line's tokens; returns `false`
    /// (and leaves `line` empty) at the end of the text.
    fn next_into(&mut self, line: &mut Vec<Token<'t>>) -> bool {
        line.clear();
        for (index, raw) in self.physical.by_ref() {
            let body = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            };
            let (body, continues) = match body.trim_end().strip_suffix('\\') {
                Some(stripped) => (stripped, true),
                None => (body, false),
            };
            let mut rest = body.trim_start();
            while !rest.is_empty() {
                let len = rest.find(char::is_whitespace).unwrap_or(rest.len());
                // The column is the token's byte offset in the line.
                let col = body.len() - rest.len() + 1;
                line.push(Token {
                    text: &rest[..len],
                    loc: Loc::new(index + 1, col),
                });
                rest = rest[len..].trim_start();
            }
            if !continues && !line.is_empty() {
                return true;
            }
        }
        !line.is_empty()
    }
}

/// Incremental builder shared by the parsing passes. Source names resolve
/// through the netlist's own name map: a reference to an already-seen net
/// costs one hash and zero allocations.
struct Builder<'t, 'l> {
    netlist: Netlist,
    /// Per net id: whether the net was created for a source name and
    /// carries it. Nets the cover decomposition made are not, so a source
    /// name that `find_net` maps onto one of them is a different net.
    from_source: Vec<bool>,
    /// Source names whose net got a uniquified name because a
    /// decomposition net already had theirs (empty for ordinary input).
    renamed: FxHashMap<&'t str, NetId>,
    outputs: Vec<(&'t str, Loc)>,
    library: &'l GateLibrary,
    model_seen: bool,
    inputs_may_still_be_declared: bool,
    /// Scratch reused from line to line: net ids of `.names` inputs and of
    /// `.subckt` pins, and cover rows.
    nets: Vec<NetId>,
    pins: Vec<Option<NetId>>,
    cover: SopCover,
    spare_rows: Vec<Vec<Lit>>,
}

impl<'t> Builder<'t, '_> {
    /// The net named `name` in the source, created as an internal net on
    /// first use.
    fn net(&mut self, name: &'t str) -> NetId {
        if let Some(id) = self.netlist.find_net(name) {
            if self.from_source.get(id.index()).copied().unwrap_or(false) {
                return id;
            }
        }
        if let Some(&id) = self.renamed.get(name) {
            return id;
        }
        let id = self.netlist.add_net(name);
        self.note_source_net(name, id);
        id
    }

    /// Records that `id` was created for the source name `name`.
    fn note_source_net(&mut self, name: &'t str, id: NetId) {
        if self.netlist.net(id).name() == name {
            if self.from_source.len() <= id.index() {
                self.from_source.resize(id.index() + 1, false);
            }
            self.from_source[id.index()] = true;
        } else {
            self.renamed.insert(name, id);
        }
    }

    fn net_name(&self, index: usize) -> String {
        self.netlist
            .net(NetId::from_index(index))
            .name()
            .to_string()
    }

    /// Maps a construction error onto a located [`IoError`].
    fn build_err(&self, err: NetlistError, loc: Loc) -> IoError {
        match err {
            NetlistError::MultipleDrivers { net, .. } => IoError::DuplicateDriver {
                loc,
                net: self.net_name(net.index()),
            },
            NetlistError::DrivenInput(net) => IoError::DuplicateDriver {
                loc,
                net: self.net_name(net.index()),
            },
            other => IoError::from_netlist(&other, |i| self.net_name(i)),
        }
    }
}

/// Parses BLIF text into a validated [`Netlist`], resolving `.subckt` and
/// `.gate` models through `library`.
///
/// # Errors
///
/// Returns an [`IoError`] with a source location for grammar and mapping
/// problems, and a name-resolved [`IoError`] for structural problems found
/// by post-parse validation (dangling nets, combinational loops, …).
pub fn parse_blif(text: &str, library: &GateLibrary) -> Result<Netlist, IoError> {
    let mut builder = Builder {
        netlist: Netlist::new("top"),
        from_source: Vec::new(),
        renamed: FxHashMap::default(),
        outputs: Vec::new(),
        library,
        model_seen: false,
        inputs_may_still_be_declared: true,
        nets: Vec::new(),
        pins: Vec::new(),
        cover: SopCover::constant_zero(0),
        spare_rows: Vec::new(),
    };

    let mut lines = Lines::new(text);
    let mut line: Vec<Token> = Vec::new();
    let mut more = lines.next_into(&mut line);
    let mut ended = false;
    while more {
        let (keyword, loc) = (line[0].text, line[0].loc);
        if !keyword.starts_with('.') {
            return Err(IoError::syntax(
                loc,
                format!("expected a directive, found `{keyword}` (cover rows must follow a .names line)"),
            ));
        }
        if ended {
            return Err(IoError::syntax(
                loc,
                format!("`{keyword}` after .end (only one model per file is supported)"),
            ));
        }
        match keyword {
            ".model" => {
                if builder.model_seen {
                    return Err(IoError::Unsupported {
                        loc,
                        construct: "multiple .model blocks in one file".into(),
                    });
                }
                // Replacing the netlist would orphan every NetId handed out
                // so far, silently rewiring signals — refuse instead.
                if builder.netlist.net_count() > 0 {
                    return Err(IoError::syntax(
                        loc,
                        ".model must come before any .inputs/.names/.latch/.subckt",
                    ));
                }
                builder.model_seen = true;
                if let Some(name) = line.get(1) {
                    builder.netlist = Netlist::new(name.text);
                }
            }
            ".inputs" => {
                if !builder.inputs_may_still_be_declared {
                    return Err(IoError::syntax(
                        loc,
                        ".inputs must precede .names/.latch/.subckt/.gate",
                    ));
                }
                // Only primary inputs exist yet, so every net carries its
                // source name.
                for token in &line[1..] {
                    if builder.netlist.find_net(token.text).is_some() {
                        return Err(IoError::Undeclared {
                            loc: token.loc,
                            name: format!("duplicate primary input `{}`", token.text),
                        });
                    }
                    let id = builder.netlist.add_input(token.text);
                    builder.note_source_net(token.text, id);
                }
            }
            ".outputs" => {
                builder
                    .outputs
                    .extend(line[1..].iter().map(|token| (token.text, token.loc)));
            }
            ".names" => {
                builder.inputs_may_still_be_declared = false;
                // Reads the cover rows and leaves the next line in `line`.
                more = parse_names(&mut builder, &mut lines, &mut line)?;
                continue;
            }
            ".latch" => {
                builder.inputs_may_still_be_declared = false;
                parse_latch(&mut builder, &line)?;
            }
            ".subckt" | ".gate" => {
                builder.inputs_may_still_be_declared = false;
                parse_subckt(&mut builder, &line)?;
            }
            ".end" => ended = true,
            ".exdc" | ".clock" | ".clock_event" | ".wire_load_slope" | ".delay" => {
                return Err(IoError::Unsupported {
                    loc,
                    construct: format!("the `{keyword}` directive"),
                });
            }
            other => {
                return Err(IoError::syntax(loc, format!("unknown directive `{other}`")));
            }
        }
        more = lines.next_into(&mut line);
    }

    finish(builder)
}

/// Parses the `.names` block whose header is in `line`, reading its cover
/// rows from `lines`. Leaves the first line after the rows in `line` and
/// returns whether there is one.
fn parse_names<'t>(
    builder: &mut Builder<'t, '_>,
    lines: &mut Lines<'t>,
    line: &mut Vec<Token<'t>>,
) -> Result<bool, IoError> {
    let header_loc = line[0].loc;
    if line.len() < 2 {
        return Err(IoError::syntax(
            header_loc,
            ".names needs at least an output net",
        ));
    }
    let input_count = line.len() - 2;
    let out_token = line[input_count + 1];
    let mut input_ids = std::mem::take(&mut builder.nets);
    input_ids.clear();
    for token in &line[1..=input_count] {
        input_ids.push(builder.net(token.text));
    }
    let out_id = builder.net(out_token.text);

    // Collect the cover rows that follow.
    let mut cover = std::mem::replace(&mut builder.cover, SopCover::constant_zero(0));
    let mut phase: Option<bool> = None;
    let mut more = lines.next_into(line);
    while more && !line[0].text.starts_with('.') {
        let row_loc = line[0].loc;
        let (plane_text, out_text, out_loc) = match (input_count, line.len()) {
            (0, 1) => ("", line[0].text, line[0].loc),
            (_, 2) => (line[0].text, line[1].text, line[1].loc),
            (_, got) => {
                return Err(IoError::syntax(
                    row_loc,
                    format!(
                        "cover row must have {} fields, found {got}",
                        if input_count == 0 { 1 } else { 2 }
                    ),
                ));
            }
        };
        if plane_text.len() != input_count {
            return Err(IoError::WidthMismatch {
                loc: row_loc,
                subject: format!("cover row of `{}`", out_token.text),
                expected: input_count,
                got: plane_text.len(),
            });
        }
        let mut row = builder.spare_rows.pop().unwrap_or_default();
        row.clear();
        for (k, c) in plane_text.chars().enumerate() {
            row.push(match c {
                '0' => Lit::Zero,
                '1' => Lit::One,
                '-' => Lit::DontCare,
                other => {
                    return Err(IoError::syntax(
                        Loc::new(row_loc.line, row_loc.col + k),
                        format!("invalid cover literal `{other}` (expected 0, 1 or -)"),
                    ));
                }
            });
        }
        let row_phase = match out_text {
            "1" => true,
            "0" => false,
            other => {
                return Err(IoError::syntax(
                    out_loc,
                    format!("cover output must be 0 or 1, found `{other}`"),
                ));
            }
        };
        match phase {
            None => phase = Some(row_phase),
            Some(p) if p != row_phase => {
                return Err(IoError::syntax(
                    out_loc,
                    "cover mixes on-set and off-set rows",
                ));
            }
            Some(_) => {}
        }
        cover.rows.push(row);
        more = lines.next_into(line);
    }

    // No rows is BLIF's constant 0: an empty on-set cover.
    cover.inputs = input_count;
    cover.phase = phase.unwrap_or(true);
    cover
        .instantiate(&mut builder.netlist, &input_ids, out_id)
        .map_err(|e| builder.build_err(e, header_loc))?;
    builder.spare_rows.append(&mut cover.rows);
    builder.cover = cover;
    builder.nets = input_ids;
    Ok(more)
}

/// Parses one `.latch` line.
fn parse_latch<'t>(builder: &mut Builder<'t, '_>, line: &[Token<'t>]) -> Result<(), IoError> {
    // .latch <input> <output> [<type> <control>] [<init-val>]
    let args = &line[1..];
    let (d_tok, q_tok, init_tok) = match args.len() {
        2 => (&args[0], &args[1], None),
        3 => (&args[0], &args[1], Some(&args[2])),
        4 => (&args[0], &args[1], None),
        5 => (&args[0], &args[1], Some(&args[4])),
        got => {
            return Err(IoError::syntax(
                line[0].loc,
                format!(".latch takes 2 to 5 arguments, found {got}"),
            ));
        }
    };
    let init = match init_tok {
        None => DffInit::DontCare,
        Some(init) => match init.text {
            "0" => DffInit::Zero,
            "1" => DffInit::One,
            "2" | "3" => DffInit::DontCare,
            other => {
                return Err(IoError::syntax(
                    init.loc,
                    format!("latch init value must be 0..3, found `{other}`"),
                ));
            }
        },
    };
    let d = builder.net(d_tok.text);
    let q = builder.net(q_tok.text);
    let name = format!("ff_{}_{}", q_tok.text, builder.netlist.cell_count());
    let cell = builder
        .netlist
        .add_cell(CellKind::Dff, name, [d], [q])
        .map_err(|e| builder.build_err(e, line[0].loc))?;
    builder.netlist.set_dff_init(cell, init);
    Ok(())
}

/// Parses one `.subckt` / `.gate` line through the gate library.
fn parse_subckt<'t>(builder: &mut Builder<'t, '_>, line: &[Token<'t>]) -> Result<(), IoError> {
    let (directive, loc) = (line[0].text, line[0].loc);
    let model_tok = line
        .get(1)
        .ok_or_else(|| IoError::syntax(loc, format!("{directive} needs a model name")))?;
    let library = builder.library;
    let cell = library
        .lookup(model_tok.text)
        .ok_or_else(|| IoError::UnknownCell {
            loc: model_tok.loc,
            name: model_tok.text.to_string(),
        })?;

    // One slot per pin: the inputs, then the outputs.
    let mut pins = std::mem::take(&mut builder.pins);
    pins.clear();
    pins.resize(cell.inputs.len() + cell.outputs.len(), None);
    for conn in &line[2..] {
        let Some((formal, actual)) = conn.text.split_once('=') else {
            return Err(IoError::syntax(
                conn.loc,
                format!("expected formal=actual, found `{}`", conn.text),
            ));
        };
        match cell.resolve_pin(formal) {
            Ok(Some((true, index))) => {
                pins[cell.inputs.len() + index] = Some(builder.net(actual));
            }
            Ok(Some((false, index))) => pins[index] = Some(builder.net(actual)),
            Ok(None) => {} // ignored pin (clock and friends)
            Err(()) => {
                return Err(IoError::syntax(
                    conn.loc,
                    format!("cell `{}` has no pin `{formal}`", model_tok.text),
                ));
            }
        }
    }
    let (input_pins, output_pins) = pins.split_at(cell.inputs.len());

    // Variable-arity kinds accept a contiguous prefix of their pin list;
    // fixed-arity kinds need every pin.
    let connected_inputs = input_pins.iter().filter(|n| n.is_some()).count();
    let inputs: Vec<NetId> = input_pins.iter().map_while(|&n| n).collect();
    if inputs.len() != connected_inputs {
        return Err(IoError::syntax(
            loc,
            format!(
                "cell `{}` has a gap in its connected input pins",
                model_tok.text
            ),
        ));
    }
    if !cell.kind.accepts_arity(inputs.len()) {
        return Err(IoError::WidthMismatch {
            loc,
            subject: format!("inputs of `{}`", model_tok.text),
            expected: cell.kind.fixed_input_arity().unwrap_or(2),
            got: inputs.len(),
        });
    }
    if let Some(missing) = output_pins.iter().position(Option::is_none) {
        return Err(IoError::syntax(
            loc,
            format!(
                "cell `{}` output pin `{}` is not connected",
                model_tok.text,
                cell.outputs[missing].canonical()
            ),
        ));
    }
    let outputs: Vec<NetId> = output_pins.iter().flatten().copied().collect();
    builder.pins = pins;
    let name = format!("u_{}_{}", model_tok.text, builder.netlist.cell_count());
    builder
        .netlist
        .add_cell(cell.kind, name, inputs, outputs)
        .map_err(|e| builder.build_err(e, loc))?;
    Ok(())
}

/// Marks outputs, checks drivers and runs structural validation.
fn finish(mut builder: Builder) -> Result<Netlist, IoError> {
    for (name, _loc) in std::mem::take(&mut builder.outputs) {
        let id = builder.net(name);
        if builder.netlist.net(id).is_floating() {
            return Err(IoError::DanglingNet {
                net: name.to_string(),
            });
        }
        builder.netlist.mark_output(id);
    }
    builder
        .netlist
        .validate()
        .map_err(|e| IoError::from_netlist(&e, |i| builder.net_name(i)))?;
    Ok(builder.netlist)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> GateLibrary {
        GateLibrary::standard()
    }

    #[test]
    fn parses_a_half_adder() {
        let text = "\
# a half adder
.model ha
.inputs a b
.outputs s c
.names a b s
01 1
10 1
.names a b c
11 1
.end
";
        let nl = parse_blif(text, &lib()).unwrap();
        assert_eq!(nl.name(), "ha");
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.stats().count_of(CellKind::Xor), 1);
        assert_eq!(nl.stats().count_of(CellKind::And), 1);
    }

    #[test]
    fn parses_latches_and_subckts() {
        let text = "\
.model pipelined
.inputs a b cin
.outputs sum_q carry_q
.subckt $fa a=a b=b cin=cin sum=s carry=c
.latch s sum_q re clk 2
.latch c carry_q 2
.end
";
        let nl = parse_blif(text, &lib()).unwrap();
        assert_eq!(nl.dff_count(), 2);
        assert_eq!(nl.stats().count_of(CellKind::FullAdder), 1);
    }

    #[test]
    fn continuation_lines_are_joined() {
        let text = ".model t\n.inputs a \\\n  b\n.outputs y\n.names a b y\n11 1\n.end\n";
        let nl = parse_blif(text, &lib()).unwrap();
        assert_eq!(nl.inputs().len(), 2);
    }

    #[test]
    fn unknown_cell_is_located() {
        let text = ".model t\n.inputs a\n.outputs y\n.subckt mystery a=a y=y\n.end\n";
        let err = parse_blif(text, &lib()).unwrap_err();
        match err {
            IoError::UnknownCell { loc, name } => {
                assert_eq!(name, "mystery");
                assert_eq!(loc.line, 4);
            }
            other => panic!("expected UnknownCell, got {other}"),
        }
    }

    #[test]
    fn cover_width_mismatch_is_located() {
        let text = ".model t\n.inputs a b\n.outputs y\n.names a b y\n111 1\n.end\n";
        let err = parse_blif(text, &lib()).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::WidthMismatch {
                    expected: 2,
                    got: 3,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(err.loc().unwrap().line, 5);
    }

    #[test]
    fn duplicate_driver_is_reported_by_name() {
        let text = ".model t\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end\n";
        let err = parse_blif(text, &lib()).unwrap_err();
        assert!(
            matches!(err, IoError::DuplicateDriver { ref net, .. } if net == "y"),
            "{err}"
        );
    }

    #[test]
    fn dangling_net_is_reported_by_name() {
        let text = ".model t\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end\n";
        let err = parse_blif(text, &lib()).unwrap_err();
        assert_eq!(
            err,
            IoError::DanglingNet {
                net: "ghost".into()
            }
        );
    }

    #[test]
    fn undriven_output_is_rejected() {
        let text = ".model t\n.inputs a\n.outputs y nowhere\n.names a y\n1 1\n.end\n";
        let err = parse_blif(text, &lib()).unwrap_err();
        assert_eq!(
            err,
            IoError::DanglingNet {
                net: "nowhere".into()
            }
        );
    }

    #[test]
    fn latch_init_values_are_honoured() {
        let text = ".model t\n.inputs d\n.outputs q0 q1 q2 q3\n\
                    .latch d q0 0\n.latch d q1 1\n.latch d q2 2\n.latch d q3\n.end\n";
        let nl = parse_blif(text, &lib()).unwrap();
        let init_of = |name: &str| {
            let q = nl.find_net(name).unwrap();
            nl.cell(nl.net(q).driver().unwrap().cell).dff_init()
        };
        assert_eq!(init_of("q0"), DffInit::Zero);
        assert_eq!(init_of("q1"), DffInit::One);
        assert_eq!(init_of("q2"), DffInit::DontCare);
        assert_eq!(init_of("q3"), DffInit::DontCare);
    }

    #[test]
    fn latch_init_out_of_range_is_rejected() {
        let text = ".model t\n.inputs d\n.outputs q\n.latch d q 7\n.end\n";
        let err = parse_blif(text, &lib()).unwrap_err();
        assert!(matches!(err, IoError::Syntax { .. }), "{err}");
    }

    #[test]
    fn irregular_cover_becomes_a_network() {
        // f = a·b + c (an AND-OR structure, no single matching kind).
        let text = ".model t\n.inputs a b c\n.outputs f\n.names a b c f\n11- 1\n--1 1\n.end\n";
        let nl = parse_blif(text, &lib()).unwrap();
        assert!(nl.cell_count() >= 2, "needs an AND and an OR");
        nl.validate().unwrap();
    }

    #[test]
    fn constant_covers_parse() {
        let text = ".model t\n.outputs one zero\n.names one\n1\n.names zero\n.end\n";
        let nl = parse_blif(text, &lib()).unwrap();
        assert_eq!(nl.stats().count_of(CellKind::Const(true)), 1);
        assert_eq!(nl.stats().count_of(CellKind::Const(false)), 1);
    }

    #[test]
    fn model_after_nets_is_rejected() {
        // A late .model would replace the netlist while stale NetIds keep
        // pointing into the old one — must be a hard error, not a rewiring.
        let text = ".inputs a\n.model t\n.inputs b\n.outputs y\n.names a y\n1 1\n.end\n";
        let err = parse_blif(text, &lib()).unwrap_err();
        assert!(matches!(err, IoError::Syntax { .. }), "{err}");
        assert_eq!(err.loc().unwrap().line, 2);
    }

    #[test]
    fn source_name_taken_by_a_decomposition_net_stays_a_separate_net() {
        // `y`'s irregular cover makes an internal `y$p0`; the source's own
        // `y$p0`, first used later, is another net under a fresh name, and
        // every later reference resolves to it.
        let text = ".model t\n.inputs a b\n.outputs y z\n.names a b y\n11 1\n-0 1\n\
                    .names a y$p0\n1 1\n.names y$p0 z\n0 1\n.end\n";
        let nl = parse_blif(text, &lib()).unwrap();
        let z = nl.find_net("z").unwrap();
        let source = nl.cell(nl.net(z).driver().unwrap().cell).inputs()[0];
        assert_eq!(nl.net(source).name(), "y$p0_0");
        let driver = nl.cell(nl.net(source).driver().unwrap().cell);
        assert_eq!(driver.kind(), CellKind::Buf);
        let internal = nl.find_net("y$p0").unwrap();
        assert_ne!(internal, source);
        assert_eq!(
            nl.cell(nl.net(internal).driver().unwrap().cell).kind(),
            CellKind::And
        );
    }

    #[test]
    fn input_declared_after_use_is_rejected() {
        let text = ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.inputs b\n.end\n";
        let err = parse_blif(text, &lib()).unwrap_err();
        assert!(matches!(err, IoError::Syntax { .. }), "{err}");
    }
}
