//! A structural-Verilog subset reader.
//!
//! Supported: one `module` with a port list, `input` / `output` / `wire`
//! declarations (scalar or vectored `[msb:lsb]`), the gate primitives
//! `and or nand nor xor xnor not buf` (output first, as in the standard),
//! and instances of [`GateLibrary`] cells with named (`.pin(net)`) or
//! positional (outputs first, then inputs) connections. Bit-selects
//! (`a[3]`) address vector nets; `1'b0` / `1'b1` literals instantiate
//! constant drivers. Everything must be declared before use — synthesised
//! netlists declare their wires, and strict resolution gives much better
//! diagnostics than implicit-net creation.
//!
//! Not supported (rejected with a located diagnostic): `assign`, behavioural
//! blocks (`always`, `initial`), parameters, part-selects and multi-module
//! files.

use glitch_netlist::{CellKind, FxHashMap, NetId, Netlist, NetlistError};

use crate::error::{IoError, Loc};
use crate::library::GateLibrary;

/// Identifiers borrow their text from the source, so a net referenced by
/// fifty instances costs no allocation until the netlist names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'s> {
    Ident(&'s str),
    Number(u64),
    /// `1'b0` / `1'b1` style constant.
    Constant(bool),
    Punct(char),
}

#[derive(Debug, Clone, Copy)]
struct Token<'s> {
    tok: Tok<'s>,
    loc: Loc,
}

fn tokenize(text: &str) -> Result<Vec<Token<'_>>, IoError> {
    let mut tokens = Vec::new();
    let mut chars = text.char_indices().peekable();
    let mut line = 1usize;
    let mut line_start = 0usize;
    let col = |at: usize, line_start: usize| at - line_start + 1;

    while let Some(&(at, c)) = chars.peek() {
        match c {
            '\n' => {
                chars.next();
                line += 1;
                line_start = at + 1;
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                let loc = Loc::new(line, col(at, line_start));
                chars.next();
                match chars.peek() {
                    Some(&(_, '/')) => {
                        for (_, c2) in chars.by_ref() {
                            if c2 == '\n' {
                                line += 1;
                                break;
                            }
                        }
                        // `line_start` is only used for columns on the next
                        // token's line; recompute lazily via the next '\n'.
                        line_start = text[..text.len()]
                            .char_indices()
                            .find(|&(i, ch)| i > at && ch == '\n')
                            .map_or(text.len(), |(i, _)| i + 1);
                    }
                    Some(&(_, '*')) => {
                        chars.next();
                        let mut prev = ' ';
                        let mut closed = false;
                        for (i, c2) in chars.by_ref() {
                            if c2 == '\n' {
                                line += 1;
                                line_start = i + 1;
                            }
                            if prev == '*' && c2 == '/' {
                                closed = true;
                                break;
                            }
                            prev = c2;
                        }
                        if !closed {
                            return Err(IoError::syntax(loc, "unterminated block comment"));
                        }
                    }
                    _ => {
                        return Err(IoError::syntax(loc, "unexpected `/`"));
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let loc = Loc::new(line, col(at, line_start));
                let mut number = String::new();
                while let Some(&(_, d)) = chars.peek() {
                    if d.is_ascii_digit() || d == '_' {
                        if d != '_' {
                            number.push(d);
                        }
                        chars.next();
                    } else {
                        break;
                    }
                }
                // Sized binary constant: 1'b0 / 1'b1.
                if let Some(&(_, '\'')) = chars.peek() {
                    chars.next();
                    let base = chars.next().map(|(_, b)| b);
                    let digit = chars.next().map(|(_, d)| d);
                    match (base, digit) {
                        (Some('b' | 'B'), Some('0')) => {
                            tokens.push(Token {
                                tok: Tok::Constant(false),
                                loc,
                            });
                        }
                        (Some('b' | 'B'), Some('1')) => {
                            tokens.push(Token {
                                tok: Tok::Constant(true),
                                loc,
                            });
                        }
                        _ => {
                            return Err(IoError::Unsupported {
                                loc,
                                construct: "sized constants other than 1'b0 / 1'b1".into(),
                            });
                        }
                    }
                } else {
                    let value: u64 = number.parse().map_err(|_| {
                        IoError::syntax(loc, format!("number `{number}` out of range"))
                    })?;
                    tokens.push(Token {
                        tok: Tok::Number(value),
                        loc,
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' || c == '$' => {
                let loc = Loc::new(line, col(at, line_start));
                let mut end = text.len();
                while let Some(&(i, d)) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' || d == '$' {
                        chars.next();
                    } else {
                        end = i;
                        break;
                    }
                }
                tokens.push(Token {
                    tok: Tok::Ident(&text[at..end]),
                    loc,
                });
            }
            '(' | ')' | '[' | ']' | ',' | ';' | ':' | '.' | '=' => {
                tokens.push(Token {
                    tok: Tok::Punct(c),
                    loc: Loc::new(line, col(at, line_start)),
                });
                chars.next();
            }
            other => {
                return Err(IoError::syntax(
                    Loc::new(line, col(at, line_start)),
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    Ok(tokens)
}

/// Sanity bound on one vector declaration: a malformed `[msb:lsb]` range
/// must become a diagnostic, not a four-billion-net allocation.
const MAX_VECTOR_WIDTH: u64 = 1 << 16;

/// A declared signal: a scalar net or a vector of nets (LSB first).
#[derive(Debug, Clone)]
enum Signal {
    Scalar(NetId),
    Vector { lsb: u64, nets: Vec<NetId> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Input,
    Output,
    Wire,
}

struct Parser<'s, 't, 'l> {
    tokens: &'t [Token<'s>],
    pos: usize,
    library: &'l GateLibrary,
    netlist: Netlist,
    signals: FxHashMap<&'s str, Signal>,
    output_names: Vec<&'s str>,
    const_nets: [Option<NetId>; 2],
}

impl<'s> Parser<'s, '_, '_> {
    fn peek(&self) -> Option<Token<'s>> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Token<'s>> {
        let t = self.tokens.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eof_loc(&self) -> Loc {
        self.tokens.last().map_or(Loc::new(1, 1), |t| t.loc)
    }

    fn expect_punct(&mut self, c: char) -> Result<Loc, IoError> {
        match self.next() {
            Some(Token {
                tok: Tok::Punct(p),
                loc,
            }) if p == c => Ok(loc),
            Some(t) => Err(IoError::syntax(t.loc, format!("expected `{c}`"))),
            None => Err(IoError::syntax(
                self.eof_loc(),
                format!("expected `{c}`, found end of file"),
            )),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(&'s str, Loc), IoError> {
        match self.next() {
            Some(Token {
                tok: Tok::Ident(name),
                loc,
            }) => Ok((name, loc)),
            Some(t) => Err(IoError::syntax(t.loc, format!("expected {what}"))),
            None => Err(IoError::syntax(
                self.eof_loc(),
                format!("expected {what}, found end of file"),
            )),
        }
    }

    fn expect_number(&mut self) -> Result<(u64, Loc), IoError> {
        match self.next() {
            Some(Token {
                tok: Tok::Number(n),
                loc,
            }) => Ok((n, loc)),
            Some(t) => Err(IoError::syntax(t.loc, "expected a number".to_string())),
            None => Err(IoError::syntax(
                self.eof_loc(),
                "expected a number, found end of file",
            )),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if matches!(self.peek(), Some(Token { tok: Tok::Punct(p), .. }) if p == c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn build_err(&self, err: NetlistError, loc: Loc) -> IoError {
        match err {
            NetlistError::MultipleDrivers { net, .. } | NetlistError::DrivenInput(net) => {
                IoError::DuplicateDriver {
                    loc,
                    net: self.netlist.net(net).name().to_string(),
                }
            }
            other => IoError::from_netlist(&other, |i| {
                self.netlist
                    .net(glitch_netlist::NetId::from_index(i))
                    .name()
                    .to_string()
            }),
        }
    }

    /// `module name (ports?) ; item* endmodule`
    fn module(&mut self) -> Result<(), IoError> {
        let (kw, loc) = self.expect_ident("`module`")?;
        if kw != "module" {
            return Err(IoError::syntax(
                loc,
                format!("expected `module`, found `{kw}`"),
            ));
        }
        let (name, _) = self.expect_ident("a module name")?;
        self.netlist = Netlist::new(name);
        if self.eat_punct('(') {
            // The port list is redundant with the input/output declarations;
            // skip identifiers and commas until `)`.
            loop {
                match self.next() {
                    Some(Token {
                        tok: Tok::Punct(')'),
                        ..
                    }) => break,
                    Some(Token {
                        tok: Tok::Ident(_) | Tok::Punct(','),
                        ..
                    }) => {}
                    Some(t) => {
                        return Err(IoError::syntax(t.loc, "unexpected token in port list"));
                    }
                    None => {
                        return Err(IoError::syntax(self.eof_loc(), "unterminated port list"));
                    }
                }
            }
        }
        self.expect_punct(';')?;

        loop {
            let Some(token) = self.peek() else {
                return Err(IoError::syntax(self.eof_loc(), "missing `endmodule`"));
            };
            let loc = token.loc;
            let Tok::Ident(word) = token.tok else {
                return Err(IoError::syntax(
                    loc,
                    "expected a declaration or an instantiation",
                ));
            };
            if let Some(kind) = primitive_kind(word) {
                self.pos += 1;
                self.primitive_instance(kind, loc)?;
                continue;
            }
            match word {
                "endmodule" => {
                    self.pos += 1;
                    break;
                }
                "input" => self.declaration(Direction::Input)?,
                "output" => self.declaration(Direction::Output)?,
                "wire" => self.declaration(Direction::Wire)?,
                "assign" | "always" | "initial" | "reg" | "parameter" | "generate" => {
                    return Err(IoError::Unsupported {
                        loc,
                        construct: format!("`{word}` (only structural netlists are supported)"),
                    });
                }
                _ => {
                    self.pos += 1;
                    self.library_instance(word, loc)?;
                }
            }
        }

        if let Some(extra) = self.peek() {
            if matches!(extra.tok, Tok::Ident(kw) if kw == "module") {
                return Err(IoError::Unsupported {
                    loc: extra.loc,
                    construct: "multiple modules in one file".into(),
                });
            }
            return Err(IoError::syntax(
                extra.loc,
                "unexpected tokens after endmodule",
            ));
        }
        Ok(())
    }

    /// `input|output|wire [msb:lsb]? name (, name)* ;` — `output wire` and
    /// `input wire` are accepted.
    fn declaration(&mut self, direction: Direction) -> Result<(), IoError> {
        self.pos += 1; // the direction keyword
        if matches!(self.peek(), Some(Token { tok: Tok::Ident(kw), .. }) if kw == "wire") {
            self.pos += 1;
        }
        let range = if self.eat_punct('[') {
            let (msb, _) = self.expect_number()?;
            self.expect_punct(':')?;
            let (lsb, loc) = self.expect_number()?;
            self.expect_punct(']')?;
            if msb < lsb {
                return Err(IoError::Unsupported {
                    loc,
                    construct: "descending vector ranges ([lsb:msb])".into(),
                });
            }
            let width = msb - lsb + 1;
            if width > MAX_VECTOR_WIDTH {
                return Err(IoError::WidthMismatch {
                    loc,
                    subject: "vector declaration".into(),
                    expected: MAX_VECTOR_WIDTH as usize,
                    got: usize::try_from(width).unwrap_or(usize::MAX),
                });
            }
            Some((msb, lsb))
        } else {
            None
        };
        loop {
            let (name, loc) = self.expect_ident("a signal name")?;
            if self.signals.contains_key(&name) {
                return Err(IoError::syntax(loc, format!("`{name}` is declared twice")));
            }
            let signal = match range {
                None => {
                    let id = match direction {
                        Direction::Input => self.netlist.add_input(name),
                        _ => self.netlist.add_net(name),
                    };
                    Signal::Scalar(id)
                }
                Some((msb, lsb)) => {
                    let nets = (lsb..=msb)
                        .map(|i| {
                            let bit = format!("{name}[{i}]");
                            match direction {
                                Direction::Input => self.netlist.add_input(&bit),
                                _ => self.netlist.add_net(&bit),
                            }
                        })
                        .collect();
                    Signal::Vector { lsb, nets }
                }
            };
            if direction == Direction::Output {
                self.output_names.push(name);
            }
            self.signals.insert(name, signal);
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct(';')?;
        Ok(())
    }

    /// One scalar operand: `ident`, `ident[index]`, `1'b0` or `1'b1`.
    fn operand(&mut self) -> Result<(NetId, Loc), IoError> {
        match self.next() {
            Some(Token {
                tok: Tok::Constant(value),
                loc,
            }) => {
                let id = self.constant_net(value);
                Ok((id, loc))
            }
            Some(Token {
                tok: Tok::Ident(name),
                loc,
            }) => {
                let Some(signal) = self.signals.get(&name).cloned() else {
                    return Err(IoError::Undeclared {
                        loc,
                        name: name.to_string(),
                    });
                };
                if self.eat_punct('[') {
                    let (index, index_loc) = self.expect_number()?;
                    self.expect_punct(']')?;
                    match signal {
                        Signal::Scalar(_) => Err(IoError::WidthMismatch {
                            loc: index_loc,
                            subject: format!("`{name}` (a scalar net, indexed)"),
                            expected: 1,
                            got: 2,
                        }),
                        Signal::Vector { lsb, nets } => {
                            let offset = index.checked_sub(lsb).map(|o| o as usize);
                            match offset.and_then(|o| nets.get(o)) {
                                Some(&id) => Ok((id, loc)),
                                None => Err(IoError::WidthMismatch {
                                    loc: index_loc,
                                    subject: format!("index {index} of `{name}`"),
                                    expected: nets.len(),
                                    got: index as usize,
                                }),
                            }
                        }
                    }
                } else {
                    match signal {
                        Signal::Scalar(id) => Ok((id, loc)),
                        Signal::Vector { nets, .. } => Err(IoError::WidthMismatch {
                            loc,
                            subject: format!("`{name}` (a vector net used as a scalar)"),
                            expected: 1,
                            got: nets.len(),
                        }),
                    }
                }
            }
            Some(t) => Err(IoError::syntax(t.loc, "expected a net reference")),
            None => Err(IoError::syntax(
                self.eof_loc(),
                "expected a net reference, found end of file",
            )),
        }
    }

    fn constant_net(&mut self, value: bool) -> NetId {
        let slot = usize::from(value);
        if let Some(id) = self.const_nets[slot] {
            return id;
        }
        let id = self
            .netlist
            .constant(value, if value { "const1" } else { "const0" });
        self.const_nets[slot] = Some(id);
        id
    }

    /// `and g1 (y, a, b);` — output first, optional instance name.
    fn primitive_instance(&mut self, kind: CellKind, loc: Loc) -> Result<(), IoError> {
        let name = match self.peek() {
            Some(Token {
                tok: Tok::Ident(n), ..
            }) => {
                self.pos += 1;
                n.to_string()
            }
            _ => format!("g{}", self.netlist.cell_count()),
        };
        self.expect_punct('(')?;
        let mut nets = Vec::new();
        loop {
            nets.push(self.operand()?.0);
            if !self.eat_punct(',') {
                break;
            }
        }
        self.expect_punct(')')?;
        self.expect_punct(';')?;
        if nets.len() < 2 {
            return Err(IoError::WidthMismatch {
                loc,
                subject: format!("terminals of `{name}`"),
                expected: 2,
                got: nets.len(),
            });
        }
        let output = nets[0];
        let inputs = nets[1..].to_vec();
        if !kind.accepts_arity(inputs.len()) {
            return Err(IoError::WidthMismatch {
                loc,
                subject: format!("inputs of `{name}`"),
                expected: kind.fixed_input_arity().unwrap_or(2),
                got: inputs.len(),
            });
        }
        self.netlist
            .add_cell(kind, name, inputs, [output])
            .map_err(|e| self.build_err(e, loc))?;
        Ok(())
    }

    /// `DFF ff0 (.d(x), .q(y));` or `DFF ff0 (y, x);` (outputs first).
    fn library_instance(&mut self, cell_name: &str, loc: Loc) -> Result<(), IoError> {
        let library = self.library;
        let Some(cell) = library.lookup(cell_name) else {
            return Err(IoError::UnknownCell {
                loc,
                name: cell_name.to_string(),
            });
        };
        let (instance, _) = self.expect_ident("an instance name")?;
        let instance = instance.to_string();
        self.expect_punct('(')?;

        let mut input_nets: Vec<Option<NetId>> = vec![None; cell.inputs.len()];
        let mut output_nets: Vec<Option<NetId>> = vec![None; cell.outputs.len()];
        if matches!(
            self.peek(),
            Some(Token {
                tok: Tok::Punct('.'),
                ..
            })
        ) {
            // Named connections.
            loop {
                self.expect_punct('.')?;
                let (pin, pin_loc) = self.expect_ident("a pin name")?;
                self.expect_punct('(')?;
                let connection = if matches!(
                    self.peek(),
                    Some(Token {
                        tok: Tok::Punct(')'),
                        ..
                    })
                ) {
                    None // unconnected: .pin()
                } else {
                    Some(self.operand()?.0)
                };
                self.expect_punct(')')?;
                match cell.resolve_pin(pin) {
                    Ok(Some((true, index))) => output_nets[index] = connection,
                    Ok(Some((false, index))) => input_nets[index] = connection,
                    Ok(None) => {}
                    Err(()) => {
                        return Err(IoError::syntax(
                            pin_loc,
                            format!("cell `{cell_name}` has no pin `{pin}`"),
                        ));
                    }
                }
                if !self.eat_punct(',') {
                    break;
                }
            }
        } else {
            // Positional: outputs first, then inputs.
            let mut nets = Vec::new();
            loop {
                nets.push(self.operand()?.0);
                if !self.eat_punct(',') {
                    break;
                }
            }
            let out_count = cell.outputs.len();
            if nets.len() < out_count + cell.kind.min_input_arity() {
                return Err(IoError::WidthMismatch {
                    loc,
                    subject: format!("terminals of `{instance}`"),
                    expected: out_count + cell.kind.min_input_arity(),
                    got: nets.len(),
                });
            }
            for (i, &net) in nets[..out_count].iter().enumerate() {
                output_nets[i] = Some(net);
            }
            for (i, &net) in nets[out_count..].iter().enumerate() {
                match input_nets.get_mut(i) {
                    Some(slot) => *slot = Some(net),
                    None => {
                        return Err(IoError::WidthMismatch {
                            loc,
                            subject: format!("terminals of `{instance}`"),
                            expected: out_count + cell.inputs.len(),
                            got: nets.len(),
                        });
                    }
                }
            }
        }
        self.expect_punct(')')?;
        self.expect_punct(';')?;

        let inputs: Vec<NetId> = input_nets
            .iter()
            .take_while(|n| n.is_some())
            .flatten()
            .copied()
            .collect();
        let connected = input_nets.iter().filter(|n| n.is_some()).count();
        if inputs.len() != connected || !cell.kind.accepts_arity(inputs.len()) {
            return Err(IoError::WidthMismatch {
                loc,
                subject: format!("inputs of `{instance}`"),
                expected: cell.kind.fixed_input_arity().unwrap_or(2),
                got: connected,
            });
        }
        let outputs: Vec<NetId> = match output_nets
            .iter()
            .enumerate()
            .map(|(k, n)| n.ok_or(k))
            .collect::<Result<Vec<_>, usize>>()
        {
            Ok(outs) => outs,
            Err(missing) => {
                return Err(IoError::syntax(
                    loc,
                    format!(
                        "cell `{}` output pin `{}` is not connected",
                        cell_name,
                        cell.outputs[missing].canonical()
                    ),
                ));
            }
        };
        self.netlist
            .add_cell(cell.kind, instance, inputs, outputs)
            .map_err(|e| self.build_err(e, loc))?;
        Ok(())
    }
}

fn primitive_kind(keyword: &str) -> Option<CellKind> {
    Some(match keyword {
        "and" => CellKind::And,
        "or" => CellKind::Or,
        "nand" => CellKind::Nand,
        "nor" => CellKind::Nor,
        "xor" => CellKind::Xor,
        "xnor" => CellKind::Xnor,
        "not" => CellKind::Inv,
        "buf" => CellKind::Buf,
        _ => return None,
    })
}

/// Parses a structural-Verilog module into a validated [`Netlist`],
/// resolving non-primitive instances through `library`.
///
/// # Errors
///
/// Returns an [`IoError`] with a source location for grammar, declaration
/// and mapping problems, and a name-resolved [`IoError`] for structural
/// problems found by post-parse validation.
pub fn parse_verilog(text: &str, library: &GateLibrary) -> Result<Netlist, IoError> {
    let tokens = tokenize(text)?;
    if tokens.is_empty() {
        return Err(IoError::syntax(Loc::new(1, 1), "empty file"));
    }
    let mut parser = Parser {
        tokens: &tokens,
        pos: 0,
        library,
        netlist: Netlist::new("top"),
        signals: FxHashMap::default(),
        output_names: Vec::new(),
        const_nets: [None, None],
    };
    parser.module()?;

    for name in std::mem::take(&mut parser.output_names) {
        let nets: Vec<NetId> = match &parser.signals[&name] {
            Signal::Scalar(id) => vec![*id],
            Signal::Vector { nets, .. } => nets.clone(),
        };
        for id in nets {
            if parser.netlist.net(id).is_floating() {
                return Err(IoError::DanglingNet {
                    net: parser.netlist.net(id).name().to_string(),
                });
            }
            parser.netlist.mark_output(id);
        }
    }
    parser.netlist.validate().map_err(|e| {
        IoError::from_netlist(&e, |i| {
            parser.netlist.net(NetId::from_index(i)).name().to_string()
        })
    })?;
    Ok(parser.netlist)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> GateLibrary {
        GateLibrary::standard()
    }

    #[test]
    fn parses_a_gate_level_module() {
        let text = "\
// a full adder from primitives
module fadd (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire ab, t1, t2, t3;
  xor x0 (ab, a, b);
  xor x1 (sum, ab, cin);
  and a0 (t1, a, b);
  and a1 (t2, a, cin);
  and a2 (t3, b, cin);
  or  o0 (cout, t1, t2, t3);
endmodule
";
        let nl = parse_verilog(text, &lib()).unwrap();
        assert_eq!(nl.name(), "fadd");
        assert_eq!(nl.inputs().len(), 3);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.stats().count_of(CellKind::Xor), 2);
        assert_eq!(nl.stats().count_of(CellKind::And), 3);
        assert_eq!(nl.stats().count_of(CellKind::Or), 1);
    }

    #[test]
    fn vectors_and_bit_selects() {
        let text = "\
module slice (a, y);
  input [3:0] a;
  output y;
  wire t;
  and g0 (t, a[0], a[1]);
  and g1 (y, t, a[3]);
endmodule
";
        let nl = parse_verilog(text, &lib()).unwrap();
        assert_eq!(nl.inputs().len(), 4);
        assert!(nl.find_net("a[3]").is_some());
    }

    #[test]
    fn library_cells_with_named_and_positional_pins() {
        let text = "\
module seq (d, q2);
  input d;
  output q2;
  wire q1;
  DFF ff0 (.clk(1'b0), .d(d), .q(q1));
  DFF ff1 (q2, q1);
endmodule
";
        let nl = parse_verilog(text, &lib()).unwrap();
        assert_eq!(nl.dff_count(), 2);
        // The ignored .clk(1'b0) still created a constant driver net.
        assert!(nl.stats().count_of(CellKind::Const(false)) <= 1);
    }

    #[test]
    fn undeclared_net_is_located() {
        let text = "module t (y); output y; and g (y, a, b); endmodule";
        let err = parse_verilog(text, &lib()).unwrap_err();
        assert!(
            matches!(err, IoError::Undeclared { ref name, .. } if name == "a"),
            "{err}"
        );
    }

    #[test]
    fn vector_used_as_scalar_is_a_width_mismatch() {
        let text = "\
module t (a, y);
  input [7:0] a;
  output y;
  buf g (y, a);
endmodule
";
        let err = parse_verilog(text, &lib()).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::WidthMismatch {
                    expected: 1,
                    got: 8,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn assign_is_rejected_with_a_clear_message() {
        let text = "module t (a, y); input a; output y; assign y = a; endmodule";
        let err = parse_verilog(text, &lib()).unwrap_err();
        assert!(matches!(err, IoError::Unsupported { .. }), "{err}");
        assert!(err.to_string().contains("assign"));
    }

    #[test]
    fn out_of_range_index_is_a_width_mismatch() {
        let text = "\
module t (a, y);
  input [3:0] a;
  output y;
  buf g (y, a[7]);
endmodule
";
        let err = parse_verilog(text, &lib()).unwrap_err();
        assert!(matches!(err, IoError::WidthMismatch { .. }), "{err}");
    }

    #[test]
    fn absurd_vector_width_is_a_diagnostic_not_an_allocation() {
        let text = "module t (a, y);\n  input [4000000000:0] a;\n  output y;\n  buf g (y, a[0]);\nendmodule\n";
        let err = parse_verilog(text, &lib()).unwrap_err();
        assert!(matches!(err, IoError::WidthMismatch { .. }), "{err}");
        assert_eq!(err.loc().unwrap().line, 2);
    }

    #[test]
    fn unknown_module_is_an_unknown_cell() {
        let text = "module t (a, y); input a; output y; WEIRD u0 (y, a); endmodule";
        let err = parse_verilog(text, &lib()).unwrap_err();
        assert!(
            matches!(err, IoError::UnknownCell { ref name, .. } if name == "WEIRD"),
            "{err}"
        );
    }

    #[test]
    fn block_comments_and_constants() {
        let text = "\
module t (y); /* just a
   constant driver */
  output y;
  buf g (y, 1'b1);
endmodule
";
        let nl = parse_verilog(text, &lib()).unwrap();
        assert_eq!(nl.stats().count_of(CellKind::Const(true)), 1);
        assert_eq!(nl.stats().count_of(CellKind::Buf), 1);
    }
}
