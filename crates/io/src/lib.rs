//! # glitch-io
//!
//! Netlist interchange for the glitch-analysis workspace: external circuits
//! in and out, so the paper's pipeline (analyzer → event-driven simulation →
//! glitch classification → power estimation → retiming) runs on netlists
//! produced by other tools, not only on the generators in `glitch-arith`.
//!
//! * [`parse_blif`] — a BLIF reader (`.model` / `.inputs` / `.outputs` /
//!   `.names` covers / `.latch` / `.subckt` / `.gate`). Sum-of-products
//!   covers whose truth table matches a [`glitch_netlist::CellKind`] become
//!   a single cell; anything else is decomposed into an AND–OR–INV network.
//!   The text is read in one pass with no allocation per token, per name
//!   lookup or per library cell: tokens borrow the source, names resolve
//!   through the netlist's own map, library cells are borrowed.
//! * [`emit_blif`] — the inverse writer; write → read reproduces net, cell
//!   and flipflop counts and the per-kind cell histogram exactly.
//! * [`parse_verilog`] — a structural-Verilog subset reader (module, wire /
//!   input / output declarations, primitive gates, library cell instances)
//!   whose tokens borrow the source, as the BLIF reader's do.
//! * [`GateLibrary`] — the mapping layer resolving external cell names and
//!   pins onto [`glitch_netlist::CellKind`], with per-kind delay and
//!   capacitance defaults drawn from `glitch-power`'s [`glitch_power::Technology`].
//! * [`IoError`] — diagnostics with line/column locations; structural
//!   problems found by `netlist::validate` are reported with net names
//!   resolved.
//!
//! ## Example
//!
//! ```
//! use glitch_io::{parse_blif, emit_blif, GateLibrary};
//!
//! let text = "\
//! .model ha
//! .inputs a b
//! .outputs s c
//! .names a b s
//! 01 1
//! 10 1
//! .names a b c
//! 11 1
//! .end
//! ";
//! let lib = GateLibrary::standard();
//! let netlist = parse_blif(text, &lib)?;
//! assert_eq!(netlist.cell_count(), 2);
//! let round_tripped = parse_blif(&emit_blif(&netlist), &lib)?;
//! assert_eq!(round_tripped.stats().cells_by_kind(), netlist.stats().cells_by_kind());
//! # Ok::<(), glitch_io::IoError>(())
//! ```

mod blif;
mod cover;
mod emit;
mod error;
mod library;
mod verilog;

pub use blif::parse_blif;
pub use cover::{canonical_cover, Lit, SopCover};
pub use emit::emit_blif;
pub use error::{IoError, Loc};
pub use library::{GateLibrary, LibraryCell, LibraryPin};
pub use verilog::parse_verilog;

use glitch_netlist::Netlist;

/// The netlist formats this crate reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Berkeley Logic Interchange Format.
    Blif,
    /// Structural-Verilog subset.
    Verilog,
}

impl Format {
    /// Guesses the format from a file name's extension (`.blif` → BLIF,
    /// `.v` / `.sv` / `.vh` → Verilog).
    #[must_use]
    pub fn from_extension(path: &str) -> Option<Format> {
        let ext = path.rsplit('.').next()?.to_ascii_lowercase();
        match ext.as_str() {
            "blif" => Some(Format::Blif),
            "v" | "sv" | "vh" => Some(Format::Verilog),
            _ => None,
        }
    }
}

/// Parses `text` in the given format through `library`.
///
/// # Errors
///
/// Forwards the reader's [`IoError`].
pub fn parse_netlist(
    text: &str,
    format: Format,
    library: &GateLibrary,
) -> Result<Netlist, IoError> {
    match format {
        Format::Blif => parse_blif(text, library),
        Format::Verilog => parse_verilog(text, library),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_guessing() {
        assert_eq!(
            Format::from_extension("tests/data/c17.blif"),
            Some(Format::Blif)
        );
        assert_eq!(Format::from_extension("adder.V"), Some(Format::Verilog));
        assert_eq!(Format::from_extension("core.sv"), Some(Format::Verilog));
        assert_eq!(Format::from_extension("netlist.edif"), None);
    }

    #[test]
    fn parse_netlist_dispatches() {
        let lib = GateLibrary::standard();
        let blif = ".model t\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n";
        let verilog = "module t (a, y); input a; output y; not g (y, a); endmodule";
        let from_blif = parse_netlist(blif, Format::Blif, &lib).unwrap();
        let from_verilog = parse_netlist(verilog, Format::Verilog, &lib).unwrap();
        assert_eq!(
            from_blif.stats().cells_by_kind(),
            from_verilog.stats().cells_by_kind()
        );
    }
}
