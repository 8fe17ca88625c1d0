//! String interning for the Verilog reader.
//!
//! Netlist sources mention every net name many times (a fanout-`k` net
//! appears `k + 1` times), so the reader would otherwise allocate a
//! `String` per *reference*. [`StringInterner`] deduplicates names into
//! [`Atom`] handles — one allocation per *distinct* name — in a map keyed
//! through `glitch-netlist`'s [`FxHashMap`], the hasher the netlist's own
//! name map uses.

use std::rc::Rc;

use glitch_netlist::FxHashMap;

/// A handle to an interned string: `Copy`, 4 bytes, O(1) equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom(u32);

impl Atom {
    /// The dense index of this atom (0-based, in interning order).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Deduplicating string storage: each distinct string is allocated once
/// and addressed by a dense [`Atom`].
///
/// Storage is `Rc<str>` shared between the lookup map and the resolve
/// table, so there is exactly one heap copy per distinct string and no
/// unsafe self-referencing.
#[derive(Default)]
pub struct StringInterner {
    map: FxHashMap<Rc<str>, Atom>,
    strings: Vec<Rc<str>>,
}

impl StringInterner {
    #[must_use]
    pub fn new() -> StringInterner {
        StringInterner::default()
    }

    /// The atom for `s`, allocating it on first sight.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` distinct strings (a netlist that size does
    /// not fit in memory long before the handle space runs out).
    pub fn intern(&mut self, s: &str) -> Atom {
        if let Some(&atom) = self.map.get(s) {
            return atom;
        }
        let atom = Atom(u32::try_from(self.strings.len()).expect("interner overflow"));
        let stored: Rc<str> = Rc::from(s);
        self.strings.push(Rc::clone(&stored));
        self.map.insert(stored, atom);
        atom
    }

    /// The string behind `atom`.
    ///
    /// # Panics
    ///
    /// Panics on an atom from a different interner whose index is out of
    /// range.
    #[must_use]
    pub fn resolve(&self, atom: Atom) -> &str {
        &self.strings[atom.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut interner = StringInterner::new();
        let a = interner.intern("carry");
        let b = interner.intern("sum");
        let a2 = interner.intern("carry");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        // Only two distinct strings were stored.
        assert_eq!(b.index(), 1);
        assert_eq!(interner.resolve(a), "carry");
        assert_eq!(interner.resolve(b), "sum");
    }

    #[test]
    fn atoms_are_dense() {
        let mut interner = StringInterner::new();
        for i in 0..100 {
            let atom = interner.intern(&format!("net{i}"));
            assert_eq!(atom.index(), i);
        }
    }

    #[test]
    fn fx_map_works_with_str_and_atom_keys() {
        // Both key types the parsers use.
        let mut by_name: FxHashMap<&str, u32> = FxHashMap::default();
        by_name.insert("a", 1);
        by_name.insert("b", 2);
        assert_eq!(by_name.get("a"), Some(&1));

        let mut interner = StringInterner::new();
        let mut by_atom: FxHashMap<Atom, u32> = FxHashMap::default();
        by_atom.insert(interner.intern("x"), 7);
        assert_eq!(by_atom.get(&interner.intern("x")), Some(&7));
    }
}
