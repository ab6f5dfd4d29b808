//! String interning for source-level names.
//!
//! Every declared name (configs, regions, arrays, scalars) is interned
//! once during semantic analysis; downstream phases compare and look up
//! [`Symbol`]s — a `u32` — instead of hashing `String`s. The interner
//! lives on [`crate::ir::Program`] (via [`crate::ir::NameTable`]) so the
//! symbol space travels with the program it describes.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// An interned name: a cheap, `Copy` handle into an [`Interner`].
///
/// Symbols are only meaningful relative to the interner that produced
/// them; two programs' symbol spaces are unrelated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

/// Marks an empty slot of [`Interner::slots`].
const EMPTY: u32 = u32::MAX;

/// A bidirectional string ↔ [`Symbol`] table.
///
/// Interning the same string twice returns the same symbol; resolution is
/// a slice of one buffer. Each distinct name is stored once, in `text`;
/// the hash table holds symbols only and compares a candidate against
/// the buffer, so a lookup hashes the probe's bytes once and allocates
/// nothing. Names come from source text, which is outside input, so the
/// hash is std's randomly keyed one, as a `HashMap`'s would be: names
/// cannot be chosen to collide.
#[derive(Clone, Default)]
pub struct Interner {
    /// The keyed hash every slot is computed with.
    state: RandomState,
    /// Every interned name, back to back, in symbol order.
    text: String,
    /// `ends[s]` is where symbol `s`'s name ends in `text`.
    ends: Vec<u32>,
    /// Open-addressed table of symbols, [`EMPTY`] where none; its length
    /// is zero or a power of two at least twice the symbol count.
    slots: Vec<u32>,
}

impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        // The slots are derived from the names; comparing those suffices.
        self.text == other.text && self.ends == other.ends
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.ends.len()).map(|i| self.resolve(Symbol(i as u32))))
            .finish()
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// An empty interner with room for `names` names of `bytes` bytes in
    /// all, so interning them grows nothing.
    pub(crate) fn with_capacity(names: usize, bytes: usize) -> Self {
        Interner {
            state: RandomState::new(),
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
            slots: vec![EMPTY; (2 * names).next_power_of_two().max(16)],
        }
    }

    /// Where symbol `i`'s name lies in `text`.
    fn span(&self, i: u32) -> std::ops::Range<usize> {
        let start = match i {
            0 => 0,
            _ => self.ends[i as usize - 1] as usize,
        };
        start..self.ends[i as usize] as usize
    }

    fn name(&self, i: u32) -> &[u8] {
        &self.text.as_bytes()[self.span(i)]
    }

    /// The slot holding `bytes`' symbol, or the empty slot where it
    /// would go. The table must not be empty.
    fn slot(&self, bytes: &[u8]) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = self.state.hash_one(bytes) as usize & mask;
        loop {
            let s = self.slots[at];
            if s == EMPTY || self.name(s) == bytes {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Interns a name, returning its (possibly pre-existing) symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        let at = self.slot(name.as_bytes());
        if self.slots[at] != EMPTY {
            return Symbol(self.slots[at]);
        }
        let i = self.ends.len() as u32;
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
        self.slots[at] = i;
        Symbol(i)
    }

    /// Doubles the table (to 16 slots from empty) and re-slots every
    /// symbol.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots = vec![EMPTY; len];
        for i in 0..self.ends.len() as u32 {
            let at = self.slot(self.name(i));
            self.slots[at] = i;
        }
    }

    /// Looks a name up without interning it.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.get_bytes(name.as_bytes())
    }

    /// [`Interner::get`] for a name's bytes.
    pub(crate) fn get_bytes(&self, name: &[u8]) -> Option<Symbol> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.slot(name)] {
            EMPTY => None,
            s => Some(Symbol(s)),
        }
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different interner (index out of range).
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.text[self.span(sym.0)]
    }

    /// The number of distinct interned names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolves() {
        let mut i = Interner::new();
        assert_eq!(i.get("alpha"), None);
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
        assert_eq!(i.get("beta"), Some(b));
        assert_eq!(i.get("gamma"), None);
        assert_eq!(i.len(), 2);
        assert_eq!(format!("{i:?}"), r#"["alpha", "beta"]"#);
    }

    #[test]
    fn many_names_survive_growth_in_order() {
        let mut i = Interner::new();
        let names: Vec<String> = (0..1000).map(|k| format!("name_{k}_x")).collect();
        for (k, n) in names.iter().enumerate() {
            assert_eq!(i.intern(n), Symbol(k as u32));
        }
        i.intern("");
        for (k, n) in names.iter().enumerate() {
            assert_eq!(i.get(n), Some(Symbol(k as u32)), "{n}");
            assert_eq!(i.resolve(Symbol(k as u32)), n);
        }
        assert_eq!(i.get(""), Some(Symbol(1000)));
        assert_eq!(i.resolve(Symbol(1000)), "");
        assert_eq!(i.get("name_1000_x"), None);
    }

    #[test]
    fn equality_ignores_map_internals() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        a.intern("x");
        a.intern("y");
        b.intern("x");
        b.intern("y");
        assert_eq!(a, b);
        b.intern("z");
        assert_ne!(a, b);
        let mut c = Interner::new();
        c.intern("xy");
        let mut d = Interner::new();
        d.intern("x");
        d.intern("y");
        assert_ne!(c, d);
    }
}
