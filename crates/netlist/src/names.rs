//! Name storage: every net and cell name once, back to back in one
//! string, and the name → net index that reads its keys from there.

use std::hash::Hasher;

use crate::hash::FxHasher;
use crate::net::NetId;

/// Where one name lies in a [`Names`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

/// Every net and cell name of a netlist, back to back in one string. A
/// renamed net's old name stays behind, unreferenced.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    text: String,
}

impl Names {
    /// Appends `name` and returns where it lies.
    pub(crate) fn push(&mut self, name: &str) -> Span {
        let start = self.text.len() as u32;
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("name arena fits in u32");
        Span {
            start,
            len: end - start,
        }
    }

    /// The name at `span`.
    #[inline]
    pub(crate) fn get(&self, span: Span) -> &str {
        &self.text[span.start as usize..(span.start + span.len) as usize]
    }
}

/// The hash of `name` the index files it under.
pub(crate) fn tag_of(name: &str) -> u32 {
    let mut hasher = FxHasher::default();
    hasher.write(name.as_bytes());
    // `finish` rotates the well-mixed high bits down, so the low half is
    // good enough both as a slot index and as a quick-reject tag.
    hasher.finish() as u32
}

/// An empty slot's net.
const EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    net: u32,
    tag: u32,
}

const VACANT: Slot = Slot { net: EMPTY, tag: 0 };

/// The name → net index: a linear-probing table of net ids, at most half
/// full. A slot keeps the id and the name's [`tag_of`], never the name:
/// lookups compare candidates through the arena, and growing or deleting
/// moves slots by their tags alone.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex {
    slots: Vec<Slot>,
    len: usize,
}

impl NameIndex {
    /// The net named `name` (whose tag is `tag`), reading each candidate's
    /// name through `name_of`.
    pub(crate) fn find<'a>(
        &self,
        name: &str,
        tag: u32,
        name_of: impl Fn(NetId) -> &'a str,
    ) -> Option<NetId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.net == EMPTY {
                return None;
            }
            let net = NetId(slot.net as usize);
            if slot.tag == tag && name_of(net) == name {
                return Some(net);
            }
            i = (i + 1) & mask;
        }
    }

    /// Files `net` under `tag`; its name must not be in the index yet.
    pub(crate) fn insert(&mut self, net: NetId, tag: u32) {
        if (self.len + 1) * 2 > self.slots.len() {
            let capacity = (self.slots.len() * 2).max(16);
            let old = std::mem::replace(&mut self.slots, vec![VACANT; capacity]);
            for slot in old.into_iter().filter(|s| s.net != EMPTY) {
                self.place(slot);
            }
        }
        let net = u32::try_from(net.0)
            .ok()
            .filter(|&n| n != EMPTY)
            .expect("net ids fit in u32");
        self.place(Slot { net, tag });
        self.len += 1;
    }

    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = slot.tag as usize & mask;
        while self.slots[i].net != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Takes `net`, filed under `tag`, out of the index; the slots after
    /// it shift back so no probe chain breaks.
    pub(crate) fn remove(&mut self, net: NetId, tag: u32) {
        let mask = self.slots.len() - 1;
        let mut hole = tag as usize & mask;
        while self.slots[hole].net as usize != net.0 {
            assert!(self.slots[hole].net != EMPTY, "net {net} is not indexed");
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = self.slots[j];
            if slot.net == EMPTY {
                break;
            }
            // `slot` may fill the hole when the hole lies on its probe
            // path, i.e. between its home slot and `j`.
            let home = slot.tag as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                hole = j;
            }
        }
        self.slots[hole] = VACANT;
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_finds_inserts_and_removes_through_the_arena() {
        let mut names = Names::default();
        let mut spans = Vec::new();
        let mut index = NameIndex::default();
        for i in 0..500 {
            let name = format!("n{i}");
            spans.push(names.push(&name));
            index.insert(NetId(i), tag_of(&name));
        }
        let find = |index: &NameIndex, names: &Names, spans: &[Span], name: &str| {
            index.find(name, tag_of(name), |id| names.get(spans[id.0]))
        };
        for i in 0..500 {
            assert_eq!(
                find(&index, &names, &spans, &format!("n{i}")),
                Some(NetId(i))
            );
        }
        assert_eq!(find(&index, &names, &spans, "n500"), None);
        for i in (0..500).step_by(3) {
            index.remove(NetId(i), tag_of(&format!("n{i}")));
        }
        for i in 0..500 {
            let expected = (i % 3 != 0).then_some(NetId(i));
            assert_eq!(find(&index, &names, &spans, &format!("n{i}")), expected);
        }
    }
}
