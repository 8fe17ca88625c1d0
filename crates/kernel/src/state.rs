//! The mutable lane state a [`KernelProgram`](crate::KernelProgram)
//! evaluates over: two bit-planes per net, two per flipflop.

use glitch_netlist::{NetId, Tri};

/// Per-net value/mask planes for `lanes` parallel stimulus lanes.
///
/// Plane storage is word-major per net: net `n`'s planes occupy words
/// `n * words() .. (n + 1) * words()` of [`val_plane`](Self::val_planes)
/// and [`msk_planes`](Self::msk_planes), lane `l` living in bit `l % 64`
/// of word `l / 64`. All nets start as `X`; flipflop state starts from
/// the per-cell init resolved by
/// [`KernelProgram::new_state`](crate::KernelProgram::new_state).
///
/// Bits beyond `lanes` in the last word of every plane are kept zero, so
/// whole-word comparisons and popcounts never see garbage lanes.
#[derive(Debug, Clone)]
pub struct KernelState {
    pub(crate) lanes: usize,
    pub(crate) words: usize,
    /// All-ones for valid lanes of the last word of each plane.
    pub(crate) tail_mask: u64,
    pub(crate) val: Vec<u64>,
    pub(crate) msk: Vec<u64>,
    pub(crate) dff_val: Vec<u64>,
    pub(crate) dff_msk: Vec<u64>,
}

impl KernelState {
    pub(crate) fn new(net_count: usize, dff_count: usize, lanes: usize) -> Self {
        assert!(lanes > 0, "a kernel state needs at least one lane");
        let words = lanes.div_ceil(64);
        let tail_mask = if lanes.is_multiple_of(64) {
            !0u64
        } else {
            (1u64 << (lanes % 64)) - 1
        };
        let mut state = KernelState {
            lanes,
            words,
            tail_mask,
            val: vec![0; net_count * words],
            msk: vec![0; net_count * words],
            dff_val: vec![0; dff_count * words],
            dff_msk: vec![0; dff_count * words],
        };
        // Every net starts unknown: value 0, mask 1 on all valid lanes.
        for n in 0..net_count {
            for w in 0..words {
                state.msk[n * words + w] = state.word_mask(w);
            }
        }
        state
    }

    /// Number of parallel stimulus lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of `u64` words per plane (`ceil(lanes / 64)`).
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The valid-lane mask of plane word `w`.
    #[must_use]
    pub fn word_mask(&self, w: usize) -> u64 {
        if w + 1 == self.words {
            self.tail_mask
        } else {
            !0
        }
    }

    /// First word index of `net`'s planes.
    #[must_use]
    pub fn plane_base(&self, net: NetId) -> usize {
        net.index() * self.words
    }

    /// The raw value planes, word-major per net.
    #[must_use]
    pub fn val_planes(&self) -> &[u64] {
        &self.val
    }

    /// The raw mask planes, word-major per net.
    #[must_use]
    pub fn msk_planes(&self) -> &[u64] {
        &self.msk
    }

    /// The value of `net` in `lane`.
    #[must_use]
    pub fn get(&self, net: NetId, lane: usize) -> Tri {
        debug_assert!(lane < self.lanes);
        let at = self.plane_base(net) + lane / 64;
        let bit = 1u64 << (lane % 64);
        if self.msk[at] & bit != 0 {
            Tri::X
        } else if self.val[at] & bit != 0 {
            Tri::One
        } else {
            Tri::Zero
        }
    }

    /// Drives `net` in `lane` to a known boolean (the stimulus path).
    pub fn set_bool(&mut self, net: NetId, lane: usize, value: bool) {
        self.set(net, lane, if value { Tri::One } else { Tri::Zero });
    }

    /// Drives `net` in `lane` to an arbitrary three-valued value.
    pub fn set(&mut self, net: NetId, lane: usize, value: Tri) {
        debug_assert!(lane < self.lanes);
        let at = self.plane_base(net) + lane / 64;
        let bit = 1u64 << (lane % 64);
        match value {
            Tri::Zero => {
                self.val[at] &= !bit;
                self.msk[at] &= !bit;
            }
            Tri::One => {
                self.val[at] |= bit;
                self.msk[at] &= !bit;
            }
            Tri::X => {
                self.val[at] &= !bit;
                self.msk[at] |= bit;
            }
        }
    }

    /// Copies every net's value in lane `from_lane` of `from` into lane
    /// `lane` of `self` (flipflop state is left alone).
    ///
    /// # Panics
    ///
    /// Panics if the states cover different netlists.
    pub fn copy_lane(&mut self, lane: usize, from: &KernelState, from_lane: usize) {
        let nets = self.val.len() / self.words;
        assert_eq!(
            nets,
            from.val.len() / from.words,
            "states of different netlists"
        );
        for index in 0..nets {
            let net = NetId::from_index(index);
            self.set(net, lane, from.get(net, from_lane));
        }
    }

    /// Lane mask of the lanes in word `w` where `net`'s planes differ
    /// between `self` and `other` (as `Tri` values — canonical encoding
    /// makes plane inequality exactly value inequality).
    #[must_use]
    pub fn diff_word(&self, other: &KernelState, net: NetId, w: usize) -> u64 {
        let at = self.plane_base(net) + w;
        (self.val[at] ^ other.val[at]) | (self.msk[at] ^ other.msk[at])
    }

    /// Heap footprint of the plane storage, for cache accounting.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        (self.val.len() + self.msk.len() + self.dff_val.len() + self.dff_msk.len())
            * std::mem::size_of::<u64>()
    }
}
