//! Stimulus generators: sequences of input assignments.
//!
//! The paper drives its circuits with uniformly random input vectors (a good
//! model for multiplexed / source-coded arithmetic inputs, see section 3.2)
//! and with small hand-picked vector sets for the circuit-level power runs.
//! [`RandomStimulus`] reproduces the former with a seeded PRNG so every
//! experiment is repeatable; [`ExhaustiveStimulus`] walks every combination
//! of a small set of buses for functional verification.

use glitch_netlist::{Bus, NetId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clocked::InputAssignment;

/// A finite or infinite program of input assignments.
///
/// Implemented by the provided generators; any iterator of
/// [`InputAssignment`] also works with [`crate::ClockedSimulator::run`].
pub trait StimulusProgram {
    /// Produces the assignment for the next clock cycle, or `None` when the
    /// program is exhausted.
    fn next_vector(&mut self) -> Option<InputAssignment>;

    /// Adapts the program into an iterator.
    fn into_iter_vectors(self) -> StimulusIter<Self>
    where
        Self: Sized,
    {
        StimulusIter { program: self }
    }
}

/// Iterator adapter returned by [`StimulusProgram::into_iter_vectors`].
#[derive(Debug)]
pub struct StimulusIter<P> {
    program: P,
}

impl<P: StimulusProgram> Iterator for StimulusIter<P> {
    type Item = InputAssignment;
    fn next(&mut self) -> Option<Self::Item> {
        self.program.next_vector()
    }
}

/// Uniformly random values on a set of input buses, for a fixed number of
/// cycles, from a deterministic seed.
#[derive(Debug, Clone)]
pub struct RandomStimulus {
    buses: Vec<Bus>,
    held: Vec<(NetId, bool)>,
    remaining: u64,
    rng: StdRng,
}

impl RandomStimulus {
    /// Creates a generator driving `buses` for `cycles` cycles using the
    /// given seed.
    #[must_use]
    pub fn new(buses: Vec<Bus>, cycles: u64, seed: u64) -> Self {
        RandomStimulus {
            buses,
            held: Vec::new(),
            remaining: cycles,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Additionally drives `net` to a constant `value` on every cycle —
    /// handy for carry-ins, thresholds or enables that should not be
    /// randomised.
    #[must_use]
    pub fn hold(mut self, net: NetId, value: bool) -> Self {
        self.held.push((net, value));
        self
    }

    /// Additionally drives a whole bus to a constant value on every cycle,
    /// least-significant bit first; bits from index 64 on are held at 0.
    #[must_use]
    pub fn hold_bus(mut self, bus: &Bus, value: u64) -> Self {
        for (i, &bit) in bus.bits().iter().enumerate() {
            self.held.push((bit, bit_of(value, i)));
        }
        self
    }

    /// Number of cycles still to be produced.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Derives the seed of shard `index` from a base seed.
    ///
    /// **Sharding semantics.** Parallel runs shard the stimulus by giving
    /// every shard an *independent* PRNG stream rather than by splitting one
    /// stream's cycle range: in a sequential circuit the flipflop state at
    /// cycle `k` depends on every preceding vector, so a cycle-range split
    /// would change the simulated behaviour, and even in combinational
    /// circuits the per-cycle parity classification depends on the previous
    /// vector at each chunk boundary. Independent per-shard seeds keep every
    /// shard a self-contained run whose statistics are exactly mergeable
    /// (`ActivityTrace::merge`), at the cost of the aggregate being a
    /// *multi-seed* estimate rather than one long single-seed run — which is
    /// statistically preferable anyway (it yields a per-seed spread).
    ///
    /// The mapping is a SplitMix64 step of `base ^ index`, so neighbouring
    /// shard indices produce decorrelated seeds even for small bases, and
    /// shard 0 of base `b` differs from a plain run seeded `b`.
    #[must_use]
    pub fn shard_seed(base: u64, index: u64) -> u64 {
        let mut z = (base ^ index).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The seeds of `count` shards derived from `base`; see
    /// [`RandomStimulus::shard_seed`] for the sharding semantics.
    #[must_use]
    pub fn shard_seeds(base: u64, count: usize) -> Vec<u64> {
        (0..count as u64)
            .map(|i| Self::shard_seed(base, i))
            .collect()
    }

    /// Splits the generator's configuration into `count` independent
    /// shards of `cycles` cycles each, with seeds derived via
    /// [`RandomStimulus::shard_seed`]. Held nets are replicated into every
    /// shard.
    #[must_use]
    pub fn shards(&self, cycles: u64, base: u64, count: usize) -> Vec<RandomStimulus> {
        RandomStimulus::shard_seeds(base, count)
            .into_iter()
            .map(|seed| {
                let mut shard = RandomStimulus::new(self.buses.clone(), cycles, seed);
                shard.held = self.held.clone();
                shard
            })
            .collect()
    }

    /// The nets one cycle's assignment drives, in order: every bus bit,
    /// buses in order, then every held net. A net may appear more than
    /// once (a held net that is also a bus bit).
    pub fn drives(&self) -> impl Iterator<Item = NetId> + '_ {
        self.buses
            .iter()
            .flat_map(|bus| bus.bits().iter().copied())
            .chain(self.held.iter().map(|&(net, _)| net))
    }

    /// Draws the next `lanes` cycles (fewer when the program ends first)
    /// as lane words, cycle `l` in bit `l % 64` of word `l / 64`: the form
    /// the timed kernel takes its inputs in. `planes` receives, per drive
    /// of [`RandomStimulus::drives`], `lanes.div_ceil(64)` words of the
    /// value each cycle gives it, bits beyond the last lane clear. The
    /// same stream in the same order as [`StimulusProgram::next_vector`].
    /// Returns the number of lanes drawn.
    pub fn next_lanes(&mut self, lanes: usize, planes: &mut Vec<u64>) -> usize {
        let lanes = lanes.min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        self.remaining -= lanes as u64;
        let words = lanes.div_ceil(64);
        let bus_bits: usize = self.buses.iter().map(Bus::width).sum();
        planes.clear();
        planes.resize((bus_bits + self.held.len()) * words, 0);
        for lane in 0..lanes {
            let (w, lane_bit) = (lane / 64, 1u64 << (lane % 64));
            let mut at = 0;
            for bus in &self.buses {
                draw_bus(&mut self.rng, bus.width(), |first, mut bits| {
                    while bits != 0 {
                        let i = bits.trailing_zeros() as usize;
                        planes[(at + first + i) * words + w] |= lane_bit;
                        bits &= bits - 1;
                    }
                });
                at += bus.width();
            }
        }
        for (drive, &(_, value)) in self.held.iter().enumerate() {
            if value {
                let plane = &mut planes[(bus_bits + drive) * words..][..words];
                for (w, word) in plane.iter_mut().enumerate() {
                    *word = mask(lanes - 64 * w);
                }
            }
        }
        lanes
    }
}

/// Draws one cycle's value of a `width`-bit bus: one `u64` per 64-bit
/// chunk, least significant chunk first (a bus of no bits still draws
/// one), each handed to `chunk` with the index of its first bit and
/// masked to the bus width. This is the definition of the random stream.
fn draw_bus(rng: &mut StdRng, width: usize, mut chunk: impl FnMut(usize, u64)) {
    for first in (0..width.max(1)).step_by(64) {
        let value: u64 = rng.gen();
        chunk(first, value & mask(width - first));
    }
}

/// Bit `i` of `value`, least significant first; 0 from index 64 on.
pub(crate) fn bit_of(value: u64, i: usize) -> bool {
    i < 64 && (value >> i) & 1 == 1
}

impl StimulusProgram for RandomStimulus {
    fn next_vector(&mut self) -> Option<InputAssignment> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut assignment = InputAssignment::new();
        for bus in &self.buses {
            draw_bus(&mut self.rng, bus.width(), |first, bits| {
                for (i, &net) in bus.bits()[first..].iter().take(64).enumerate() {
                    assignment.set(net, (bits >> i) & 1 == 1);
                }
            });
        }
        for &(net, value) in &self.held {
            assignment.set(net, value);
        }
        Some(assignment)
    }
}

impl Iterator for RandomStimulus {
    type Item = InputAssignment;
    fn next(&mut self) -> Option<Self::Item> {
        self.next_vector()
    }
}

/// Every combination of values on a set of buses, in counting order.
///
/// Intended for functional verification of small circuits (total width of
/// all buses must be at most 24 bits to keep runs tractable).
#[derive(Debug, Clone)]
pub struct ExhaustiveStimulus {
    buses: Vec<Bus>,
    next: u64,
    total: u64,
}

impl ExhaustiveStimulus {
    /// Creates an exhaustive generator over the given buses.
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 24 bits.
    #[must_use]
    pub fn new(buses: Vec<Bus>) -> Self {
        let width: usize = buses.iter().map(Bus::width).sum();
        assert!(
            width <= 24,
            "exhaustive stimulus limited to 24 total input bits, got {width}"
        );
        ExhaustiveStimulus {
            buses,
            next: 0,
            total: 1u64 << width,
        }
    }

    /// Total number of vectors that will be produced.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl StimulusProgram for ExhaustiveStimulus {
    fn next_vector(&mut self) -> Option<InputAssignment> {
        if self.next >= self.total {
            return None;
        }
        let mut remaining_bits = self.next;
        self.next += 1;
        let mut assignment = InputAssignment::new();
        for bus in &self.buses {
            let w = bus.width();
            assignment.set_bus(bus, remaining_bits & mask(w));
            remaining_bits >>= w;
        }
        Some(assignment)
    }
}

impl Iterator for ExhaustiveStimulus {
    type Item = InputAssignment;
    fn next(&mut self) -> Option<Self::Item> {
        self.next_vector()
    }
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitch_netlist::Netlist;

    #[test]
    fn random_stimulus_is_deterministic_and_finite() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let first: Vec<_> = RandomStimulus::new(vec![a.clone(), b.clone()], 5, 42).collect();
        let second: Vec<_> = RandomStimulus::new(vec![a.clone(), b.clone()], 5, 42).collect();
        let different: Vec<_> = RandomStimulus::new(vec![a, b], 5, 43).collect();
        assert_eq!(first.len(), 5);
        assert_eq!(first, second);
        assert_ne!(first, different);
        assert_eq!(first[0].len(), 16);
    }

    #[test]
    fn exhaustive_covers_every_combination() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input_bus("a", 2);
        let b = nl.add_input_bus("b", 1);
        let gen = ExhaustiveStimulus::new(vec![a.clone(), b.clone()]);
        assert_eq!(gen.total(), 8);
        let vectors: Vec<_> = gen.collect();
        assert_eq!(vectors.len(), 8);
        // Each vector drives all 3 bits.
        assert!(vectors.iter().all(|v| v.len() == 3));
        // All combinations distinct.
        let mut encoded: Vec<Vec<(usize, bool)>> = vectors
            .iter()
            .map(|v| {
                v.assignments()
                    .iter()
                    .map(|(n, b)| (n.index(), *b))
                    .collect()
            })
            .collect();
        encoded.sort();
        encoded.dedup();
        assert_eq!(encoded.len(), 8);
    }

    #[test]
    #[should_panic(expected = "24 total input bits")]
    fn exhaustive_rejects_wide_inputs() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input_bus("a", 30);
        let _ = ExhaustiveStimulus::new(vec![a]);
    }

    #[test]
    fn held_nets_are_driven_every_cycle() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input_bus("a", 4);
        let cin = nl.add_input("cin");
        let thr = nl.add_input_bus("thr", 4);
        let vectors: Vec<_> = RandomStimulus::new(vec![a], 10, 1)
            .hold(cin, false)
            .hold_bus(&thr, 0x9)
            .collect();
        assert_eq!(vectors.len(), 10);
        for v in &vectors {
            // 4 random bits + 1 held bit + 4 held bus bits.
            assert_eq!(v.len(), 9);
            assert!(v.assignments().contains(&(cin, false)));
            assert!(v.assignments().contains(&(thr.bit(0), true)));
            assert!(v.assignments().contains(&(thr.bit(1), false)));
            assert!(v.assignments().contains(&(thr.bit(3), true)));
        }
    }

    #[test]
    fn wide_buses_draw_one_word_per_64_bits() {
        let mut nl = Netlist::new("t");
        let wide = nl.add_input_bus("w", 65);
        let full = nl.add_input_bus("f", 64);
        let vector = RandomStimulus::new(vec![wide.clone(), full.clone()], 1, 5)
            .next()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let draws: [u64; 3] = [rng.gen(), rng.gen(), rng.gen()];
        let expected: Vec<(NetId, bool)> = (0..64)
            .map(|i| (wide.bit(i), (draws[0] >> i) & 1 == 1))
            .chain([(wide.bit(64), draws[1] & 1 == 1)])
            .chain((0..64).map(|i| (full.bit(i), (draws[2] >> i) & 1 == 1)))
            .collect();
        assert_eq!(vector.assignments(), expected.as_slice());
        // A single word drives bits 64 and above of a bus to 0.
        let set = InputAssignment::new().with_bus(&wide, u64::MAX);
        assert_eq!(set.assignments()[63], (wide.bit(63), true));
        assert_eq!(set.assignments()[64], (wide.bit(64), false));
        let held = RandomStimulus::new(Vec::new(), 1, 5)
            .hold_bus(&wide, u64::MAX)
            .next()
            .unwrap();
        assert_eq!(held.assignments(), set.assignments());
    }

    #[test]
    fn shard_seeds_are_deterministic_and_distinct() {
        let seeds = RandomStimulus::shard_seeds(42, 16);
        assert_eq!(seeds, RandomStimulus::shard_seeds(42, 16));
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 16, "shard seeds must not collide");
        // Shard 0 is not the base seed itself: a sharded run never silently
        // replays the unsharded stimulus.
        assert_ne!(seeds[0], 42);
        assert_ne!(RandomStimulus::shard_seeds(43, 1), seeds[..1]);
    }

    #[test]
    fn shards_replicate_buses_and_held_nets() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input_bus("a", 4);
        let cin = nl.add_input("cin");
        let base = RandomStimulus::new(vec![a], 100, 7).hold(cin, true);
        let shards = base.shards(10, 7, 3);
        assert_eq!(shards.len(), 3);
        for shard in &shards {
            assert_eq!(shard.remaining(), 10);
            let vectors: Vec<_> = shard.clone().collect();
            assert_eq!(vectors.len(), 10);
            // 4 random bits + 1 held bit per cycle.
            assert!(vectors.iter().all(|v| v.len() == 5));
            assert!(vectors
                .iter()
                .all(|v| v.assignments().contains(&(cin, true))));
        }
        // Different shards draw different vectors.
        let first: Vec<_> = shards[0].clone().collect();
        let second: Vec<_> = shards[1].clone().collect();
        assert_ne!(first, second);
    }

    #[test]
    fn program_iter_adapter() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input_bus("a", 4);
        let program = RandomStimulus::new(vec![a], 3, 7);
        assert_eq!(program.remaining(), 3);
        let vectors: Vec<_> = program.into_iter_vectors().collect();
        assert_eq!(vectors.len(), 3);
    }
}
