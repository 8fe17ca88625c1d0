//! Every primary output's end-of-cycle value over a whole run.
//!
//! An [`OutputProbe`] keeps, for each primary output, the value it
//! settled to at the end of every cycle, packed bit-parallel: lane `c` of
//! word `c / 64` is cycle `c`, as in the timed kernel's planes. The event
//! path fills it from the transition stream; a run settled on the timed
//! kernel copies it from each block's settled planes ([`TimedRun::outputs`]).
//! Two runs' records compare a word at a time, which is how the reducer
//! checks a candidate's function against the current netlist's from the
//! scores it takes anyway.

use glitch_netlist::{NetId, Netlist};

use crate::clocked::CycleStats;
use crate::probe::{Probe, Transition};
use crate::timed::TimedRun;
use crate::value::Value;

/// The end-of-cycle `(value, mask)` bits of every primary output, in
/// [`Netlist::outputs`] order, for every cycle of a run; see the module
/// docs. Bits of cycles past the end are 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutputRecord {
    outputs: usize,
    cycles: u64,
    /// Word `w` of output `o` at `w * outputs + o`.
    words: Vec<(u64, u64)>,
}

impl OutputRecord {
    /// An empty record of `outputs` primary outputs.
    pub(crate) fn new(outputs: usize) -> Self {
        OutputRecord {
            outputs,
            ..Self::default()
        }
    }

    /// The number of primary outputs recorded.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The number of cycles recorded.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Output `output`'s `(value, mask)` bits for the 64 cycles from
    /// `first` on: bit `i` is cycle `first + i`, 0 past the last cycle.
    #[must_use]
    pub fn lanes(&self, output: usize, first: u64) -> (u64, u64) {
        assert!(output < self.outputs, "output {output} is not recorded");
        let word = |w: u64| {
            usize::try_from(w)
                .ok()
                .and_then(|w| self.words.get(w * self.outputs + output))
                .copied()
                .unwrap_or((0, 0))
        };
        let (w, shift) = (first / 64, first % 64);
        let (lo_v, lo_m) = word(w);
        if shift == 0 {
            return (lo_v, lo_m);
        }
        let (hi_v, hi_m) = word(w + 1);
        (
            lo_v >> shift | hi_v << (64 - shift),
            lo_m >> shift | hi_m << (64 - shift),
        )
    }

    /// Appends one cycle: every output's value, in order.
    fn push_cycle(&mut self, mut value_of: impl FnMut(usize) -> Value) {
        let bit = 1u64 << (self.cycles % 64);
        if bit == 1 {
            self.words.resize(self.words.len() + self.outputs, (0, 0));
        }
        let start = self.words.len() - self.outputs;
        for (output, (val, msk)) in self.words[start..].iter_mut().enumerate() {
            match value_of(output) {
                Value::Zero => {}
                Value::One => *val |= bit,
                Value::X => *msk |= bit,
            }
        }
        self.cycles += 1;
    }

    /// Appends `lanes` cycles a word at a time, `word(output, w)` giving
    /// output `output`'s bits of cycles `64 * w ..` from the current end,
    /// which must fall on a word boundary. Bits past `lanes` are dropped.
    pub(crate) fn push_words(
        &mut self,
        lanes: usize,
        mut word: impl FnMut(usize, usize) -> (u64, u64),
    ) {
        assert_eq!(self.cycles % 64, 0, "a block of words starts a word");
        for w in 0..lanes.div_ceil(64) {
            let live = match lanes - 64 * w {
                rest if rest < 64 => (1u64 << rest) - 1,
                _ => !0,
            };
            for output in 0..self.outputs {
                let (val, msk) = word(output, w);
                self.words.push((val & live, msk & live));
            }
        }
        self.cycles += lanes as u64;
    }
}

/// Records every primary output's end-of-cycle value into an
/// [`OutputRecord`]; see the module docs. Settles timed.
#[derive(Debug, Clone, Default)]
pub struct OutputProbe {
    outputs: Vec<NetId>,
    /// Every net's current value, from the transitions.
    values: Vec<Value>,
    record: OutputRecord,
}

impl OutputProbe {
    /// An output probe; sizing happens at run start.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The record so far.
    #[must_use]
    pub fn record(&self) -> &OutputRecord {
        &self.record
    }

    /// Consumes the probe, returning its record.
    #[must_use]
    pub fn into_record(self) -> OutputRecord {
        self.record
    }
}

impl Probe for OutputProbe {
    fn on_run_start(&mut self, netlist: &Netlist) {
        self.outputs = netlist.outputs().to_vec();
        self.values = vec![Value::X; netlist.net_count()];
        self.record = OutputRecord::new(self.outputs.len());
    }

    fn on_transition(&mut self, transition: &Transition) {
        self.values[transition.net.index()] = transition.value;
    }

    fn on_cycle_end(&mut self, _cycle: u64, _stats: &CycleStats) {
        let (outputs, values) = (&self.outputs, &self.values);
        self.record
            .push_cycle(|output| values[outputs[output].index()]);
    }

    fn settles_timed(&self) -> bool {
        true
    }

    fn record_timed(&mut self, run: &TimedRun<'_>) {
        self.record = run.outputs.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record of two outputs over `cycles` cycles: output 0 is 1 on
    /// odd cycles, output 1 is `X` on every third.
    fn record(cycles: u64) -> OutputRecord {
        let mut record = OutputRecord::new(2);
        for cycle in 0..cycles {
            record.push_cycle(|output| match output {
                0 if cycle % 2 == 1 => Value::One,
                1 if cycle % 3 == 0 => Value::X,
                _ => Value::Zero,
            });
        }
        record
    }

    #[test]
    fn cycles_read_back_at_any_offset() {
        let record = record(150);
        assert_eq!(record.cycles(), 150);
        for cycle in 0..150 {
            let (val, msk) = record.lanes(0, cycle);
            assert_eq!((val & 1, msk & 1), (cycle % 2, 0), "cycle {cycle}");
            let (val, msk) = record.lanes(1, cycle);
            assert_eq!(
                (val & 1, msk & 1),
                (0, u64::from(cycle % 3 == 0)),
                "cycle {cycle}"
            );
        }
        // Past the end every bit reads 0.
        assert_eq!(record.lanes(0, 149), (1, 0));
        assert_eq!(record.lanes(0, 150), (0, 0));
        assert_eq!(record.lanes(1, 1_000), (0, 0));
    }

    #[test]
    fn word_blocks_equal_cycle_by_cycle_pushes() {
        let expected = record(150);
        let mut words = OutputRecord::new(2);
        // Two blocks: 128 lanes, then a 22-lane tail with junk past it.
        for (first, lanes) in [(0u64, 128usize), (128, 22)] {
            words.push_words(lanes, |output, w| {
                let (val, msk) = expected.lanes(output, first + 64 * w as u64);
                (val | (!0u64).checked_shl(lanes as u32).unwrap_or(0), msk)
            });
        }
        assert_eq!(words, expected);
    }
}
