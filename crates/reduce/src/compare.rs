//! The functional check a candidate must pass before its score competes:
//! its primary outputs, through the rewrite's mapping and shifted by its
//! latency, against the current netlist's.
//!
//! The reducer scores every candidate on the stimulus of the current
//! netlist's score (the buses and held nets remapped through the
//! rewrite), and every score records each primary output's end-of-cycle
//! value per seed ([`ReduceScore::outputs`]). So [`screen_scores`] checks
//! a candidate from the two scores alone, with no simulation of its own:
//! output `o` of the current netlist at cycle `c` must equal the
//! candidate's `map.output_net(o)` at cycle `c + latency`, for every seed;
//! the first `latency` cycles of the candidate are skipped, as the
//! [`crate::Screen`] skips them. Both compare `(value, mask)` words with
//! [`first_divergence`].

use glitch_core::ReduceScore;
use glitch_netlist::{Netlist, Tri};
use glitch_retime::Rewrite;

/// The result of screening one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenOutcome {
    /// `true` when every compared output value matched.
    pub accepted: bool,
    /// Cycles compared: co-simulated by a [`crate::Screen`], or, from the
    /// scores ([`screen_scores`]), per seed.
    pub cycles: u64,
    /// Independent stimulus lanes: the [`crate::Screen`]'s lanes, or the
    /// scores' seeds.
    pub lanes: usize,
    /// Location of the first divergence when rejected.
    pub mismatch: Option<String>,
}

/// Where two sets of output words first differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Divergence {
    /// The output's index.
    pub output: usize,
    /// The lane, across the output's words.
    pub lane: usize,
    /// The expected value in that lane.
    pub expected: Tri,
    /// The transformed netlist's value in that lane.
    pub transformed: Tri,
}

/// The first difference between `expected` and `transformed`, two
/// output-major runs of `(value, mask)` words, `words` per output (lane
/// `l` of an output is bit `l % 64` of its word `l / 64`): the lowest
/// output, then the lowest lane.
pub(crate) fn first_divergence(
    expected: &[(u64, u64)],
    transformed: &[(u64, u64)],
    words: usize,
) -> Option<Divergence> {
    let (flat, diff) = expected
        .iter()
        .zip(transformed)
        .map(|(&(va, ma), &(vb, mb))| (va ^ vb) | (ma ^ mb))
        .enumerate()
        .find(|&(_, diff)| diff != 0)?;
    let bit = diff.trailing_zeros() as usize;
    Some(Divergence {
        output: flat / words,
        lane: (flat % words) * 64 + bit,
        expected: lane_value(expected[flat], bit),
        transformed: lane_value(transformed[flat], bit),
    })
}

/// The three-valued value of bit `bit` of a `(value, mask)` word.
fn lane_value((val, msk): (u64, u64), bit: usize) -> Tri {
    if msk >> bit & 1 == 1 {
        Tri::X
    } else if val >> bit & 1 == 1 {
        Tri::One
    } else {
        Tri::Zero
    }
}

/// Screens `candidate`, a rewrite of `current`, from the two netlists'
/// scores by one session (see the module docs): accepted when every
/// primary output of `current` matches its image in the candidate in
/// every compared cycle of every seed. A rejection names the first
/// diverging output (seed order, then output order, then cycle), or the
/// output whose image is no primary output of the candidate.
///
/// # Panics
///
/// Panics if the scores hold different numbers of seeds.
#[must_use]
pub fn screen_scores(
    current: &Netlist,
    current_score: &ReduceScore,
    candidate: &Rewrite,
    candidate_score: &ReduceScore,
) -> ScreenOutcome {
    let seeds = current_score.outputs.len();
    assert_eq!(
        seeds,
        candidate_score.outputs.len(),
        "both scores come from one session"
    );
    let latency = candidate.map.latency() as u64;
    let mut outcome = ScreenOutcome {
        accepted: false,
        cycles: 0,
        lanes: seeds,
        mismatch: None,
    };
    let mut slots = Vec::with_capacity(current.outputs().len());
    for &net in current.outputs() {
        let image = candidate.map.output_net(net);
        let Some(slot) = candidate.netlist.outputs().iter().position(|&o| o == image) else {
            outcome.mismatch = Some(format!(
                "output `{}` maps to `{}`, which is no primary output of the candidate",
                current.net(net).name(),
                candidate.netlist.net(image).name()
            ));
            return outcome;
        };
        slots.push(slot);
    }
    let (mut expected, mut transformed) = (Vec::new(), Vec::new());
    for (seed, (before, after)) in current_score
        .outputs
        .iter()
        .zip(&candidate_score.outputs)
        .enumerate()
    {
        let cycles = before.cycles().min(after.cycles().saturating_sub(latency));
        outcome.cycles = cycles;
        let words = cycles.div_ceil(64) as usize;
        let live = |w: usize| match cycles - 64 * w as u64 {
            rest if rest < 64 => (1u64 << rest) - 1,
            _ => !0,
        };
        expected.clear();
        transformed.clear();
        for (output, &slot) in slots.iter().enumerate() {
            for w in 0..words {
                let first = 64 * w as u64;
                let (mask, (va, ma), (vb, mb)) = (
                    live(w),
                    before.lanes(output, first),
                    after.lanes(slot, first + latency),
                );
                expected.push((va & mask, ma & mask));
                transformed.push((vb & mask, mb & mask));
            }
        }
        if let Some(divergence) = first_divergence(&expected, &transformed, words) {
            outcome.mismatch = Some(format!(
                "output `{}` diverged at cycle {} of seed #{seed}: {:?} vs {:?}",
                current.net(current.outputs()[divergence.output]).name(),
                divergence.lane,
                divergence.expected,
                divergence.transformed,
            ));
            return outcome;
        }
    }
    outcome.accepted = true;
    outcome
}
