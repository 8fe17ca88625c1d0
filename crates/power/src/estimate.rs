//! Power estimation from simulated transition activity.

use std::fmt;

use glitch_activity::ActivityTrace;
use glitch_netlist::Netlist;

use crate::capacitance::CapacitanceModel;
use crate::tech::Technology;

/// The paper's three-way power decomposition, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Dissipation in the combinational logic (transition-activity driven).
    pub logic: f64,
    /// Dissipation inside the flipflops (linear in the flipflop count).
    pub flipflop: f64,
    /// Dissipation in the clock line (driven by the clock capacitance).
    pub clock: f64,
}

impl PowerBreakdown {
    /// Total dynamic power, in watts.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.logic + self.flipflop + self.clock
    }
}

impl fmt::Display for PowerBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "logic {:.2} mW + flipflop {:.2} mW + clock {:.2} mW = {:.2} mW",
            self.logic * 1e3,
            self.flipflop * 1e3,
            self.clock * 1e3,
            self.total() * 1e3
        )
    }
}

/// A full power report: the breakdown plus the operating point and circuit
/// figures it was computed for.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// The three-component breakdown, in watts.
    pub breakdown: PowerBreakdown,
    /// Clock frequency the estimate applies to, in hertz.
    pub frequency: f64,
    /// Number of flipflops in the circuit.
    pub flipflops: usize,
    /// Clock-line capacitance, in farads.
    pub clock_capacitance: f64,
    /// Average switched capacitance in the combinational logic per clock
    /// cycle, in farads.
    pub switched_cap_per_cycle: f64,
    /// Number of cycles of activity the estimate is based on.
    pub cycles: u64,
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "power @ {:.1} MHz, {} flipflops ({} cycles of activity)",
            self.frequency / 1e6,
            self.flipflops,
            self.cycles
        )?;
        writeln!(f, "  {}", self.breakdown)?;
        writeln!(
            f,
            "  clock capacitance {:.1} pF, switched logic capacitance {:.1} pF/cycle",
            self.clock_capacitance * 1e12,
            self.switched_cap_per_cycle * 1e12
        )
    }
}

/// Estimates the dynamic power of a netlist from a simulated activity trace.
///
/// The trace must have been recorded over the same netlist (node indices are
/// net indices, as produced by `glitch-sim`). Logic power counts every net
/// except primary inputs (driven by the environment) and flipflop outputs
/// (already covered by the per-flipflop figure); each transition charges or
/// discharges the net's load capacitance, costing `½·C·V²`.
///
/// # Panics
///
/// Panics if the trace covers fewer nodes than the netlist has nets.
#[must_use]
pub fn estimate_power(
    netlist: &Netlist,
    trace: &ActivityTrace,
    tech: &Technology,
    frequency: f64,
) -> PowerReport {
    assert!(
        trace.node_count() >= netlist.net_count(),
        "trace covers {} nodes but the netlist has {} nets",
        trace.node_count(),
        netlist.net_count()
    );
    let counts: Vec<u64> = (0..netlist.net_count())
        .map(|i| trace.node(i).transitions())
        .collect();
    estimate_power_from_counts(netlist, &counts, trace.cycles(), tech, frequency)
}

/// Estimates the dynamic power of a netlist from raw per-net transition
/// counts (indexed by net index) accumulated over `cycles` clock cycles.
///
/// This is the one implementation of the paper's power formula:
/// [`estimate_power`] reads the counts off an activity trace and calls
/// it, so every report (a single run, a merged batch, a priced
/// `glitch_sim::ActivityProbe`) is computed by the same arithmetic.
/// Logic power counts every net except primary inputs and flipflop
/// outputs, each transition costing `½·C·V²` of the net's load.
///
/// # Panics
///
/// Panics if `counts` covers fewer entries than the netlist has nets.
#[must_use]
pub fn estimate_power_from_counts(
    netlist: &Netlist,
    counts: &[u64],
    cycles: u64,
    tech: &Technology,
    frequency: f64,
) -> PowerReport {
    assert!(
        counts.len() >= netlist.net_count(),
        "counts cover {} nets but the netlist has {} nets",
        counts.len(),
        netlist.net_count()
    );
    let model = CapacitanceModel::new(netlist, *tech);

    // Nets driven by flipflop outputs are part of the flipflop power figure;
    // primary inputs are driven by the environment.
    let mut eligible: Vec<bool> = netlist
        .nets()
        .map(|(_, net)| !net.is_primary_input())
        .collect();
    for cell_id in netlist.dff_cells() {
        for &out in netlist.cell(cell_id).outputs() {
            eligible[out.index()] = false;
        }
    }
    let divisor = cycles.max(1);
    let mut switched_cap_per_cycle = 0.0f64;
    for ((id, _), (&transitions, &eligible)) in netlist.nets().zip(counts.iter().zip(&eligible)) {
        if !eligible {
            continue;
        }
        let per_cycle = transitions as f64 / divisor as f64;
        switched_cap_per_cycle += 0.5 * per_cycle * model.net_capacitance(id);
    }

    let flipflops = netlist.dff_count();
    let breakdown = PowerBreakdown {
        logic: switched_cap_per_cycle * tech.vdd * tech.vdd * frequency,
        flipflop: tech.flipflop_power(frequency) * flipflops as f64,
        clock: if flipflops > 0 {
            tech.clock_power(flipflops, frequency)
        } else {
            0.0
        },
    };
    PowerReport {
        breakdown,
        frequency,
        flipflops,
        clock_capacitance: if flipflops > 0 {
            tech.clock_capacitance(flipflops)
        } else {
            0.0
        },
        switched_cap_per_cycle,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitch_arith::{AdderStyle, RippleCarryAdder};
    use glitch_sim::{ActivityProbe, RandomStimulus, SimSession};

    fn adder_trace(bits: usize, cycles: u64) -> (Netlist, ActivityTrace) {
        let adder = RippleCarryAdder::new(bits, AdderStyle::CompoundCell);
        let stim = RandomStimulus::new(vec![adder.a.clone(), adder.b.clone()], cycles, 7)
            .hold(adder.cin, false);
        let mut report = SimSession::new(&adder.netlist)
            .stimulus(stim)
            .probe(ActivityProbe::new())
            .run()
            .unwrap();
        let trace = report.take_probe::<ActivityProbe>().unwrap().into_trace();
        (adder.netlist, trace)
    }

    #[test]
    fn logic_power_scales_with_frequency_and_activity() {
        let (nl, trace) = adder_trace(8, 200);
        let tech = Technology::cmos_0p8um_5v();
        let slow = estimate_power(&nl, &trace, &tech, 1e6);
        let fast = estimate_power(&nl, &trace, &tech, 10e6);
        assert!(slow.breakdown.logic > 0.0);
        assert!((fast.breakdown.logic / slow.breakdown.logic - 10.0).abs() < 1e-9);
        // A combinational adder has no flipflops: only logic power.
        assert_eq!(slow.breakdown.flipflop, 0.0);
        assert_eq!(slow.breakdown.clock, 0.0);
        assert_eq!(slow.flipflops, 0);
        assert!((slow.breakdown.total() - slow.breakdown.logic).abs() < 1e-15);
    }

    #[test]
    fn report_renders_human_readable_text() {
        let (nl, trace) = adder_trace(4, 50);
        let report = estimate_power(&nl, &trace, &Technology::default(), 5e6);
        let text = report.to_string();
        assert!(text.contains("5.0 MHz"));
        assert!(text.contains("logic"));
        assert!(text.contains("mW"));
        assert_eq!(report.cycles, 50);
    }

    #[test]
    fn flipflop_and_clock_components_appear_with_registers() {
        let mut nl = Netlist::new("reg8");
        let d = nl.add_input_bus("d", 8);
        let q = nl.register_bus(&d, "q");
        nl.mark_output_bus(&q);
        let session_report = SimSession::new(&nl)
            .stimulus(RandomStimulus::new(vec![d], 100, 3))
            .probe(ActivityProbe::new())
            .run()
            .unwrap();
        let tech = Technology::cmos_0p8um_5v();
        let trace = session_report.probe::<ActivityProbe>().unwrap().trace();
        let report = estimate_power(&nl, trace, &tech, 5e6);
        assert_eq!(report.flipflops, 8);
        assert!(report.breakdown.flipflop > 0.0);
        assert!(report.breakdown.clock > 0.0);
        // Q nets are excluded from logic power and there is no other logic,
        // so the logic component must be zero.
        assert!(report.breakdown.logic.abs() < 1e-15);
        assert!((report.clock_capacitance - tech.clock_capacitance(8)).abs() < 1e-18);
    }

    #[test]
    fn glitchier_circuits_burn_more_logic_power() {
        // The same adder simulated with more input activity (wider operands
        // change more bits) must not decrease in switched capacitance.
        let (nl_small, trace_small) = adder_trace(4, 300);
        let (nl_big, trace_big) = adder_trace(16, 300);
        let tech = Technology::default();
        let small = estimate_power(&nl_small, &trace_small, &tech, 5e6);
        let big = estimate_power(&nl_big, &trace_big, &tech, 5e6);
        assert!(big.breakdown.logic > small.breakdown.logic);
        assert!(big.switched_cap_per_cycle > small.switched_cap_per_cycle);
    }

    #[test]
    fn counts_path_matches_trace_path_bit_for_bit() {
        let (nl, trace) = adder_trace(8, 150);
        let tech = Technology::cmos_0p8um_5v();
        let from_trace = estimate_power(&nl, &trace, &tech, 5e6);
        let counts: Vec<u64> = (0..nl.net_count())
            .map(|i| trace.node(i).transitions())
            .collect();
        let from_counts = estimate_power_from_counts(&nl, &counts, trace.cycles(), &tech, 5e6);
        assert_eq!(from_trace, from_counts);
    }

    #[test]
    #[should_panic(expected = "counts cover")]
    fn mismatched_counts_are_rejected() {
        let (nl, _) = adder_trace(4, 10);
        let _ = estimate_power_from_counts(&nl, &[0, 0], 10, &Technology::default(), 5e6);
    }

    #[test]
    #[should_panic(expected = "trace covers")]
    fn mismatched_trace_is_rejected() {
        let (nl, _) = adder_trace(4, 10);
        let tiny = ActivityTrace::new(2);
        let _ = estimate_power(&nl, &tiny, &Technology::default(), 5e6);
    }
}
