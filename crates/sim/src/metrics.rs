//! [`SessionReport::record_metrics`]: a finished run's deterministic
//! engine statistics, folded into a [`glitch_obs::MetricsRegistry`].
//!
//! Every report already holds what the `--metrics` glossary counts — its
//! per-cycle [`crate::CycleStats`] and its event-queue traffic — whichever
//! path settled it, so recording reads the report instead of riding the
//! run. Reports fold in job order into one registry (counters add, gauges
//! max, histograms add bucket-wise), so the result is bit-identical at any
//! `--jobs` count. Wall-clock time never enters the registry; it belongs
//! to span logs.

use glitch_obs::MetricsRegistry;

use crate::session::SessionReport;

impl SessionReport {
    /// Adds this run's engine statistics to `registry`. Metric names (the
    /// `--metrics` glossary):
    ///
    /// | name | kind | meaning |
    /// |------|------|---------|
    /// | `sim.cycles` | counter | completed clock cycles |
    /// | `sim.transitions` | counter | net transitions over all cycles |
    /// | `sim.events` | counter | delta-loop events processed |
    /// | `sim.cell_evals` | counter | combinational cell evaluations |
    /// | `sim.max_settle_time` | gauge | worst intra-cycle settle time |
    /// | `cycle.settle_time` | histogram | per-cycle settle times |
    /// | `cycle.events` | histogram | per-cycle event counts |
    /// | `cycle.cell_evals` | histogram | per-cycle cell evaluations |
    /// | `queue.pushes` | counter | events scheduled |
    /// | `queue.pops` | counter | events delivered |
    /// | `queue.peak_depth` | gauge | deepest pending-event backlog |
    pub fn record_metrics(&self, registry: &mut MetricsRegistry) {
        let cycles = registry.counter("sim.cycles");
        let transitions = registry.counter("sim.transitions");
        let events = registry.counter("sim.events");
        let cell_evals = registry.counter("sim.cell_evals");
        let max_settle = registry.gauge("sim.max_settle_time");
        let settle_hist = registry.histogram("cycle.settle_time");
        let events_hist = registry.histogram("cycle.events");
        let evals_hist = registry.histogram("cycle.cell_evals");
        for stats in self.cycle_stats() {
            registry.inc(cycles);
            registry.add(transitions, stats.transitions);
            registry.add(events, stats.events);
            registry.add(cell_evals, stats.cell_evals);
            registry.observe_max(max_settle, stats.settle_time);
            registry.record(settle_hist, stats.settle_time);
            registry.record(events_hist, stats.events);
            registry.record(evals_hist, stats.cell_evals);
        }
        let queue = self.queue_stats();
        let pushes = registry.counter("queue.pushes");
        let pops = registry.counter("queue.pops");
        let peak = registry.gauge("queue.peak_depth");
        registry.add(pushes, queue.pushes);
        registry.add(pops, queue.pops);
        registry.observe_max(peak, queue.peak_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocked::InputAssignment;
    use crate::session::SimSession;
    use glitch_netlist::Netlist;

    fn toggling_report(cycles: u64) -> SessionReport {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let y = nl.inv(a, "y");
        nl.mark_output(y);
        SimSession::new(&nl)
            .stimulus((0..cycles).map(move |i| InputAssignment::new().with(a, i % 2 == 0)))
            .run()
            .unwrap()
    }

    fn toggling_run(cycles: u64) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        toggling_report(cycles).record_metrics(&mut registry);
        registry
    }

    #[test]
    fn report_records_engine_metrics() {
        let m = toggling_run(6);
        assert_eq!(m.counter_value("sim.cycles"), Some(6));
        assert!(m.counter_value("sim.transitions").unwrap() > 0);
        assert!(m.counter_value("sim.events").unwrap() > 0);
        assert!(m.counter_value("sim.cell_evals").unwrap() > 0);
        assert!(m.gauge_value("sim.max_settle_time").unwrap() >= 1);
        assert_eq!(m.histogram_value("cycle.settle_time").unwrap().count(), 6);
        assert!(m.counter_value("queue.pushes").unwrap() > 0);
        assert!(m.gauge_value("queue.peak_depth").unwrap() >= 1);
    }

    #[test]
    fn merged_shards_equal_one_long_run() {
        // Two 3-cycle runs merged vs one 6-cycle run: with this stimulus
        // (deterministic toggle, cycle 0 initialisation in each run) the
        // split runs repeat the init cycle, so compare split-vs-split
        // reassociated instead — the law the parallel fold relies on.
        let a = toggling_run(3);
        let b = toggling_run(4);
        let c = toggling_run(5);
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        let mut right_tail = b;
        right_tail.merge(c);
        let mut right = a;
        right.merge(right_tail);
        assert_eq!(left, right);
        // Recording the reports one after another into one registry — the
        // executor's seed-order fold — is the same fold.
        let mut sequential = MetricsRegistry::new();
        for cycles in [3, 4, 5] {
            toggling_report(cycles).record_metrics(&mut sequential);
        }
        assert_eq!(sequential, left);
    }
}
