//! The differential testing oracle for input flips on random netlists.
//!
//! A flipped job ([`SimJob::with_flips`], the `incremental` module's
//! [`DeltaStimulus`]) must equal a plain [`SimSession`] over the
//! `DeltaStimulus::apply_to`-merged assignments of the configured job —
//! on the event path and on the timed kernel — on random netlists
//! (combinational and sequential) under random flips and all three delay
//! models, for every probe artefact: activity traces and rising counts,
//! power reports (every `f64`), whole-run statistics, windowed heatmaps,
//! and the VCD / wave-CSV event streams.

#[allow(dead_code)]
mod support;

use glitch_netlist::Bus;
use glitch_sim::{
    ActivityProbe, DelayKind, KernelProgram, ParallelRunner, Probe, SessionReport, SimJob,
    SimSession, VcdProbe, WaveCsvProbe, WindowedActivityProbe,
};
use proptest::prelude::*;

use support::{build_delta, build_netlist, merged_stimulus, RandomNetlist};

/// The delay models the oracle sweeps: unit delay (the paper's default)
/// and the unbalanced adder-cell model keep the event queue non-trivial;
/// zero delay exercises the delta-cycle path.
fn delay_for(word: u64) -> DelayKind {
    match word % 3 {
        0 => DelayKind::Unit,
        1 => DelayKind::Zero,
        _ => DelayKind::RealisticAdderCells,
    }
}

/// The configured job over all of `circuit`'s inputs and its flipped twin.
fn jobs<'a>(
    circuit: &'a RandomNetlist,
    cycles: u64,
    seed: u64,
    delta_words: &[u64],
    delay: DelayKind,
) -> (SimJob<'a>, SimJob<'a>) {
    let job = SimJob::new(
        &circuit.netlist,
        vec![Bus::new(circuit.inputs.clone())],
        cycles,
        seed,
    )
    .with_delay(delay);
    let flipped = job
        .clone()
        .with_flips(build_delta(&circuit.inputs, cycles, delta_words));
    (job, flipped)
}

/// A plain session over `job`'s stimulus merged with `flipped`'s flips,
/// with the runners' standard probe plus `extra`.
fn full_run(job: &SimJob<'_>, flipped: &SimJob<'_>, extra: Vec<Box<dyn Probe>>) -> SessionReport {
    let configured: Vec<_> = job.stimulus().collect();
    let mut session = SimSession::new(job.netlist)
        .delay(job.delay.clone())
        .options(job.options)
        .stimulus(merged_stimulus(&configured, &flipped.flips))
        .probe(ActivityProbe::priced(job.technology, job.frequency));
    for probe in extra {
        session = session.boxed_probe(probe);
    }
    session.run().expect("full run settles")
}

/// `flipped` on the event path and routed to the timed kernel, each with
/// the probes `extra` builds.
fn flipped_runs(
    flipped: &SimJob<'_>,
    extra: &(dyn Fn(usize) -> Vec<Box<dyn Probe>> + Sync),
) -> [SessionReport; 2] {
    let program = KernelProgram::compile(flipped.netlist).expect("acyclic");
    let runner = ParallelRunner::new(1);
    let jobs = std::slice::from_ref(flipped);
    let event = runner.run_sessions_with(jobs, extra).expect("settles");
    let routed = runner.run_jobs(jobs, &program, extra).expect("settles");
    [event, routed].map(|mut reports| reports.remove(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Activity traces, per-net rising-transition counts and final values
    /// are bit-identical to the full simulation of the merged stimulus.
    #[test]
    fn incremental_activity_is_bit_identical_to_full(
        input_count in 2usize..6,
        gate_words in proptest::collection::vec(0u64..u64::MAX, 4..40),
        cycles in 2u64..30,
        seed in 0u64..1000,
        delta_words in proptest::collection::vec(0u64..u64::MAX, 0..5),
        delay_word in 0u64..3,
    ) {
        let circuit = build_netlist(input_count, &gate_words);
        let nl = &circuit.netlist;
        let (job, flipped) = jobs(&circuit, cycles, seed, &delta_words, delay_for(delay_word));
        let full = full_run(&job, &flipped, Vec::new());
        let full_probe = full.probe::<ActivityProbe>().unwrap();
        for run in flipped_runs(&flipped, &|_| Vec::new()) {
            let probe = run.probe::<ActivityProbe>().unwrap();
            prop_assert_eq!(probe.trace(), full_probe.trace());
            for (id, _) in nl.nets() {
                prop_assert_eq!(
                    probe.rising_transitions(id),
                    full_probe.rising_transitions(id)
                );
                prop_assert_eq!(run.net_value(id), full.net_value(id));
            }
            prop_assert_eq!(run.cycles(), cycles);
        }
    }

    /// Power reports (every f64 of the three-component breakdown) and the
    /// whole-run statistics are bit-identical to the full run.
    #[test]
    fn incremental_power_and_stats_are_bit_identical_to_full(
        input_count in 2usize..6,
        gate_words in proptest::collection::vec(0u64..u64::MAX, 4..40),
        cycles in 2u64..30,
        seed in 0u64..1000,
        delta_words in proptest::collection::vec(0u64..u64::MAX, 0..5),
        delay_word in 0u64..3,
    ) {
        let circuit = build_netlist(input_count, &gate_words);
        let nl = &circuit.netlist;
        let (job, flipped) = jobs(&circuit, cycles, seed, &delta_words, delay_for(delay_word));
        let full = full_run(&job, &flipped, Vec::new());
        let full_power = full.probe::<ActivityProbe>().unwrap().power(nl);
        prop_assert!(full_power.is_some());
        for run in flipped_runs(&flipped, &|_| Vec::new()) {
            let power = run.probe::<ActivityProbe>().unwrap().power(nl);
            prop_assert_eq!(&power, &full_power);
            prop_assert_eq!(
                (run.cycles(), run.total_transitions(), run.total_events()),
                (full.cycles(), full.total_transitions(), full.total_events())
            );
            prop_assert_eq!(
                (run.total_cell_evals(), run.max_settle_time()),
                (full.total_cell_evals(), full.max_settle_time())
            );
            prop_assert_eq!(run.cycle_stats(), full.cycle_stats());
        }
    }

    /// The raw event streams — the VCD text and the per-transition CSV —
    /// are identical byte for byte, including report order within a cycle.
    #[test]
    fn incremental_event_streams_are_byte_identical_to_full(
        input_count in 2usize..6,
        gate_words in proptest::collection::vec(0u64..u64::MAX, 4..30),
        cycles in 2u64..20,
        seed in 0u64..1000,
        delta_words in proptest::collection::vec(0u64..u64::MAX, 0..4),
        delay_word in 0u64..3,
    ) {
        let circuit = build_netlist(input_count, &gate_words);
        let (job, flipped) = jobs(&circuit, cycles, seed, &delta_words, delay_for(delay_word));
        let streams = |_: usize| -> Vec<Box<dyn Probe>> {
            vec![Box::new(VcdProbe::default()), Box::new(WaveCsvProbe::new())]
        };
        let mut full = full_run(&job, &flipped, streams(0));
        let full_vcd = full.take_probe::<VcdProbe>().unwrap().into_vcd();
        let full_csv = full.take_probe::<WaveCsvProbe>().unwrap().into_csv();
        for mut run in flipped_runs(&flipped, &streams) {
            prop_assert_eq!(
                run.take_probe::<VcdProbe>().unwrap().into_vcd(),
                full_vcd.clone()
            );
            prop_assert_eq!(
                run.take_probe::<WaveCsvProbe>().unwrap().into_csv(),
                full_csv.clone()
            );
        }
    }

    /// The windowed "heatmap over cycles" probe is bit-identical too —
    /// flipped cycles land in the right buckets.
    #[test]
    fn incremental_windowed_heatmap_is_bit_identical_to_full(
        input_count in 2usize..6,
        gate_words in proptest::collection::vec(0u64..u64::MAX, 4..30),
        cycles in 4u64..24,
        seed in 0u64..1000,
        delta_words in proptest::collection::vec(0u64..u64::MAX, 0..4),
        window in 1u64..6,
    ) {
        let circuit = build_netlist(input_count, &gate_words);
        let (job, flipped) = jobs(&circuit, cycles, seed, &delta_words, DelayKind::Unit);
        let windowed =
            |_: usize| -> Vec<Box<dyn Probe>> { vec![Box::new(WindowedActivityProbe::new(window))] };
        let full = full_run(&job, &flipped, windowed(0));
        for run in flipped_runs(&flipped, &windowed) {
            prop_assert_eq!(
                run.probe::<WindowedActivityProbe>().unwrap().windows(),
                full.probe::<WindowedActivityProbe>().unwrap().windows()
            );
        }
    }
}
