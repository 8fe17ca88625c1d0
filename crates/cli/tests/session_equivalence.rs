//! Probe-equivalence suite: a single multi-probe session must reproduce
//! the seed's two-pass results **bit-for-bit** on the bundled corpus —
//! activity totals, the per-node glitch histogram, the power report and the
//! VCD transition count — while simulating exactly once (asserted via a
//! cycle-counting probe).

use std::fs;
use std::path::PathBuf;

use glitch_core::activity::ActivityReport;
use glitch_core::netlist::{Bus, Netlist};
use glitch_core::power::Technology;
use glitch_core::sim::{
    ActivityProbe, CycleStats, Probe, RandomStimulus, SimSession, VcdProbe, WaveCsvProbe,
};
use glitch_core::{AnalysisConfig, GlitchAnalyzer};
use glitch_io::{parse_netlist, Format, GateLibrary};

const CYCLES: u64 = 120;
const SEED: u64 = 0xDA7E_1995;

/// Counts lifecycle hooks; the "exactly one simulation pass" witness.
#[derive(Debug, Default)]
struct PassCounter {
    run_starts: u64,
    run_ends: u64,
    cycle_starts: u64,
    cycle_ends: u64,
}

impl Probe for PassCounter {
    fn on_run_start(&mut self, _netlist: &Netlist) {
        self.run_starts += 1;
    }
    fn on_cycle_start(&mut self, _cycle: u64) {
        self.cycle_starts += 1;
    }
    fn on_cycle_end(&mut self, _cycle: u64, _stats: &CycleStats) {
        self.cycle_ends += 1;
    }
    fn on_run_end(&mut self, _netlist: &Netlist) {
        self.run_ends += 1;
    }
}

fn corpus() -> Vec<(String, Netlist)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
    let library = GateLibrary::standard();
    let mut circuits = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("tests/data exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "blif"))
        .collect();
    entries.sort();
    for path in entries {
        let text = fs::read_to_string(&path).expect("corpus file reads");
        let netlist = parse_netlist(&text, Format::Blif, &library).expect("corpus file parses");
        circuits.push((
            path.file_name().unwrap().to_string_lossy().into_owned(),
            netlist,
        ));
    }
    assert!(circuits.len() >= 4, "corpus should have several circuits");
    circuits
}

fn input_buses(netlist: &Netlist) -> Vec<Bus> {
    netlist
        .inputs()
        .chunks(32)
        .map(|chunk| Bus::new(chunk.to_vec()))
        .collect()
}

fn stimulus(netlist: &Netlist) -> RandomStimulus {
    RandomStimulus::new(input_buses(netlist), CYCLES, SEED)
}

#[test]
fn multi_probe_session_matches_single_probe_sessions_bit_for_bit() {
    let tech = Technology::cmos_0p8um_5v();
    for (name, netlist) in corpus() {
        // The new way: every observable from ONE pass.
        let multi = SimSession::new(&netlist)
            .stimulus(stimulus(&netlist))
            .probe(ActivityProbe::priced(tech, 5e6))
            .probe(VcdProbe::default())
            .probe(WaveCsvProbe::new())
            .probe(PassCounter::default())
            .run()
            .expect("corpus circuits simulate");

        // The seed's way: one dedicated simulation per artefact.
        let activity_pass = SimSession::new(&netlist)
            .stimulus(stimulus(&netlist))
            .probe(ActivityProbe::new())
            .run()
            .unwrap();
        let power_pass = SimSession::new(&netlist)
            .stimulus(stimulus(&netlist))
            .probe(ActivityProbe::priced(tech, 5e6))
            .run()
            .unwrap();
        let vcd_pass = SimSession::new(&netlist)
            .stimulus(stimulus(&netlist))
            .probe(VcdProbe::default())
            .run()
            .unwrap();

        // Exactly one pass: the counter saw one run and CYCLES cycles.
        let counter = multi.probe::<PassCounter>().unwrap();
        assert_eq!(counter.run_starts, 1, "{name}: multiple run starts");
        assert_eq!(counter.run_ends, 1, "{name}: multiple run ends");
        assert_eq!(counter.cycle_starts, CYCLES, "{name}: cycle count");
        assert_eq!(counter.cycle_ends, CYCLES, "{name}: cycle count");
        assert_eq!(multi.cycles(), CYCLES);
        assert_eq!(multi.passes(), 1);

        // Activity: the whole per-node trace (and therefore every per-node
        // useful/useless histogram bucket) is identical.
        let multi_trace = multi.probe::<ActivityProbe>().unwrap().trace();
        let solo_trace = activity_pass.probe::<ActivityProbe>().unwrap().trace();
        assert_eq!(multi_trace, solo_trace, "{name}: traces differ");
        let multi_report = ActivityReport::new(&netlist, multi_trace);
        let solo_report = ActivityReport::new(&netlist, solo_trace);
        assert_eq!(multi_report.totals(), solo_report.totals(), "{name}");
        // Glitch histogram per node.
        for i in 0..netlist.net_count() {
            assert_eq!(
                multi_trace.node(i).glitches(),
                solo_trace.node(i).glitches(),
                "{name}: glitch histogram differs at node {i}"
            );
        }

        // Power: the report (logic/flipflop/clock watts, switched
        // capacitance) is bit-for-bit equal, f64 equality included.
        let power = |report: &glitch_core::sim::SessionReport| {
            report
                .probe::<ActivityProbe>()
                .unwrap()
                .power(&netlist)
                .expect("priced")
        };
        assert_eq!(
            power(&multi),
            power(&power_pass),
            "{name}: power reports differ"
        );

        // VCD: identical transition count and identical rendered text.
        let multi_vcd = multi.probe::<VcdProbe>().unwrap();
        let solo_vcd = vcd_pass.probe::<VcdProbe>().unwrap();
        assert_eq!(
            multi_vcd.change_count(),
            solo_vcd.change_count(),
            "{name}: VCD transition counts differ"
        );
        assert_eq!(multi_vcd.vcd(), solo_vcd.vcd(), "{name}: VCD text differs");

        // The wave CSV saw the same transitions as the VCD recorder.
        assert_eq!(
            multi.probe::<WaveCsvProbe>().unwrap().row_count(),
            multi_vcd.change_count(),
            "{name}: wave CSV rows != VCD changes"
        );
    }
}

#[test]
fn analyzer_session_with_extra_probes_matches_plain_analyze() {
    // Attaching artefact probes to the analyzer's session must not perturb
    // the analysis itself: `analyze --vcd --csv` equals plain `analyze`.
    let (name, netlist) = corpus()
        .into_iter()
        .find(|(n, _)| n == "c17.blif")
        .expect("c17.blif is in the corpus");
    let config = AnalysisConfig {
        cycles: 200,
        ..AnalysisConfig::default()
    };
    let analyzer = GlitchAnalyzer::new(config);
    let buses = input_buses(&netlist);

    let plain = analyzer.analyze(&netlist, &buses, &[]).unwrap();

    let mut report = analyzer
        .session(&netlist, &buses, &[])
        .probe(VcdProbe::default())
        .probe(WaveCsvProbe::new())
        .probe(PassCounter::default())
        .run()
        .unwrap();
    let counter = report.take_probe::<PassCounter>().unwrap();
    assert_eq!(counter.run_starts, 1, "{name}: exactly one pass");
    assert_eq!(counter.cycle_starts, 200, "{name}: exactly 200 cycles");
    let vcd = report.take_probe::<VcdProbe>().unwrap().into_vcd();
    let wave = report.take_probe::<WaveCsvProbe>().unwrap().into_csv();
    let with_probes = GlitchAnalyzer::analysis(&netlist, report);

    assert_eq!(with_probes.trace, plain.trace, "{name}: traces differ");
    assert_eq!(with_probes.activity, plain.activity, "{name}");
    assert_eq!(with_probes.power, plain.power, "{name}: power differs");
    assert!(vcd.contains("$enddefinitions"));
    assert!(wave.starts_with("cycle,time,net,value,kind\n"));
}
