//! Benchmark helper for `run.py`.
//!
//! * `glitchbench fixtures <dir>` writes the generated multiplier fixtures
//!   (mult4, mult16, mult32) into `<dir>`, then parses every `.blif` file
//!   there and prints one JSON line per fixture: name, fingerprint, cell
//!   and net counts.
//! * `glitchbench layers <dir> <workload> <stimulus-seed> <reps>` is the
//!   traced run: it calls each crate's public entry points in-process on
//!   the fixtures in `<dir>`, times every call from outside with spans
//!   kept in memory, writes the spans as a Chrome trace to
//!   `<dir>/spans-<workload>.json` at the end and prints one JSON object
//!   with the per-layer metrics, the self-time shares of the workload's
//!   job and the in-process tracing overhead.
//!
//! The job mirrors below decompose the CLI's `sweep` and `reduce` paths
//! into the same public calls in the same order; their rendered JSON is
//! compared byte for byte against the undecomposed call, so a mirror that
//! drifts from the program fails the run instead of timing something else.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::netlist::{Bus, ConeIndex, NetId, Netlist};
use glitch_core::power::estimate_power_from_counts;
use glitch_core::retime::{NetMap, PipelineOptions};
use glitch_core::sim::{
    kernel_prepass, AggregateReport, DeltaStimulus, ParallelRunner, SimJob, SimOptions, Value,
};
use glitch_core::verify::EquivalenceChecker;
use glitch_core::{
    AnalysisConfig, EngineKind, GlitchAnalyzer, KernelProgram, ReduceScore, ReduceSession,
};
use glitch_io::{emit_blif, parse_netlist, Format};
use glitch_reduce::{
    generate_candidates, screen_candidate, AcceptedMove, Candidate, MoveKind, ReduceOptions,
    ReduceReport, Reducer, ScreenBackend,
};
use glitch_serve::params;
use glitch_serve::report;

type Fail = Box<dyn std::error::Error>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("fixtures") if args.len() == 2 => fixtures(&args[1]),
        Some("layers") if args.len() == 5 => match (args[3].parse(), args[4].parse()) {
            (Ok(seed), Ok(reps)) => layers(&args[1], &args[2], seed, reps),
            _ => Err("layers: seed and reps must be integers".into()),
        },
        _ => Err("usage: glitchbench fixtures <dir> | \
                  glitchbench layers <dir> <workload> <stimulus-seed> <reps>"
            .into()),
    };
    if let Err(err) = result {
        eprintln!("glitchbench: {err}");
        std::process::exit(1);
    }
}

fn fixtures(dir: &str) -> Result<(), Fail> {
    for bits in [4usize, 16, 32] {
        let mult = ArrayMultiplier::new(bits, AdderStyle::CompoundCell);
        std::fs::write(format!("{dir}/mult{bits}.blif"), emit_blif(&mult.netlist))?;
    }
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".blif"))
        .collect();
    names.sort();
    for name in names {
        let netlist = load(dir, &name)?;
        println!(
            "{{\"file\":\"{name}\",\"fingerprint\":\"{:016x}\",\"cells\":{},\"nets\":{}}}",
            netlist.fingerprint(),
            netlist.cell_count(),
            netlist.net_count()
        );
    }
    Ok(())
}

fn load(dir: &str, name: &str) -> Result<Netlist, Fail> {
    let text = std::fs::read_to_string(format!("{dir}/{name}"))?;
    let library = params::library_for_tech(None).map_err(|e| e.to_string())?;
    Ok(parse_netlist(&text, Format::Blif, &library)?)
}

// ------------------------------------------------------------------ spans

/// One timed call: name, parent span, start and end in nanoseconds since
/// the tracer's origin.
struct Span {
    name: String,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// Spans kept in memory and written out once, at the end of the run.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Seconds of the most recent span named `name`.
    fn last_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end - s.start) as f64 * 1e-9)
    }

    /// Index of the most recent span named `job`.
    fn last_job(&self) -> usize {
        self.spans
            .iter()
            .rposition(|s| s.name == "job")
            .expect("a job span was recorded")
    }

    /// Self time per span name within the trees rooted at `roots`: each
    /// span's duration minus the part its children cover, summed by name.
    fn self_times(&self, roots: &[usize]) -> BTreeMap<String, f64> {
        let mut child_time = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let under_root = |mut index: usize| loop {
            if roots.contains(&index) {
                return true;
            }
            match self.spans[index].parent {
                Some(parent) => index = parent,
                None => return false,
            }
        };
        let mut out = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            if under_root(index) {
                let own = (span.end - span.start).saturating_sub(child_time[index]);
                *out.entry(span.name.clone()).or_insert(0.0) += own as f64 * 1e-9;
            }
        }
        out
    }

    fn chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                span.name,
                span.start as f64 / 1e3,
                (span.end - span.start) as f64 / 1e3
            );
        }
        out.push(']');
        out
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

// ------------------------------------------------------------ job mirrors

const SWEEP_FIXTURE: &str = "mult32.blif";
const REDUCE_FIXTURE: &str = "mult16.blif";
const FLIP_FIXTURE: &str = "mult16.blif";
const COUNTER_FIXTURE: &str = "counter4.blif";
const CYCLES: u64 = 200;
const SWEEP_JOBS: usize = 2;
/// Cycles of the daemon flip path probed on mult16.
const FLIP_CYCLES: u64 = 250;
/// Cycles of the `check` probe on counter4 (the CLI default).
const CHECK_CYCLES: u64 = 1000;

fn config(cycles: u64, seed: u64, engine: Option<&str>) -> Result<AnalysisConfig, Fail> {
    let library = params::library_for_tech(None).map_err(|e| e.to_string())?;
    Ok(
        params::analysis_config(&library, Some(cycles), Some(seed), None, None, engine)
            .map_err(|e| e.to_string())?,
    )
}

/// `glitch-cli sweep mult32.blif --cycles 200 --jobs 2 --json --seed S`,
/// as public calls: parse, the parallel delay sweep, the JSON render.
fn sweep_job(t: &mut Tracer, dir: &str, seed: u64) -> Result<String, Fail> {
    t.span("job", |t| {
        let netlist = t.span("io.parse", |_| load(dir, SWEEP_FIXTURE))?;
        let library = params::library_for_tech(None).map_err(|e| e.to_string())?;
        let config = config(CYCLES, seed, None)?;
        let models = params::delay_sweep_models(None, &library).map_err(|e| e.to_string())?;
        let points = t.span("sim.sweep", |_| {
            GlitchAnalyzer::new(config.clone()).sweep_delays_compiled(
                &netlist,
                &params::input_buses(&netlist),
                &[],
                &models,
                &[seed],
                SWEEP_JOBS,
                None,
            )
        })?;
        Ok(t.span("serve.render", |_| {
            report::sweep_json(SWEEP_FIXTURE, &netlist, 1, SWEEP_JOBS, CYCLES, &points)
        }))
    })
}

/// What one decomposed reduce job counted, beside its rendered report.
#[derive(Default)]
struct ReduceCounts {
    score_calls: u64,
    accepted: u64,
    confirmed: u64,
    compared: u64,
    total_power_ratio: f64,
}

/// `glitch-cli reduce mult16.blif --cycles 200 --engine hybrid --json
/// --seed S`, decomposed: the loop of `Reducer::run_with_progress` written
/// out over its public calls (score, candidate generation, kernel screen,
/// confirm scores, final equivalence check) so each one gets a span.
fn reduce_job(t: &mut Tracer, dir: &str, seed: u64) -> Result<(String, ReduceCounts), Fail> {
    t.span("job", |t| {
        let netlist = t.span("io.parse", |_| load(dir, REDUCE_FIXTURE))?;
        let config = config(CYCLES, seed, Some("hybrid"))?;
        let options = ReduceOptions::default();
        let session = ReduceSession::new(config.clone(), vec![seed], 1);
        let backend = match config.engine {
            EngineKind::Queue => ScreenBackend::Queue,
            EngineKind::Kernel | EngineKind::Hybrid => ScreenBackend::Kernel,
        };
        let mut counts = ReduceCounts::default();
        let random_buses = params::input_buses(&netlist);
        let baseline = t.span("reduce.score", |_| {
            session.score(&netlist, &random_buses, &[])
        })?;
        counts.score_calls += 1;

        let mut current = netlist.clone();
        let mut map = NetMap::identity(&netlist);
        let mut buses = random_buses.clone();
        let mut held: Vec<(NetId, bool)> = Vec::new();
        let mut score = baseline.clone();
        let mut glitch_history = vec![baseline.glitch_power];
        let mut moves: Vec<AcceptedMove> = Vec::new();
        let (mut proposed, mut screened) = (0usize, 0usize);
        let mut iterations = 0usize;
        while moves.len() < options.max_iters {
            iterations += 1;
            let candidates = t.span("reduce.candidates", |_| {
                generate_candidates(
                    &current,
                    &score,
                    &options.moves,
                    options.per_kind,
                    options.pipeline,
                )
            });
            proposed += candidates.len();
            if candidates.is_empty() {
                break;
            }
            let mut survivors: Vec<Candidate> = Vec::new();
            for candidate in candidates {
                let outcome = t.span("kernel.screen", |_| {
                    screen_candidate(
                        &current,
                        &candidate.rewrite,
                        backend,
                        options.screen_cycles,
                        options.screen_lanes,
                        config.seed ^ iterations as u64,
                    )
                })?;
                if outcome.accepted {
                    survivors.push(candidate);
                }
            }
            screened += survivors.len();
            type Confirmed = (Candidate, ReduceScore, Vec<Bus>, Vec<(NetId, bool)>);
            let mut best: Option<Confirmed> = None;
            for candidate in survivors {
                let next_buses: Vec<Bus> = buses
                    .iter()
                    .map(|bus| {
                        Bus::new(
                            bus.iter()
                                .map(|&net| candidate.rewrite.map.new_net(net))
                                .collect(),
                        )
                    })
                    .collect();
                let next_held: Vec<(NetId, bool)> = held
                    .iter()
                    .map(|&(net, value)| (candidate.rewrite.map.new_net(net), value))
                    .collect();
                let next = t.span("reduce.score", |_| {
                    session.score(&candidate.rewrite.netlist, &next_buses, &next_held)
                })?;
                counts.score_calls += 1;
                counts.confirmed += 1;
                let improves = next.glitch_power < score.glitch_power;
                let beats_best = best
                    .as_ref()
                    .is_none_or(|(_, s, _, _)| next.glitch_power < s.glitch_power);
                if improves && beats_best {
                    best = Some((candidate, next, next_buses, next_held));
                }
            }
            let Some((winner, winner_score, winner_buses, winner_held)) = best else {
                break;
            };
            moves.push(AcceptedMove {
                iteration: iterations,
                kind: winner.kind,
                description: winner.rewrite.description.clone(),
                glitch_power_before: score.glitch_power,
                glitch_power_after: winner_score.glitch_power,
                latency_added: winner.rewrite.map.latency(),
            });
            map = map.compose(&winner.rewrite.map);
            current = winner.rewrite.netlist;
            buses = winner_buses;
            held = winner_held;
            score = winner_score;
            glitch_history.push(score.glitch_power);
        }
        counts.accepted = moves.len() as u64;

        let equivalence = t.span("verify.equivalence", |_| {
            let inputs: Vec<(NetId, NetId)> = netlist
                .inputs()
                .iter()
                .map(|&net| (net, map.new_net(net)))
                .collect();
            let outputs: Vec<(NetId, NetId)> = netlist
                .outputs()
                .iter()
                .map(|&net| (net, map.output_net(net)))
                .collect();
            let checker =
                EquivalenceChecker::new(&netlist, &current, inputs, outputs, map.latency())?;
            Ok::<_, Fail>(checker.verify(
                std::slice::from_ref(&config.delay),
                options.equivalence_cycles,
                config.seed,
            )?)
        })?;
        if !equivalence.passed() {
            return Err("reduce mirror: equivalence FAIL".into());
        }
        counts.compared = equivalence.compared();
        counts.total_power_ratio = score.total_power / baseline.total_power;
        let reduced = ReduceReport {
            circuit: netlist.name().to_string(),
            iterations,
            proposed,
            screened,
            confirmed: counts.confirmed as usize,
            moves,
            initial_glitch_power: baseline.glitch_power,
            final_glitch_power: score.glitch_power,
            initial_total_power: baseline.total_power,
            final_total_power: score.total_power,
            glitch_history,
            latency: map.latency(),
            equivalence,
            netlist: current,
            map,
        };
        let json = t.span("serve.render", |_| {
            report::reduce_json(REDUCE_FIXTURE, &reduced, 1, 1, CYCLES)
        });
        Ok((json, counts))
    })
}

/// The undecomposed calls the mirrors must match byte for byte.
fn sweep_direct(dir: &str, seed: u64) -> Result<String, Fail> {
    let netlist = load(dir, SWEEP_FIXTURE)?;
    let library = params::library_for_tech(None).map_err(|e| e.to_string())?;
    let models = params::delay_sweep_models(None, &library).map_err(|e| e.to_string())?;
    let points = GlitchAnalyzer::new(config(CYCLES, seed, None)?).sweep_delays_compiled(
        &netlist,
        &params::input_buses(&netlist),
        &[],
        &models,
        &[seed],
        SWEEP_JOBS,
        None,
    )?;
    Ok(report::sweep_json(
        SWEEP_FIXTURE,
        &netlist,
        1,
        SWEEP_JOBS,
        CYCLES,
        &points,
    ))
}

fn reduce_direct(dir: &str, seed: u64) -> Result<String, Fail> {
    let netlist = load(dir, REDUCE_FIXTURE)?;
    let session = ReduceSession::new(config(CYCLES, seed, Some("hybrid"))?, vec![seed], 1);
    let reduced = Reducer::new(session, ReduceOptions::default()).run(
        &netlist,
        &params::input_buses(&netlist),
        &[],
    )?;
    Ok(report::reduce_json(REDUCE_FIXTURE, &reduced, 1, 1, CYCLES))
}

// ----------------------------------------------------------- layer probes

/// Times each remaining public entry point on the workload's home fixture
/// and returns the per-layer metrics it yields.
fn layer_probes(
    dir: &str,
    home: &str,
    seed: u64,
    reps: usize,
    metrics: &mut BTreeMap<String, f64>,
) -> Result<(), Fail> {
    let text = std::fs::read_to_string(format!("{dir}/{home}"))?;
    let library = params::library_for_tech(None).map_err(|e| e.to_string())?;
    let netlist = parse_netlist(&text, Format::Blif, &library)?;
    metrics.insert(
        "io.parse_s".into(),
        time_median(reps * 4, || {
            black_box(parse_netlist(black_box(&text), Format::Blif, &library).ok());
        }),
    );
    metrics.insert(
        "netlist.cone_index_s".into(),
        time_median(reps * 4, || {
            black_box(ConeIndex::build(black_box(&netlist)).ok());
        }),
    );
    metrics.insert(
        "kernel.compile_s".into(),
        time_median(reps * 4, || {
            black_box(KernelProgram::compile(black_box(&netlist)).ok());
        }),
    );

    let buses = params::input_buses(&netlist);
    let program = KernelProgram::compile(&netlist)?;
    let jobs = [SimJob::new(&netlist, buses.clone(), CYCLES, seed)];
    let mut prepass = None;
    metrics.insert(
        "kernel.prepass_s".into(),
        time_median(reps, || {
            prepass = Some(kernel_prepass(&netlist, &program, &jobs));
        }),
    );
    let prepass = prepass.expect("reps >= 1")?;
    metrics.insert(
        "kernel.quiet_frac".into(),
        prepass.quiet_cycle_count() as f64 / prepass.total_cycles().max(1) as f64,
    );

    // One queue settle per delay model of the sweep, on identical stimuli.
    let models = params::delay_sweep_models(None, &library).map_err(|e| e.to_string())?;
    let base = config(CYCLES, seed, None)?;
    let (mut events, mut cell_evals, mut settle_total) = (0u64, 0u64, 0.0f64);
    let mut classify = Vec::new();
    let mut last_report = None;
    for (label, delay) in &models {
        let analyzer = GlitchAnalyzer::new(AnalysisConfig {
            delay: delay.clone(),
            ..base.clone()
        });
        let mut samples = Vec::new();
        for _ in 0..reps {
            let start = Instant::now();
            let report = analyzer.session(&netlist, &buses, &[]).run()?;
            samples.push(start.elapsed().as_secs_f64());
            events = events.max(report.total_events());
            cell_evals = cell_evals.max(report.total_cell_evals());
            let start = Instant::now();
            let analysis = GlitchAnalyzer::analysis(&netlist, report);
            classify.push(start.elapsed().as_secs_f64());
            last_report = Some(analysis);
        }
        // Counts are per model and identical across repetitions; sum the
        // three models' counts once.
        let settle = median(&mut samples);
        settle_total += settle;
        metrics.insert(format!("sim.settle_s.{label}"), settle);
        *metrics.entry("sim.events".into()).or_insert(0.0) += events as f64;
        *metrics.entry("sim.cell_evals".into()).or_insert(0.0) += cell_evals as f64;
        events = 0;
        cell_evals = 0;
    }
    metrics.insert(
        "sim.ns_per_event".into(),
        settle_total * 1e9 / metrics["sim.events"].max(1.0),
    );
    metrics.insert("activity.classify_s".into(), median(&mut classify));

    let analysis = last_report.expect("three delay models");
    let counts: Vec<u64> = (0..netlist.net_count())
        .map(|index| analysis.trace.node(index).transitions())
        .collect();
    metrics.insert(
        "power.estimate_s".into(),
        time_median(reps * 4, || {
            black_box(estimate_power_from_counts(
                &netlist,
                black_box(&counts),
                CYCLES,
                &base.technology,
                base.frequency,
            ));
        }),
    );

    // The sweep's parallel shape: one shard per delay model on two workers.
    let sweep_jobs: Vec<SimJob<'_>> = models
        .iter()
        .map(|(label, delay)| {
            SimJob::new(&netlist, buses.clone(), CYCLES, seed)
                .with_delay(delay.clone())
                .with_power(base.technology, base.frequency)
                .with_label(label.clone())
        })
        .collect();
    let mut reports = ParallelRunner::new(SWEEP_JOBS).run_sessions(&sweep_jobs)?;
    let aggregate = AggregateReport::reduce(&netlist, &sweep_jobs, &mut reports);
    metrics.insert("sim.imbalance".into(), aggregate.imbalance_ratio());

    // The daemon's flip path on mult16: baseline record (a cold flip) and
    // one incremental replay (a warm flip) with a one-bit delta.
    let serve_netlist = load(dir, FLIP_FIXTURE)?;
    let serve_buses = params::input_buses(&serve_netlist);
    let flip = GlitchAnalyzer::new(config(FLIP_CYCLES, seed, None)?);
    let mut baseline = None;
    metrics.insert(
        "sim.baseline_record_s".into(),
        time_median(reps, || {
            baseline = Some(flip.analyze_baseline(&serve_netlist, &serve_buses, &[]));
        }),
    );
    let (_, baseline) = baseline.expect("reps >= 1")?;
    let index = ConeIndex::build(&serve_netlist)?;
    let input = serve_netlist.inputs()[(seed % 32) as usize];
    let flipped = baseline.input_value(FLIP_CYCLES / 2, input) != Value::One;
    let delta = DeltaStimulus::new()
        .try_set(FLIP_CYCLES / 2, input, flipped)
        .map_err(|e| format!("{e:?}"))?;
    let mut stats = None;
    metrics.insert(
        "sim.incremental_s".into(),
        time_median(reps * 4, || {
            stats = Some(flip.analyze_delta_with_index(
                &serve_netlist,
                &baseline,
                &delta,
                Some(&index),
            ));
        }),
    );
    let stats = stats.expect("reps >= 1")?.incremental;
    metrics.insert(
        "sim.replayed_frac".into(),
        stats.replayed_cycles as f64
            / (stats.replayed_cycles + stats.simulated_cycles).max(1) as f64,
    );

    // `check --x-init` on counter4, as the daemon runs it.
    let counter = load(dir, COUNTER_FIXTURE)?;
    let suite =
        params::build_check_suite(&counter, None, None, false, None).map_err(|e| e.to_string())?;
    let mut check_config = config(CHECK_CYCLES, seed, None)?;
    check_config.options = SimOptions::x_init();
    let checker = GlitchAnalyzer::new(check_config);
    let counter_buses = params::input_buses(&counter);
    let mut failed = None;
    metrics.insert(
        "verify.check_s".into(),
        time_median(reps * 4, || {
            if let Err(e) = checker.check_seeds(&counter, &counter_buses, &[], &suite, &[seed], 1) {
                failed = Some(e);
            }
        }),
    );
    if let Some(e) = failed {
        return Err(e.into());
    }

    // One retime proposal round on the baseline score of mult16.
    let reduce_netlist = load(dir, REDUCE_FIXTURE)?;
    let session = ReduceSession::new(config(CYCLES, seed, Some("hybrid"))?, vec![seed], 1);
    let score = session.score(&reduce_netlist, &params::input_buses(&reduce_netlist), &[])?;
    metrics.insert(
        "retime.rewrite_s".into(),
        time_median(reps, || {
            black_box(generate_candidates(
                &reduce_netlist,
                &score,
                &[MoveKind::Retime],
                ReduceOptions::default().per_kind,
                PipelineOptions::default(),
            ));
        }),
    );
    Ok(())
}

fn layers(dir: &str, workload: &str, seed: u64, reps: usize) -> Result<(), Fail> {
    let home = match workload {
        "sweep-mult32" => SWEEP_FIXTURE,
        "reduce-mult16" => REDUCE_FIXTURE,
        _ => return Err(format!("layers: unknown workload {workload}").into()),
    };
    let reps = reps.max(1);
    let mut t = Tracer::new();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let mut job_traced = Vec::new();
    let mut job_direct = Vec::new();

    // The reduce mirror runs on every workload: it is the only source of
    // the reduce, screen and equivalence layers.
    let reduce_reps = if workload == "reduce-mult16" { reps } else { 1 };
    let reference = reduce_direct(dir, seed)?;
    let mut counts = ReduceCounts::default();
    let mut per_job: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut workload_jobs = Vec::new();
    for rep in 0..reduce_reps {
        let direct = |job_direct: &mut Vec<f64>| -> Result<(), Fail> {
            if workload == "reduce-mult16" {
                let start = Instant::now();
                black_box(reduce_direct(dir, seed)?);
                job_direct.push(start.elapsed().as_secs_f64());
            }
            Ok(())
        };
        // Alternate which side runs first, so drift does not read as overhead.
        if rep % 2 == 1 {
            direct(&mut job_direct)?;
        }
        let start = Instant::now();
        let (json, c) = reduce_job(&mut t, dir, seed)?;
        let wall = start.elapsed().as_secs_f64();
        if json != reference {
            return Err("reduce mirror output differs from Reducer::run".into());
        }
        let root = t.last_job();
        for (name, secs) in t.self_times(&[root]) {
            per_job.entry(name).or_default().push(secs);
        }
        if workload == "reduce-mult16" {
            job_traced.push(wall);
            workload_jobs.push(root);
        }
        counts = c;
        if rep % 2 == 0 {
            direct(&mut job_direct)?;
        }
    }
    metrics.insert("reduce.score_s".into(), median_of(&per_job, "reduce.score"));
    metrics.insert(
        "reduce.candidates_s".into(),
        median_of(&per_job, "reduce.candidates"),
    );
    metrics.insert(
        "kernel.screen_s".into(),
        median_of(&per_job, "kernel.screen"),
    );
    metrics.insert(
        "verify.equivalence_s".into(),
        median_of(&per_job, "verify.equivalence"),
    );
    metrics.insert("reduce.score_calls".into(), counts.score_calls as f64);
    metrics.insert(
        "reduce.accept_frac".into(),
        counts.accepted as f64 / counts.confirmed.max(1) as f64,
    );
    metrics.insert("verify.compared".into(), counts.compared as f64);
    metrics.insert("total_power_ratio".into(), counts.total_power_ratio);
    let mut render = per_job.get("serve.render").cloned().unwrap_or_default();

    if workload == "sweep-mult32" {
        let reference = sweep_direct(dir, seed)?;
        render.clear();
        for rep in 0..reps {
            let direct = |job_direct: &mut Vec<f64>| -> Result<(), Fail> {
                let start = Instant::now();
                black_box(sweep_direct(dir, seed)?);
                job_direct.push(start.elapsed().as_secs_f64());
                Ok(())
            };
            if rep % 2 == 1 {
                direct(&mut job_direct)?;
            }
            let start = Instant::now();
            let json = sweep_job(&mut t, dir, seed)?;
            job_traced.push(start.elapsed().as_secs_f64());
            if json != reference {
                return Err("sweep mirror output differs from the direct sweep".into());
            }
            render.push(t.last_secs("serve.render"));
            workload_jobs.push(t.last_job());
            if rep % 2 == 0 {
                direct(&mut job_direct)?;
            }
        }
    }
    metrics.insert("serve.render_s".into(), median(&mut render));

    t.span("probes", |_| {
        layer_probes(dir, home, seed, reps, &mut metrics)
    })?;

    // Self-time shares of the workload's job mirror.
    let shares = t.self_times(&workload_jobs);
    let total: f64 = shares.values().sum();
    let shares: BTreeMap<String, f64> = shares
        .into_iter()
        .map(|(name, secs)| (name, secs / total.max(f64::MIN_POSITIVE)))
        .collect();

    std::fs::write(format!("{dir}/spans-{workload}.json"), t.chrome_trace())?;
    let mut out = String::from("{\"metrics\":{");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{name}\":{value:?}");
    }
    out.push_str("},\"shares\":{");
    for (i, (name, value)) in shares.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{name}\":{value:?}");
    }
    let traced = median(&mut job_traced);
    let direct = median(&mut job_direct);
    let _ = write!(
        out,
        "}},\"job_traced_s\":{traced:?},\"job_direct_s\":{direct:?},\"spans\":{}}}",
        t.spans.len()
    );
    println!("{out}");
    Ok(())
}

fn median_of(per_job: &BTreeMap<String, Vec<f64>>, name: &str) -> f64 {
    per_job
        .get(name)
        .map_or(0.0, |values| median(&mut values.clone()))
}
