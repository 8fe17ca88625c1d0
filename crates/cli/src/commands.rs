//! The subcommands: parse, stats, analyze, simulate, power, sweep, check,
//! retime, reduce.

use std::cell::RefCell;
use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use glitch_core::netlist::{ConeIndex, DotOptions, Netlist};
use glitch_core::retime::{pipeline_netlist, PipelineOptions};
use glitch_core::sim::{
    Probe, RandomStimulus, SessionReport, SimBaseline, SimSession, UnitDelay, VcdProbe,
    WaveCsvProbe, WindowedActivityProbe,
};
use glitch_core::verify::{Verdict, VerifyReport};
use glitch_core::{
    Analysis, AnalysisConfig, EngineKind, GlitchAnalyzer, IncrementalStats, KernelProgram,
    PowerExplorer, TextTable,
};
use glitch_io::{emit_blif, parse_netlist, Format, GateLibrary};
use glitch_serve::cache::BaselineEntry;
use glitch_serve::exec::{
    exec, record_baseline, replay_baseline, Hooks, JobOutput, ProgressLines, Resources,
};
use glitch_serve::json::{json_array, JsonObject};
use glitch_serve::params::{self, input_buses, ParamError};
use glitch_serve::report;
use glitch_serve::{JobKind, JobRequest};

use crate::args::{Args, Spec};
use crate::telemetry::Telemetry;

/// The usage text printed on argument errors and by `help`.
pub const USAGE: &str = "\
usage: glitch-cli <command> <netlist> [options]

The netlist is a .blif file or a structural-Verilog .v file.

commands:
  parse     parse and validate; print a one-line summary
              --emit-blif <file>   write the circuit back out as BLIF
              --dot <file>         write a Graphviz rendering
  stats     print netlist statistics (cells, nets, depth, histogram)
              --json               machine-readable output instead of text
  analyze   the full paper pipeline in one simulation pass: simulate
            random vectors, classify every node's transitions into useful
            work and glitches, estimate the three-component dynamic power
              --cycles <n>         random vectors to simulate [1000]
              --seed <n>           stimulus seed [3665697173]
              --delay <model>      unit | zero | adder | library [unit]
              --engine <name>      queue | kernel | hybrid [queue, also in
                                   the serve daemon].
                                   `queue` is the event-driven reference;
                                   its batch jobs (--seeds without
                                   --metrics or per-transition artefacts,
                                   and every sweep) settle on the timed
                                   bit-parallel kernel, with identical
                                   reports, when every non-constant delay
                                   is >= 1 (or all are 0) and the settle
                                   budget covers the static horizon;
                                   `hybrid` settles every job event by
                                   event after a compiled kernel prepass
                                   that proves cycles quiet (reports
                                   bit-identical to queue);
                                   `kernel` runs the compiled kernel alone
                                   (functional zero-delay semantics, no
                                   glitch modelling, no event queue; it
                                   refuses a --delay other than zero)
              --frequency-mhz <f>  clock for the power estimate [5]
              --tech <name>        0.8um | 65nm [0.8um]
              --csv <file>         write per-node activity as CSV
              --vcd <file>         write a value-change dump
              --wave-csv <file>    write per-transition rows as CSV
              --window <k>         bucket activity into k-cycle windows
              --window-csv <file>  write the per-window heatmap as CSV
              --dot <file>         write a Graphviz rendering
              --json               machine-readable report on stdout
              --seeds <n>          simulate n independent seeds (derived
                                   from --seed; 1 = --seed itself) and
                                   report the aggregate with spread [1]
              --jobs <n>           worker threads for the multi-seed sweep
                                   [min(seeds, hardware threads)]
              --flip <list>        incremental fast path: record the run as
                                   a baseline, then re-simulate it with the
                                   listed input bits changed (comma list of
                                   cycle:net or cycle:net=0|1; without =v
                                   the baseline value is inverted). Only
                                   dirty fanout cones re-evaluate; clean
                                   cycles replay from the baseline, with
                                   results bit-identical to a full rerun
              --baseline <file>    with --flip: persist the recorded
                                   baseline to <file> on first use and
                                   load it (skipping the re-recording
                                   pass) on later runs. The file is
                                   validated against the netlist (incl.
                                   a structural fingerprint), cycle
                                   count, delay model, simulator options
                                   and the regenerated seeded stimulus
            (every artefact is recorded by a probe on the same single
            simulation session — no re-simulation per output; with
            --seeds > 1, one session per seed fanned across --jobs
            workers and reduced deterministically)
  simulate  run the event-driven simulator and report settling behaviour
              --cycles/--seed/--vcd as above
  power     the power report only (one simulation pass)
              --cycles/--seed/--frequency-mhz/--tech as above
              --seeds/--jobs       multi-seed aggregate as in analyze
  sweep     compare delay models on identical stimuli: every
            (model, seed) pair is one parallel job
              --delays <list>      comma list of unit,zero,adder,library
                                   [unit,zero,adder]
              --seeds <n>          seeds per delay model [1]
              --jobs <n>           worker threads [min(jobs needed, cores)]
              --cycles/--seed/--frequency-mhz/--tech/--json as above
            or sweep input-flip sensitivity instead: one baseline, one
            incremental re-simulation per flipped input (nearby jobs
            share the recorded baseline and its fanout-cone index)
              --flip-inputs <list> comma list of input net names, or `all`
              --flip-cycle <k>     cycle to flip each input in [0]
              --delay/--cycles/--seed/--jobs/--json as above
              --engine <name>      as in analyze; a sweep compares delay
                                   models, so `kernel` degrades to `hybrid`
                                   (one prepass prunes every model's chunk)
  check     three-valued (0/1/X) verification: simulate the configured
            stimulus with assertion checkers attached and report a
            pass/fail verdict with located violations. The X-propagation
            checker is always on; add the rest as needed
              --x-init             flipflops without a netlist init value
                                   power on X and cells evaluate through
                                   three-valued tables (AND(0,X)=0, ...),
                                   so uninitialised-state reachability is
                                   simulated, not assumed
              --hazards            classify static-0/static-1/dynamic
                                   hazards per net per cycle
              --budget <list>      settle-time budgets, comma list of
                                   net=UNITS | outputs=UNITS | *=UNITS or
                                   *=cycle (the combinational depth)
              --budgets <file>     budgets from a file (one `net = units`
                                   line each, # comments); --budget
                                   entries override it
              --stable <list>      nets that must never switch: net or
                                   net@from..to (inclusive cycle range)
              --seeds/--jobs       multi-seed parallel checking; verdicts
                                   are bit-identical at any --jobs count
              --flip <list>        re-check with flipped input bits via
                                   the incremental fast path (verdicts
                                   bit-identical to a full re-run)
              --strict             exit with an error when the verdict
                                   is FAIL
              --engine <name>      as in analyze; hybrid verdicts are
                                   bit-identical to queue verdicts;
                                   kernel refuses --budget and --hazards
                                   (they would pass vacuously at zero
                                   delay)
              --cycles/--seed/--delay/--tech/--json as above
  retime    cutset pipelining of a combinational circuit, with a
            before/after activity and power comparison
              --ranks <n>          register ranks to insert [1]
              --no-input-rank      place all ranks inside the logic instead
                                   of spending the first on the inputs
              --cycles/--seed/--frequency-mhz/--tech as above
              --emit-blif <file>   write the retimed circuit as BLIF
  reduce    the paper's reduction loop: greedy accept/reject descent on
            glitch power. Hazard-hot nets rank the candidate moves
            (retiming cutsets, delay-buffer insertion, gate duplication),
            a cheap batch co-simulation screens each candidate, a full
            analysis pass confirms the survivors, and the best strictly
            improving move is accepted. The final netlist is verified
            cycle-accurately against the original before the headline
            `glitch power -N% at equal function` is claimed
              --moves <list>       comma list of buffer,duplicate,retime,
                                   or `all` [all]
              --target <pct>       stop once glitch power dropped by this
                                   percent of the baseline [descend until
                                   no move improves]
              --max-iters <n>      maximum accepted moves [8]
              --seeds/--jobs       score with n independent seeds fanned
                                   across worker threads; reports are
                                   bit-identical at any --jobs count
              --engine <name>      queue | hybrid [queue]: the scoring
                                   engine (hybrid reports are bit-identical
                                   to queue); kernel alone cannot score
                                   glitches. Candidates are always screened
                                   batch-wide through the compiled kernel
              --emit-blif <file>   write the reduced circuit as BLIF
              --progress           print one JSON progress line per
                                   descent iteration (accepted or final
                                   rejected round) before the report
              --cycles/--seed/--delay/--tech/--frequency-mhz/--json
                                   as above
  serve     run the batch-analysis daemon: a JSON-lines protocol on a
            loopback TCP socket, with parsed netlists, cone indexes and
            recorded baselines kept warm in a content-addressed cache.
            Jobs run through the same executor as the one-shot commands,
            so responses are byte-identical to the matching --json output.
            Request lines are capped at 64 KiB. Takes no netlist argument
              --port <p>           listen port on 127.0.0.1 [ephemeral;
                                   printed on the `listening` line]
              --jobs <n>           worker threads [hardware threads]
              --cache-bytes <b>    cache byte budget [268435456]
              --trace-out <FILE>   write a Chrome trace of every request
                                   span (one track per worker, request ids
                                   in the span args) at shutdown
              --access-log <FILE>  append one JSON line per request
                                   {id, op, fingerprint, cache, queue_us,
                                   wall_us, outcome}
              --access-log-max-bytes <b>
                                   rotate the access log to FILE.1 past
                                   this size [67108864]
  client    send request lines to a running daemon and print each
            response line (interim progress lines included); requests
            come from the positional arguments, or from stdin when none
            are given. Exits nonzero when any response is an error
              --port <p>           daemon port (required)
              --timeout-ms <ms>    per-response read timeout; 0 waits
                                   forever [30000]
  status    one-shot daemon health: request counts, error and shed
            tallies, queue depth, worker busyness, cache occupancy and
            per-op latency percentiles over 1m/5m/total windows
              --port <p>           daemon port (required)
              --json               print the raw status line instead of
                                   the rendered dashboard
  top       redraw the status dashboard at a fixed interval (Ctrl-C to
            stop)
              --port <p>           daemon port (required)
              --interval <ms>      refresh period [1000]
              --count <n>          stop after n frames [run until killed]
  help      print this text

telemetry options (analyze, power, sweep, check, reduce):
  --metrics[=FILE]     dump engine metrics (counters, gauges, histograms)
                       after the report — to FILE, or to stdout when bare.
                       Deterministic: byte-identical at any --jobs count
  --metrics-json       dump the metrics as stable sorted JSON instead of
                       text (alone implies --metrics; printed last on
                       stdout, so scripts can parse the final line)
  --trace-out <FILE>   write a Chrome trace-event JSON of the command's
                       timing spans (parse, cone-index, simulate, merge,
                       per-shard bars); open in Perfetto or
                       chrome://tracing. Wall-clock — not deterministic";

/// Errors surfaced to `main`.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; `main` appends the usage text.
    Usage(String),
    /// Anything that failed after argument parsing, already formatted.
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Run(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

fn run_err(message: impl Into<String>) -> CliError {
    CliError::Run(message.into())
}

impl From<ParamError> for CliError {
    fn from(error: ParamError) -> CliError {
        match error {
            ParamError::Usage(m) => CliError::Usage(m),
            ParamError::Run(m) => CliError::Run(m),
        }
    }
}

/// Entry point: resolves the subcommand and runs it.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for command-line problems and
/// [`CliError::Run`] for everything downstream.
pub fn dispatch(raw: &[String]) -> Result<(), CliError> {
    let Some(command) = raw.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    let rest = &raw[1..];
    match command.as_str() {
        "parse" => cmd_parse(rest),
        "stats" => cmd_stats(rest),
        "analyze" => cmd_analyze(rest),
        "simulate" => cmd_simulate(rest),
        "power" => cmd_power(rest),
        "sweep" => cmd_sweep(rest),
        "check" => cmd_check(rest),
        "retime" => cmd_retime(rest),
        "reduce" => cmd_reduce(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "status" => cmd_status(rest),
        "top" => cmd_top(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Loads and parses the netlist named by the first positional argument.
fn load(args: &Args) -> Result<(Netlist, String), CliError> {
    let path = args
        .positional()
        .first()
        .ok_or_else(|| CliError::Usage("missing netlist file".into()))?;
    if args.positional().len() > 1 {
        return Err(CliError::Usage(format!(
            "unexpected argument `{}`",
            args.positional()[1]
        )));
    }
    let format = Format::from_extension(path).ok_or_else(|| {
        run_err(format!(
            "{path}: unknown netlist format (expected .blif or .v)"
        ))
    })?;
    let text = fs::read_to_string(path).map_err(|e| run_err(format!("{path}: {e}")))?;
    let library = library_for(args)?;
    let netlist =
        parse_netlist(&text, format, &library).map_err(|e| run_err(format!("{path}: {e}")))?;
    Ok((netlist, path.clone()))
}

fn library_for(args: &Args) -> Result<GateLibrary, CliError> {
    Ok(params::library_for_tech(args.option("tech"))?)
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    fs::write(Path::new(path), contents).map_err(|e| run_err(format!("{path}: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// The shared [`params::analysis_config`] resolution for the commands
/// that run outside the executor (`retime`, `sweep --flip-inputs`).
fn analysis_config(args: &Args, library: &GateLibrary) -> Result<AnalysisConfig, CliError> {
    let request = job_request(args, "")?;
    Ok(params::analysis_config(
        library,
        request.cycles,
        request.seed,
        request.frequency_mhz,
        request.delay.as_deref(),
        request.engine.as_deref(),
    )?)
}

/// The shared executor's job request, from whichever of its flags this
/// command accepts (the rest stay `None`, i.e. at the shared defaults).
fn job_request(args: &Args, path: &str) -> Result<JobRequest, CliError> {
    let text = |name: &str| args.option(name).map(str::to_string);
    Ok(JobRequest {
        file: path.to_string(),
        cycles: parsed_presence(args, "cycles")?,
        seed: parsed_presence(args, "seed")?,
        seeds: parsed_presence(args, "seeds")?,
        jobs: parsed_presence(args, "jobs")?,
        delay: text("delay"),
        delays: text("delays"),
        engine: text("engine"),
        tech: text("tech"),
        frequency_mhz: parsed_presence(args, "frequency-mhz")?,
        flips: text("flip"),
        x_init: args.flag("x-init"),
        hazards: args.flag("hazards"),
        budget: text("budget"),
        stable: text("stable"),
        moves: text("moves"),
        target: parsed_presence(args, "target")?,
        max_iters: parsed_presence(args, "max-iters")?,
        progress: args.flag("progress"),
        fingerprint: None,
    })
}

/// The one-shot [`Resources`]: each built on demand for this one job.
/// With `--baseline FILE` the flip baseline is loaded from FILE when it
/// exists (skipping the recording pass) and recorded into it when not;
/// `note` says which happened.
struct Fresh<'a> {
    netlist: &'a Netlist,
    baseline_file: Option<&'a str>,
    note: RefCell<Option<String>>,
}

impl<'a> Fresh<'a> {
    fn new(netlist: &'a Netlist) -> Fresh<'a> {
        Fresh {
            netlist,
            baseline_file: None,
            note: RefCell::new(None),
        }
    }
}

impl Resources for Fresh<'_> {
    fn program(&self) -> Result<Arc<KernelProgram>, String> {
        KernelProgram::compile(self.netlist)
            .map(Arc::new)
            .map_err(|e| format!("kernel compile failed: {e}"))
    }

    fn cone_index(&self) -> Result<Arc<ConeIndex>, String> {
        ConeIndex::build(self.netlist)
            .map(Arc::new)
            .map_err(|e| e.to_string())
    }

    fn baseline(&self, analyzer: &GlitchAnalyzer) -> Result<Arc<BaselineEntry>, String> {
        let netlist = self.netlist;
        let (before, baseline) = match self.baseline_file {
            Some(file) if Path::new(file).exists() => {
                let baseline = SimBaseline::load(file).map_err(|e| format!("{file}: {e}"))?;
                if let Some(reason) =
                    params::baseline_mismatch(&baseline, netlist, analyzer.config())
                {
                    return Err(format!("{file}: {reason}"));
                }
                let before = replay_baseline(analyzer, netlist, &baseline)
                    .map_err(|e| format!("{file}: {e}"))?;
                *self.note.borrow_mut() = Some(format!(
                    "loaded baseline from {file} (re-recording skipped)"
                ));
                (before, baseline)
            }
            Some(file) => {
                let (before, baseline) = record_baseline(analyzer, netlist)?;
                baseline.save(file).map_err(|e| format!("{file}: {e}"))?;
                *self.note.borrow_mut() = Some(format!("wrote baseline to {file}"));
                (before, baseline)
            }
            None => record_baseline(analyzer, netlist)?,
        };
        Ok(Arc::new(BaselineEntry {
            baseline: Arc::new(baseline),
            before: Arc::new(before),
        }))
    }
}

fn analyze_netlist(netlist: &Netlist, config: &AnalysisConfig) -> Result<Analysis, CliError> {
    GlitchAnalyzer::new(config.clone())
        .analyze(netlist, &input_buses(netlist), &[])
        .map_err(|e| run_err(format!("simulation failed: {e}")))
}

/// Parses option `name` as `T` while preserving whether it was given at
/// all (the shared resolvers treat absence differently from any value).
fn parsed_presence<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, CliError> {
    match args.option(name) {
        None => Ok(None),
        Some(text) => text
            .parse()
            .map(Some)
            .map_err(|_| CliError::Usage(format!("option --{name}: cannot parse `{text}`"))),
    }
}

/// Resolves `--window` into an optional window size of at least one cycle.
fn window_option(args: &Args) -> Result<Option<u64>, CliError> {
    match args.option("window") {
        None => {
            if args.option("window-csv").is_some() {
                return Err(CliError::Usage("--window-csv requires --window <k>".into()));
            }
            Ok(None)
        }
        Some(text) => {
            let k: u64 = text
                .parse()
                .map_err(|_| CliError::Usage(format!("option --window: cannot parse `{text}`")))?;
            if k == 0 {
                return Err(CliError::Usage("--window must be at least 1 cycle".into()));
            }
            Ok(Some(k))
        }
    }
}

fn maybe_dot(netlist: &Netlist, args: &Args) -> Result<(), CliError> {
    if let Some(path) = args.option("dot") {
        write_file(path, &netlist.to_dot(&DotOptions::default()))?;
    }
    Ok(())
}

// ---------------------------------------------------------------- commands

const PARSE_SPEC: Spec = Spec {
    options: &["emit-blif", "dot", "tech"],
    flags: &[],
    optional: &[],
};

fn cmd_parse(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &PARSE_SPEC).map_err(CliError::Usage)?;
    let (netlist, path) = load(&args)?;
    println!(
        "{path}: `{}` ok — {} cells, {} nets, {} flipflops, {} inputs, {} outputs",
        netlist.name(),
        netlist.cell_count(),
        netlist.net_count(),
        netlist.dff_count(),
        netlist.inputs().len(),
        netlist.outputs().len()
    );
    if let Some(out) = args.option("emit-blif") {
        write_file(out, &emit_blif(&netlist))?;
    }
    maybe_dot(&netlist, &args)
}

const STATS_SPEC: Spec = Spec {
    options: &["tech"],
    flags: &["json"],
    optional: &[],
};

fn cmd_stats(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &STATS_SPEC).map_err(CliError::Usage)?;
    let (netlist, path) = load(&args)?;
    let stats = netlist.stats();
    if args.flag("json") {
        let mut cells = JsonObject::new();
        for (kind, count) in stats.cells_by_kind() {
            cells = cells.usize(kind, *count);
        }
        let json = JsonObject::new()
            .str("file", &path)
            .str("netlist", netlist.name())
            .usize("cells", stats.cell_count())
            .usize("nets", stats.net_count())
            .usize("flipflops", stats.dff_count())
            .usize("inputs", stats.input_count())
            .usize("outputs", stats.output_count())
            .usize("max_fanout", stats.max_fanout())
            .f64("gate_equivalents", stats.gate_equivalents())
            .opt_usize("combinational_depth", stats.combinational_depth())
            .raw("cells_by_kind", &cells.render())
            .render();
        println!("{json}");
    } else {
        print!("{stats}");
    }
    Ok(())
}

const ANALYZE_SPEC: Spec = Spec {
    options: &[
        "cycles",
        "seed",
        "seeds",
        "jobs",
        "delay",
        "engine",
        "frequency-mhz",
        "tech",
        "csv",
        "vcd",
        "wave-csv",
        "window",
        "window-csv",
        "dot",
        "flip",
        "baseline",
        "trace-out",
    ],
    flags: &["json", "metrics-json"],
    optional: &["metrics"],
};

fn cmd_analyze(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &ANALYZE_SPEC).map_err(CliError::Usage)?;
    let mut telemetry = Telemetry::from_args(&args);
    let (netlist, path) = {
        let _span = telemetry.span("parse");
        load(&args)?
    };
    telemetry.cone_index_phase(&netlist);
    // Resolve every CLI-side option before simulating, so a bad value
    // fails cleanly instead of after half a report.
    let request = job_request(&args, &path)?;
    let window = window_option(&args)?;
    let kind = if request.flips.is_some() {
        for flag in ["vcd", "wave-csv", "window", "window-csv"] {
            if args.option(flag).is_some() {
                return Err(CliError::Usage(format!(
                    "--{flag} does not compose with the --flip fast path yet; drop one"
                )));
            }
        }
        JobKind::Flip
    } else {
        if args.option("baseline").is_some() {
            return Err(CliError::Usage(
                "--baseline persists the --flip fast path's baseline; add --flip <list>".into(),
            ));
        }
        if request.seeds.is_some_and(|seeds| seeds > 1) {
            for flag in ["vcd", "wave-csv"] {
                if args.option(flag).is_some() {
                    return Err(CliError::Usage(format!(
                        "--{flag} applies to single-seed runs; drop --seeds or --{flag}"
                    )));
                }
            }
        }
        JobKind::Analyze
    };
    let json = args.flag("json");

    // One simulation pass per seed: the analyzer's activity and power
    // probes plus one extra probe per requested artefact.
    let want_vcd = args.option("vcd").is_some();
    let want_wave = args.option("wave-csv").is_some();
    let probes = move |_seed: usize| -> Vec<Box<dyn Probe>> {
        let mut probes: Vec<Box<dyn Probe>> = Vec::new();
        if want_vcd {
            probes.push(Box::new(VcdProbe::default()));
        }
        if want_wave {
            probes.push(Box::new(WaveCsvProbe::new()));
        }
        if let Some(k) = window {
            probes.push(Box::new(WindowedActivityProbe::new(k)));
        }
        probes
    };
    let (mut vcd_text, mut wave_csv) = (None, None);
    let mut take_artefacts = |report: &mut SessionReport| {
        vcd_text = report.take_probe::<VcdProbe>().map(VcdProbe::into_vcd);
        wave_csv = report
            .take_probe::<WaveCsvProbe>()
            .map(WaveCsvProbe::into_csv);
    };
    let resources = Fresh {
        baseline_file: args.option("baseline"),
        ..Fresh::new(&netlist)
    };
    let output = exec(
        kind,
        &request,
        &netlist,
        &resources,
        &mut telemetry.sink(),
        Hooks {
            probes: Some(&probes),
            finished: Some(&mut take_artefacts),
            ..Hooks::default()
        },
    )?;

    if json {
        println!("{}", output.json(&path, &netlist));
    } else {
        println!("== {path}: `{}` ==", netlist.name());
        print!("{}", netlist.stats());
        println!();
        if let Some(note) = resources.note.borrow().as_ref() {
            println!("{note}");
        }
        print_analyze_text(&output);
    }
    let (activity, windowed) = match &output {
        JobOutput::Analyze {
            analysis, windowed, ..
        } => (&analysis.activity, windowed.as_ref()),
        JobOutput::Aggregate {
            aggregate,
            windowed,
            ..
        } => (&aggregate.activity, windowed.as_ref()),
        JobOutput::Flip { after, .. } => (&after.analysis.activity, None),
        _ => unreachable!("analyze jobs produce analyze output"),
    };
    if let Some(csv_path) = args.option("csv") {
        write_file(csv_path, &activity.to_csv())?;
    }
    if let Some(vcd_path) = args.option("vcd") {
        write_file(vcd_path, &vcd_text.expect("VcdProbe attached above"))?;
    }
    if let Some(wave_path) = args.option("wave-csv") {
        write_file(wave_path, &wave_csv.expect("WaveCsvProbe attached above"))?;
    }
    write_window_csv(&args, windowed, json)?;
    maybe_dot(&netlist, &args)?;
    telemetry.finish()
}

/// The text report of an `analyze` job, after the netlist header (and the
/// `--baseline` note).
fn print_analyze_text(output: &JobOutput) {
    match output {
        JobOutput::Analyze {
            analysis,
            events,
            max_settle,
            ..
        } => {
            println!(
                "one simulation pass: {} cycles, {events} events, worst settle time {max_settle}",
                analysis.cycles
            );
            println!();
            print!("{}", analysis.activity);
            println!(
                "useless/useful ratio L/F = {:.3}; balancing all delay paths would cut \
                 combinational activity by a factor of {:.2}",
                analysis.activity.totals().useless_to_useful(),
                analysis.balance_reduction_factor()
            );
            println!();
            print!("{}", analysis.power);
        }
        JobOutput::Aggregate {
            seeds,
            jobs,
            cycles,
            aggregate,
            ..
        } => {
            let totals = aggregate.activity.totals();
            println!(
                "parallel sweep: {seeds} seeds x {cycles} cycles on {jobs} jobs \
                 ({} cycles total, {} events, worst settle time {})",
                aggregate.total_cycles(),
                aggregate.aggregate.total_events(),
                aggregate.aggregate.max_settle_time()
            );
            println!();
            println!("per-seed spread ({seeds} seeds):");
            println!("  glitches        {}", aggregate.glitch_spread());
            println!("  useless         {}", aggregate.useless_spread());
            println!("  L/F             {}", aggregate.lf_ratio_spread());
            let power_mw = aggregate.power_spread();
            println!(
                "  total power (mW) {:.3} ± {:.3} (min {:.3}, max {:.3})",
                power_mw.mean * 1e3,
                power_mw.stddev * 1e3,
                power_mw.min * 1e3,
                power_mw.max * 1e3
            );
            println!();
            println!("aggregate over the combined activity of all seeds:");
            print!("{}", aggregate.activity);
            println!(
                "useless/useful ratio L/F = {:.3}; balancing all delay paths would cut \
                 combinational activity by a factor of {:.2}",
                totals.useless_to_useful(),
                totals.balance_reduction_factor()
            );
            println!();
            print!("{}", aggregate.power);
        }
        JobOutput::Flip {
            applied,
            baseline,
            after,
        } => {
            let before = &baseline.before;
            let baseline = &baseline.baseline;
            println!(
                "baseline: {} cycles recorded ({} cell evaluations)",
                baseline.cycle_count(),
                baseline.total_cell_evals()
            );
            for (name, cycle, value) in applied {
                println!("flip: `{name}` -> {} in cycle {cycle}", u8::from(*value));
            }
            println!("{}", incremental_line(&after.incremental));
            println!();
            let mut table = TextTable::new(vec![
                "run",
                "useful",
                "useless",
                "glitches",
                "L/F",
                "total (mW)",
            ]);
            for (label, totals, power) in [
                ("baseline", before.activity.totals(), &before.power),
                (
                    "flipped",
                    after.analysis.activity.totals(),
                    &after.analysis.power,
                ),
            ] {
                table.add_row(vec![
                    label.to_string(),
                    totals.useful.to_string(),
                    totals.useless.to_string(),
                    totals.glitches().to_string(),
                    format!("{:.3}", totals.useless_to_useful()),
                    format!("{:.3}", power.breakdown.total() * 1e3),
                ]);
            }
            print!("{table}");
            println!(
                "(flipped-run figures are bit-identical to a full re-simulation \
                 of the changed stimulus)"
            );
        }
        _ => unreachable!("analyze jobs produce analyze output"),
    }
}

/// Writes `--window-csv` (or prints a one-line window summary in text
/// mode) from a finished windowed probe.
fn write_window_csv(
    args: &Args,
    windowed: Option<&WindowedActivityProbe>,
    json: bool,
) -> Result<(), CliError> {
    let Some(probe) = windowed else {
        return Ok(());
    };
    if !json {
        let worst = probe
            .windows()
            .iter()
            .enumerate()
            .max_by_key(|(_, w)| w.useless);
        if let Some((index, w)) = worst {
            println!(
                "windowed activity: {} windows of {} cycles; worst window #{index} \
                 (starting at cycle {}) with {} useless transitions",
                probe.windows().len(),
                probe.window(),
                w.start_cycle,
                w.useless
            );
        }
    }
    if let Some(path) = args.option("window-csv") {
        write_file(path, &probe.to_csv())?;
    }
    Ok(())
}

/// The "re-evaluated N% of cells" line every incremental fast path prints.
fn incremental_line(stats: &IncrementalStats) -> String {
    format!(
        "incremental re-simulation: re-evaluated {:.1}% of cells \
         ({} of {} cell evaluations); replayed {} of {} cycles",
        stats.evaluated_fraction() * 100.0,
        stats.cells_evaluated,
        stats.baseline_cell_evals,
        stats.replayed_cycles,
        stats.total_cycles()
    )
}

const SIMULATE_SPEC: Spec = Spec {
    options: &["cycles", "seed", "tech", "vcd"],
    flags: &[],
    optional: &[],
};

fn cmd_simulate(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &SIMULATE_SPEC).map_err(CliError::Usage)?;
    let (netlist, path) = load(&args)?;
    let cycles: u64 = args
        .parsed_option("cycles", 1000)
        .map_err(CliError::Usage)?;
    let seed: u64 = args
        .parsed_option("seed", AnalysisConfig::default().seed)
        .map_err(CliError::Usage)?;

    let mut session = SimSession::new(&netlist)
        .delay_model(UnitDelay)
        .stimulus(RandomStimulus::new(input_buses(&netlist), cycles, seed));
    if args.option("vcd").is_some() {
        session = session.probe(VcdProbe::default());
    }
    let mut report: SessionReport = session
        .run()
        .map_err(|e| run_err(format!("{path}: simulation failed: {e}")))?;

    println!(
        "simulated {cycles} cycles of `{}` (seed {seed}): {} transitions, \
         {} events, worst settle time {}",
        netlist.name(),
        report.total_transitions(),
        report.total_events(),
        report.max_settle_time()
    );
    println!("final primary outputs:");
    for &out in netlist.outputs() {
        let value = match report.net_bool(out) {
            Some(true) => "1",
            Some(false) => "0",
            None => "x",
        };
        println!("  {:<24} {value}", netlist.net(out).name());
    }
    if let Some(vcd_path) = args.option("vcd") {
        let vcd = report
            .take_probe::<VcdProbe>()
            .expect("recorder was attached above")
            .into_vcd();
        write_file(vcd_path, &vcd)?;
    }
    Ok(())
}

const POWER_SPEC: Spec = Spec {
    options: &[
        "cycles",
        "seed",
        "seeds",
        "jobs",
        "delay",
        "frequency-mhz",
        "tech",
        "trace-out",
    ],
    flags: &["metrics-json"],
    optional: &["metrics"],
};

fn cmd_power(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &POWER_SPEC).map_err(CliError::Usage)?;
    let mut telemetry = Telemetry::from_args(&args);
    let (netlist, path) = {
        let _span = telemetry.span("parse");
        load(&args)?
    };
    telemetry.cone_index_phase(&netlist);
    let request = job_request(&args, &path)?;
    let output = exec(
        JobKind::Analyze,
        &request,
        &netlist,
        &Fresh::new(&netlist),
        &mut telemetry.sink(),
        Hooks::default(),
    )?;
    match output {
        JobOutput::Aggregate {
            seeds,
            jobs,
            cycles,
            aggregate,
            ..
        } => {
            println!("aggregate of {seeds} seeds x {cycles} cycles on {jobs} jobs:");
            print!("{}", aggregate.power);
            let spread = aggregate.power_spread();
            println!(
                "  per-seed total power {:.3} ± {:.3} mW (min {:.3}, max {:.3})",
                spread.mean * 1e3,
                spread.stddev * 1e3,
                spread.min * 1e3,
                spread.max * 1e3
            );
        }
        JobOutput::Analyze { analysis, .. } => print!("{}", analysis.power),
        _ => unreachable!("analyze jobs produce analyze output"),
    }
    telemetry.finish()
}

const SWEEP_SPEC: Spec = Spec {
    options: &[
        "delays",
        "cycles",
        "seed",
        "seeds",
        "jobs",
        "delay",
        "engine",
        "frequency-mhz",
        "tech",
        "flip-inputs",
        "flip-cycle",
        "trace-out",
    ],
    flags: &["json", "metrics-json"],
    optional: &["metrics"],
};

fn cmd_sweep(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &SWEEP_SPEC).map_err(CliError::Usage)?;
    let mut telemetry = Telemetry::from_args(&args);
    let (netlist, path) = {
        let _span = telemetry.span("parse");
        load(&args)?
    };
    telemetry.cone_index_phase(&netlist);
    if let Some(list) = args.option("flip-inputs") {
        let config = analysis_config(&args, &library_for(&args)?)?;
        // The input-flip sweep replays recorded queue cycles.
        if config.engine != EngineKind::Queue {
            return Err(CliError::Usage(
                "--flip-inputs rides the incremental queue replay; drop --engine or \
                 --flip-inputs"
                    .into(),
            ));
        }
        return cmd_sweep_flips(&netlist, &path, &args, &config, list, &mut telemetry);
    }
    if args.option("flip-cycle").is_some() {
        return Err(CliError::Usage(
            "--flip-cycle requires --flip-inputs <list|all>".into(),
        ));
    }
    let request = job_request(&args, &path)?;
    let output = exec(
        JobKind::Sweep,
        &request,
        &netlist,
        &Fresh::new(&netlist),
        &mut telemetry.sink(),
        Hooks::default(),
    )?;
    if args.flag("json") {
        println!("{}", output.json(&path, &netlist));
        return telemetry.finish();
    }
    let JobOutput::Sweep {
        seeds,
        jobs,
        cycles,
        points,
    } = &output
    else {
        unreachable!("sweep jobs produce sweep output")
    };
    println!(
        "delay-model sweep of `{}`: {} models x {seeds} seeds x {cycles} cycles on {jobs} jobs",
        netlist.name(),
        points.len(),
    );
    let mut table = TextTable::new(vec![
        "delay",
        "glitches (mean +/- sd)",
        "L/F",
        "logic (mW)",
        "total (mW)",
        "power sd (mW)",
    ]);
    for point in points {
        let totals = point.analysis.activity.totals();
        let glitches = point.analysis.glitch_spread();
        let power = point.analysis.power_spread();
        table.add_row(vec![
            point.label.clone(),
            format!("{:.1} +/- {:.1}", glitches.mean, glitches.stddev),
            format!("{:.3}", totals.useless_to_useful()),
            format!("{:.3}", point.analysis.power.breakdown.logic * 1e3),
            format!("{:.3}", point.analysis.power.breakdown.total() * 1e3),
            format!("{:.3}", power.stddev * 1e3),
        ]);
    }
    print!("{table}");
    println!(
        "(glitch counts are per-seed complete glitches; every model saw the \
         same {seeds} stimulus seed(s), so differences are purely model-induced)"
    );
    telemetry.finish()
}

/// The `sweep --flip-inputs` fast path: input-flip sensitivity, one
/// incremental re-simulation per flipped input, all sharing one recorded
/// baseline and one fanout-cone index across `--jobs` workers.
fn cmd_sweep_flips(
    netlist: &Netlist,
    path: &str,
    args: &Args,
    config: &AnalysisConfig,
    list: &str,
    telemetry: &mut Telemetry,
) -> Result<(), CliError> {
    if args.option("seeds").is_some() || args.option("delays").is_some() {
        return Err(CliError::Usage(
            "--flip-inputs sweeps one stimulus; it does not combine with \
             --seeds or --delays"
                .into(),
        ));
    }
    let cycle: u64 = args
        .parsed_option("flip-cycle", 0)
        .map_err(CliError::Usage)?;
    if cycle >= config.cycles {
        return Err(CliError::Usage(format!(
            "--flip-cycle {cycle} is beyond the {}-cycle run",
            config.cycles
        )));
    }
    let inputs: Vec<glitch_core::netlist::NetId> = if list.trim() == "all" {
        netlist.inputs().to_vec()
    } else {
        list.split(',')
            .map(|name| {
                let name = name.trim();
                let net = netlist
                    .find_net(name)
                    .ok_or_else(|| run_err(format!("--flip-inputs: no net named `{name}`")))?;
                if !netlist.net(net).is_primary_input() {
                    return Err(CliError::Usage(format!(
                        "--flip-inputs: net `{name}` is not a primary input"
                    )));
                }
                Ok(net)
            })
            .collect::<Result<_, _>>()?
    };
    if inputs.is_empty() {
        return Err(CliError::Usage("--flip-inputs: no inputs to flip".into()));
    }
    if args.option("jobs").is_some() && inputs.len() == 1 {
        return Err(CliError::Usage(
            "--jobs has nothing to parallelise here; flip more than one input".into(),
        ));
    }
    let hardware = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let jobs: usize = args
        .parsed_option("jobs", inputs.len().min(hardware).max(1))
        .map_err(CliError::Usage)?;
    if jobs == 0 {
        return Err(CliError::Usage("--jobs must be at least 1".into()));
    }
    let json = args.flag("json");

    let explorer = PowerExplorer::new(GlitchAnalyzer::new(config.clone()));
    let (baseline, points) = {
        let _span = telemetry.span("simulate");
        explorer
            .explore_input_sensitivity(netlist, &input_buses(netlist), &[], cycle, &inputs, jobs)
            .map_err(|e| run_err(format!("simulation failed: {e}")))?
    };
    let mut sink = telemetry.sink();
    for point in &points {
        sink.incremental(&point.incremental);
    }
    let base_totals = baseline.activity.totals();
    // Per-flip means: every point re-runs the same baseline, so the
    // denominators must stay at one baseline's cost, not `points` times it.
    // The dirty-cone peak is a high-water mark, so it maxes instead.
    let flips = points.len() as u64;
    let mean_stats = IncrementalStats {
        replayed_cycles: points
            .iter()
            .map(|p| p.incremental.replayed_cycles)
            .sum::<u64>()
            / flips,
        simulated_cycles: points
            .iter()
            .map(|p| p.incremental.simulated_cycles)
            .sum::<u64>()
            / flips,
        cells_evaluated: points
            .iter()
            .map(|p| p.incremental.cells_evaluated)
            .sum::<u64>()
            / flips,
        baseline_cell_evals: points[0].incremental.baseline_cell_evals,
        peak_dirty_cone_nets: points
            .iter()
            .map(|p| p.incremental.peak_dirty_cone_nets)
            .max()
            .unwrap_or(0),
        dff_divergence_reseeds: points
            .iter()
            .map(|p| p.incremental.dff_divergence_reseeds)
            .sum::<u64>()
            / flips,
    };

    if json {
        let rows = json_array(points.iter().map(|p| {
            JsonObject::new()
                .str("input", &p.name)
                .u64("flipped_to", u64::from(p.flipped_to))
                .u64("useful", p.activity.useful)
                .u64("useless", p.activity.useless)
                .u64("glitches", p.activity.glitches())
                .f64("power_total_w", p.power.total())
                .raw(
                    "incremental",
                    &report::incremental_json(&p.incremental).render(),
                )
                .render()
        }));
        let out = JsonObject::new()
            .str("file", path)
            .str("netlist", netlist.name())
            .u64("flip_cycle", cycle)
            .usize("jobs", jobs)
            .u64("cycles", config.cycles)
            .raw(
                "baseline",
                &JsonObject::new()
                    .raw(
                        "activity",
                        &report::activity_totals_json(&base_totals).render(),
                    )
                    .raw(
                        "power",
                        &report::power_report_json(&baseline.power).render(),
                    )
                    .render(),
            )
            .raw(
                "incremental_per_flip_mean",
                &report::incremental_json(&mean_stats).render(),
            )
            .raw("points", &rows)
            .render();
        println!("{out}");
    } else {
        println!(
            "input-flip sensitivity sweep of `{}`: {} inputs flipped in cycle \
             {cycle} on {jobs} jobs, one shared baseline of {} cycles",
            netlist.name(),
            points.len(),
            config.cycles
        );
        println!("per-flip mean {}", incremental_line(&mean_stats));
        println!();
        let mut table = TextTable::new(vec![
            "input",
            "flip",
            "useless",
            "d useless",
            "total (mW)",
            "re-eval %",
        ]);
        for p in &points {
            let d_useless = p.activity.useless as i64 - base_totals.useless as i64;
            table.add_row(vec![
                p.name.clone(),
                format!("->{}", u8::from(p.flipped_to)),
                p.activity.useless.to_string(),
                format!("{d_useless:+}"),
                format!("{:.3}", p.power.total() * 1e3),
                format!("{:.1}", p.incremental.evaluated_fraction() * 100.0),
            ]);
        }
        print!("{table}");
        println!(
            "(each row is bit-identical to a full re-simulation with that \
             bit flipped; `d useless` is the glitch-transition change vs \
             the baseline's {})",
            base_totals.useless
        );
    }
    telemetry.finish()
}

const CHECK_SPEC: Spec = Spec {
    options: &[
        "cycles",
        "seed",
        "seeds",
        "jobs",
        "delay",
        "engine",
        "frequency-mhz",
        "tech",
        "budget",
        "budgets",
        "stable",
        "flip",
        "trace-out",
    ],
    flags: &["json", "x-init", "hazards", "strict", "metrics-json"],
    optional: &["metrics"],
};

/// One verdict line: `PASS` / `FAIL (n violations in m checkers)`.
fn verdict_line(report: &VerifyReport) -> String {
    match report.verdict() {
        Verdict::Pass => "PASS".to_string(),
        Verdict::Fail => format!(
            "FAIL ({} violations in {} checkers)",
            report.total_violations(),
            report.failed_checkers()
        ),
    }
}

/// Prints a report as the checker table plus located violations.
fn print_verify_text(report: &VerifyReport, netlist: &Netlist) {
    let mut table = TextTable::new(vec!["checker", "verdict", "violations", "summary"]);
    for outcome in report.outcomes() {
        table.add_row(vec![
            outcome.checker.clone(),
            outcome.verdict.as_str().to_string(),
            outcome.total_violations.to_string(),
            outcome.summary.clone(),
        ]);
    }
    print!("{table}");
    for outcome in report.outcomes() {
        if outcome.verdict.passed() || outcome.violations.is_empty() {
            continue;
        }
        let shown = outcome.violations.len().min(5);
        println!(
            "{} violations ({} of {} shown):",
            outcome.checker, shown, outcome.total_violations
        );
        for v in &outcome.violations[..shown] {
            // The Violation fields are overloaded per checker (see the
            // `glitch_verify::Violation` docs); label them accordingly.
            if outcome.checker == "x-propagation" {
                println!(
                    "  `{}`: first X at cycle end {}, unknown for {} cycle ends",
                    netlist.net(v.net).name(),
                    v.cycle,
                    v.time
                );
            } else {
                println!(
                    "  `{}`: cycle {}, t={}, budget {}",
                    netlist.net(v.net).name(),
                    v.cycle,
                    v.time,
                    v.budget
                );
            }
        }
    }
}

fn cmd_check(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &CHECK_SPEC).map_err(CliError::Usage)?;
    let mut telemetry = Telemetry::from_args(&args);
    let (netlist, path) = {
        let _span = telemetry.span("parse");
        load(&args)?
    };
    telemetry.cone_index_phase(&netlist);
    let request = job_request(&args, &path)?;
    let budgets = match args.option("budgets") {
        Some(file) => Some((
            file,
            fs::read_to_string(file).map_err(|e| run_err(format!("{file}: {e}")))?,
        )),
        None => None,
    };
    let output = exec(
        JobKind::Check,
        &request,
        &netlist,
        &Fresh::new(&netlist),
        &mut telemetry.sink(),
        Hooks {
            budgets_file: budgets.as_ref().map(|(file, text)| (*file, text.as_str())),
            ..Hooks::default()
        },
    )?;
    if args.flag("json") {
        println!("{}", output.json(&path, &netlist));
    } else {
        println!("== {path}: `{}` ==", netlist.name());
    }
    let x_init = if request.x_init { "on" } else { "off" };
    let report = match &output {
        JobOutput::Check {
            seeds,
            jobs,
            cycles,
            checkers,
            checked,
            ..
        } => {
            if !args.flag("json") {
                println!(
                    "verification: {seeds} seeds x {cycles} cycles on {jobs} jobs; x-init \
                     {x_init}; {checkers} checkers ({} cycles total, worst settle time {})",
                    checked.analysis.total_cycles(),
                    checked.analysis.aggregate.max_settle_time()
                );
                println!();
                print_verify_text(&checked.report, &netlist);
                println!("verdict: {}", verdict_line(&checked.report));
            }
            &checked.report
        }
        JobOutput::CheckFlip {
            cycles,
            checkers,
            applied,
            base_report,
            flipped,
            ..
        } => {
            if !args.flag("json") {
                println!(
                    "verification (incremental): {cycles} cycles; x-init {x_init}; \
                     {checkers} checkers"
                );
                for (name, cycle, value) in applied {
                    println!("flip: `{name}` -> {} in cycle {cycle}", u8::from(*value));
                }
                println!("{}", incremental_line(&flipped.incremental));
                println!();
                println!("baseline verdict: {}", verdict_line(base_report));
                println!("flipped verdict:  {}", verdict_line(&flipped.report));
                println!();
                print_verify_text(&flipped.report, &netlist);
                println!(
                    "(flipped verdicts are bit-identical to a full re-simulation of \
                     the changed stimulus)"
                );
            }
            &flipped.report
        }
        _ => unreachable!("check jobs produce check output"),
    };
    telemetry.finish()?;
    strict_exit(&args, report)
}

/// Applies `--strict`: a failing verdict becomes a command error.
fn strict_exit(args: &Args, report: &VerifyReport) -> Result<(), CliError> {
    if args.flag("strict") && !report.passed() {
        return Err(run_err(format!(
            "verification verdict: {}",
            verdict_line(report)
        )));
    }
    Ok(())
}

const RETIME_SPEC: Spec = Spec {
    options: &[
        "ranks",
        "cycles",
        "seed",
        "delay",
        "frequency-mhz",
        "tech",
        "emit-blif",
    ],
    flags: &["no-input-rank"],
    optional: &[],
};

fn cmd_retime(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &RETIME_SPEC).map_err(CliError::Usage)?;
    let (netlist, path) = load(&args)?;
    let library = library_for(&args)?;
    let ranks: usize = args.parsed_option("ranks", 1).map_err(CliError::Usage)?;
    let options = PipelineOptions {
        register_inputs: !args.flag("no-input-rank"),
    };
    let config = analysis_config(&args, &library)?;

    let piped = pipeline_netlist(&netlist, ranks, options)
        .map_err(|e| run_err(format!("{path}: cannot retime: {e}")))?;

    let before = analyze_netlist(&netlist, &config)?;
    let after = analyze_netlist(&piped.netlist, &config)?;

    let mut table = TextTable::new(vec![
        "circuit",
        "flipflops",
        "useful",
        "useless",
        "L/F",
        "logic (mW)",
        "ff (mW)",
        "clock (mW)",
        "total (mW)",
    ]);
    for (label, netlist, analysis) in [
        ("original", &netlist, &before),
        ("retimed", &piped.netlist, &after),
    ] {
        let totals = analysis.activity.totals();
        let power = &analysis.power.breakdown;
        table.add_row(vec![
            label.to_string(),
            netlist.dff_count().to_string(),
            totals.useful.to_string(),
            totals.useless.to_string(),
            format!("{:.3}", totals.useless_to_useful()),
            format!("{:.3}", power.logic * 1e3),
            format!("{:.3}", power.flipflop * 1e3),
            format!("{:.3}", power.clock * 1e3),
            format!("{:.3}", power.total() * 1e3),
        ]);
    }
    println!(
        "inserted {ranks} register rank(s) into `{}` (latency +{} cycles):",
        netlist.name(),
        piped.latency
    );
    print!("{table}");

    if let Some(out) = args.option("emit-blif") {
        write_file(out, &emit_blif(&piped.netlist))?;
    }
    Ok(())
}

const REDUCE_SPEC: Spec = Spec {
    options: &[
        "moves",
        "target",
        "max-iters",
        "cycles",
        "seed",
        "seeds",
        "jobs",
        "delay",
        "engine",
        "frequency-mhz",
        "tech",
        "emit-blif",
        "trace-out",
    ],
    flags: &["json", "metrics-json", "progress"],
    optional: &["metrics"],
};

fn cmd_reduce(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &REDUCE_SPEC).map_err(CliError::Usage)?;
    let mut telemetry = Telemetry::from_args(&args);
    let (netlist, path) = {
        let _span = telemetry.span("parse");
        load(&args)?
    };
    telemetry.cone_index_phase(&netlist);
    let request = job_request(&args, &path)?;
    // The same rows the daemon streams for `"progress": true`, minus the
    // request id — printed as they happen, before the report.
    let print = |line: String| {
        println!("{line}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
    };
    let output = exec(
        JobKind::Reduce,
        &request,
        &netlist,
        &Fresh::new(&netlist),
        &mut telemetry.sink(),
        Hooks {
            progress: request.progress.then_some(ProgressLines {
                file: &path,
                id: None,
                emit: &print,
            }),
            ..Hooks::default()
        },
    )?;
    let JobOutput::Reduce { report, .. } = &output else {
        unreachable!("reduce jobs produce reduce output")
    };

    if args.flag("json") {
        println!("{}", output.json(&path, &netlist));
    } else {
        println!(
            "== {path}: `{}` — {} iteration(s), {} proposed / {} screened / {} confirmed ==",
            report.circuit, report.iterations, report.proposed, report.screened, report.confirmed
        );
        if report.moves.is_empty() {
            println!("no improving move found; the netlist is unchanged");
        } else {
            let mut table = TextTable::new(vec!["iter", "move", "glitch power (mW)", "latency"]);
            for m in &report.moves {
                table.add_row(vec![
                    m.iteration.to_string(),
                    m.description.clone(),
                    format!(
                        "{:.6} -> {:.6}",
                        m.glitch_power_before * 1e3,
                        m.glitch_power_after * 1e3
                    ),
                    format!("+{}", m.latency_added),
                ]);
            }
            print!("{table}");
        }
        println!(
            "glitch power {:.6} mW -> {:.6} mW; total {:.6} mW -> {:.6} mW; latency +{} cycle(s)",
            report.initial_glitch_power * 1e3,
            report.final_glitch_power * 1e3,
            report.initial_total_power * 1e3,
            report.final_total_power * 1e3,
            report.latency
        );
        println!(
            "equivalence: {} ({} checks, {} output values compared)",
            if report.equivalence.passed() {
                "PASS"
            } else {
                "FAIL"
            },
            report.equivalence.checks.len(),
            report.equivalence.compared()
        );
        println!("{}", report.headline());
    }

    if let Some(out) = args.option("emit-blif") {
        write_file(out, &emit_blif(&report.netlist))?;
    }
    telemetry.finish()
}

const SERVE_SPEC: Spec = Spec {
    options: &[
        "port",
        "jobs",
        "cache-bytes",
        "trace-out",
        "access-log",
        "access-log-max-bytes",
    ],
    flags: &[],
    optional: &[],
};

fn cmd_serve(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &SERVE_SPEC).map_err(CliError::Usage)?;
    if let Some(extra) = args.positional().first() {
        return Err(CliError::Usage(format!(
            "serve takes no netlist argument (circuits arrive per request), got `{extra}`"
        )));
    }
    let port: u16 = args.parsed_option("port", 0).map_err(CliError::Usage)?;
    let hardware = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let jobs: usize = args
        .parsed_option("jobs", hardware)
        .map_err(CliError::Usage)?;
    if jobs == 0 {
        return Err(CliError::Usage("--jobs must be at least 1".into()));
    }
    let cache_bytes: usize = args
        .parsed_option("cache-bytes", 256 * 1024 * 1024)
        .map_err(CliError::Usage)?;
    let mut config = glitch_serve::ServeConfig::new(port, jobs, cache_bytes);
    config.trace_out = args.option("trace-out").map(str::to_string);
    config.access_log = args.option("access-log").map(str::to_string);
    config.access_log_max_bytes = args
        .parsed_option("access-log-max-bytes", config.access_log_max_bytes)
        .map_err(CliError::Usage)?;
    glitch_serve::run_server(&config).map_err(run_err)
}

const CLIENT_SPEC: Spec = Spec {
    options: &["port", "timeout-ms"],
    flags: &[],
    optional: &[],
};

/// Resolves the required `--port` for the daemon-facing subcommands.
fn required_port(args: &Args, command: &str) -> Result<u16, CliError> {
    match args.option("port") {
        Some(text) => text
            .parse()
            .map_err(|_| CliError::Usage(format!("option --port: cannot parse `{text}`"))),
        None => Err(CliError::Usage(format!("{command} requires --port <p>"))),
    }
}

fn cmd_client(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &CLIENT_SPEC).map_err(CliError::Usage)?;
    let port = required_port(&args, "client")?;
    let timeout_ms: u64 = args
        .parsed_option("timeout-ms", 30_000)
        .map_err(CliError::Usage)?;
    let timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
    let mut client = glitch_serve::Client::connect_with_timeout(port, timeout).map_err(run_err)?;
    let mut errors = 0usize;
    let mut relay = |client: &mut glitch_serve::Client, line: &str| -> Result<(), CliError> {
        let response = client
            .request_streaming(line, |interim| println!("{interim}"))
            .map_err(run_err)?;
        if response.starts_with("{\"error\"") {
            errors += 1;
        }
        println!("{response}");
        Ok(())
    };
    if args.positional().is_empty() {
        // No request arguments: relay stdin line by line.
        let stdin = std::io::stdin();
        for line in std::io::BufRead::lines(stdin.lock()) {
            let line = line.map_err(|e| run_err(format!("cannot read stdin: {e}")))?;
            if line.trim().is_empty() {
                continue;
            }
            relay(&mut client, &line)?;
        }
    } else {
        for line in args.positional() {
            relay(&mut client, line)?;
        }
    }
    if errors > 0 {
        return Err(run_err(format!(
            "daemon answered {errors} request(s) with an error"
        )));
    }
    Ok(())
}

const STATUS_SPEC: Spec = Spec {
    options: &["port"],
    flags: &["json"],
    optional: &[],
};

fn cmd_status(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &STATUS_SPEC).map_err(CliError::Usage)?;
    let port = required_port(&args, "status")?;
    let line = fetch_status(port)?;
    if args.flag("json") {
        println!("{line}");
    } else {
        print!("{}", render_status_dashboard(&line, port)?);
    }
    Ok(())
}

const TOP_SPEC: Spec = Spec {
    options: &["port", "interval", "count"],
    flags: &[],
    optional: &[],
};

fn cmd_top(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw, &TOP_SPEC).map_err(CliError::Usage)?;
    let port = required_port(&args, "top")?;
    let interval_ms: u64 = args
        .parsed_option("interval", 1_000)
        .map_err(CliError::Usage)?;
    let count: usize = args.parsed_option("count", 0).map_err(CliError::Usage)?;
    let mut frames = 0usize;
    loop {
        let dashboard = render_status_dashboard(&fetch_status(port)?, port)?;
        // Plain ANSI home+clear redraw: no terminal library, and a dumb
        // pipe just sees frames separated by the escape sequence.
        print!("\x1b[H\x1b[2J{dashboard}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        frames += 1;
        if count > 0 && frames >= count {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
    }
}

fn fetch_status(port: u16) -> Result<String, CliError> {
    let timeout = Some(std::time::Duration::from_millis(5_000));
    let mut client = glitch_serve::Client::connect_with_timeout(port, timeout).map_err(run_err)?;
    let line = client.request("{\"op\":\"status\"}").map_err(run_err)?;
    if line.starts_with("{\"error\"") {
        return Err(run_err(format!(
            "daemon rejected the status request: {line}"
        )));
    }
    Ok(line)
}

/// Renders one `status` response as the plain-text dashboard `status` and
/// `top` share.
fn render_status_dashboard(line: &str, port: u16) -> Result<String, CliError> {
    use glitch_serve::jsonin::{parse_json, JsonValue};
    use std::fmt::Write as _;

    fn object(value: &JsonValue) -> &std::collections::BTreeMap<String, JsonValue> {
        static EMPTY: std::sync::OnceLock<std::collections::BTreeMap<String, JsonValue>> =
            std::sync::OnceLock::new();
        match value {
            JsonValue::Object(map) => map,
            _ => EMPTY.get_or_init(std::collections::BTreeMap::new),
        }
    }
    fn field<'a>(
        map: &'a std::collections::BTreeMap<String, JsonValue>,
        key: &str,
    ) -> &'a JsonValue {
        map.get(key).unwrap_or(&JsonValue::Null)
    }
    fn sum(map: &std::collections::BTreeMap<String, JsonValue>) -> u64 {
        map.values().filter_map(JsonValue::as_u64).sum()
    }

    let status = parse_json(line)
        .map_err(|e| run_err(format!("cannot parse status response: {e}: {line}")))?;
    let status = object(&status);
    let counts = object(field(status, "counts"));
    let requests = object(field(counts, "requests"));
    let errors = object(field(counts, "errors"));
    let shed = object(field(counts, "shed"));
    let cache = object(field(status, "cache"));
    let latency = object(field(status, "latency"));
    let uptime_s = field(status, "uptime_us").as_u64().unwrap_or(0) as f64 / 1e6;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "glitch-serve 127.0.0.1:{port} — up {uptime_s:.1}s — {} request(s), {} error(s), {} shed",
        sum(requests),
        sum(errors),
        sum(shed)
    );
    let _ = writeln!(
        out,
        "workers {}/{} busy, queue depth {}; cache {} circuit(s), {} baseline(s), {} byte(s)",
        field(status, "busy_workers").as_u64().unwrap_or(0),
        field(status, "workers").as_u64().unwrap_or(0),
        field(status, "queue_depth").as_u64().unwrap_or(0),
        field(cache, "circuits").as_u64().unwrap_or(0),
        field(cache, "baselines").as_u64().unwrap_or(0),
        field(cache, "bytes").as_u64().unwrap_or(0),
    );
    let mut table = TextTable::new(vec![
        "op",
        "reqs",
        "errs",
        "shed",
        "q p50/1m",
        "q p99/1m",
        "h p50/1m",
        "h p99/1m",
        "h p99/tot",
    ]);
    let mut ops: Vec<&String> = requests.keys().chain(shed.keys()).collect();
    ops.sort();
    ops.dedup();
    for op in ops {
        let lat = object(field(latency, op));
        let queue_wait = object(field(lat, "queue_wait_us"));
        let handle = object(field(lat, "handle_us"));
        let pick = |windowed: &std::collections::BTreeMap<String, JsonValue>,
                    window: &str,
                    quantile: &str| {
            field(object(field(windowed, window)), quantile)
                .as_u64()
                .map_or_else(|| "-".to_string(), |v| format!("{v}us"))
        };
        table.add_row(vec![
            op.clone(),
            field(requests, op).as_u64().unwrap_or(0).to_string(),
            field(errors, op).as_u64().unwrap_or(0).to_string(),
            field(shed, op).as_u64().unwrap_or(0).to_string(),
            pick(queue_wait, "1m", "p50"),
            pick(queue_wait, "1m", "p99"),
            pick(handle, "1m", "p50"),
            pick(handle, "1m", "p99"),
            pick(handle, "total", "p99"),
        ]);
    }
    let _ = write!(out, "{table}");
    Ok(out)
}
