//! The subcommands: parse, stats, analyze, simulate, power, sweep, check,
//! retime, reduce.

use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use glitch_core::activity::ActivityReport;
use glitch_core::netlist::{DotOptions, Netlist};
use glitch_core::retime::{pipeline_netlist, PipelineOptions};
use glitch_core::sim::{
    Probe, RandomStimulus, SessionReport, SimSession, UnitDelay, VcdProbe, WaveCsvProbe,
    WindowedActivityProbe,
};
use glitch_core::verify::{Verdict, VerifyReport};
use glitch_core::{
    AggregateAnalysis, Analysis, AnalysisConfig, GlitchAnalyzer, KernelProgram, TextTable,
};
use glitch_io::{emit_blif, parse_netlist, Format, GateLibrary};
use glitch_serve::exec::{exec, Hooks, JobOutput, ProgressLines, Resources};
use glitch_serve::json::JsonObject;
use glitch_serve::params::{self, input_buses, AppliedFlip, ParamError};
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
              --engine <name>      queue | kernel | hybrid [hybrid, also in
                                   the serve daemon].
                                   `hybrid` settles each job whose probes
                                   it can fill in bulk (analyze/power at
                                   any --seeds without --window or
                                   per-transition artefacts, every
                                   sweep and input flip, reduce
                                   scoring, and check without
                                   --budget/--stable) on
                                   the timed bit-parallel kernel when every
                                   non-constant delay is >= 1 (or all are
                                   0) and the settle budget covers the
                                   static horizon, and every other job
                                   event by event (reports bit-identical
                                   to queue);
                                   `queue` is the event-driven reference:
                                   every job settles event by event;
                                   `kernel` runs the compiled kernel alone
                                   (functional zero-delay semantics, no
                                   glitch modelling, no event queue; it
                                   refuses --flip and a --delay other
                                   than zero)
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
              --flip <list>        input flips: report the configured run
                                   (the baseline) and one more full run
                                   of the same stimulus with the listed
                                   input bits changed (comma list of
                                   cycle:net or cycle:net=0|1; without =v
                                   the baseline value is inverted)
            (every artefact is recorded by a probe on the same single
            simulation pass — no re-simulation per output; each seed is
            one job of the same engine dispatch, fanned across --jobs
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
            or sweep input-flip sensitivity instead: the configured run
            (the baseline), then one full run per flipped input
              --flip-inputs <list> comma list of input net names, or `all`
              --flip-cycle <k>     cycle to flip each input in [0]
              --delay/--cycles/--seed/--jobs/--json as above
              --engine <name>      as in analyze; a sweep compares delay
                                   models, so `kernel` degrades to
                                   `hybrid`; --flip-inputs refuses
                                   `kernel` (zero delay has no glitches)
            the daemon's `sweep` op takes the same fields (`delays`,
            `flip_inputs`, `flip_cycle`, ...) and answers with the same
            --json line
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
              --flip <list>        check the configured run and one more
                                   run with flipped input bits, and
                                   report both verdicts; single-seed, as
                                   analyze --flip
              --strict             exit with an error when the verdict
                                   is FAIL
              --engine <name>      as in analyze: hybrid settles the
                                   X-propagation and hazard checkers on
                                   the timed kernel, budgets and
                                   stability assertions event by event;
                                   kernel refuses --budget, --hazards
                                   (they would pass vacuously at zero
                                   delay) and --flip
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
            a full analysis pass scores each candidate, its outputs are
            compared with the current circuit's in that same pass, and
            the best strictly improving match is accepted. The final
            netlist is verified cycle-accurately against the original
            before the headline `glitch power -N% at equal function` is
            claimed
              --moves <list>       comma list of buffer,duplicate,retime,
                                   or `all` [all]
              --target <pct>       stop once glitch power dropped by this
                                   percent of the baseline [descend until
                                   no move improves]
              --max-iters <n>      maximum accepted moves [8]
              --seeds/--jobs       score with n independent seeds fanned
                                   across worker threads; reports are
                                   bit-identical at any --jobs count
              --engine <name>      queue | hybrid [hybrid]: the scoring
                                   engine, as in analyze (hybrid scores
                                   hazards on the timed kernel); kernel
                                   alone cannot score glitches.
                                   Candidates are screened from their
                                   own scores, on the same engine
              --emit-blif <file>   write the reduced circuit as BLIF
              --progress           print one JSON progress line per
                                   descent iteration (accepted or final
                                   rejected round) before the report
              --cycles/--seed/--delay/--tech/--frequency-mhz/--json
                                   as above
  serve     run the batch-analysis daemon: a JSON-lines protocol on a
            loopback TCP socket, with parsed netlists and compiled
            kernel programs kept warm in a content-addressed cache.
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
                       timing spans (parse, simulate, merge, per-shard
                       bars); open in Perfetto or
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
            outln!("{USAGE}");
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
    outln!("wrote {path}");
    Ok(())
}

/// The shared [`params::analysis_config`] resolution for `retime`, the
/// one analysis command that runs outside the executor.
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
        flip_inputs: text("flip-inputs"),
        flip_cycle: parsed_presence(args, "flip-cycle")?,
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
struct Fresh<'a>(&'a Netlist);

impl Resources for Fresh<'_> {
    fn program(&self) -> Result<Arc<KernelProgram>, String> {
        KernelProgram::compile(self.0)
            .map(Arc::new)
            .map_err(|e| format!("kernel compile failed: {e}"))
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
    outln!(
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
        outln!("{json}");
    } else {
        out!("{stats}");
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
    telemetry.netlist_gauges(&netlist);
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
    let output = exec(
        kind,
        &request,
        &netlist,
        &Fresh(&netlist),
        &mut telemetry.sink(),
        Hooks {
            probes: Some(&probes),
            finished: Some(&mut take_artefacts),
            ..Hooks::default()
        },
    )?;

    if json {
        outln!("{}", output.json(&path, &netlist));
    } else {
        outln!("== {path}: `{}` ==", netlist.name());
        out!("{}", netlist.stats());
        outln!();
        print_analyze_text(&netlist, &output);
    }
    let (analysis, windowed) = match &output {
        JobOutput::Analyze {
            aggregate,
            windowed,
            ..
        } => (aggregate, windowed.as_ref()),
        JobOutput::Flip { after, .. } => (&**after, None),
        _ => unreachable!("analyze jobs produce analyze output"),
    };
    if let Some(csv_path) = args.option("csv") {
        write_file(
            csv_path,
            &ActivityReport::new(&netlist, analysis.trace()).to_csv(),
        )?;
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

/// The text report of an `analyze` job, after the netlist header.
fn print_analyze_text(netlist: &Netlist, output: &JobOutput) {
    match output {
        JobOutput::Analyze {
            seeds,
            jobs,
            cycles,
            aggregate,
            ..
        } => {
            let totals = aggregate.activity();
            let total_cycles = aggregate.total_cycles();
            let events = aggregate.aggregate.total_events();
            let max_settle = aggregate.aggregate.max_settle_time();
            if *seeds == 1 {
                outln!(
                    "one simulation pass: {total_cycles} cycles, {events} events, \
                     worst settle time {max_settle}"
                );
                outln!();
            } else {
                outln!(
                    "parallel sweep: {seeds} seeds x {cycles} cycles on {jobs} jobs \
                     ({total_cycles} cycles total, {events} events, worst settle time {max_settle})"
                );
                outln!();
                outln!("per-seed spread ({seeds} seeds):");
                outln!("  glitches        {}", aggregate.glitch_spread());
                outln!("  useless         {}", aggregate.useless_spread());
                outln!("  L/F             {}", aggregate.lf_ratio_spread());
                let power_mw = aggregate.power_spread();
                outln!(
                    "  total power (mW) {:.3} ± {:.3} (min {:.3}, max {:.3})",
                    power_mw.mean * 1e3,
                    power_mw.stddev * 1e3,
                    power_mw.min * 1e3,
                    power_mw.max * 1e3
                );
                outln!();
                outln!("aggregate over the combined activity of all seeds:");
            }
            out!("{}", ActivityReport::new(netlist, aggregate.trace()));
            outln!(
                "useless/useful ratio L/F = {:.3}; balancing all delay paths would cut \
                 combinational activity by a factor of {:.2}",
                totals.useless_to_useful(),
                totals.balance_reduction_factor()
            );
            outln!();
            out!("{}", aggregate.power());
        }
        JobOutput::Flip {
            applied,
            before,
            after,
        } => {
            for (name, cycle, value) in applied {
                outln!("flip: `{name}` -> {} in cycle {cycle}", u8::from(*value));
            }
            outln!();
            let mut table = TextTable::new(vec![
                "run",
                "useful",
                "useless",
                "glitches",
                "L/F",
                "total (mW)",
            ]);
            for (label, totals, power) in [
                ("baseline", before.activity(), before.power()),
                ("flipped", after.activity(), after.power()),
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
            out!("{table}");
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
            outln!(
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

    outln!(
        "simulated {cycles} cycles of `{}` (seed {seed}): {} transitions, \
         {} events, worst settle time {}",
        netlist.name(),
        report.total_transitions(),
        report.total_events(),
        report.max_settle_time()
    );
    outln!("final primary outputs:");
    for &out in netlist.outputs() {
        let value = match report.net_bool(out) {
            Some(true) => "1",
            Some(false) => "0",
            None => "x",
        };
        outln!("  {:<24} {value}", netlist.net(out).name());
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
    telemetry.netlist_gauges(&netlist);
    let request = job_request(&args, &path)?;
    let output = exec(
        JobKind::Analyze,
        &request,
        &netlist,
        &Fresh(&netlist),
        &mut telemetry.sink(),
        Hooks::default(),
    )?;
    let JobOutput::Analyze {
        seeds,
        jobs,
        cycles,
        aggregate,
        ..
    } = output
    else {
        unreachable!("analyze jobs produce analyze output")
    };
    if seeds == 1 {
        out!("{}", aggregate.power());
    } else {
        outln!("aggregate of {seeds} seeds x {cycles} cycles on {jobs} jobs:");
        out!("{}", aggregate.power());
        let spread = aggregate.power_spread();
        outln!(
            "  per-seed total power {:.3} ± {:.3} mW (min {:.3}, max {:.3})",
            spread.mean * 1e3,
            spread.stddev * 1e3,
            spread.min * 1e3,
            spread.max * 1e3
        );
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
    telemetry.netlist_gauges(&netlist);
    let request = job_request(&args, &path)?;
    let output = exec(
        JobKind::Sweep,
        &request,
        &netlist,
        &Fresh(&netlist),
        &mut telemetry.sink(),
        Hooks::default(),
    )?;
    if args.flag("json") {
        outln!("{}", output.json(&path, &netlist));
        return telemetry.finish();
    }
    if let JobOutput::SweepFlips {
        cycle,
        jobs,
        applied,
        before,
        points,
    } = &output
    {
        print_flip_sweep(&netlist, *cycle, *jobs, applied, before, points);
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
    outln!(
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
        let totals = point.analysis.activity();
        let glitches = point.analysis.glitch_spread();
        let power = point.analysis.power_spread();
        table.add_row(vec![
            point.label.clone(),
            format!("{:.1} +/- {:.1}", glitches.mean, glitches.stddev),
            format!("{:.3}", totals.useless_to_useful()),
            format!("{:.3}", point.analysis.power().breakdown.logic * 1e3),
            format!("{:.3}", point.analysis.power().breakdown.total() * 1e3),
            format!("{:.3}", power.stddev * 1e3),
        ]);
    }
    out!("{table}");
    outln!(
        "(glitch counts are per-seed complete glitches; every model saw the \
         same {seeds} stimulus seed(s), so differences are purely model-induced)"
    );
    telemetry.finish()
}

/// The text form of `sweep --flip-inputs`: one row per flipped input
/// against the configured run.
fn print_flip_sweep(
    netlist: &Netlist,
    cycle: u64,
    jobs: usize,
    applied: &[AppliedFlip],
    before: &AggregateAnalysis,
    points: &[AggregateAnalysis],
) {
    let base_useless = before.activity().useless;
    outln!(
        "input-flip sensitivity sweep of `{}`: {} inputs flipped in cycle \
         {cycle} on {jobs} jobs, against a baseline of {} cycles",
        netlist.name(),
        points.len(),
        before.total_cycles()
    );
    outln!();
    let mut table = TextTable::new(vec!["input", "flip", "useless", "d useless", "total (mW)"]);
    for ((name, _, value), point) in applied.iter().zip(points) {
        let useless = point.activity().useless;
        table.add_row(vec![
            name.clone(),
            format!("->{}", u8::from(*value)),
            useless.to_string(),
            format!("{:+}", useless as i64 - base_useless as i64),
            format!("{:.3}", point.power().breakdown.total() * 1e3),
        ]);
    }
    out!("{table}");
    outln!(
        "(each row is a full run with that bit flipped; `d useless` is the \
         glitch-transition change vs the baseline's {base_useless})"
    );
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
    out!("{table}");
    for outcome in report.outcomes() {
        if outcome.verdict.passed() || outcome.violations.is_empty() {
            continue;
        }
        let shown = outcome.violations.len().min(5);
        outln!(
            "{} violations ({} of {} shown):",
            outcome.checker,
            shown,
            outcome.total_violations
        );
        for v in &outcome.violations[..shown] {
            // The Violation fields are overloaded per checker (see the
            // `glitch_verify::Violation` docs); label them accordingly.
            if outcome.checker == "x-propagation" {
                outln!(
                    "  `{}`: first X at cycle end {}, unknown for {} cycle ends",
                    netlist.net(v.net).name(),
                    v.cycle,
                    v.time
                );
            } else {
                outln!(
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
    telemetry.netlist_gauges(&netlist);
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
        &Fresh(&netlist),
        &mut telemetry.sink(),
        Hooks {
            budgets_file: budgets.as_ref().map(|(file, text)| (*file, text.as_str())),
            ..Hooks::default()
        },
    )?;
    if args.flag("json") {
        outln!("{}", output.json(&path, &netlist));
    } else {
        outln!("== {path}: `{}` ==", netlist.name());
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
                outln!(
                    "verification: {seeds} seeds x {cycles} cycles on {jobs} jobs; x-init \
                     {x_init}; {checkers} checkers ({} cycles total, worst settle time {})",
                    checked.analysis.total_cycles(),
                    checked.analysis.aggregate.max_settle_time()
                );
                outln!();
                print_verify_text(&checked.report, &netlist);
                outln!("verdict: {}", verdict_line(&checked.report));
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
                outln!(
                    "verification (input flip): {cycles} cycles; x-init {x_init}; \
                     {checkers} checkers"
                );
                for (name, cycle, value) in applied {
                    outln!("flip: `{name}` -> {} in cycle {cycle}", u8::from(*value));
                }
                outln!();
                outln!("baseline verdict: {}", verdict_line(base_report));
                outln!("flipped verdict:  {}", verdict_line(&flipped.report));
                outln!();
                print_verify_text(&flipped.report, &netlist);
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
        let totals = analysis.activity;
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
    outln!(
        "inserted {ranks} register rank(s) into `{}` (latency +{} cycles):",
        netlist.name(),
        piped.latency
    );
    out!("{table}");

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
    telemetry.netlist_gauges(&netlist);
    let request = job_request(&args, &path)?;
    // The same rows the daemon streams for `"progress": true`, minus the
    // request id — printed as they happen, before the report.
    let print = |line: String| {
        outln!("{line}");
        crate::out::flush();
    };
    let output = exec(
        JobKind::Reduce,
        &request,
        &netlist,
        &Fresh(&netlist),
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
        outln!("{}", output.json(&path, &netlist));
    } else {
        outln!(
            "== {path}: `{}` — {} iteration(s), {} proposed / {} screened / {} confirmed ==",
            report.circuit,
            report.iterations,
            report.proposed,
            report.screened,
            report.confirmed
        );
        if report.moves.is_empty() {
            outln!("no improving move found; the netlist is unchanged");
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
            out!("{table}");
        }
        outln!(
            "glitch power {:.6} mW -> {:.6} mW; total {:.6} mW -> {:.6} mW; latency +{} cycle(s)",
            report.initial_glitch_power * 1e3,
            report.final_glitch_power * 1e3,
            report.initial_total_power * 1e3,
            report.final_total_power * 1e3,
            report.latency
        );
        outln!(
            "equivalence: {} ({} checks, {} output values compared)",
            if report.equivalence.passed() {
                "PASS"
            } else {
                "FAIL"
            },
            report.equivalence.checks.len(),
            report.equivalence.compared()
        );
        outln!("{}", report.headline());
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
            .request_streaming(line, |interim| outln!("{interim}"))
            .map_err(run_err)?;
        if response.starts_with("{\"error\"") {
            errors += 1;
        }
        outln!("{response}");
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
        outln!("{line}");
    } else {
        out!("{}", render_status_dashboard(&line, port)?);
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
        out!("\x1b[H\x1b[2J{dashboard}");
        crate::out::flush();
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
        "workers {}/{} busy, queue depth {}; cache {} circuit(s), {} byte(s)",
        field(status, "busy_workers").as_u64().unwrap_or(0),
        field(status, "workers").as_u64().unwrap_or(0),
        field(status, "queue_depth").as_u64().unwrap_or(0),
        field(cache, "circuits").as_u64().unwrap_or(0),
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
