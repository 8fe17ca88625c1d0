//! Shared resolution of analysis parameters — one implementation behind
//! both the CLI's flags and the daemon's protocol fields.
//!
//! The serving layer's byte-identity contract (a daemon response equals
//! the one-shot CLI `--json` output) only holds if both front ends resolve
//! `tech`/`delay`/`seeds`/`jobs`/`flips` to exactly the same engine
//! configuration, including defaults and error messages. These functions
//! are that single source of truth; `glitch-cli` maps [`ParamError`] onto
//! its own usage/run split.

use glitch_core::netlist::{Bus, NetId, Netlist};
use glitch_core::power::Technology;
use glitch_core::sim::RandomStimulus;
use glitch_core::verify::{BudgetSpec, CheckSuite, CycleFilter};
use glitch_core::{AnalysisConfig, DelayKind, DeltaStimulus, EngineKind, SimBaseline};
use glitch_io::GateLibrary;

/// A rejected parameter. `Usage` marks a malformed value (the CLI appends
/// its usage text); `Run` marks a value that is well-formed but does not
/// fit the circuit (unknown net, out-of-range cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// Malformed parameter value.
    Usage(String),
    /// Well-formed value rejected against the loaded circuit.
    Run(String),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::Usage(m) | ParamError::Run(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ParamError {}

fn usage(message: impl Into<String>) -> ParamError {
    ParamError::Usage(message.into())
}

fn run(message: impl Into<String>) -> ParamError {
    ParamError::Run(message.into())
}

/// Resolves a `tech` name (`0.8um` default, `65nm`) to a gate library.
///
/// # Errors
///
/// Returns [`ParamError::Usage`] for unknown technology names.
pub fn library_for_tech(tech: Option<&str>) -> Result<GateLibrary, ParamError> {
    let library = GateLibrary::standard();
    Ok(match tech {
        None | Some("0.8um") => library,
        Some("65nm") => library.with_technology(Technology::cmos_65nm_1v2()),
        Some(other) => {
            return Err(usage(format!(
                "--tech must be 0.8um or 65nm, got `{other}`"
            )));
        }
    })
}

/// Resolves a delay-model name (`unit` default, `zero`, `adder`,
/// `library`) to a [`DelayKind`].
///
/// # Errors
///
/// Returns [`ParamError::Usage`] for unknown model names.
pub fn delay_kind(name: Option<&str>, library: &GateLibrary) -> Result<DelayKind, ParamError> {
    Ok(match name {
        None | Some("unit") => DelayKind::Unit,
        Some("zero") => DelayKind::Zero,
        Some("adder") => DelayKind::RealisticAdderCells,
        Some("library") => DelayKind::Custom(library.cell_delay()),
        Some(other) => {
            return Err(usage(format!(
                "--delay must be unit, zero, adder or library, got `{other}`"
            )));
        }
    })
}

/// Parses a `delays` comma list (default `unit,zero,adder`) into
/// `(label, DelayKind)` pairs for the delay-model sweep.
///
/// # Errors
///
/// Returns [`ParamError::Usage`] for unknown entries.
pub fn delay_sweep_models(
    list: Option<&str>,
    library: &GateLibrary,
) -> Result<Vec<(String, DelayKind)>, ParamError> {
    let list = list.unwrap_or("unit,zero,adder");
    list.split(',')
        .map(|name| {
            let kind = match name.trim() {
                "unit" => DelayKind::Unit,
                "zero" => DelayKind::Zero,
                "adder" => DelayKind::RealisticAdderCells,
                "library" => DelayKind::Custom(library.cell_delay()),
                other => {
                    return Err(usage(format!(
                        "--delays entries must be unit, zero, adder or library, got `{other}`"
                    )));
                }
            };
            Ok((name.trim().to_string(), kind))
        })
        .collect()
}

/// Resolves an engine name (`queue`, `kernel`, `hybrid` default) to an
/// [`EngineKind`].
///
/// # Errors
///
/// Returns [`ParamError::Usage`] for unknown engine names.
pub fn engine_kind(name: Option<&str>) -> Result<EngineKind, ParamError> {
    match name {
        None => Ok(EngineKind::default()),
        Some(text) => text
            .parse()
            .map_err(|e: String| usage(format!("--engine: {e}"))),
    }
}

/// The common analysis configuration from resolved scalar parameters.
/// `None` fields take the [`AnalysisConfig::default`] values, exactly as
/// the CLI's omitted flags do.
///
/// # Errors
///
/// As for [`delay_kind`] and [`engine_kind`].
pub fn analysis_config(
    library: &GateLibrary,
    cycles: Option<u64>,
    seed: Option<u64>,
    frequency_mhz: Option<f64>,
    delay: Option<&str>,
    engine: Option<&str>,
) -> Result<AnalysisConfig, ParamError> {
    let defaults = AnalysisConfig::default();
    Ok(AnalysisConfig {
        cycles: cycles.unwrap_or(defaults.cycles),
        seed: seed.unwrap_or(defaults.seed),
        frequency: frequency_mhz.unwrap_or(defaults.frequency / 1e6) * 1e6,
        technology: *library.technology(),
        delay: delay_kind(delay, library)?,
        engine: engine_kind(engine)?,
        ..defaults
    })
}

/// Groups the primary inputs into buses of at most 32 bits so the random
/// stimulus can drive arbitrarily wide circuits.
pub fn input_buses(netlist: &Netlist) -> Vec<Bus> {
    netlist
        .inputs()
        .chunks(32)
        .map(|chunk| Bus::new(chunk.to_vec()))
        .collect()
}

/// The stimulus seeds of a multi-seed run. A single seed is the raw base
/// value — so `seeds = 1` reproduces a plain single-seed run exactly —
/// while `n > 1` derives decorrelated per-shard seeds via
/// [`RandomStimulus::shard_seeds`].
pub fn stimulus_seeds(base: u64, seeds: usize) -> Vec<u64> {
    if seeds == 1 {
        vec![base]
    } else {
        RandomStimulus::shard_seeds(base, seeds)
    }
}

/// Resolves `seeds`/`jobs` requests. The seed count defaults to 1; the
/// worker count defaults to `min(seeds * models, hardware threads)`, where
/// `models` is the number of delay models swept (1 except for `sweep`).
/// Mirrors the CLI's validation, message for message.
///
/// # Errors
///
/// Returns [`ParamError::Usage`] for zero counts or a `jobs` value with
/// nothing to parallelise.
pub fn seeds_and_jobs(
    seeds: Option<usize>,
    jobs: Option<usize>,
    models: usize,
) -> Result<(usize, usize), ParamError> {
    let seeds = seeds.unwrap_or(1);
    if seeds == 0 {
        return Err(usage("--seeds must be at least 1"));
    }
    if jobs.is_some() && seeds * models.max(1) == 1 {
        return Err(usage(
            "--jobs has nothing to parallelise here; combine it with --seeds <n> \
             (or, for sweep, more than one delay model)",
        ));
    }
    Ok((seeds, resolve_jobs(jobs, seeds * models.max(1))?))
}

/// A `jobs` request, defaulting to `min(items, hardware threads)`.
fn resolve_jobs(jobs: Option<usize>, items: usize) -> Result<usize, ParamError> {
    let hardware = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let jobs = jobs.unwrap_or(items.min(hardware).max(1));
    if jobs == 0 {
        return Err(usage("--jobs must be at least 1"));
    }
    Ok(jobs)
}

/// One parsed flip entry: `cycle:net` (invert the baseline value) or
/// `cycle:net=0|1` (force a value).
pub struct FlipSpec {
    /// The cycle to override.
    pub cycle: u64,
    /// The overridden primary input.
    pub net: NetId,
    /// Its name, for reporting.
    pub name: String,
    /// Forced value, or `None` to invert the baseline's.
    pub value: Option<bool>,
}

/// Parses a flip comma list against the netlist's primary inputs.
///
/// # Errors
///
/// Returns [`ParamError::Usage`] for malformed entries and
/// [`ParamError::Run`] for unknown nets.
pub fn parse_flips(spec: &str, netlist: &Netlist) -> Result<Vec<FlipSpec>, ParamError> {
    spec.split(',')
        .map(|entry| {
            let entry = entry.trim();
            let (cycle_text, rest) = entry.split_once(':').ok_or_else(|| {
                usage(format!(
                    "--flip entries are cycle:net or cycle:net=0|1, got `{entry}`"
                ))
            })?;
            let cycle: u64 = cycle_text
                .parse()
                .map_err(|_| usage(format!("--flip: cannot parse cycle `{cycle_text}`")))?;
            let (name, value) = match rest.rsplit_once('=') {
                Some((name, "0")) => (name, Some(false)),
                Some((name, "1")) => (name, Some(true)),
                Some((_, bad)) => {
                    return Err(usage(format!("--flip: value must be 0 or 1, got `{bad}`")));
                }
                None => (rest, None),
            };
            let net = netlist
                .find_net(name)
                .ok_or_else(|| run(format!("--flip: no net named `{name}` in the netlist")))?;
            if !netlist.net(net).is_primary_input() {
                return Err(usage(format!(
                    "--flip: net `{name}` is not a primary input"
                )));
            }
            Ok(FlipSpec {
                cycle,
                net,
                name: name.to_string(),
                value,
            })
        })
        .collect()
}

/// Rejects flips addressing cycles beyond the configured run — checked
/// before any simulation, so an out-of-range flip never costs a baseline
/// pass.
///
/// # Errors
///
/// Returns [`ParamError::Usage`] naming the offending cycle.
pub fn check_flip_cycles(flips: &[FlipSpec], cycles: u64) -> Result<(), ParamError> {
    for flip in flips {
        if flip.cycle >= cycles {
            return Err(usage(format!(
                "--flip: cycle {} is beyond the {cycles}-cycle run",
                flip.cycle
            )));
        }
    }
    Ok(())
}

/// Resolves a flip-sweep input list (`sweep --flip-inputs`): one
/// inverting [`FlipSpec`] in `cycle` per listed primary input, or per
/// primary input for `all`, plus the worker count, which defaults to
/// `min(inputs, hardware threads)`. Mirrors the CLI's validation, message
/// for message.
///
/// # Errors
///
/// Returns [`ParamError::Usage`] for a cycle beyond the `cycles`-cycle
/// run, a net that is not a primary input, an empty input set, and a
/// `jobs` value that is zero or has one input to parallelise;
/// [`ParamError::Run`] for unknown nets.
pub fn flip_inputs(
    list: &str,
    cycle: u64,
    cycles: u64,
    jobs: Option<usize>,
    netlist: &Netlist,
) -> Result<(Vec<FlipSpec>, usize), ParamError> {
    if cycle >= cycles {
        return Err(usage(format!(
            "--flip-cycle {cycle} is beyond the {cycles}-cycle run"
        )));
    }
    let nets: Vec<NetId> = if list.trim() == "all" {
        netlist.inputs().to_vec()
    } else {
        list.split(',')
            .map(|name| {
                let name = name.trim();
                let net = netlist
                    .find_net(name)
                    .ok_or_else(|| run(format!("--flip-inputs: no net named `{name}`")))?;
                if !netlist.net(net).is_primary_input() {
                    return Err(usage(format!(
                        "--flip-inputs: net `{name}` is not a primary input"
                    )));
                }
                Ok(net)
            })
            .collect::<Result<_, _>>()?
    };
    if nets.is_empty() {
        return Err(usage("--flip-inputs: no inputs to flip"));
    }
    if jobs.is_some() && nets.len() == 1 {
        return Err(usage(
            "--jobs has nothing to parallelise here; flip more than one input",
        ));
    }
    let jobs = resolve_jobs(jobs, nets.len())?;
    let flips = nets
        .into_iter()
        .map(|net| FlipSpec {
            cycle,
            net,
            name: netlist.net(net).name().to_string(),
            value: None,
        })
        .collect();
    Ok((flips, jobs))
}

/// One applied flip: `(net name, cycle, driven value)`.
pub type AppliedFlip = (String, u64, bool);

/// Applies a parsed flip list against the configured run: entries
/// without an explicit value invert the baseline's, and duplicate
/// `cycle:net` pairs are rejected with their location (the
/// [`DeltaStimulus::try_set`] construction contract).
///
/// # Errors
///
/// Returns [`ParamError::Usage`] for duplicate `cycle:net` pairs.
pub fn flips_to_delta(
    flips: &[FlipSpec],
    baseline: &SimBaseline,
) -> Result<(DeltaStimulus, Vec<AppliedFlip>), ParamError> {
    let mut delta = DeltaStimulus::new();
    let mut applied: Vec<AppliedFlip> = Vec::new();
    for flip in flips {
        let value = flip
            .value
            .unwrap_or(baseline.input_value(flip.cycle, flip.net) != glitch_core::sim::Value::One);
        delta = delta.try_set(flip.cycle, flip.net, value).map_err(|_| {
            usage(format!(
                "--flip: duplicate override for `{}` in cycle {} \
                 (each cycle:net pair may appear once)",
                flip.name, flip.cycle
            ))
        })?;
        applied.push((flip.name.clone(), flip.cycle, value));
    }
    Ok((delta, applied))
}

/// Parses a stability comma list: `net` (all cycles) or `net@from..to`
/// (inclusive cycle range).
///
/// # Errors
///
/// Returns [`ParamError::Usage`] for malformed entries and
/// [`ParamError::Run`] for unknown nets.
pub fn parse_stability(
    list: &str,
    netlist: &Netlist,
) -> Result<Vec<(NetId, CycleFilter)>, ParamError> {
    list.split(',')
        .map(|entry| {
            let entry = entry.trim();
            let (name, filter) = match entry.split_once('@') {
                None => (entry, CycleFilter::All),
                Some((name, range)) => {
                    let (from, to) = range.split_once("..").ok_or_else(|| {
                        usage(format!(
                            "--stable entries are net or net@from..to, got `{entry}`"
                        ))
                    })?;
                    let parse = |text: &str| -> Result<u64, ParamError> {
                        text.trim().parse().map_err(|_| {
                            usage(format!(
                                "--stable: cannot parse cycle `{text}` in `{entry}`"
                            ))
                        })
                    };
                    let (from, to) = (parse(from)?, parse(to)?);
                    if from > to {
                        return Err(usage(format!(
                            "--stable: empty cycle range {from}..{to} in `{entry}` \
                             (from must not exceed to)"
                        )));
                    }
                    (name, CycleFilter::Range { from, to })
                }
            };
            let net = netlist
                .find_net(name.trim())
                .ok_or_else(|| run(format!("--stable: no net named `{}`", name.trim())))?;
            Ok((net, filter))
        })
        .collect()
}

/// Builds the checker suite for `check`. The X-propagation checker is
/// always attached; hazards, budgets and stability assertions are opt-in.
/// `budgets_file` is the already-read contents of a budgets file (with
/// its display name for error messages); `budget` entries override it.
///
/// # Errors
///
/// Returns [`ParamError::Usage`] for malformed budget/stable lists and
/// [`ParamError::Run`] for budget nets missing from the circuit.
pub fn build_check_suite(
    netlist: &Netlist,
    budget: Option<&str>,
    budgets_file: Option<(&str, &str)>,
    hazards: bool,
    stable: Option<&str>,
) -> Result<CheckSuite, ParamError> {
    let mut suite = CheckSuite::new().with_x_propagation();
    let mut spec = BudgetSpec::new();
    if let Some((name, text)) = budgets_file {
        spec.extend(BudgetSpec::parse_file(text).map_err(|e| run(format!("{name}: {e}")))?);
    }
    if let Some(list) = budget {
        spec.extend(BudgetSpec::parse_list(list).map_err(|e| usage(e.to_string()))?);
    }
    if !spec.is_empty() {
        let resolved = spec
            .resolve(netlist)
            .map_err(|e| run(format!("--budget: {e}")))?;
        suite = suite.with_budgets(resolved);
    }
    if hazards {
        suite = suite.with_hazards();
    }
    if let Some(list) = stable {
        for (net, filter) in parse_stability(list, netlist)? {
            suite = suite.with_stability(net, filter);
        }
    }
    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_pair() -> Netlist {
        let mut nl = Netlist::new("pair");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.xor2(a, b, "y");
        nl.mark_output(y);
        nl
    }

    #[test]
    fn defaults_mirror_the_cli() {
        let library = library_for_tech(None).unwrap();
        let config = analysis_config(&library, None, None, None, None, None).unwrap();
        let defaults = AnalysisConfig::default();
        assert_eq!(config.cycles, defaults.cycles);
        assert_eq!(config.seed, defaults.seed);
        assert_eq!(config.frequency, defaults.frequency);
        assert_eq!(config.delay, DelayKind::Unit);
        assert_eq!(config.engine, EngineKind::Hybrid);
        assert_eq!(seeds_and_jobs(None, None, 1).unwrap(), (1, 1));
        assert!(library_for_tech(Some("90nm")).is_err());
        assert!(delay_kind(Some("psychic"), &library).is_err());
    }

    #[test]
    fn engine_names_resolve() {
        assert_eq!(engine_kind(None).unwrap(), EngineKind::Hybrid);
        assert_eq!(engine_kind(Some("queue")).unwrap(), EngineKind::Queue);
        assert_eq!(engine_kind(Some("kernel")).unwrap(), EngineKind::Kernel);
        assert_eq!(engine_kind(Some("hybrid")).unwrap(), EngineKind::Hybrid);
        assert!(matches!(
            engine_kind(Some("express")),
            Err(ParamError::Usage(_))
        ));
    }

    #[test]
    fn jobs_without_parallel_work_is_rejected() {
        let err = seeds_and_jobs(Some(1), Some(4), 1).unwrap_err();
        assert!(matches!(err, ParamError::Usage(_)));
        assert!(seeds_and_jobs(Some(1), Some(4), 3).is_ok());
        assert!(seeds_and_jobs(Some(0), None, 1).is_err());
        assert!(seeds_and_jobs(Some(2), Some(0), 1).is_err());
    }

    #[test]
    fn flip_lists_parse_and_validate() {
        let nl = xor_pair();
        let flips = parse_flips("0:a,3:b=1", &nl).unwrap();
        assert_eq!(flips.len(), 2);
        assert_eq!(flips[1].value, Some(true));
        assert!(check_flip_cycles(&flips, 4).is_ok());
        assert!(check_flip_cycles(&flips, 3).is_err());
        assert!(parse_flips("nope", &nl).is_err());
        assert!(parse_flips("0:zz", &nl).is_err());
        assert!(parse_flips("0:y", &nl).is_err(), "y is not an input");
    }

    #[test]
    fn stability_and_suite_build() {
        let nl = xor_pair();
        let pairs = parse_stability("y@2..5,a", &nl).unwrap();
        assert_eq!(pairs.len(), 2);
        assert!(parse_stability("y@5..2", &nl).is_err());
        let suite = build_check_suite(&nl, Some("y=3"), None, true, Some("a")).unwrap();
        assert!(suite.checker_count() >= 3);
        assert!(build_check_suite(&nl, Some("??"), None, false, None).is_err());
    }
}
