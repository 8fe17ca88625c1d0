//! The content-addressed warm cache behind the daemon.
//!
//! Four tiers, all keyed off [`Netlist::fingerprint`]:
//!
//! 1. **Parsed netlists** — a file-stamp map (`path -> (mtime, len)`)
//!    fronts a fingerprint-keyed circuit map, so an unchanged file never
//!    re-parses and two paths with identical content share one circuit.
//! 2. **Cone indexes** — built lazily once per circuit and shared by every
//!    incremental job against it.
//! 3. **Compiled kernel programs** — the levelized straight-line programs
//!    behind the `kernel`/`hybrid` engines, compiled once per circuit and
//!    shared by every kernel or timed batch against it. Delay-independent,
//!    so one program serves every parameter combination.
//! 4. **Sim baselines** — the recorded replay logs that make `flip`
//!    requests incremental, keyed by the analysis parameters that shape
//!    them, with their "before" figures recovered on load by a zero-eval
//!    empty-delta replay.
//!
//! Concurrent requests for the same missing entry are **coalesced**: the
//! first caller computes, the rest block on a single-flight slot and share
//! the result. Baselines are evicted LRU-first under a byte budget and
//! spilled to disk (atomic save), so a re-request after eviction reloads
//! instead of re-recording.
//!
//! The cache is deliberately metrics-free: every lookup reports what
//! happened (`hit`, `coalesced`, `spill_load`, eviction count) and the
//! engine owns the counters.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::SystemTime;

use glitch_core::netlist::{ConeIndex, Netlist};
use glitch_core::{Analysis, KernelProgram, SimBaseline};
use glitch_io::{parse_netlist, Format, GateLibrary};

use crate::lock;

/// A parsed circuit shared across requests: the netlist plus its lazily
/// built cone index.
pub struct CachedCircuit {
    netlist: Arc<Netlist>,
    fingerprint: u64,
    index: OnceLock<Result<Arc<ConeIndex>, String>>,
    approx: usize,
}

impl CachedCircuit {
    fn new(netlist: Netlist) -> CachedCircuit {
        let fingerprint = netlist.fingerprint();
        // Rough footprint: nets and cells dominate a parsed netlist. An
        // estimate is enough — the budget exists to bound memory, not to
        // account it exactly.
        let approx = netlist.net_count() * 128 + netlist.cell_count() * 96 + 1024;
        CachedCircuit {
            netlist: Arc::new(netlist),
            fingerprint,
            index: OnceLock::new(),
            approx,
        }
    }

    /// The shared parsed netlist.
    #[must_use]
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// The circuit's structural fingerprint (the cache key).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The shared cone index, built on first use and reused by every
    /// incremental job against this circuit.
    ///
    /// # Errors
    ///
    /// Returns the (cached) build error for cyclic netlists.
    pub fn cone_index(&self) -> Result<Arc<ConeIndex>, String> {
        self.index
            .get_or_init(|| {
                ConeIndex::build(&self.netlist)
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            })
            .clone()
    }
}

/// A cached baseline plus the "before" analysis figures it reproduces.
pub struct BaselineEntry {
    /// The recorded replay log.
    pub baseline: Arc<SimBaseline>,
    /// The analysis of the unperturbed run — the `baseline` section of
    /// every `flip` and flip-sweep response, identical whether freshly
    /// recorded or recovered from a spill file by empty-delta replay.
    pub before: Arc<Analysis>,
}

/// What a circuit lookup did, for the engine's counters.
pub struct CircuitLookup {
    /// The shared circuit.
    pub circuit: Arc<CachedCircuit>,
    /// Served from the warm cache without touching the file contents.
    pub hit: bool,
    /// Waited on another request's in-flight parse instead of parsing.
    pub coalesced: bool,
}

/// What a compiled-program lookup did, for the engine's counters.
pub struct ProgramLookup {
    /// The shared compiled kernel program.
    pub program: Arc<KernelProgram>,
    /// Served from the warm cache without recompiling.
    pub hit: bool,
    /// Entries evicted to make room.
    pub evicted: u64,
}

/// What a baseline lookup did, for the engine's counters.
pub struct BaselineLookup {
    /// The shared baseline + before-figures pair.
    pub entry: Arc<BaselineEntry>,
    /// Served from memory.
    pub hit: bool,
    /// Waited on another request's in-flight recording.
    pub coalesced: bool,
    /// Recovered from a spill file instead of re-recording.
    pub spill_load: bool,
    /// Entries evicted to make room.
    pub evicted: u64,
}

/// A single-flight slot: the leader computes and fills, followers wait.
struct Flight<T> {
    slot: Mutex<Option<Result<T, String>>>,
    done: Condvar,
}

impl<T: Clone> Flight<T> {
    fn new() -> Flight<T> {
        Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn wait(&self) -> Result<T, String> {
        let mut slot = lock(&self.slot);
        while slot.is_none() {
            slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        slot.as_ref().expect("filled").clone()
    }

    fn fill(&self, result: Result<T, String>) {
        *lock(&self.slot) = Some(result);
        self.done.notify_all();
    }
}

struct FileStamp {
    mtime: Option<SystemTime>,
    len: u64,
    fingerprint: u64,
}

struct BaselineSlot {
    entry: Arc<BaselineEntry>,
    bytes: usize,
    last_used: u64,
}

struct CircuitSlot {
    circuit: Arc<CachedCircuit>,
    baselines: HashMap<String, BaselineSlot>,
    /// The compiled kernel program and its accounted byte footprint.
    program: Option<(Arc<KernelProgram>, usize)>,
    last_used: u64,
}

#[derive(Default)]
struct CacheState {
    files: HashMap<String, FileStamp>,
    circuits: HashMap<u64, CircuitSlot>,
    bytes: usize,
    tick: u64,
}

impl CacheState {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts LRU entries (baselines first, then cold circuits' compiled
    /// programs, then whole circuits) until the budget holds, never
    /// evicting the entry just inserted for `(protect_fp, protect_key)`
    /// or the protected circuit's program. The protected entry may leave
    /// the cache a single entry over budget — a cache that cannot hold
    /// its current working item would thrash.
    fn evict_to_budget(&mut self, budget: usize, protect_fp: u64, protect_key: &str) -> u64 {
        let mut evicted = 0;
        while budget > 0 && self.bytes > budget {
            let victim = self
                .circuits
                .iter()
                .flat_map(|(&fp, slot)| {
                    slot.baselines
                        .iter()
                        .filter(move |(key, _)| fp != protect_fp || key.as_str() != protect_key)
                        .map(move |(key, b)| (b.last_used, fp, key.clone()))
                })
                .min();
            if let Some((_, fp, key)) = victim {
                let slot = self.circuits.get_mut(&fp).expect("victim circuit");
                let removed = slot.baselines.remove(&key).expect("victim baseline");
                self.bytes -= removed.bytes;
                evicted += 1;
                continue;
            }
            let victim = self
                .circuits
                .iter()
                .filter(|&(&fp, slot)| fp != protect_fp && slot.program.is_some())
                .map(|(&fp, slot)| (slot.last_used, fp))
                .min();
            if let Some((_, fp)) = victim {
                let slot = self.circuits.get_mut(&fp).expect("victim circuit");
                let (_, bytes) = slot.program.take().expect("victim program");
                self.bytes -= bytes;
                evicted += 1;
                continue;
            }
            let victim = self
                .circuits
                .iter()
                .filter(|&(&fp, slot)| fp != protect_fp && slot.baselines.is_empty())
                .map(|(&fp, slot)| (slot.last_used, fp))
                .min();
            let Some((_, fp)) = victim else { break };
            let removed = self.circuits.remove(&fp).expect("victim circuit");
            self.bytes -= removed.circuit.approx;
            if let Some((_, bytes)) = removed.program {
                self.bytes -= bytes;
            }
            self.files.retain(|_, stamp| stamp.fingerprint != fp);
            evicted += 1;
        }
        evicted
    }
}

type CircuitFlight = Arc<Flight<Arc<CachedCircuit>>>;
type BaselineFlight = Arc<Flight<Arc<BaselineEntry>>>;

/// The daemon-wide warm cache. All methods take `&self`; internal locks
/// are held only for map bookkeeping, never across a parse or a
/// simulation, so unrelated requests proceed concurrently.
pub struct CircuitCache {
    state: Mutex<CacheState>,
    parses: Mutex<HashMap<String, CircuitFlight>>,
    records: Mutex<HashMap<(u64, String), BaselineFlight>>,
    budget: usize,
    spill_dir: Option<PathBuf>,
}

impl CircuitCache {
    /// Creates a cache with a byte `budget` (0 = unbounded) and an
    /// optional directory for baseline spill files.
    #[must_use]
    pub fn new(budget: usize, spill_dir: Option<PathBuf>) -> CircuitCache {
        CircuitCache {
            state: Mutex::new(CacheState::default()),
            parses: Mutex::new(HashMap::new()),
            records: Mutex::new(HashMap::new()),
            budget,
            spill_dir,
        }
    }

    /// Current approximate resident bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        lock(&self.state).bytes
    }

    /// Number of cached circuits.
    #[must_use]
    pub fn circuit_count(&self) -> usize {
        lock(&self.state).circuits.len()
    }

    /// Number of cached baselines across all circuits.
    #[must_use]
    pub fn baseline_count(&self) -> usize {
        let state = lock(&self.state);
        state.circuits.values().map(|s| s.baselines.len()).sum()
    }

    /// Returns the shared parsed circuit for `path`, parsing at most once
    /// per file change. Parsing uses the standard library — the netlist's
    /// structure is technology-independent; per-request technology only
    /// affects analysis constants.
    ///
    /// # Errors
    ///
    /// I/O and parse failures, as one-line messages mirroring the CLI's.
    pub fn circuit_for(&self, path: &str) -> Result<CircuitLookup, String> {
        let format = Format::from_extension(path)
            .ok_or_else(|| format!("{path}: unknown netlist format (expected .blif or .v)"))?;
        let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
        let mtime = meta.modified().ok();
        let len = meta.len();
        {
            let mut state = lock(&self.state);
            if let Some(stamp) = state.files.get(path) {
                if stamp.mtime == mtime && stamp.len == len {
                    let fingerprint = stamp.fingerprint;
                    let tick = state.touch();
                    let slot = state
                        .circuits
                        .get_mut(&fingerprint)
                        .expect("stamped circuit");
                    slot.last_used = tick;
                    return Ok(CircuitLookup {
                        circuit: Arc::clone(&slot.circuit),
                        hit: true,
                        coalesced: false,
                    });
                }
            }
        }
        // Miss (or stale stamp): single-flight the parse.
        let (flight, leader) = {
            let mut parses = lock(&self.parses);
            match parses.get(path) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight::new());
                    parses.insert(path.to_string(), Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        if !leader {
            return flight.wait().map(|circuit| CircuitLookup {
                circuit,
                hit: false,
                coalesced: true,
            });
        }
        let result = self.parse_and_insert(path, format, mtime, len);
        flight.fill(result.clone());
        lock(&self.parses).remove(path);
        result.map(|circuit| CircuitLookup {
            circuit,
            hit: false,
            coalesced: false,
        })
    }

    fn parse_and_insert(
        &self,
        path: &str,
        format: Format,
        mtime: Option<SystemTime>,
        len: u64,
    ) -> Result<Arc<CachedCircuit>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let netlist = parse_netlist(&text, format, &GateLibrary::standard())
            .map_err(|e| format!("{path}: {e}"))?;
        let fingerprint = netlist.fingerprint();
        let mut state = lock(&self.state);
        let tick = state.touch();
        // Content-addressed: a second path (or a touched file with the
        // same bytes) lands on the already-cached circuit.
        let circuit = match state.circuits.get_mut(&fingerprint) {
            Some(slot) => {
                slot.last_used = tick;
                Arc::clone(&slot.circuit)
            }
            None => {
                let circuit = Arc::new(CachedCircuit::new(netlist));
                state.bytes += circuit.approx;
                state.circuits.insert(
                    fingerprint,
                    CircuitSlot {
                        circuit: Arc::clone(&circuit),
                        baselines: HashMap::new(),
                        program: None,
                        last_used: tick,
                    },
                );
                circuit
            }
        };
        state.files.insert(
            path.to_string(),
            FileStamp {
                mtime,
                len,
                fingerprint,
            },
        );
        state.evict_to_budget(self.budget, fingerprint, "");
        Ok(circuit)
    }

    /// Returns the shared compiled kernel program for `circuit`, compiling
    /// at most once per cached circuit (content-addressed: two paths with
    /// identical netlist bytes share one program). The program's
    /// [`KernelProgram::byte_size`] counts against the same byte budget as
    /// baselines, and cold circuits' programs are evicted before circuits.
    ///
    /// # Errors
    ///
    /// The compile error (cyclic netlists), as a one-line message.
    pub fn program_for(&self, circuit: &Arc<CachedCircuit>) -> Result<ProgramLookup, String> {
        let fingerprint = circuit.fingerprint;
        {
            let mut state = lock(&self.state);
            let tick = state.touch();
            if let Some(slot) = state.circuits.get_mut(&fingerprint) {
                slot.last_used = tick;
                if let Some((program, _)) = &slot.program {
                    return Ok(ProgramLookup {
                        program: Arc::clone(program),
                        hit: true,
                        evicted: 0,
                    });
                }
            }
        }
        // Compile outside the lock. A racing duplicate compile is harmless
        // (the programs are identical; first to insert wins) and cheap next
        // to the simulation the caller is about to run, so no single-flight
        // slot here.
        let program = KernelProgram::compile(&circuit.netlist)
            .map(Arc::new)
            .map_err(|e| e.to_string())?;
        let bytes = program.byte_size();
        let mut state = lock(&self.state);
        let tick = state.touch();
        let Some(slot) = state.circuits.get_mut(&fingerprint) else {
            // Circuit evicted while compiling: hand the program back
            // uncached rather than resurrect the slot.
            return Ok(ProgramLookup {
                program,
                hit: false,
                evicted: 0,
            });
        };
        slot.last_used = tick;
        if let Some((existing, _)) = &slot.program {
            return Ok(ProgramLookup {
                program: Arc::clone(existing),
                hit: true,
                evicted: 0,
            });
        }
        slot.program = Some((Arc::clone(&program), bytes));
        state.bytes += bytes;
        let evicted = state.evict_to_budget(self.budget, fingerprint, "");
        Ok(ProgramLookup {
            program,
            hit: false,
            evicted,
        })
    }

    fn spill_path(&self, fingerprint: u64, key: &str) -> Option<PathBuf> {
        self.spill_dir
            .as_ref()
            .map(|dir| dir.join(format!("{fingerprint:016x}-{:016x}.glbl", fnv64(key))))
    }

    /// Returns the baseline (and its "before" analysis) for `circuit`
    /// under the parameter `key`, recording at most once per key.
    ///
    /// On a memory miss the cache first tries the spill file: a load that
    /// passes `validate` (the caller's parameter check) recovers the
    /// before-figures with `replay_before` — the PR 4/5 guarantee makes
    /// those bit-identical to the originals at zero evaluation cost.
    /// Otherwise `record` runs the full simulation once.
    ///
    /// # Errors
    ///
    /// Whatever `record` / `replay_before` report, as one-line messages.
    pub fn baseline_for(
        &self,
        circuit: &Arc<CachedCircuit>,
        key: &str,
        validate: impl Fn(&SimBaseline) -> bool,
        record: impl FnOnce() -> Result<(SimBaseline, Analysis), String>,
        replay_before: impl Fn(&Netlist, &SimBaseline) -> Result<Analysis, String>,
    ) -> Result<BaselineLookup, String> {
        let fingerprint = circuit.fingerprint;
        {
            let mut state = lock(&self.state);
            let tick = state.touch();
            if let Some(slot) = state.circuits.get_mut(&fingerprint) {
                slot.last_used = tick;
                if let Some(baseline) = slot.baselines.get_mut(key) {
                    baseline.last_used = tick;
                    return Ok(BaselineLookup {
                        entry: Arc::clone(&baseline.entry),
                        hit: true,
                        coalesced: false,
                        spill_load: false,
                        evicted: 0,
                    });
                }
            }
        }
        let flight_key = (fingerprint, key.to_string());
        let (flight, leader) = {
            let mut records = lock(&self.records);
            match records.get(&flight_key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight::new());
                    records.insert(flight_key.clone(), Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        if !leader {
            return flight.wait().map(|entry| BaselineLookup {
                entry,
                hit: false,
                coalesced: true,
                spill_load: false,
                evicted: 0,
            });
        }
        let produced = self.load_or_record(circuit, key, &validate, record, &replay_before);
        // Insert into the cache BEFORE releasing the flight, so a request
        // landing just after coalescing ends finds a warm cache.
        let outcome = produced.and_then(|(entry, spill_load)| {
            let mut state = lock(&self.state);
            let tick = state.touch();
            let slot = state
                .circuits
                .get_mut(&fingerprint)
                .ok_or("circuit evicted while recording its baseline")?;
            slot.last_used = tick;
            let bytes = entry.baseline.approx_bytes();
            let replaced = slot.baselines.insert(
                key.to_string(),
                BaselineSlot {
                    entry: Arc::clone(&entry),
                    bytes,
                    last_used: tick,
                },
            );
            if let Some(old) = replaced {
                state.bytes -= old.bytes;
            }
            state.bytes += bytes;
            let evicted = state.evict_to_budget(self.budget, fingerprint, key);
            Ok((entry, spill_load, evicted))
        });
        flight.fill(outcome.clone().map(|(entry, _, _)| entry));
        lock(&self.records).remove(&flight_key);
        let (entry, spill_load, evicted) = outcome?;
        Ok(BaselineLookup {
            entry,
            hit: false,
            coalesced: false,
            spill_load,
            evicted,
        })
    }

    fn load_or_record(
        &self,
        circuit: &Arc<CachedCircuit>,
        key: &str,
        validate: &impl Fn(&SimBaseline) -> bool,
        record: impl FnOnce() -> Result<(SimBaseline, Analysis), String>,
        replay_before: &impl Fn(&Netlist, &SimBaseline) -> Result<Analysis, String>,
    ) -> Result<(Arc<BaselineEntry>, bool), String> {
        let spill = self.spill_path(circuit.fingerprint, key);
        if let Some(path) = &spill {
            if let Ok(baseline) = SimBaseline::load(path) {
                if validate(&baseline) {
                    if let Ok(before) = replay_before(&circuit.netlist, &baseline) {
                        return Ok((
                            Arc::new(BaselineEntry {
                                baseline: Arc::new(baseline),
                                before: Arc::new(before),
                            }),
                            true,
                        ));
                    }
                }
            }
        }
        let (baseline, before) = record()?;
        if let Some(path) = &spill {
            // Best-effort: the spill is an optimisation, not a durability
            // promise, and the save itself is atomic (temp + rename).
            let _ = baseline.save(path);
        }
        Ok((
            Arc::new(BaselineEntry {
                baseline: Arc::new(baseline),
                before: Arc::new(before),
            }),
            false,
        ))
    }
}

/// FNV-1a, used only to make parameter keys filename-safe.
fn fnv64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitch_core::netlist::Netlist;
    use glitch_core::sim::SimOptions;
    use glitch_core::{AnalysisConfig, DeltaStimulus, GlitchAnalyzer};
    use glitch_io::emit_blif;

    fn sample_netlist() -> Netlist {
        let mut n = Netlist::new("cachetest");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.xor2(a, b, "x");
        let y = n.and2(a, x, "y");
        n.mark_output(y);
        n
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("glitch-cache-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_netlist(dir: &std::path::Path, name: &str, netlist: &Netlist) -> String {
        let path = dir.join(name);
        std::fs::write(&path, emit_blif(netlist)).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn second_lookup_hits_without_reparsing() {
        let dir = temp_dir("hit");
        let path = write_netlist(&dir, "a.blif", &sample_netlist());
        let cache = CircuitCache::new(0, None);
        let first = cache.circuit_for(&path).unwrap();
        assert!(!first.hit);
        let second = cache.circuit_for(&path).unwrap();
        assert!(second.hit);
        assert!(Arc::ptr_eq(
            first.circuit.netlist(),
            second.circuit.netlist()
        ));
        // The cone index is built once and shared.
        let i1 = first.circuit.cone_index().unwrap();
        let i2 = second.circuit.cone_index().unwrap();
        assert!(Arc::ptr_eq(&i1, &i2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_file_reparses_and_same_content_shares_one_circuit() {
        let dir = temp_dir("stale");
        let netlist = sample_netlist();
        let path = write_netlist(&dir, "a.blif", &netlist);
        let cache = CircuitCache::new(0, None);
        let first = cache.circuit_for(&path).unwrap();
        // Rewrite with different content: must re-parse to a new circuit.
        let mut bigger = sample_netlist();
        let c = bigger.add_input("c");
        let x = bigger.find_net("x").unwrap();
        let z = bigger.or2(x, c, "z");
        bigger.mark_output(z);
        std::fs::write(&path, emit_blif(&bigger)).unwrap();
        bump_mtime(&path);
        let second = cache.circuit_for(&path).unwrap();
        assert_ne!(first.circuit.fingerprint(), second.circuit.fingerprint());
        // A second path with the original bytes shares the original circuit.
        let copy = write_netlist(&dir, "b.blif", &netlist);
        let third = cache.circuit_for(&copy).unwrap();
        assert_eq!(third.circuit.fingerprint(), first.circuit.fingerprint());
        assert!(Arc::ptr_eq(
            third.circuit.netlist(),
            first.circuit.netlist()
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Some filesystems have coarse mtime resolution; force a visible change.
    fn bump_mtime(path: &str) {
        let text = std::fs::read_to_string(path).unwrap();
        // Appending a newline changes the length, which the stamp also checks.
        std::fs::write(path, text + "\n").unwrap();
    }

    fn no_replay(_netlist: &Netlist, _baseline: &SimBaseline) -> Result<Analysis, String> {
        Err("no replay expected".into())
    }

    fn record_pair(netlist: &Netlist) -> (SimBaseline, Analysis) {
        let config = AnalysisConfig {
            cycles: 40,
            ..AnalysisConfig::default()
        };
        let analyzer = GlitchAnalyzer::new(config);
        let buses = vec![];
        let (analysis, baseline) = analyzer
            .analyze_baseline(netlist, &buses, &[])
            .expect("baseline");
        (baseline, analysis)
    }

    #[test]
    fn baseline_records_once_then_hits() {
        let dir = temp_dir("baseline");
        let path = write_netlist(&dir, "a.blif", &sample_netlist());
        let cache = CircuitCache::new(0, None);
        let circuit = cache.circuit_for(&path).unwrap().circuit;
        let recorded = std::cell::Cell::new(0u32);
        let record = || {
            recorded.set(recorded.get() + 1);
            Ok(record_pair(circuit.netlist()))
        };
        let first = cache
            .baseline_for(&circuit, "k", |_| true, record, no_replay)
            .unwrap();
        assert!(!first.hit);
        assert_eq!(recorded.get(), 1);
        let second = cache
            .baseline_for(
                &circuit,
                "k",
                |_| true,
                || Err("must not re-record".into()),
                no_replay,
            )
            .unwrap();
        assert!(second.hit);
        assert!(Arc::ptr_eq(&first.entry.baseline, &second.entry.baseline));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_spills_and_reloads_without_re_recording() {
        let dir = temp_dir("spill");
        let spill = dir.join("spill");
        std::fs::create_dir_all(&spill).unwrap();
        let path = write_netlist(&dir, "a.blif", &sample_netlist());
        // Budget that fits the circuit plus roughly one baseline.
        let cache = CircuitCache::new(16 * 1024, Some(spill.clone()));
        let circuit = cache.circuit_for(&path).unwrap().circuit;
        let validate =
            |b: &SimBaseline| b.cycle_count() == 40 && b.options() == SimOptions::default();
        let mk = |key: &str| {
            cache
                .baseline_for(
                    &circuit,
                    key,
                    validate,
                    || Ok(record_pair(circuit.netlist())),
                    replay_before,
                )
                .unwrap()
        };
        let first = mk("k1");
        assert!(!first.hit && !first.spill_load);
        // Insert enough sibling baselines to push k1 out.
        let mut evicted_total = 0;
        for i in 0..6 {
            evicted_total += mk(&format!("filler{i}")).evicted;
        }
        assert!(evicted_total > 0, "budget never forced an eviction");
        // Re-request k1: must come back from the spill file, not a re-record.
        let again = cache
            .baseline_for(
                &circuit,
                "k1",
                validate,
                || Err("must reload from spill, not re-record".into()),
                replay_before,
            )
            .unwrap();
        assert!(again.spill_load, "expected a spill reload");
        assert_eq!(again.entry.baseline.cycle_count(), 40);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn replay_before(netlist: &Netlist, baseline: &SimBaseline) -> Result<Analysis, String> {
        let config = AnalysisConfig {
            cycles: baseline.cycle_count(),
            ..AnalysisConfig::default()
        };
        let analyzer = GlitchAnalyzer::new(config);
        let delta = analyzer
            .analyze_delta_with_index(netlist, baseline, &DeltaStimulus::new(), None)
            .map_err(|e| e.to_string())?;
        Ok(delta.analysis)
    }

    #[test]
    fn programs_compile_once_and_share_by_content() {
        let dir = temp_dir("program");
        let netlist = sample_netlist();
        let path = write_netlist(&dir, "a.blif", &netlist);
        let copy = write_netlist(&dir, "b.blif", &netlist);
        let cache = CircuitCache::new(0, None);
        let circuit = cache.circuit_for(&path).unwrap().circuit;
        let bytes_before = cache.bytes();
        let first = cache.program_for(&circuit).unwrap();
        assert!(!first.hit);
        assert!(
            cache.bytes() > bytes_before,
            "the program must count against the byte budget"
        );
        let second = cache.program_for(&circuit).unwrap();
        assert!(second.hit);
        assert!(Arc::ptr_eq(&first.program, &second.program));
        // Content-addressed: a second path with the same netlist bytes
        // lands on the same circuit, hence the same compiled program.
        let other = cache.circuit_for(&copy).unwrap().circuit;
        let third = cache.program_for(&other).unwrap();
        assert!(third.hit);
        assert!(Arc::ptr_eq(&first.program, &third.program));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_misses_coalesce_to_one_parse() {
        let dir = temp_dir("flight");
        let path = write_netlist(&dir, "a.blif", &sample_netlist());
        let cache = Arc::new(CircuitCache::new(0, None));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let path = path.clone();
            handles.push(std::thread::spawn(move || {
                cache.circuit_for(&path).unwrap().circuit.fingerprint()
            }));
        }
        let fingerprints: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(fingerprints.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.circuit_count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
