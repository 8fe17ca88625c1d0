//! The content-addressed warm cache behind the daemon.
//!
//! Two tiers, both keyed off [`Netlist::fingerprint`]:
//!
//! 1. **Parsed netlists** — a file-stamp map (`path -> (mtime, len)`)
//!    fronts a fingerprint-keyed circuit map, so an unchanged file never
//!    re-parses and two paths with identical content share one circuit.
//! 2. **Compiled kernel programs** — the levelized straight-line programs
//!    behind the `kernel`/`hybrid` engines, compiled once per circuit and
//!    shared by every kernel or timed batch against it. Delay-independent,
//!    so one program serves every parameter combination.
//!
//! Concurrent parses of the same missing file are **coalesced**: the first
//! caller parses, the rest block on a single-flight slot and share the
//! result; a leader that panics fills its slot with an error on the way
//! out, so its followers return instead of waiting forever. Entries are
//! evicted LRU-first under a byte budget.
//!
//! The cache is deliberately metrics-free: every lookup reports what
//! happened (`hit`, `coalesced`, eviction count) and the engine owns the
//! counters.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::SystemTime;

use glitch_core::netlist::Netlist;
use glitch_core::KernelProgram;
use glitch_io::{parse_netlist, Format, GateLibrary};

use crate::lock;

/// A parsed circuit shared across requests.
pub struct CachedCircuit {
    netlist: Arc<Netlist>,
    fingerprint: u64,
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

    /// Fills the slot unless it is already filled, and wakes the waiters.
    fn fill(&self, result: Result<T, String>) {
        let mut slot = lock(&self.slot);
        if slot.is_none() {
            *slot = Some(result);
        }
        self.done.notify_all();
    }
}

type Flights<T> = Mutex<HashMap<String, Arc<Flight<T>>>>;

/// The leader's hold on its flight. Dropping it — normally, or while the
/// leader unwinds from a panic — fills the flight with an error if the
/// leader never filled it, and retires the flight, so no follower waits
/// forever and the next request starts afresh.
struct Leader<'a, T: Clone> {
    flights: &'a Flights<T>,
    key: &'a str,
    flight: Arc<Flight<T>>,
}

impl<T: Clone> Drop for Leader<'_, T> {
    fn drop(&mut self) {
        self.flight.fill(Err(format!(
            "the request computing `{}` panicked",
            self.key
        )));
        lock(self.flights).remove(self.key);
    }
}

/// Runs `compute` for `key` once among concurrent callers: the first
/// caller computes, later ones wait for its result. Returns the result and
/// whether this caller waited on another's.
fn single_flight<T: Clone>(
    flights: &Flights<T>,
    key: &str,
    compute: impl FnOnce() -> Result<T, String>,
) -> (Result<T, String>, bool) {
    let flight = {
        let mut map = lock(flights);
        match map.get(key) {
            Some(flight) => Err(Arc::clone(flight)),
            None => {
                let flight = Arc::new(Flight::new());
                map.insert(key.to_string(), Arc::clone(&flight));
                Ok(flight)
            }
        }
    };
    let flight = match flight {
        Ok(flight) => flight,
        Err(theirs) => return (theirs.wait(), true),
    };
    let leader = Leader {
        flights,
        key,
        flight,
    };
    let result = compute();
    leader.flight.fill(result.clone());
    (result, false)
}

struct FileStamp {
    mtime: Option<SystemTime>,
    len: u64,
    fingerprint: u64,
}

struct CircuitSlot {
    circuit: Arc<CachedCircuit>,
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

    /// Evicts LRU entries (cold circuits' compiled programs first, then
    /// whole circuits) until the budget holds, never evicting the
    /// protected circuit or its program. The protected entry may leave the
    /// cache a single entry over budget — a cache that cannot hold its
    /// current working item would thrash.
    fn evict_to_budget(&mut self, budget: usize, protect_fp: u64) -> u64 {
        let mut evicted = 0;
        while budget > 0 && self.bytes > budget {
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
                .filter(|&(&fp, _)| fp != protect_fp)
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

/// The daemon-wide warm cache. All methods take `&self`; internal locks
/// are held only for map bookkeeping, never across a parse or a
/// simulation, so unrelated requests proceed concurrently.
pub struct CircuitCache {
    state: Mutex<CacheState>,
    parses: Flights<Arc<CachedCircuit>>,
    budget: usize,
}

impl CircuitCache {
    /// Creates a cache with a byte `budget` (0 = unbounded).
    #[must_use]
    pub fn new(budget: usize) -> CircuitCache {
        CircuitCache {
            state: Mutex::new(CacheState::default()),
            parses: Mutex::new(HashMap::new()),
            budget,
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
        let (result, coalesced) = single_flight(&self.parses, path, || {
            self.parse_and_insert(path, format, mtime, len)
        });
        result.map(|circuit| CircuitLookup {
            circuit,
            hit: false,
            coalesced,
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
        state.evict_to_budget(self.budget, fingerprint);
        Ok(circuit)
    }

    /// Returns the shared compiled kernel program for `circuit`, compiling
    /// at most once per cached circuit (content-addressed: two paths with
    /// identical netlist bytes share one program). The program's
    /// [`KernelProgram::byte_size`] counts against the same byte budget as
    /// the circuits, and cold circuits' programs are evicted before
    /// circuits.
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
        let evicted = state.evict_to_budget(self.budget, fingerprint);
        Ok(ProgramLookup {
            program,
            hit: false,
            evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitch_core::netlist::Netlist;
    use glitch_io::emit_blif;
    use std::path::PathBuf;

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
        let cache = CircuitCache::new(0);
        let first = cache.circuit_for(&path).unwrap();
        assert!(!first.hit);
        let second = cache.circuit_for(&path).unwrap();
        assert!(second.hit);
        assert!(Arc::ptr_eq(
            first.circuit.netlist(),
            second.circuit.netlist()
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_file_reparses_and_same_content_shares_one_circuit() {
        let dir = temp_dir("stale");
        let netlist = sample_netlist();
        let path = write_netlist(&dir, "a.blif", &netlist);
        let cache = CircuitCache::new(0);
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

    #[test]
    fn programs_compile_once_and_share_by_content() {
        let dir = temp_dir("program");
        let netlist = sample_netlist();
        let path = write_netlist(&dir, "a.blif", &netlist);
        let copy = write_netlist(&dir, "b.blif", &netlist);
        let cache = CircuitCache::new(0);
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
        let cache = Arc::new(CircuitCache::new(0));
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

    #[test]
    fn a_follower_of_a_panicking_leader_gets_an_error() {
        let flights: Flights<u32> = Mutex::new(HashMap::new());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                single_flight(&flights, "k", || {
                    // What a coalescing follower holds while it waits.
                    tx.send(Arc::clone(&lock(&flights)["k"])).unwrap();
                    panic!("the leader panics while computing");
                })
            });
            assert!(leader.join().is_err());
        });
        let followed = rx.recv().unwrap();
        let error = followed.wait().unwrap_err();
        assert!(error.contains("`k` panicked"), "got: {error}");
        // The flight is retired: the next caller leads afresh.
        assert!(lock(&flights).is_empty());
        let (result, coalesced) = single_flight(&flights, "k", || Ok(7));
        assert_eq!(result, Ok(7));
        assert!(!coalesced);
    }
}
