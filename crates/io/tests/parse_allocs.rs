//! Allocation gates of the front end and of the netlist storage: counts
//! the heap allocations one `parse_blif` of the 32×32 array multiplier
//! makes, one `KernelProgram::compile` of it (validation and levelization
//! included), one clone of it and one buffer insertion into it, on this
//! thread only, and bounds each count. Allocation counts repeat exactly
//! from run to run, so this pins the allocation-light design without a
//! timing bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use glitch_arith::{AdderStyle, ArrayMultiplier};
use glitch_io::{emit_blif, parse_blif, GateLibrary};
use glitch_retime::rewrite::insert_buffer;
use glitch_sim::KernelProgram;

/// The system allocator, counting the allocations and reallocations made
/// on a thread while that thread's counter is switched on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    if COUNTING.with(Cell::get) {
        COUNT.with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the thread-local counters are const-initialised `Cell`s, so
// touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this type.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations of `f` made on the calling thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|count| count.set(0));
    COUNTING.with(|on| on.set(true));
    let value = f();
    COUNTING.with(|on| on.set(false));
    (value, COUNT.with(Cell::get))
}

/// The reader's own count on mult32, plus about 10%.
const MULT32_PARSE_ALLOCATIONS: u64 = 7_900;

#[test]
fn mult32_parse_stays_allocation_light() {
    let library = GateLibrary::standard();
    let text = emit_blif(&ArrayMultiplier::new(32, AdderStyle::CompoundCell).netlist);
    let (netlist, count) = allocations_of(|| parse_blif(&text, &library).expect("mult32 parses"));
    assert_eq!(netlist.cell_count(), 2049);
    println!("parse_blif(mult32): {count} allocations");
    assert!(
        count <= MULT32_PARSE_ALLOCATIONS,
        "parse_blif(mult32) made {count} allocations, over the bound of {MULT32_PARSE_ALLOCATIONS}"
    );
}

/// `KernelProgram::compile`'s own count on mult32, plus about 10%.
const MULT32_COMPILE_ALLOCATIONS: u64 = 50;

#[test]
fn mult32_compile_stays_allocation_light() {
    let netlist = ArrayMultiplier::new(32, AdderStyle::CompoundCell).netlist;
    let (program, count) =
        allocations_of(|| KernelProgram::compile(&netlist).expect("mult32 compiles"));
    assert_eq!(program.op_count(), 2049);
    println!("KernelProgram::compile(mult32): {count} allocations");
    assert!(
        count <= MULT32_COMPILE_ALLOCATIONS,
        "KernelProgram::compile(mult32) made {count} allocations, over the bound of {MULT32_COMPILE_ALLOCATIONS}"
    );
}

/// A clone copies a handful of buffers: the names, the net, cell and pin
/// records, the input and output lists, the name index and the cached
/// topology. It does not grow with the netlist.
const NETLIST_CLONE_ALLOCATIONS: u64 = 16;

#[test]
fn a_netlist_clone_copies_a_handful_of_buffers() {
    let netlist = ArrayMultiplier::new(32, AdderStyle::CompoundCell).netlist;
    netlist.validate().expect("mult32 is valid");
    let (copy, count) = allocations_of(|| netlist.clone());
    assert_eq!(copy.fingerprint(), netlist.fingerprint());
    println!("Netlist::clone(mult32): {count} allocations");
    assert!(
        count <= NETLIST_CLONE_ALLOCATIONS,
        "Netlist::clone(mult32) made {count} allocations, over the bound of {NETLIST_CLONE_ALLOCATIONS}"
    );
}

/// A buffer insertion is a clone plus one net, one cell and one pin move,
/// and validating an unchanged netlist again reads the cached verdict.
const INSERT_BUFFER_ALLOCATIONS: u64 = 32;

#[test]
fn a_buffer_insertion_edits_a_clone() {
    let netlist = ArrayMultiplier::new(32, AdderStyle::CompoundCell).netlist;
    netlist.validate().expect("mult32 is valid");
    let net = netlist.inputs()[0];
    let (rewrite, count) = allocations_of(|| insert_buffer(&netlist, net).expect("buffers"));
    assert_eq!(rewrite.netlist.cell_count(), netlist.cell_count() + 1);
    println!("insert_buffer(mult32): {count} allocations");
    assert!(
        count <= INSERT_BUFFER_ALLOCATIONS,
        "insert_buffer(mult32) made {count} allocations, over the bound of {INSERT_BUFFER_ALLOCATIONS}"
    );
    let ((), count) = allocations_of(|| {
        netlist.validate().expect("still valid");
        netlist.levelize().expect("levelizes");
    });
    assert_eq!(count, 0, "a second validate and levelize allocate nothing");
}
