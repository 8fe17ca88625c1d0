//! Criterion benchmarks of the netlist interchange layer: BLIF emission
//! and parsing throughput (the BLIF reader streams borrowed tokens and
//! resolves names through the netlist's own map; the Verilog reader runs
//! on interned identifiers), and event-driven simulation of a circuit
//! that went through the parse round trip (the end-to-end
//! `glitch-cli analyze` hot path). `parse_mult32` parses the fixture
//! glitchbench times as every one-shot command's set-up.

use std::fmt::Write;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use glitch_core::arith::{AdderStyle, ArrayMultiplier, RippleCarryAdder, WallaceTreeMultiplier};
use glitch_core::sim::{ActivityProbe, RandomStimulus, SimSession};
use glitch_io::{emit_blif, parse_blif, parse_verilog, GateLibrary};

const SIM_CYCLES: u64 = 200;

/// A synthetic structural-Verilog module: a `stages`-deep xor/and chain
/// whose `a` and `b` inputs are re-referenced by every gate, the
/// identifier-heavy shape that exercises the parser's interning path.
fn synthetic_verilog(stages: usize) -> String {
    let mut text = String::from("module chain (a, b, y);\n  input a, b;\n  output y;\n");
    let wires: Vec<String> = (0..stages).map(|i| format!("t{i}")).collect();
    let _ = writeln!(text, "  wire {};", wires.join(", "));
    let _ = writeln!(text, "  xor g0 (t0, a, b);");
    for i in 1..stages {
        let gate = if i % 2 == 0 { "xor" } else { "and" };
        let other = if i % 3 == 0 { "a" } else { "b" };
        let _ = writeln!(text, "  {gate} g{i} (t{i}, t{}, {other});", i - 1);
    }
    let _ = writeln!(text, "  buf gy (y, t{});", stages - 1);
    text.push_str("endmodule\n");
    text
}

fn bench_io(c: &mut Criterion) {
    let library = GateLibrary::standard();

    // A mid-size circuit: a 16-bit Wallace multiplier is a few hundred
    // cells and a few kilobytes of BLIF.
    let mult = WallaceTreeMultiplier::new(16, AdderStyle::CompoundCell);
    let blif = emit_blif(&mult.netlist);

    let mut group = c.benchmark_group("blif");
    group.throughput(Throughput::Bytes(blif.len() as u64));
    group.bench_function("emit_wallace16", |b| {
        b.iter(|| emit_blif(&mult.netlist).len())
    });
    group.bench_function("parse_wallace16", |b| {
        b.iter(|| {
            parse_blif(&blif, &library)
                .expect("benchmark input parses")
                .cell_count()
        })
    });
    group.bench_function("round_trip_wallace16", |b| {
        b.iter(|| {
            let parsed = parse_blif(&blif, &library).expect("benchmark input parses");
            emit_blif(&parsed).len()
        })
    });

    // The 32×32 array multiplier: 2049 cells, 3137 nets, about 120 KB.
    let mult32 = emit_blif(&ArrayMultiplier::new(32, AdderStyle::CompoundCell).netlist);
    group.throughput(Throughput::Bytes(mult32.len() as u64));
    group.bench_function("parse_mult32", |b| {
        b.iter(|| {
            parse_blif(&mult32, &library)
                .expect("benchmark input parses")
                .cell_count()
        })
    });
    group.finish();

    let verilog = synthetic_verilog(512);
    let mut group = c.benchmark_group("verilog");
    group.throughput(Throughput::Bytes(verilog.len() as u64));
    group.bench_function("parse_chain512", |b| {
        b.iter(|| {
            parse_verilog(&verilog, &library)
                .expect("benchmark input parses")
                .cell_count()
        })
    });
    group.finish();

    // Simulating a parsed circuit: the tail of the analyze pipeline.
    let adder_blif = emit_blif(&RippleCarryAdder::new(16, AdderStyle::CompoundCell).netlist);
    let parsed = parse_blif(&adder_blif, &library).expect("benchmark input parses");
    let buses: Vec<glitch_core::netlist::Bus> = parsed
        .inputs()
        .chunks(32)
        .map(|chunk| glitch_core::netlist::Bus::new(chunk.to_vec()))
        .collect();
    let mut group = c.benchmark_group("parsed_simulation");
    group.throughput(Throughput::Elements(SIM_CYCLES));
    group.bench_function("rca16_200_cycles", |b| {
        b.iter(|| {
            let report = SimSession::new(&parsed)
                .stimulus(RandomStimulus::new(buses.clone(), SIM_CYCLES, 42))
                .probe(ActivityProbe::new())
                .run()
                .expect("simulates");
            report
                .probe::<ActivityProbe>()
                .expect("probe attached")
                .trace()
                .totals()
                .transitions
        })
    });
    group.finish();
}

criterion_group!(benches, bench_io);
criterion_main!(benches);
