//! Daemon round-trip latency and throughput over the JSON-lines
//! protocol, against a real `glitch-serve` instance on a loopback port.
//!
//! - `flip_repeat`: the same `flip` request again and again — a netlist
//!   and program cache hit, then the configured and the flipped run.
//! - `replay_N_clients`: N concurrent clients each replaying the same
//!   short request trace (analyze, flip, check), measuring how the
//!   worker pool absorbs parallel load.

use std::net::TcpListener;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use glitch_serve::{run_server, Client, ServeConfig};

const WORKERS: usize = 8;

fn counter4() -> String {
    format!(
        "{}/../../tests/data/counter4.blif",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Starts a daemon on an ephemeral port and blocks until it answers a
/// ping. The port is picked by binding and releasing a listener — the
/// tiny reuse race is acceptable in a benchmark harness.
fn spawn_daemon() -> u16 {
    let port = TcpListener::bind(("127.0.0.1", 0))
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port();
    let config = ServeConfig::new(port, WORKERS, 256 * 1024 * 1024);
    std::thread::spawn(move || run_server(&config).expect("daemon"));
    for _ in 0..200 {
        if let Ok(mut client) = Client::connect(port) {
            if client.request(r#"{"op":"ping"}"#).is_ok() {
                return port;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon did not come up on port {port}");
}

fn must_succeed(response: &str) {
    assert!(
        !response.starts_with(r#"{"error""#),
        "request failed: {response}"
    );
}

fn bench_serve_throughput(c: &mut Criterion) {
    let port = spawn_daemon();
    let file = counter4();
    let mut group = c.benchmark_group("serve_throughput");

    // After the priming request every iteration hits the netlist cache.
    let flip = format!(r#"{{"op":"flip","file":"{file}","cycles":100,"flips":"1:en"}}"#);
    let mut flip_client = Client::connect(port).expect("connect");
    must_succeed(&flip_client.request(&flip).expect("prime"));
    group.bench_function("flip_repeat", |b| {
        b.iter(|| must_succeed(&flip_client.request(&flip).expect("request")))
    });

    // Concurrent replay: every client runs the same mixed trace.
    let trace = vec![
        format!(r#"{{"op":"analyze","file":"{file}","cycles":60}}"#),
        format!(r#"{{"op":"flip","file":"{file}","cycles":60,"flips":"2:en"}}"#),
        format!(r#"{{"op":"check","file":"{file}","cycles":60}}"#),
    ];
    {
        // Prime the caches so replay measures steady-state throughput.
        let mut primer = Client::connect(port).expect("connect");
        for request in &trace {
            must_succeed(&primer.request(request).expect("prime"));
        }
    }
    for clients in [1usize, 4, 8] {
        group.bench_function(format!("replay_{clients}_clients"), |b| {
            b.iter(|| {
                let handles: Vec<_> = (0..clients)
                    .map(|_| {
                        let trace = trace.clone();
                        std::thread::spawn(move || {
                            let mut client = Client::connect(port).expect("connect");
                            for request in &trace {
                                must_succeed(&client.request(request).expect("request"));
                            }
                        })
                    })
                    .collect();
                for handle in handles {
                    handle.join().expect("client thread");
                }
            })
        });
    }
    group.finish();

    let mut closer = Client::connect(port).expect("connect");
    assert_eq!(
        closer.request(r#"{"op":"shutdown"}"#).expect("shutdown"),
        r#"{"ok":true}"#
    );
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
