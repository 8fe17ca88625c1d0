//! The serving-telemetry gate from the live-observability PR: a daemon
//! with the access log enabled (windowed latency histograms are always
//! on) must answer warm `flip` requests within 5% of a daemon running
//! without it — the guarantee that switching the observability surface
//! on does not tax the serving path.
//!
//! Ignored by default so plain `cargo test` stays timing-free; run with
//!
//! ```text
//! cargo test --release -p glitch-bench --test obs_gate -- --ignored
//! ```

use std::net::TcpListener;
use std::time::{Duration, Instant};

use glitch_serve::{run_server, Client, ServeConfig};

const RUNS: usize = 9;
const REQUESTS_PER_RUN: usize = 40;
const MAX_OVERHEAD: f64 = 1.05;

fn counter4() -> String {
    format!(
        "{}/../../tests/data/counter4.blif",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Starts a daemon on an ephemeral port (optionally with an access log)
/// and blocks until it answers a ping.
fn spawn_daemon(access_log: Option<String>) -> u16 {
    let port = TcpListener::bind(("127.0.0.1", 0))
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port();
    let mut config = ServeConfig::new(port, 2, 256 * 1024 * 1024);
    config.access_log = access_log;
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

fn time_warm_flips(client: &mut Client, request: &str) -> Duration {
    let start = Instant::now();
    for _ in 0..REQUESTS_PER_RUN {
        let response = client.request(request).expect("request");
        assert!(
            !response.starts_with(r#"{"error""#),
            "request failed: {response}"
        );
    }
    start.elapsed()
}

/// Median wall times of `RUNS` interleaved bare/logged batches —
/// interleaving decorrelates clock-frequency drift from the comparison.
fn measure(bare: &mut Client, logged: &mut Client, request: &str) -> (Duration, Duration) {
    let mut bare_times = Vec::with_capacity(RUNS);
    let mut logged_times = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        bare_times.push(time_warm_flips(bare, request));
        logged_times.push(time_warm_flips(logged, request));
    }
    bare_times.sort_unstable();
    logged_times.sort_unstable();
    (bare_times[RUNS / 2], logged_times[RUNS / 2])
}

#[test]
#[ignore = "timing gate; run explicitly in CI with --release"]
fn access_log_and_windowed_histograms_cost_less_than_five_percent() {
    let dir = std::env::temp_dir().join(format!("glitch-obs-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("access.jsonl").to_string_lossy().into_owned();
    let file = counter4();
    let request = format!(r#"{{"op":"flip","file":"{file}","cycles":100,"flips":"1:en"}}"#);

    let bare_port = spawn_daemon(None);
    let logged_port = spawn_daemon(Some(log));
    let mut bare = Client::connect(bare_port).expect("connect");
    let mut logged = Client::connect(logged_port).expect("connect");

    // Prime both caches so every timed request is a warm netlist hit.
    time_warm_flips(&mut bare, &request);
    time_warm_flips(&mut logged, &request);

    // Timing gates are noisy; allow one re-measurement before failing.
    let mut verdict = (Duration::ZERO, Duration::ZERO, f64::MAX);
    for attempt in 0..2 {
        let (bare_time, logged_time) = measure(&mut bare, &mut logged, &request);
        let ratio = logged_time.as_secs_f64() / bare_time.as_secs_f64().max(1e-9);
        println!(
            "obs gate (attempt {attempt}): bare {bare_time:?}, access-logged {logged_time:?}, \
             ratio {ratio:.3} (maximum {MAX_OVERHEAD})"
        );
        verdict = (bare_time, logged_time, ratio);
        if ratio < MAX_OVERHEAD {
            break;
        }
    }

    for port in [bare_port, logged_port] {
        let mut closer = Client::connect(port).expect("connect");
        assert_eq!(
            closer.request(r#"{"op":"shutdown"}"#).expect("shutdown"),
            r#"{"ok":true}"#
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    let (bare_time, logged_time, ratio) = verdict;
    assert!(
        ratio < MAX_OVERHEAD,
        "serving-telemetry overhead regressed: {ratio:.3} >= {MAX_OVERHEAD} \
         (bare {bare_time:?} vs access-logged {logged_time:?})"
    );
}
