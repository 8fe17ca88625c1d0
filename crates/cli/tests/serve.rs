//! End-to-end tests of the `glitch-cli serve` daemon and its `client`
//! companion over the JSON-lines protocol: job responses must be
//! byte-identical to the matching one-shot `--json` runs (repeated flips
//! and check flips too), stale fingerprints must be rejected,
//! `shutdown` must drain and exit 0, `status` must report live telemetry
//! (with deterministic counts at any worker count), the access log must
//! carry every request exactly once with monotonic ids, a streaming
//! `reduce` must emit progress lines before a final line byte-identical
//! to the non-streaming run, and an oversized request line must be
//! refused without taking the daemon down.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};

use glitch_serve::jsonin::{parse_json, JsonValue};

fn data(file: &str) -> String {
    format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// A daemon spawned on an ephemeral loopback port, killed on drop if a
/// test panics before shutting it down.
struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        Daemon::spawn_with_jobs("2", extra_args)
    }

    fn spawn_with_jobs(jobs: &str, extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_glitch-cli"))
            .args(["serve", "--jobs", jobs])
            .args(extra_args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("the daemon must spawn");
        // The ephemeral port is announced on the first stdout line.
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("the daemon must print its listening line");
        let port = line
            .trim()
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("no port in listening line {line:?}"));
        Daemon { child, port }
    }

    /// Sends request lines through the `client` subcommand and returns
    /// one response line per request. The client exits nonzero exactly
    /// when a response was an error object; both outcomes are asserted.
    fn client(&self, requests: &[&str]) -> Vec<String> {
        self.client_lines(requests, requests.len())
    }

    /// Like [`Daemon::client`] for streaming requests, where interim
    /// progress lines make stdout longer than the request list.
    fn client_lines(&self, requests: &[&str], expected_lines: usize) -> Vec<String> {
        let output = Command::new(env!("CARGO_BIN_EXE_glitch-cli"))
            .args(["client", "--port", &self.port.to_string()])
            .args(requests)
            .output()
            .expect("the client must spawn");
        let text = String::from_utf8(output.stdout).expect("responses are UTF-8");
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), expected_lines, "unexpected response count");
        let errors = lines.iter().any(|l| l.starts_with(r#"{"error""#));
        assert_eq!(
            output.status.success(),
            !errors,
            "client exit code must track error responses: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        lines
    }

    /// Requests shutdown and waits for a clean exit.
    fn shutdown(mut self) {
        let response = self.client(&[r#"{"op":"shutdown"}"#]);
        assert_eq!(response[0], r#"{"ok":true}"#);
        let status = self.child.wait().expect("the daemon must be waitable");
        assert!(status.success(), "daemon exited with {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Normal paths call `shutdown`; this only fires on panic.
        if self.child.try_wait().map(|s| s.is_none()).unwrap_or(false) {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

fn one_shot_json(args: &[&str]) -> String {
    let output: Output = Command::new(env!("CARGO_BIN_EXE_glitch-cli"))
        .args(args)
        .output()
        .expect("the binary must spawn");
    assert!(
        output.status.success(),
        "one-shot failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("reports are UTF-8")
        .trim_end()
        .to_string()
}

#[test]
fn daemon_responses_are_byte_identical_to_one_shot_json() {
    let daemon = Daemon::spawn(&[]);
    let counter = data("counter4.blif");
    let mult = data("mult4.blif");
    let rca = data("rca4.blif");
    let xinit = data("xinit_ok.blif");

    // (request line, equivalent one-shot invocation) pairs across every
    // job op, including a multi-seed analyze, a checker suite and the
    // engines a request must name explicitly.
    let cases: Vec<(String, Vec<&str>)> = vec![
        (
            format!(r#"{{"op":"analyze","file":"{counter}","cycles":120}}"#),
            vec!["analyze", &counter, "--cycles", "120", "--json"],
        ),
        (
            format!(r#"{{"op":"analyze","file":"{mult}","cycles":60,"seeds":3,"jobs":2}}"#),
            vec![
                "analyze", &mult, "--cycles", "60", "--seeds", "3", "--jobs", "2", "--json",
            ],
        ),
        (
            format!(r#"{{"op":"analyze","file":"{counter}","cycles":120,"engine":"queue"}}"#),
            vec![
                "analyze", &counter, "--cycles", "120", "--engine", "queue", "--json",
            ],
        ),
        (
            format!(r#"{{"op":"analyze","file":"{mult}","cycles":60,"engine":"kernel"}}"#),
            vec![
                "analyze", &mult, "--cycles", "60", "--engine", "kernel", "--json",
            ],
        ),
        (
            format!(r#"{{"op":"check","file":"{mult}","cycles":80,"hazards":true}}"#),
            vec!["check", &mult, "--cycles", "80", "--hazards", "--json"],
        ),
        (
            format!(
                r#"{{"op":"check","file":"{mult}","cycles":80,"hazards":true,"engine":"queue"}}"#
            ),
            vec![
                "check",
                &mult,
                "--cycles",
                "80",
                "--hazards",
                "--engine",
                "queue",
                "--json",
            ],
        ),
        (
            format!(r#"{{"op":"flip","file":"{counter}","cycles":100,"flips":"3:en"}}"#),
            vec![
                "analyze", &counter, "--cycles", "100", "--flip", "3:en", "--json",
            ],
        ),
        (
            format!(r#"{{"op":"sweep","file":"{counter}","cycles":50,"delays":"unit,zero"}}"#),
            vec![
                "sweep",
                &counter,
                "--cycles",
                "50",
                "--delays",
                "unit,zero",
                "--json",
            ],
        ),
        (
            format!(
                r#"{{"op":"sweep","file":"{counter}","cycles":50,"delays":"unit,zero","engine":"queue"}}"#
            ),
            vec![
                "sweep",
                &counter,
                "--cycles",
                "50",
                "--delays",
                "unit,zero",
                "--engine",
                "queue",
                "--json",
            ],
        ),
        // Input flips: the flip sweep and an X-initialised check re-run
        // against the cached baseline.
        (
            format!(r#"{{"op":"sweep","file":"{rca}","flip_inputs":"all","flip_cycle":40}}"#),
            vec![
                "sweep",
                &rca,
                "--flip-inputs",
                "all",
                "--flip-cycle",
                "40",
                "--json",
            ],
        ),
        (
            format!(
                r#"{{"op":"check","file":"{xinit}","cycles":40,"x_init":true,"flips":"10:en"}}"#
            ),
            vec![
                "check", &xinit, "--cycles", "40", "--x-init", "--flip", "10:en", "--json",
            ],
        ),
        // Default-engine batches: settled on the timed kernel.
        (
            format!(r#"{{"op":"sweep","file":"{mult}","cycles":70}}"#),
            vec!["sweep", &mult, "--cycles", "70", "--json"],
        ),
        (
            format!(r#"{{"op":"sweep","file":"{counter}","cycles":70}}"#),
            vec!["sweep", &counter, "--cycles", "70", "--json"],
        ),
        (
            format!(r#"{{"op":"analyze","file":"{mult}","cycles":70,"seeds":3}}"#),
            vec!["analyze", &mult, "--cycles", "70", "--seeds", "3", "--json"],
        ),
        (
            format!(r#"{{"op":"analyze","file":"{counter}","cycles":70,"seeds":3}}"#),
            vec![
                "analyze", &counter, "--cycles", "70", "--seeds", "3", "--json",
            ],
        ),
        (
            format!(
                r#"{{"op":"reduce","file":"{mult}","cycles":96,"seeds":2,"jobs":1,"max_iters":2}}"#
            ),
            vec![
                "reduce",
                &mult,
                "--cycles",
                "96",
                "--seeds",
                "2",
                "--jobs",
                "1",
                "--max-iters",
                "2",
                "--json",
            ],
        ),
    ];

    let requests: Vec<&str> = cases.iter().map(|(line, _)| line.as_str()).collect();
    let responses = daemon.client(&requests);
    for ((request, one_shot), response) in cases.iter().zip(&responses) {
        assert_eq!(
            response,
            &one_shot_json(one_shot),
            "daemon response for {request} diverges from the one-shot run"
        );
    }
    daemon.shutdown();
}

#[test]
fn oversized_request_lines_are_refused_and_the_daemon_keeps_serving() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = TcpStream::connect(("127.0.0.1", daemon.port)).expect("the daemon accepts");
    // One byte past the cap and no newline: the daemon must not wait for
    // the rest of the line.
    stream
        .write_all(&vec![b'a'; glitch_serve::server::MAX_REQUEST_BYTES + 1])
        .expect("the oversized line is sent");
    let mut reader = BufReader::new(&stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("the daemon replies");
    assert!(
        reply.starts_with(r#"{"error":"request line exceeds"#),
        "expected an oversized-line error, got {reply}"
    );
    reply.clear();
    assert_eq!(
        reader
            .read_line(&mut reply)
            .expect("the daemon closes cleanly"),
        0,
        "the connection must be closed after the error, got {reply}"
    );
    // A fresh connection is served as usual.
    assert_eq!(daemon.client(&[r#"{"op":"ping"}"#]), [r#"{"ok":true}"#]);
    daemon.shutdown();
}

#[test]
fn repeated_flips_equal_the_one_shot_json() {
    let daemon = Daemon::spawn(&[]);
    let counter = data("counter4.blif");
    let flip = format!(r#"{{"op":"flip","file":"{counter}","cycles":80,"flips":"2:en"}}"#);
    let other = format!(r#"{{"op":"flip","file":"{counter}","cycles":80,"flips":"5:en"}}"#);

    let responses = daemon.client(&[&flip, &other, &flip, r#"{"op":"metrics"}"#]);
    assert_eq!(
        responses[0], responses[2],
        "the same flip must render identically when repeated"
    );
    assert_ne!(responses[0], responses[1]);
    assert_eq!(
        responses[0],
        one_shot_json(&["analyze", &counter, "--cycles", "80", "--flip", "2:en", "--json"])
    );
    assert_eq!(
        responses[1],
        one_shot_json(&["analyze", &counter, "--cycles", "80", "--flip", "5:en", "--json"])
    );
    let metrics = &responses[3];
    assert!(
        metrics.contains(r#""cache.netlist_misses":1"#),
        "expected one parsed netlist shared by all flips in {metrics}"
    );
    daemon.shutdown();
}

#[test]
fn flips_take_an_engine_like_the_one_shot_flag() {
    let daemon = Daemon::spawn(&[]);
    let counter = data("counter4.blif");
    for engine in ["queue", "hybrid"] {
        let flip = format!(
            r#"{{"op":"flip","file":"{counter}","cycles":80,"flips":"2:en","engine":"{engine}"}}"#
        );
        let responses = daemon.client(&[&flip]);
        assert_eq!(
            responses[0],
            one_shot_json(&[
                "analyze", &counter, "--cycles", "80", "--flip", "2:en", "--engine", engine,
                "--json"
            ]),
            "engine {engine}"
        );
    }
    daemon.shutdown();
}

#[test]
fn daemon_analyze_settles_on_the_timed_kernel() {
    // The daemon always records metrics; they are read off the finished
    // reports, so an `analyze` request settles where an untraced run does.
    let daemon = Daemon::spawn(&[]);
    let rca = data("rca4.blif");
    let analyze = format!(r#"{{"op":"analyze","file":"{rca}","cycles":60}}"#);
    let responses = daemon.client(&[&analyze, r#"{"op":"metrics"}"#]);
    let metrics = parse_json(&responses[1]).expect("metrics is JSON");
    let shards = walk(&metrics, &["counters", "timed.shards"]).as_u64();
    assert!(shards.is_some_and(|n| n >= 1), "{}", responses[1]);
    assert_eq!(
        walk(&metrics, &["counters", "timed.fallbacks"]).as_u64(),
        Some(0),
        "{}",
        responses[1]
    );
    daemon.shutdown();
}

#[test]
fn repeated_check_flips_equal_the_one_shot_json() {
    let daemon = Daemon::spawn(&[]);
    let xinit = data("xinit_ok.blif");
    let check =
        format!(r#"{{"op":"check","file":"{xinit}","cycles":40,"x_init":true,"flips":"10:en"}}"#);
    let responses = daemon.client(&[&check, &check]);
    assert!(responses[0].contains(r#""flipped":{"verdict":"pass""#));
    assert_eq!(
        responses[0], responses[1],
        "the same check flip must render identically when repeated"
    );
    assert_eq!(
        responses[0],
        one_shot_json(&[
            "check", &xinit, "--cycles", "40", "--x-init", "--flip", "10:en", "--json"
        ])
    );
    daemon.shutdown();
}

#[test]
fn the_kernel_engine_refuses_timed_delays_and_timing_checks() {
    let daemon = Daemon::spawn(&[]);
    let mult = data("mult4.blif");
    let requests = [
        format!(
            r#"{{"op":"analyze","file":"{mult}","cycles":40,"engine":"kernel","delay":"adder"}}"#
        ),
        format!(
            r#"{{"op":"check","file":"{mult}","cycles":40,"engine":"kernel","budget":"outputs=4"}}"#
        ),
        format!(r#"{{"op":"check","file":"{mult}","cycles":40,"engine":"kernel","hazards":true}}"#),
        format!(
            r#"{{"op":"analyze","file":"{mult}","cycles":40,"engine":"kernel","delay":"zero"}}"#
        ),
    ];
    let lines: Vec<&str> = requests.iter().map(String::as_str).collect();
    let responses = daemon.client(&lines);
    assert!(
        responses[0].starts_with(r#"{"error":"#) && responses[0].contains("zero delay only"),
        "{}",
        responses[0]
    );
    for response in &responses[1..3] {
        assert!(
            response.starts_with(r#"{"error":"#) && response.contains("pass vacuously"),
            "{response}"
        );
    }
    assert_eq!(
        responses[3],
        one_shot_json(&[
            "analyze", &mult, "--cycles", "40", "--engine", "kernel", "--delay", "zero", "--json"
        ])
    );
    daemon.shutdown();
}

#[test]
fn stale_fingerprints_and_protocol_errors_are_rejected() {
    let daemon = Daemon::spawn(&[]);
    let counter = data("counter4.blif");

    let stale = format!(
        r#"{{"op":"analyze","file":"{counter}","cycles":40,"fingerprint":"0000000000000001"}}"#
    );
    let responses = daemon.client(&[&stale, r#"{"op":"explode"}"#, r#"{"op":"ping"}"#]);
    assert!(
        responses[0].starts_with(r#"{"error":"stale fingerprint"#),
        "expected a stale-fingerprint rejection, got {}",
        responses[0]
    );
    assert!(responses[1].starts_with(r#"{"error":"unknown op"#));
    assert!(responses[2].contains(r#""ok":true"#));
    daemon.shutdown();
}

#[test]
fn shutdown_drains_in_flight_jobs_and_flushes_the_trace() {
    let trace = std::env::temp_dir().join(format!("glitch-serve-test-{}.json", std::process::id()));
    let trace_path = trace.to_str().expect("temp path is UTF-8").to_string();
    let daemon = Daemon::spawn(&["--trace-out", &trace_path]);
    let counter = data("counter4.blif");

    // The job and the shutdown ride the same connection: the daemon must
    // answer the job before acknowledging the shutdown.
    let responses = daemon.client(&[
        &format!(r#"{{"op":"analyze","file":"{counter}","cycles":200}}"#),
        r#"{"op":"shutdown"}"#,
    ]);
    assert!(responses[0].starts_with(r#"{"file":"#));
    assert_eq!(responses[1], r#"{"ok":true}"#);

    let mut daemon = daemon;
    let status = daemon.child.wait().expect("the daemon must be waitable");
    assert!(status.success(), "daemon exited with {status}");

    let trace_text =
        std::fs::read_to_string(&trace).expect("the trace must be flushed at shutdown");
    assert!(trace_text.trim_start().starts_with('['));
    assert!(
        trace_text.contains(r#""name":"worker-1""#),
        "worker tracks must be named in the trace"
    );
    assert!(
        trace_text.contains(r#""ph":"X""#) && trace_text.contains("analyze"),
        "the request span must land in the trace"
    );
    std::fs::remove_file(&trace).ok();
}

fn json_object(value: &JsonValue) -> &BTreeMap<String, JsonValue> {
    match value {
        JsonValue::Object(map) => map,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn walk<'a>(root: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    let mut value = root;
    for key in path {
        value = json_object(value)
            .get(*key)
            .unwrap_or_else(|| panic!("missing field `{key}` in {value:?}"));
    }
    value
}

/// The byte range of the leading deterministic `counts` sub-object of a
/// `status` response (everything after it is wall-clock-dependent).
fn counts_prefix(status_line: &str) -> &str {
    let end = status_line
        .find(",\"uptime_us\"")
        .unwrap_or_else(|| panic!("no uptime_us in {status_line}"));
    &status_line[..end]
}

#[test]
fn status_reports_live_telemetry_with_deterministic_counts() {
    let counter = data("counter4.blif");
    let analyze = format!(r#"{{"op":"analyze","file":"{counter}","cycles":120}}"#);
    let mut counts = Vec::new();
    for jobs in ["1", "2", "8"] {
        let daemon = Daemon::spawn_with_jobs(jobs, &[]);
        daemon.client(&[&analyze, &analyze, r#"{"op":"ping"}"#]);

        let output = Command::new(env!("CARGO_BIN_EXE_glitch-cli"))
            .args(["status", "--port", &daemon.port.to_string(), "--json"])
            .output()
            .expect("status must spawn");
        assert!(
            output.status.success(),
            "status failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let line = String::from_utf8(output.stdout).unwrap().trim().to_string();
        let status = parse_json(&line).expect("status is valid JSON");

        // The structural fields and the live telemetry.
        assert_eq!(
            walk(&status, &["counts", "requests", "analyze"]).as_u64(),
            Some(2)
        );
        assert_eq!(
            walk(&status, &["counts", "requests", "ping"]).as_u64(),
            Some(1)
        );
        assert_eq!(
            walk(&status, &["counts", "requests", "status"]).as_u64(),
            Some(1)
        );
        assert_eq!(walk(&status, &["queue_depth"]).as_u64(), Some(0));
        assert_eq!(walk(&status, &["workers"]).as_u64(), jobs.parse().ok());
        assert!(walk(&status, &["uptime_us"]).as_u64().unwrap() > 0);
        assert!(walk(&status, &["cache", "circuits"]).as_u64().unwrap() >= 1);
        // Nonzero handle-time percentiles over the 1-minute window.
        let handle = walk(&status, &["latency", "analyze", "handle_us", "1m"]);
        assert_eq!(walk(handle, &["count"]).as_u64(), Some(2));
        assert!(
            walk(handle, &["p50"]).as_u64().unwrap() > 0,
            "p50 in {line}"
        );
        assert!(
            walk(handle, &["p99"]).as_u64().unwrap() > 0,
            "p99 in {line}"
        );
        assert!(walk(
            &status,
            &["latency", "analyze", "queue_wait_us", "1m", "count"]
        )
        .as_u64()
        .is_some());

        // `top` renders the same telemetry as a dashboard.
        let top = Command::new(env!("CARGO_BIN_EXE_glitch-cli"))
            .args([
                "top",
                "--port",
                &daemon.port.to_string(),
                "--interval",
                "50",
                "--count",
                "2",
            ])
            .output()
            .expect("top must spawn");
        assert!(
            top.status.success(),
            "top failed: {}",
            String::from_utf8_lossy(&top.stderr)
        );
        let frames = String::from_utf8(top.stdout).unwrap();
        assert!(frames.contains("glitch-serve 127.0.0.1:"), "got: {frames}");
        assert!(frames.contains("analyze"), "got: {frames}");
        assert!(
            frames.matches("\u{1b}[H\u{1b}[2J").count() == 2,
            "two redraw frames expected: {frames:?}"
        );

        counts.push(counts_prefix(&line).to_string());
        daemon.shutdown();
    }
    assert_eq!(counts[0], counts[1], "counts must not depend on --jobs");
    assert_eq!(counts[1], counts[2], "counts must not depend on --jobs");
}

#[test]
fn the_access_log_carries_every_request_exactly_once() {
    let dir = std::env::temp_dir().join(format!("glitch-access-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("access.jsonl").to_str().unwrap().to_string();
    let trace = dir.join("trace.json").to_str().unwrap().to_string();
    let daemon = Daemon::spawn(&["--access-log", &log, "--trace-out", &trace]);
    let counter = data("counter4.blif");

    // One connection, sequential requests: ok job, error, control ops.
    daemon.client(&[
        &format!(r#"{{"op":"analyze","file":"{counter}","cycles":60}}"#),
        r#"{"op":"explode"}"#,
        r#"{"op":"ping"}"#,
        r#"{"op":"metrics"}"#,
    ]);
    daemon.shutdown();

    let text = std::fs::read_to_string(&log).expect("the access log must exist");
    let lines: Vec<&str> = text.lines().collect();
    // analyze, invalid, ping, metrics, status? no — shutdown. 5 lines.
    assert_eq!(lines.len(), 5, "one line per request: {text}");
    let mut previous_id = 0;
    for line in &lines {
        let entry = parse_json(line).unwrap_or_else(|e| panic!("unparseable line {line}: {e}"));
        let entry = json_object(&entry);
        for key in [
            "id",
            "op",
            "fingerprint",
            "cache",
            "queue_us",
            "wall_us",
            "outcome",
        ] {
            assert!(entry.contains_key(key), "missing {key} in {line}");
        }
        let id = entry["id"].as_u64().expect("id is a number");
        assert!(id > previous_id, "ids must be strictly increasing: {text}");
        previous_id = id;
    }
    let ops: Vec<String> = lines
        .iter()
        .map(|l| {
            walk(&parse_json(l).unwrap(), &["op"])
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(ops, ["analyze", "invalid", "ping", "metrics", "shutdown"]);
    let first = parse_json(lines[0]).unwrap();
    assert_eq!(walk(&first, &["outcome"]).as_str(), Some("ok"));
    assert_eq!(walk(&first, &["cache"]).as_str(), Some("miss"));
    assert_eq!(
        walk(&first, &["fingerprint"]).as_str().map(str::len),
        Some(16)
    );
    let invalid = parse_json(lines[1]).unwrap();
    assert_eq!(walk(&invalid, &["outcome"]).as_str(), Some("error"));

    // The analyze request's id also tags its span in the Chrome trace.
    let analyze_id = walk(&first, &["id"]).as_u64().unwrap();
    let trace_text = std::fs::read_to_string(&trace).expect("trace must flush");
    assert!(
        trace_text.contains(&format!(r#""args":{{"request_id":{analyze_id}}}"#)),
        "request id {analyze_id} missing from trace: {trace_text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_access_log_rotates_at_the_size_cap() {
    let dir = std::env::temp_dir().join(format!("glitch-rotate-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("access.jsonl").to_str().unwrap().to_string();
    // Each ping line is ~90 bytes; a 200-byte cap forces rotation quickly.
    let daemon = Daemon::spawn(&["--access-log", &log, "--access-log-max-bytes", "200"]);
    daemon.client(&[r#"{"op":"ping"}"#, r#"{"op":"ping"}"#, r#"{"op":"ping"}"#]);
    daemon.shutdown();

    let rotated = format!("{log}.1");
    assert!(
        std::path::Path::new(&rotated).exists(),
        "the log must rotate to {rotated}"
    );
    let mut previous_id = 0;
    for path in [&rotated, &log] {
        for line in std::fs::read_to_string(path).unwrap().lines() {
            let entry = parse_json(line).unwrap_or_else(|e| panic!("bad line {line}: {e}"));
            let id = walk(&entry, &["id"]).as_u64().expect("id is a number");
            assert!(id > previous_id, "ids must stay increasing across rotation");
            previous_id = id;
        }
    }
    assert!(
        previous_id >= 4,
        "all requests logged, got max id {previous_id}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_reduce_sends_progress_lines_before_an_identical_final_line() {
    let daemon = Daemon::spawn(&[]);
    let mult = data("mult4.blif");
    let plain = format!(
        r#"{{"op":"reduce","file":"{mult}","cycles":96,"seeds":2,"jobs":1,"max_iters":2}}"#
    );
    let streaming = format!(
        r#"{{"op":"reduce","file":"{mult}","cycles":96,"seeds":2,"jobs":1,"max_iters":2,"progress":true}}"#
    );
    let baseline = daemon.client(&[&plain])[0].clone();

    let mut interim = Vec::new();
    let mut client = glitch_serve::Client::connect(daemon.port).expect("client connects");
    let final_line = client
        .request_streaming(&streaming, |line| interim.push(line.to_string()))
        .expect("streaming reduce succeeds");
    assert!(
        !interim.is_empty(),
        "at least one progress line must precede the final response"
    );
    for line in &interim {
        let event = parse_json(line).unwrap_or_else(|e| panic!("bad progress line {line}: {e}"));
        assert_eq!(walk(&event, &["progress"]).as_str(), Some("reduce"));
        assert!(walk(&event, &["id"]).as_u64().is_some());
        assert!(walk(&event, &["iteration"]).as_u64().is_some());
        assert!(walk(&event, &["accepted"]).as_bool().is_some());
    }
    assert_eq!(
        final_line, baseline,
        "the final streamed response must be byte-identical to the plain run"
    );

    // The client subcommand prints the same stream one-shot.
    let responses = daemon.client_lines(&[&streaming], interim.len() + 1);
    assert!(responses[0].starts_with(r#"{"progress":"reduce","id":"#));
    assert_eq!(responses.last().unwrap(), &baseline);
    daemon.shutdown();
}

/// A daemon `reduce` refuses what the CLI refuses, with the CLI's
/// message: a `target` outside 0..=100 and an unknown move.
#[test]
fn reduce_refuses_a_bad_target_or_move_like_the_cli() {
    let daemon = Daemon::spawn(&[]);
    let rca = data("rca4.blif");
    let requests = [
        format!(r#"{{"op":"reduce","file":"{rca}","cycles":50,"target":-5}}"#),
        format!(r#"{{"op":"reduce","file":"{rca}","cycles":50,"target":101}}"#),
        format!(r#"{{"op":"reduce","file":"{rca}","cycles":50,"moves":"duplicate"}}"#),
    ];
    let lines: Vec<&str> = requests.iter().map(String::as_str).collect();
    let responses = daemon.client(&lines);
    assert_eq!(
        responses[..2],
        [r#"{"error":"--target must be a percent from 0 to 100"}"#; 2]
    );
    assert_eq!(
        responses[2],
        r#"{"error":"unknown move `duplicate` (expected `buffer` or `retime`)"}"#
    );
    daemon.shutdown();
}
