//! The JSON-lines protocol: one request object per line in, one response
//! object per line out.
//!
//! Requests are flat objects with an `op` discriminator. Job ops
//! (`analyze`, `check`, `flip`, `sweep`, `reduce`) carry the same knobs as the CLI
//! flags they mirror, with identical defaults, so a job response is
//! byte-identical to the matching one-shot `glitch-cli ... --json` run.
//! A `sweep` with `flip_inputs` (and optionally `flip_cycle`) is the
//! input-flip sweep of `sweep --flip-inputs`; without them it sweeps
//! delay models. A `check` with `flips` checks the configured run and the
//! flipped one, as a `flip` analyses them.
//! Control ops are `metrics` (the merged registry, as JSON, text or
//! Prometheus exposition), `status` (live serving telemetry), `ping` and
//! `shutdown`. Unknown ops and unknown fields are rejected — a typo must
//! fail loudly, not silently run with defaults.
//!
//! A `reduce` job with `"progress": true` streams interim lines — one
//! JSON object per loop iteration, each starting with a `progress` key —
//! before the single final response line. Every other request still gets
//! exactly one response line.

use std::collections::BTreeMap;

use crate::jsonin::{parse_json, JsonValue};

/// Which analysis pipeline a job request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Single- or multi-seed glitch/power analysis (`analyze --json`).
    Analyze,
    /// Three-valued verification (`check --json`).
    Check,
    /// Input-flip what-if: the configured run and the flipped one
    /// (`analyze --flip --json`).
    Flip,
    /// Delay-model sweep (`sweep --json`), or with `flip_inputs` the
    /// input-flip sweep (`sweep --flip-inputs --json`).
    Sweep,
    /// Glitch-power reduction loop (`reduce --json`).
    Reduce,
}

impl JobKind {
    /// The protocol's `op` string for this kind.
    pub fn op(self) -> &'static str {
        match self {
            JobKind::Analyze => "analyze",
            JobKind::Check => "check",
            JobKind::Flip => "flip",
            JobKind::Sweep => "sweep",
            JobKind::Reduce => "reduce",
        }
    }
}

/// An analysis job: the netlist file plus the CLI-mirroring knobs.
/// `None` fields take the CLI's defaults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobRequest {
    /// Path of the netlist file, resolved on the daemon's filesystem.
    pub file: String,
    /// `--cycles`.
    pub cycles: Option<u64>,
    /// `--seed`.
    pub seed: Option<u64>,
    /// `--seeds`.
    pub seeds: Option<usize>,
    /// `--jobs` (within-job worker threads, not daemon workers).
    pub jobs: Option<usize>,
    /// `--delay`.
    pub delay: Option<String>,
    /// `--delays` (sweep only).
    pub delays: Option<String>,
    /// `--engine` (`queue`, `kernel` or `hybrid`; defaults to `hybrid`,
    /// as on the CLI).
    pub engine: Option<String>,
    /// `--tech`.
    pub tech: Option<String>,
    /// `--frequency-mhz`.
    pub frequency_mhz: Option<f64>,
    /// `--flip` list (required for `flip`, optional for `check`).
    pub flips: Option<String>,
    /// `--flip-inputs` list or `all` (sweep only): sweep one input flip
    /// per listed primary input instead of delay models.
    pub flip_inputs: Option<String>,
    /// `--flip-cycle` (sweep with `flip_inputs` only; defaults to 0).
    pub flip_cycle: Option<u64>,
    /// `--x-init` (check only).
    pub x_init: bool,
    /// `--hazards` (check only).
    pub hazards: bool,
    /// `--budget` list (check only).
    pub budget: Option<String>,
    /// `--stable` list (check only).
    pub stable: Option<String>,
    /// `--moves` list (reduce only).
    pub moves: Option<String>,
    /// `--target` reduction percent (reduce only).
    pub target: Option<f64>,
    /// `--max-iters` (reduce only).
    pub max_iters: Option<usize>,
    /// Stream one interim progress line per reduction-loop iteration
    /// before the final response (reduce only).
    pub progress: bool,
    /// Expected [`glitch_core::netlist::Netlist::fingerprint`] as 16 hex
    /// digits; the daemon rejects the request if the file on disk parses
    /// to a different circuit (stale-client protection).
    pub fingerprint: Option<u64>,
}

/// The format of a `metrics` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// The stable sorted one-line JSON dump.
    Json,
    /// The human-readable multi-line dump, wrapped in a JSON envelope.
    Text,
    /// The Prometheus text exposition, wrapped in a JSON envelope.
    Prometheus,
}

/// One parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// An analysis job to dispatch to the worker pool (boxed: the request
    /// carries a dozen option fields and would dominate the enum size).
    Job(JobKind, Box<JobRequest>),
    /// Serve the merged metrics registry.
    Metrics(MetricsFormat),
    /// Live serving telemetry: uptime, per-op counts, windowed latency
    /// percentiles, queue depth, worker busyness, cache occupancy.
    Status,
    /// Liveness probe.
    Ping,
    /// Drain in-flight jobs, flush the trace, exit 0.
    Shutdown,
}

fn field_str(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<Option<String>, String> {
    match map.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("field `{key}` must be a string")),
    }
}

fn field_u64(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<Option<u64>, String> {
    match map.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

fn field_usize(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<Option<usize>, String> {
    Ok(field_u64(map, key)?.map(|v| v as usize))
}

fn field_f64(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<Option<f64>, String> {
    match map.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

fn field_bool(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<bool, String> {
    match map.get(key) {
        None | Some(JsonValue::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("field `{key}` must be a boolean")),
    }
}

/// The request fields every job op understands.
const JOB_FIELDS: &[&str] = &[
    "op",
    "file",
    "cycles",
    "seed",
    "seeds",
    "jobs",
    "delay",
    "delays",
    "engine",
    "tech",
    "frequency_mhz",
    "flips",
    "flip_inputs",
    "flip_cycle",
    "x_init",
    "hazards",
    "budget",
    "stable",
    "moves",
    "target",
    "max_iters",
    "progress",
    "fingerprint",
];

impl Request {
    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for an `{"error": ...}` response:
    /// malformed JSON, a non-object, an unknown `op`, an unknown field, or
    /// a field of the wrong type.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = parse_json(line).map_err(|e| format!("malformed request: {e}"))?;
        let JsonValue::Object(map) = value else {
            return Err("request must be a JSON object".into());
        };
        let op = field_str(&map, "op")?.ok_or("request is missing the `op` field")?;
        let kind = match op.as_str() {
            "analyze" => JobKind::Analyze,
            "check" => JobKind::Check,
            "flip" => JobKind::Flip,
            "sweep" => JobKind::Sweep,
            "reduce" => JobKind::Reduce,
            "metrics" => {
                for key in map.keys() {
                    if key != "op" && key != "format" {
                        return Err(format!("unknown field `{key}` for op `metrics`"));
                    }
                }
                let format = match field_str(&map, "format")?.as_deref() {
                    None | Some("json") => MetricsFormat::Json,
                    Some("text") => MetricsFormat::Text,
                    Some("prometheus") => MetricsFormat::Prometheus,
                    Some(other) => {
                        return Err(format!(
                            "metrics format must be json, text or prometheus, got `{other}`"
                        ));
                    }
                };
                return Ok(Request::Metrics(format));
            }
            "ping" | "shutdown" | "status" => {
                if map.len() > 1 {
                    return Err(format!("op `{op}` takes no other fields"));
                }
                return Ok(match op.as_str() {
                    "ping" => Request::Ping,
                    "status" => Request::Status,
                    _ => Request::Shutdown,
                });
            }
            other => {
                return Err(format!(
                    "unknown op `{other}` (expected analyze, check, flip, sweep, \
                     reduce, metrics, status, ping or shutdown)"
                ));
            }
        };
        for key in map.keys() {
            if !JOB_FIELDS.contains(&key.as_str()) {
                return Err(format!("unknown field `{key}` for op `{op}`"));
            }
        }
        let fingerprint = match field_str(&map, "fingerprint")? {
            None => None,
            Some(hex) => Some(
                u64::from_str_radix(&hex, 16)
                    .map_err(|_| "field `fingerprint` must be up to 16 hex digits".to_string())?,
            ),
        };
        let job = JobRequest {
            file: field_str(&map, "file")?.ok_or("request is missing the `file` field")?,
            cycles: field_u64(&map, "cycles")?,
            seed: field_u64(&map, "seed")?,
            seeds: field_usize(&map, "seeds")?,
            jobs: field_usize(&map, "jobs")?,
            delay: field_str(&map, "delay")?,
            delays: field_str(&map, "delays")?,
            engine: field_str(&map, "engine")?,
            tech: field_str(&map, "tech")?,
            frequency_mhz: field_f64(&map, "frequency_mhz")?,
            flips: field_str(&map, "flips")?,
            flip_inputs: field_str(&map, "flip_inputs")?,
            flip_cycle: field_u64(&map, "flip_cycle")?,
            x_init: field_bool(&map, "x_init")?,
            hazards: field_bool(&map, "hazards")?,
            budget: field_str(&map, "budget")?,
            stable: field_str(&map, "stable")?,
            moves: field_str(&map, "moves")?,
            target: field_f64(&map, "target")?,
            max_iters: field_usize(&map, "max_iters")?,
            progress: field_bool(&map, "progress")?,
            fingerprint,
        };
        if kind == JobKind::Flip && job.flips.is_none() {
            return Err("op `flip` requires the `flips` field (e.g. \"0:a\")".into());
        }
        Ok(Request::Job(kind, Box::new(job)))
    }
}

/// Renders an error response line.
pub fn error_response(message: &str) -> String {
    crate::json::JsonObject::new()
        .str("error", message)
        .render()
}

/// Renders the trivial `{"ok":true}` acknowledgement line.
pub fn ok_response() -> String {
    crate::json::JsonObject::new().bool("ok", true).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_job_requests_with_defaults() {
        let req = Request::parse(r#"{"op":"analyze","file":"a.blif"}"#).unwrap();
        let Request::Job(kind, job) = req else {
            panic!("expected a job")
        };
        assert_eq!(kind, JobKind::Analyze);
        assert_eq!(job.file, "a.blif");
        assert_eq!(job.cycles, None);
        assert!(!job.x_init);

        let req = Request::parse(
            r#"{"op":"check","file":"a.blif","cycles":50,"x_init":true,"budget":"*=cycle","jobs":2,"seeds":3}"#,
        )
        .unwrap();
        let Request::Job(kind, job) = req else {
            panic!("expected a job")
        };
        assert_eq!(kind, JobKind::Check);
        assert_eq!(job.cycles, Some(50));
        assert_eq!(job.seeds, Some(3));
        assert!(job.x_init);

        let req =
            Request::parse(r#"{"op":"sweep","file":"a.blif","flip_inputs":"all","flip_cycle":4}"#)
                .unwrap();
        let Request::Job(kind, job) = req else {
            panic!("expected a job")
        };
        assert_eq!(kind, JobKind::Sweep);
        assert_eq!(job.flip_inputs.as_deref(), Some("all"));
        assert_eq!(job.flip_cycle, Some(4));

        let req = Request::parse(r#"{"op":"analyze","file":"a.blif","engine":"queue"}"#).unwrap();
        let Request::Job(_, job) = req else {
            panic!("expected a job")
        };
        assert_eq!(job.engine.as_deref(), Some("queue"));
    }

    #[test]
    fn parses_control_requests() {
        assert_eq!(Request::parse(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            Request::parse(r#"{"op":"status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(
            Request::parse(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics(MetricsFormat::Json)
        );
        assert_eq!(
            Request::parse(r#"{"op":"metrics","format":"text"}"#).unwrap(),
            Request::Metrics(MetricsFormat::Text)
        );
        assert_eq!(
            Request::parse(r#"{"op":"metrics","format":"prometheus"}"#).unwrap(),
            Request::Metrics(MetricsFormat::Prometheus)
        );
    }

    #[test]
    fn progress_parses_as_a_job_field() {
        let req = Request::parse(r#"{"op":"reduce","file":"a.blif","progress":true}"#).unwrap();
        let Request::Job(kind, job) = req else {
            panic!("expected a job")
        };
        assert_eq!(kind, JobKind::Reduce);
        assert!(job.progress);
        let req = Request::parse(r#"{"op":"reduce","file":"a.blif"}"#).unwrap();
        let Request::Job(_, job) = req else {
            panic!("expected a job")
        };
        assert!(!job.progress);
        assert!(Request::parse(r#"{"op":"reduce","file":"a.blif","progress":1}"#).is_err());
    }

    #[test]
    fn fingerprints_parse_as_hex() {
        let req =
            Request::parse(r#"{"op":"flip","file":"a.blif","flips":"0:a","fingerprint":"00ff"}"#)
                .unwrap();
        let Request::Job(_, job) = req else {
            panic!("expected a job")
        };
        assert_eq!(job.fingerprint, Some(0xff));
        assert!(Request::parse(
            r#"{"op":"flip","file":"a.blif","flips":"0:a","fingerprint":"xyz"}"#
        )
        .is_err());
    }

    #[test]
    fn rejects_malformed_requests_loudly() {
        for bad in [
            "",
            "[]",
            r#"{"file":"a.blif"}"#,
            r#"{"op":"explode","file":"a.blif"}"#,
            r#"{"op":"analyze"}"#,
            r#"{"op":"analyze","file":"a.blif","cyclez":1}"#,
            r#"{"op":"analyze","file":"a.blif","cycles":"many"}"#,
            r#"{"op":"flip","file":"a.blif"}"#,
            r#"{"op":"ping","file":"a.blif"}"#,
            r#"{"op":"status","file":"a.blif"}"#,
            r#"{"op":"metrics","format":"xml"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
