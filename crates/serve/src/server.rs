//! The daemon: a `TcpListener` accept loop, a fixed worker pool draining
//! a bounded job queue, and graceful shutdown that finishes every
//! admitted job before the process exits.
//!
//! One thread per connection reads JSON-lines requests; control ops
//! (`ping`, `status`, `metrics`, `shutdown`) are answered inline, jobs
//! are queued for the workers. Admission control sheds jobs once the
//! queue is full — a shed request gets an immediate error line rather
//! than unbounded latency. Every request gets a daemon-wide monotonic id
//! (assigned at the connection, before admission) that threads through
//! the trace spans and the `--access-log` line. A `reduce` job with
//! `"progress": true` streams interim progress lines back on the same
//! connection before its final response. Shutdown (protocol request or
//! Ctrl-C on Unix) stops admission, drains the queue and flushes the
//! Chrome trace. A job that panics is answered with an error line and its
//! worker keeps serving (see [`Engine::run_job`]).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::engine::{Engine, RequestContext};
use crate::lock;
use crate::protocol::{error_response, JobKind, JobRequest, Request};

/// The longest request line the daemon reads, in bytes (newline
/// included). A client that sends more without a newline gets one error
/// line and is disconnected, so no client can grow a connection's buffer
/// without bound.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How the daemon binds, sizes its pool and budgets its cache.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen port on 127.0.0.1; 0 picks an ephemeral port (the chosen
    /// port is printed on the `listening` line).
    pub port: u16,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Cache byte budget (0 = unbounded).
    pub cache_bytes: usize,
    /// Admission bound: jobs queued beyond in-flight ones before shedding.
    pub max_queue: usize,
    /// Chrome-trace output path, flushed at shutdown.
    pub trace_out: Option<String>,
    /// Access-log path: one JSON line per request, rotated past
    /// `access_log_max_bytes`.
    pub access_log: Option<String>,
    /// Rotation threshold for the access log.
    pub access_log_max_bytes: u64,
}

impl ServeConfig {
    /// A config with the default pool (`workers`) and queue sizing.
    #[must_use]
    pub fn new(port: u16, workers: usize, cache_bytes: usize) -> ServeConfig {
        let workers = workers.max(1);
        ServeConfig {
            port,
            workers,
            cache_bytes,
            max_queue: workers * 8,
            trace_out: None,
            access_log: None,
            access_log_max_bytes: glitch_obs::DEFAULT_EVENT_LOG_MAX_BYTES,
        }
    }
}

/// What a worker sends back for one job: zero or more interim lines
/// (reduce progress), then exactly one final response line.
enum Reply {
    Interim(String),
    Final(String),
}

/// A queued job: what to run, its request id, when it was admitted, and
/// where to send the response lines.
struct Job {
    kind: JobKind,
    request: JobRequest,
    id: u64,
    enqueued_micros: u64,
    reply: mpsc::Sender<Reply>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The worker-pool queue. The shutdown bit lives inside the same mutex as
/// the job list so "still admitting?" and "push" are one atomic step: a
/// job is either rejected at admission or guaranteed to drain.
struct Queue {
    state: Mutex<QueueState>,
    available: Condvar,
}

enum Admission {
    Queued(mpsc::Receiver<Reply>),
    Shed(&'static str),
}

impl Queue {
    fn new() -> Queue {
        Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        }
    }

    fn enqueue(
        &self,
        kind: JobKind,
        request: JobRequest,
        id: u64,
        enqueued_micros: u64,
        max_queue: usize,
    ) -> (Admission, usize) {
        let mut state = lock(&self.state);
        if state.shutdown {
            return (Admission::Shed("daemon is shutting down"), state.jobs.len());
        }
        if state.jobs.len() >= max_queue {
            return (
                Admission::Shed("daemon is saturated; retry later"),
                state.jobs.len(),
            );
        }
        let (reply, receiver) = mpsc::channel();
        state.jobs.push_back(Job {
            kind,
            request,
            id,
            enqueued_micros,
            reply,
        });
        let depth = state.jobs.len();
        self.available.notify_one();
        (Admission::Queued(receiver), depth)
    }

    /// The current number of queued (not yet dequeued) jobs.
    fn depth(&self) -> usize {
        lock(&self.state).jobs.len()
    }

    /// Blocks for the next job; `None` once shutdown is requested and the
    /// queue has fully drained.
    fn next_job(&self) -> Option<Job> {
        let mut state = lock(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.shutdown {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn request_shutdown(&self) {
        lock(&self.state).shutdown = true;
        self.available.notify_all();
    }
}

#[cfg(unix)]
mod sigint {
    //! A minimal SIGINT hook (no external crates): the handler only flips
    //! an atomic, the server's watchdog thread does the actual shutdown.

    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    type Handler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        // SAFETY: installs an async-signal-safe handler (a single atomic
        // store) for SIGINT; `signal` itself has no memory preconditions.
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// Everything the shutdown path needs, shared by the protocol handler,
/// the Ctrl-C watchdog and the accept loop.
struct Shutdown {
    flag: AtomicBool,
    port: u16,
}

impl Shutdown {
    fn trigger(&self, queue: &Queue) {
        self.flag.store(true, Ordering::SeqCst);
        queue.request_shutdown();
        // Wake the blocking accept loop with a throwaway connection.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
    }

    fn requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Runs the daemon until a `shutdown` request (or Ctrl-C) drains it.
/// Prints `glitch-serve listening on 127.0.0.1:<port>` once ready — with
/// `port: 0`, that line is where the chosen port is announced.
///
/// # Errors
///
/// Returns a message when the listen socket cannot be bound or the trace
/// file cannot be written.
pub fn run_server(config: &ServeConfig) -> Result<(), String> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))
        .map_err(|e| format!("cannot listen on 127.0.0.1:{}: {e}", config.port))?;
    let port = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve listen address: {e}"))?
        .port();
    let mut engine = Engine::new(config.cache_bytes);
    if let Some(path) = &config.access_log {
        engine.set_access_log(path, config.access_log_max_bytes)?;
    }
    let engine = Arc::new(engine);
    let queue = Arc::new(Queue::new());
    let shutdown = Arc::new(Shutdown {
        flag: AtomicBool::new(false),
        port,
    });

    let workers: Vec<_> = (1..=config.workers)
        .map(|track| {
            let engine = Arc::clone(&engine);
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                while let Some(job) = queue.next_job() {
                    let ctx = RequestContext {
                        id: job.id,
                        queue_wait_us: engine
                            .clock()
                            .now_micros()
                            .saturating_sub(job.enqueued_micros),
                    };
                    let reply = job.reply.clone();
                    let emit = move |line: String| {
                        // The client may already be gone; keep reducing.
                        let _ = reply.send(Reply::Interim(line));
                    };
                    let line =
                        engine.run_job(job.kind, &job.request, track as u64, ctx, Some(&emit));
                    // The client may already be gone; the job still ran.
                    let _ = job.reply.send(Reply::Final(line));
                }
            })
        })
        .collect();

    #[cfg(unix)]
    {
        sigint::install();
        let queue = Arc::clone(&queue);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(100));
            if shutdown.requested() {
                return;
            }
            if sigint::requested() {
                shutdown.trigger(&queue);
                return;
            }
        });
    }

    // A closed standard output (`serve | head -1`) loses the line, not the
    // daemon.
    let mut stdout = std::io::stdout();
    writeln!(stdout, "glitch-serve listening on 127.0.0.1:{port}")
        .and_then(|()| stdout.flush())
        .ok();

    let mut connections = Vec::new();
    for stream in listener.incoming() {
        if shutdown.requested() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Reap finished connections so a long-lived daemon does not keep
        // one handle per client it ever served.
        let (finished, live): (Vec<_>, Vec<_>) = std::mem::take(&mut connections)
            .into_iter()
            .partition(|handle: &std::thread::JoinHandle<()>| handle.is_finished());
        for handle in finished {
            let _ = handle.join();
        }
        connections = live;
        let engine = Arc::clone(&engine);
        let queue = Arc::clone(&queue);
        let shutdown = Arc::clone(&shutdown);
        let max_queue = config.max_queue;
        let workers = config.workers;
        connections.push(std::thread::spawn(move || {
            serve_connection(&stream, &engine, &queue, &shutdown, max_queue, workers);
        }));
    }
    for connection in connections {
        let _ = connection.join();
    }
    for worker in workers {
        let _ = worker.join();
    }

    if let Some(path) = &config.trace_out {
        let tracks: Vec<(u64, String)> = (1..=config.workers)
            .map(|i| (i as u64, format!("worker-{i}")))
            .collect();
        let tracks: Vec<(u64, &str)> = tracks.iter().map(|(i, n)| (*i, n.as_str())).collect();
        std::fs::write(path, engine.chrome_trace(&tracks))
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    }
    Ok(())
}

/// Reads request lines from one client until EOF or shutdown, answering
/// each with exactly one final response line (preceded by interim
/// progress lines for streaming jobs).
fn serve_connection(
    stream: &TcpStream,
    engine: &Engine,
    queue: &Queue,
    shutdown: &Shutdown,
    max_queue: usize,
    workers: usize,
) {
    // The timeout bounds how long a drained connection outlives shutdown.
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    // Responses are single small writes; Nagle would stall them behind
    // the peer's delayed ACK.
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(reading_half) => reading_half,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        // `read_until` appends, so a partial line survives timeout
        // retries; `take` stops it one byte past the cap.
        let room = (MAX_REQUEST_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.requested() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        if line.len() > MAX_REQUEST_BYTES {
            engine.record_invalid(engine.next_request_id());
            write_line(
                &mut writer,
                &error_response(&format!(
                    "request line exceeds {MAX_REQUEST_BYTES} bytes; closing the connection"
                )),
            );
            return;
        }
        let request = String::from_utf8_lossy(&line).trim().to_string();
        line.clear();
        if request.is_empty() {
            continue;
        }
        let (response, is_shutdown) = handle_request(&request, engine, queue, max_queue, workers);
        let done = match response {
            Response::One(line) => write_line(&mut writer, &line),
            Response::Stream(receiver) => loop {
                match receiver.recv() {
                    Ok(Reply::Interim(line)) => {
                        if !write_line(&mut writer, &line) {
                            break false;
                        }
                    }
                    Ok(Reply::Final(line)) => break write_line(&mut writer, &line),
                    Err(_) => {
                        break write_line(
                            &mut writer,
                            &error_response("worker pool dropped the job"),
                        )
                    }
                }
            },
        };
        if !done {
            return;
        }
        if is_shutdown {
            shutdown.trigger(queue);
            return;
        }
    }
}

fn write_line(writer: &mut &TcpStream, line: &str) -> bool {
    let mut framed = line.to_string();
    framed.push('\n');
    writer.write_all(framed.as_bytes()).is_ok() && writer.flush().is_ok()
}

/// One request's answer: a single line, or a worker-fed stream of interim
/// lines ending in the final one.
enum Response {
    One(String),
    Stream(mpsc::Receiver<Reply>),
}

/// Dispatches one request line; returns the response and whether it was a
/// shutdown request (acknowledged before the daemon starts draining).
fn handle_request(
    request: &str,
    engine: &Engine,
    queue: &Queue,
    max_queue: usize,
    workers: usize,
) -> (Response, bool) {
    let id = engine.next_request_id();
    match Request::parse(request) {
        Err(message) => {
            engine.record_invalid(id);
            (Response::One(error_response(&message)), false)
        }
        Ok(Request::Ping) => (Response::One(engine.ping_response(id)), false),
        Ok(Request::Status) => (
            Response::One(engine.status_response(id, queue.depth(), workers)),
            false,
        ),
        Ok(Request::Metrics(format)) => (Response::One(engine.metrics_response(format, id)), false),
        Ok(Request::Shutdown) => (Response::One(engine.shutdown_response(id)), true),
        Ok(Request::Job(kind, job)) => {
            let now = engine.clock().now_micros();
            let (admission, depth) = queue.enqueue(kind, *job, id, now, max_queue);
            engine.observe_queue_depth(depth);
            match admission {
                Admission::Shed(reason) => {
                    engine.record_shed(id, kind.op());
                    (Response::One(error_response(reason)), false)
                }
                Admission::Queued(receiver) => (Response::Stream(receiver), false),
            }
        }
    }
}
