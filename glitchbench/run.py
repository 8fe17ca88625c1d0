#!/usr/bin/env python3
"""End-to-end benchmark of the release `glitch-cli`, plus a traced per-layer run.

Run from the root of a checkout:

    python3 glitchbench/run.py --workload sweep-mult32 --seed 1 --seconds 55 --trace 0

The script builds `glitch-cli` and the `glitchbench` helper from source,
generates the fixtures (checking their fingerprints against
`glitchbench/fixtures.json`), measures the workload for `--seconds` with
tracing off, checks every output, and prints one JSON object as its last
line. With `--trace 1` it runs the traced per-layer mode instead. See
`glitchbench/README.md` for the workloads and metrics.
"""

import argparse
import atexit
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
FIXTURES = os.path.join(WORK, "fixtures")

# Wall time of `glitch-cli parse <fixture>` is the set-up. A run measures
# it SETUP_REPS times before the first job and SETUP_REPS times after every
# job, so its median samples the same host phases as the jobs do, and
# reports the median.
SETUP_REPS = 5
# Any single job or request slower than this counts as failed.
JOB_TIMEOUT_S = 120.0

ONE_SHOT = {
    "sweep-mult32": {
        "fixture": "mult32.blif",
        "args": ["sweep", "mult32.blif", "--cycles", "200", "--jobs", "2", "--json"],
    },
    "reduce-mult16": {
        "fixture": "mult16.blif",
        "args": ["reduce", "mult16.blif", "--cycles", "200", "--engine", "hybrid", "--json"],
    },
}

# The daemon the traced run sends the workload's request to.
SERVE_JOBS = 2
SERVE_CACHE_BYTES = 32 * 1024 * 1024


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=1):
    log(f"glitchbench: {message}")
    sys.exit(code)


# ------------------------------------------------------------------ build


def build():
    """Builds `glitch-cli` and the helper; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "cli")
    ):
        fail("run from the root of a checkout of the repository (no workspace here)", 2)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "glitch-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 2)
    return os.path.join(target, "release", "glitch-cli"), os.path.join(
        target, "release", "glitchbench")


def environment():
    """nproc, rustc version and revision, printed beside every result."""
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        if done.returncode == 0:
            revision = done.stdout.strip()
    if revision is None:
        # Not a git checkout: name the tree by a digest of its sources.
        digest = hashlib.sha256()
        files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
        for top, dirs, names in os.walk(os.path.join(ROOT, "crates")):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files += [os.path.join(top, name) for name in sorted(names)]
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
        revision = "tree-" + digest.hexdigest()[:16]
    return {"nproc": len(os.sched_getaffinity(0)), "rustc": rustc, "revision": revision}


def make_fixtures(helper):
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"))
    os.makedirs(FIXTURES)
    for name in ("c17.blif", "rca4.blif", "counter4.blif"):
        shutil.copy(os.path.join(ROOT, "tests", "data", name), FIXTURES)
    done = subprocess.run([helper, "fixtures", FIXTURES], capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"fixture generation failed: {done.stderr.strip()}")
    found = {}
    for line in done.stdout.splitlines():
        entry = json.loads(line)
        found[entry.pop("file")] = entry
    with open(os.path.join(HERE, "fixtures.json")) as handle:
        expected = json.load(handle)
    for name, want in expected.items():
        if found.get(name) != want:
            fail(f"fixture {name} is {found.get(name)}, expected {want}")


# ------------------------------------------------------------- statistics


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond it). With ten or fewer
    samples the maximum is returned with fewer than ten beyond it, which
    the steadiness check flags.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    k = max(n - 11, 0) if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


# ---------------------------------------------------------- one-shot jobs


def run_child(argv, cwd):
    """Runs one program to completion: (exit code, stdout bytes, stderr text,
    wall seconds spawn to exit, peak RSS in MiB)."""
    start = time.perf_counter()
    with open(os.path.join(WORK, "stderr.txt"), "w+b") as err:
        child = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, child.kill)
        timer.start()
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        child.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return child.returncode, out, stderr, wall, usage.ru_maxrss / 1024.0


def valid_report(workload, out):
    """The workload-specific content checks on a reference reply."""
    try:
        report = json.loads(out)
    except ValueError:
        return False
    if workload == "sweep-mult32":
        return [p["delay"] for p in report["points"]] == ["unit", "zero", "adder"]
    return report["equivalence"]["passed"] is True and report["initial_total_power_w"] > 0


def one_shot(cli, workload, seed, seconds):
    spec = ONE_SHOT[workload]
    stimulus = str(random.Random(f"{workload}/{seed}").randrange(1, 2**32))
    argv = [cli] + spec["args"] + ["--seed", stimulus]
    attempted = failed = 0
    rss = []
    setup = []

    def set_up():
        nonlocal attempted, failed
        for _ in range(SETUP_REPS):
            code, out, _, wall, peak = run_child([cli, "parse", spec["fixture"]], FIXTURES)
            attempted += 1
            failed += code != 0 or b" ok " not in out
            setup.append(wall)
            rss.append(peak)

    set_up()
    # The first reply is the reference every later reply must equal; if it
    # is not a valid report, every job fails.
    code, reference, stderr, _, peak = run_child(argv, FIXTURES)
    attempted += 1
    rss.append(peak)
    reference_ok = code == 0 and valid_report(workload, reference)
    if not reference_ok:
        failed += 1
        log(f"reference job failed (exit {code}): {stderr.strip()[:500]}")

    walls = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        code, out, stderr, wall, peak = run_child(argv, FIXTURES)
        attempted += 1
        rss.append(peak)
        if not reference_ok or code != 0 or out != reference:
            failed += 1
            log(f"job failed (exit {code}, output {'equal' if out == reference else 'differs'})"
                f": {stderr.strip()[:300]}")
        else:
            walls.append(wall)
        set_up()

    # reduce-mult16 reports the paper's objective. The sweep has no reduce
    # report, but every workload must print every end-to-end metric, so it
    # reports the power ratio of its own report: unit-delay total over
    # zero-delay total, the glitch overhead the paper's Table 1 measures.
    total_power_ratio = 0.0
    if reference_ok:
        report = json.loads(reference)
        if workload == "reduce-mult16":
            total_power_ratio = report["final_total_power_w"] / report["initial_total_power_w"]
        else:
            power = {p["delay"]: p["power"]["total_w"] for p in report["points"]}
            total_power_ratio = power["unit"] / power["zero"]
    return walls, setup, rss, attempted, failed, total_power_ratio, stimulus


# ------------------------------------------------------------- the daemon


LIVE_DAEMONS = []


@atexit.register
def _kill_live_daemons():
    """A run that aborts must not leave a daemon behind."""
    for proc in LIVE_DAEMONS:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


class Daemon:
    """`glitch-cli serve` on an ephemeral loopback port."""

    def __init__(self, cli, access_log=None):
        argv = [cli, "serve", "--port", "0", "--jobs", str(SERVE_JOBS),
                "--cache-bytes", str(SERVE_CACHE_BYTES)]
        if access_log:
            argv += ["--access-log", access_log]
        env = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))
        self.proc = subprocess.Popen(argv, cwd=FIXTURES, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        LIVE_DAEMONS.append(self.proc)
        line = self.proc.stdout.readline()
        if "listening on 127.0.0.1:" not in line:
            self.proc.kill()
            self.proc.wait()
            fail(f"daemon did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self):
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=10) as conn:
                conn.sendall(b'{"op":"shutdown"}\n')
                conn.makefile("rb").readline()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cli_argv(cli, request):
    """The one-shot command whose `--json` bytes a daemon reply must equal."""
    argv = [cli, request["op"], request["file"], "--json"]
    for key in ("cycles", "seed", "jobs", "engine"):
        if key in request:
            argv += [f"--{key}", str(request[key])]
    return argv


def is_error(line):
    return line.startswith(b'{"error"')


def sequential(port, requests):
    """Closed loop over one connection: [(latency from send, reply)]."""
    out = []
    with socket.create_connection(("127.0.0.1", port)) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = conn.makefile("rb")
        for request in requests:
            line = json.dumps(request).encode() + b"\n"
            sent = time.perf_counter()
            conn.sendall(line)
            reply = reader.readline().rstrip(b"\n")
            out.append((time.perf_counter() - sent, reply))
        reader.close()
    return out


class Checker:
    """Counts attempted and failed requests. A reply must not be an error,
    and must equal the first reply to the same request line."""

    def __init__(self):
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.samples = {}

    def check(self, kind, line, reply):
        self.attempted += 1
        if reply is None or not reply or is_error(reply):
            self.failed += 1
            log(f"{kind}: failed reply {reply[:300] if reply else reply!r}")
            return False
        if self.first.setdefault(line, reply) != reply:
            self.failed += 1
            log(f"{kind}: reply differs from the first reply to the same request")
            return False
        self.samples.setdefault(kind, (line, reply))
        return True

    def against_one_shot(self, cli):
        """One sampled reply per request shape must equal the one-shot
        `--json` bytes of the same request."""
        for kind, (line, reply) in sorted(self.samples.items()):
            code, out, stderr, _, _ = run_child(cli_argv(cli, json.loads(line)), FIXTURES)
            self.attempted += 1
            if code != 0 or out.rstrip(b"\n") != reply:
                self.failed += 1
                log(f"{kind}: daemon reply differs from one-shot --json (exit {code}): "
                    f"{stderr.strip()[:300]}")


# ------------------------------------------------------------ traced mode


def access_log_lines(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def serve_layers(cli, requests):
    """Sends `requests` one at a time to a daemon with `--access-log`;
    returns the serve.* per-layer metrics and the checker."""
    path = os.path.join(WORK, "access.log")
    checker = Checker()
    daemon = Daemon(cli, path)
    replies = sequential(daemon.port, [req for _, req in requests])
    daemon.stop()
    for (kind, req), (_, reply) in zip(requests, replies):
        checker.check(kind, json.dumps(req).encode() + b"\n", reply)
    jobs = [line for line in access_log_lines(path) if line["op"] != "shutdown"]
    if len(jobs) != len(requests):
        fail(f"access log has {len(jobs)} job lines for {len(requests)} requests")
    socket_s = [latency - (line["wall_us"] + line["queue_us"]) * 1e-6
                for (latency, _), line in zip(replies, jobs)]
    metrics = {
        "serve.queue_wait_s": median([line["queue_us"] * 1e-6 for line in jobs]),
        "serve.handle_s": median([line["wall_us"] * 1e-6 for line in jobs]),
        "serve.cache_hit_frac": sum(line["cache"] == "hit" for line in jobs) / len(jobs),
        "serve.socket_s": median(socket_s),
    }
    return metrics, checker


def traced(cli, helper, workload, seed):
    stimulus = random.Random(f"{workload}/{seed}").randrange(1, 2**32)
    reps = 3
    done = subprocess.run([helper, "layers", FIXTURES, workload, str(stimulus), str(reps)],
                          capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        fail(f"traced layer run failed: {done.stderr.strip()}")
    layers = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = dict(layers["metrics"])
    total_power_ratio = metrics.pop("total_power_ratio")
    attempted, failed = 1, 0

    # The serve layers: the workload's own request, sent to the daemon.
    request = {"sweep-mult32": {"op": "sweep", "file": "mult32.blif", "cycles": 200,
                                "jobs": 2, "engine": "queue", "seed": stimulus},
               "reduce-mult16": {"op": "reduce", "file": "mult16.blif", "cycles": 200,
                                 "engine": "hybrid", "seed": stimulus}}[workload]
    serve_metrics, checker = serve_layers(cli, [(workload, request)] * reps)
    checker.against_one_shot(cli)
    metrics.update(serve_metrics)
    attempted += checker.attempted
    failed += checker.failed

    overhead = layers["job_traced_s"] / layers["job_direct_s"] - 1
    print(f"tracing overhead: {overhead * 100:+.2f}% "
          "(traced in-process job mirror vs the undecomposed call)")
    print("self-time shares: " + ", ".join(
        f"{k} {v * 100:.1f}%" for k, v in layers["shares"].items()))
    print(f"total_power_ratio (reduce mirror on mult16): {total_power_ratio!r}")
    print(f"spans: {layers['spans']} kept in memory, written to "
          f"{os.path.relpath(os.path.join(FIXTURES, f'spans-{workload}.json'), ROOT)}")
    return metrics, attempted, failed


# ------------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ONE_SHOT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    cli, helper = build()
    env = environment()
    make_fixtures(helper)
    print("environment: " + json.dumps(env))

    if args.trace:
        metrics, attempted, failed = traced(cli, helper, args.workload, args.seed)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        missing = sorted(set(units) - set(metrics))
        if missing:
            fail(f"traced run did not produce {missing}")
        for name in units:
            print(f"{name} = {metrics[name]!r} {units[name]}")
        result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    else:
        walls, setup, rss, attempted, failed, total_power_ratio, stimulus = one_shot(
            cli, args.workload, args.seed, args.seconds)
        value, percentile, beyond = tail(walls)
        metrics = {
            "setup_s": median(setup),
            "job_p50_s": median(walls),
            "job_tail_s": value,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": max(rss),
            "total_power_ratio": total_power_ratio,
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        detail = {
            "workload": args.workload, "seed": args.seed, "stimulus_seed": stimulus,
            "env": env, "jobs": len(walls), "setup_samples": len(setup),
            "tail_percentile": round(percentile, 2), "tail_beyond": beyond,
        }
        print("detail: " + json.dumps(detail))
        for name, unit in units.items():
            print(f"{name} = {metrics[name]!r} {unit}")
        result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))


if __name__ == "__main__":
    main()
