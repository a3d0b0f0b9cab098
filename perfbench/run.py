#!/usr/bin/env python3
"""The serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  It builds ntserved and the
benchmark's OCaml half from source, then

  --trace 0  starts a fresh ntserved for the workload, drives it for T
             seconds from one client process with two closed-loop
             connections, checks the outputs, and reports the
             end-to-end metrics;
  --trace 1  replays the workload's programs in process through each
             layer's public functions, timing them from outside, and
             reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Exit status
is nonzero on any correctness-gate failure.  All scratch files (socket,
log, raw samples, spans) live in a temporary directory under
.perfbench_tmp/ in the checkout, removed on exit.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

WORKLOADS = ("smallbank-soak", "nested-durable", "smallbank-sharded")

# Server flags per workload; --socket, --seed and --wal are added per run.
COMMON = ["--backend", "undo", "--flight", "0"]
FLAGS = {
    "smallbank-soak": COMMON + ["--types", "rw", "--objects", "64"],
    "nested-durable": COMMON + ["--types", "mixed", "--objects", "8"],
    "smallbank-sharded": COMMON
    + ["--types", "rw", "--objects", "64", "--shards", "2"],
}
DURABLE = {"nested-durable"}
WAL_POLICY = "--fsync-batch 1 (the default: fsync after every record)"

# A run of these workloads is this many fresh servers, each driven for an
# equal share of the run under a derived seed, with samples pooled: one
# server's history gives too few independent latency-tail events in a
# run to be steady from seed to seed.  The soak keeps one server, whose
# long history is its point.
EPISODES = {"nested-durable": 10, "smallbank-sharded": 4}
SETUP_SPAWNS = 9  # setup_s is the median over this many fresh spawns
SETTLE_S = 30.0  # grace for in-flight transactions after the run
PROC_TIMEOUT = 150.0

BIN = os.path.join("_build", "default", "bin", "ntserved.exe")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")

children = []  # every process started, reaped on every exit path


def log(msg):
    print(msg, flush=True)


class GateFailure(Exception):
    pass


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/ntserved.exe",
         "./perfbench/perfbench.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise SystemExit("perfbench: build failed")


def spawn(argv, **kw):
    p = subprocess.Popen(argv, **kw)
    children.append(p)
    return p


def reap(p, term=True, timeout=PROC_TIMEOUT):
    """Stop `p` (SIGTERM first, then SIGKILL) and wait for it."""
    if p.poll() is None and term:
        p.send_signal(signal.SIGTERM)
    try:
        p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
    if p in children:
        children.remove(p)
    return p.returncode


def reap_all():
    for p in list(children):
        if p.poll() is None:
            p.kill()
        p.wait()
    children.clear()


# ----- the wire protocol, just enough for Ping -----

def frame(obj):
    payload = json.dumps(obj).encode()
    return str(len(payload)).encode() + b"\n" + payload


def read_frame(sock):
    buf = b""
    while b"\n" not in buf:
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("closed")
        buf += chunk
    head, rest = buf.split(b"\n", 1)
    n = int(head)
    while len(rest) < n:
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("closed")
        rest += chunk
    return json.loads(rest[:n])


def ping(path):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.settimeout(5.0)
        s.connect(path)
        s.sendall(frame({"type": "ping"}))
        return read_frame(s)
    finally:
        s.close()


def await_pong(proc, path, want=None, timeout=PROC_TIMEOUT):
    """Poll until the server answers Ping (with status `want`, if given)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise GateFailure("server exited with %d before answering Ping"
                              % proc.returncode)
        try:
            pong = ping(path)
            if pong.get("type") == "pong" and (
                    want is None or pong.get("status") == want):
                return pong
        except (OSError, ConnectionError, ValueError):
            pass
        time.sleep(0.001)
    raise GateFailure("server did not answer Ping within %.0f s" % timeout)


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise GateFailure("no VmHWM for the server")


# ----- the live run -----

def server_argv(root, workload, seed):
    argv = [os.path.join(root, BIN), "--socket", "nt.sock",
            "--seed", str(seed)] + FLAGS[workload]
    if workload in DURABLE:
        argv += ["--wal", "nt.wal"]
    return argv


def start_server(argv, tag):
    out = open("server-%s.log" % tag, "wb")
    try:
        return spawn(argv, stdout=out, stderr=subprocess.STDOUT)
    finally:
        out.close()


def clear_wal():
    for f in ("nt.wal", "nt.wal.snap"):
        if os.path.exists(f):
            os.unlink(f)


def setup_server(argv, workload):
    """Spawn fresh servers SETUP_SPAWNS times; keep the last one."""
    times = []
    srv = None
    for i in range(SETUP_SPAWNS):
        if srv is not None:
            if reap(srv) != 0:
                raise GateFailure("set-up server exited nonzero")
        if workload in DURABLE:
            clear_wal()
        t0 = time.perf_counter()
        srv = start_server(argv, "setup%d" % i)
        await_pong(srv, "nt.sock")
        times.append(time.perf_counter() - t0)
    return srv, statistics.median(times)


def run_ocaml(root, args, timeout=PROC_TIMEOUT):
    p = spawn([os.path.join(root, EXE)] + args, stdout=subprocess.PIPE,
              stderr=subprocess.PIPE)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        reap(p, term=False, timeout=5)
        raise GateFailure("%s timed out" % args[0])
    children.remove(p)
    if p.returncode != 0:
        raise GateFailure("%s failed: %s" % (args[0], err.decode()[-500:]))
    return out.decode()


def episode(root, workload, seed, seconds, tag):
    """One fresh server driven for `seconds`: client record, server
    VmHWM, recovery time (durable workloads) and gate failures."""
    argv = server_argv(root, workload, seed)
    srv, setup_s = setup_server(argv, workload)
    out = "client-%s.json" % tag
    client = spawn([os.path.join(root, EXE), "client", "--socket", "nt.sock",
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", repr(float(seconds)),
                    "--settle", repr(SETTLE_S), "--out", out],
                   stderr=subprocess.PIPE)
    deadline = time.monotonic() + seconds + SETTLE_S + 60
    while client.poll() is None and time.monotonic() < deadline:
        time.sleep(0.05)
    if client.poll() is None:
        reap(client, term=False)
        raise GateFailure("client did not finish")
    err = client.stderr.read().decode()
    client.stderr.close()
    children.remove(client)
    if client.returncode != 0:
        raise GateFailure("client failed: %s" % err[-500:])
    rss = vm_hwm_mb(srv.pid)
    code = reap(srv)
    with open(out) as f:
        c = json.load(f)
    failures = list(c["failures"])
    if code != 0:
        failures.append("server exited with %d" % code)
    if c["quiesce_retries"]:
        log("quiesce: per-shard rows settled after %d re-asks"
            % c["quiesce_retries"])
    c.update(setup_s=setup_s, rss=rss, recover_s=None)
    if workload in DURABLE and not failures:
        c["recover_s"], more = recover(root, argv, workload, seed, c)
        failures += more
    c["failures"] = failures
    return c


def live(root, workload, seed, seconds):
    """EPISODES[workload] fresh servers, each driven for an equal share
    of `seconds` under its own derived seed; records are pooled."""
    k = EPISODES.get(workload, 1)
    eps = []
    for e in range(k):
        eps.append(episode(root, workload, seed * k + e, seconds / k, str(e)))
        if eps[-1]["failures"]:
            break
    return eps


def recover(root, argv, workload, seed, c):
    """Restart on the run's log, time it to Recovered, then check the
    restarted server's answers and judge the log offline."""
    failures = []
    # The offline judge reads the log as the run left it and runs on the
    # other core while the restarted server replays the same log.
    shutil.copy("nt.wal", "judged.wal")
    judge = spawn([os.path.join(root, EXE), "judge", "--workload", workload,
                   "--seed", str(seed), "--wal", "judged.wal"],
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    t0 = time.perf_counter()
    srv = start_server(argv, "restart")
    pong = await_pong(srv, "nt.sock", want="recovered")
    recover_s = time.perf_counter() - t0
    if pong.get("torn"):
        failures.append("recovered log had a torn tail")
    with open("outcomes.json", "w") as f:
        json.dump(c["outcomes"], f)
    v = json.loads(run_ocaml(root, ["verify", "--socket", "nt.sock",
                                    "--outcomes", "outcomes.json"]))
    if v["mismatches"]:
        failures.append("%d Status answers after restart differ from "
                        "what clients saw" % v["mismatches"])
    if reap(srv) != 0:
        failures.append("restarted server exited nonzero")
    try:
        out, err = judge.communicate(timeout=PROC_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise GateFailure("log judge timed out")
    children.remove(judge)
    if judge.returncode != 0:
        raise GateFailure("log judge failed: %s" % err.decode()[-500:])
    j = json.loads(out)
    if not j["ok"]:
        failures.append("log judge: %s" % j["error"])
    else:
        log("log judge: %d outcomes re-checked, %d actions serially correct "
            "(SG %d nodes, %d edges; replay %d ms, check %d ms)"
            % (j["outcomes_checked"], j["actions"], j["sg_nodes"],
               j["sg_edges"], j["replay_ms"], j["check_ms"]))
        log("restart verify: %d outcomes match" % v["checked"])
    return recover_s, failures


def measured(c):
    """Completions inside the measured window, from the first submission
    to the last completion before the stop, as (settle time in s,
    committed) sorted by time; the drain of the transactions still in
    flight at the stop is left out."""
    stop = c["stop_us"]
    return sorted((s[1] / 1e6, s[2]) for s in c["samples"] if s[1] <= stop)


def late_phase(done):
    """(committed, seconds) over the last fifth of the completions."""
    k = max(2, math.ceil(len(done) / 5))
    return (sum(1 for _, ok in done[-k:] if ok), done[-1][0] - done[-k - 1][0])


def end_to_end(eps):
    done = [measured(c) for c in eps]
    committed = sum(ok for d in done for _, ok in d)
    wall_s = sum(d[-1][0] for d in done)
    late = [late_phase(d) for d in done]
    lat = stats.summary([(s[1] - s[0]) / 1e3
                         for c in eps for s in c["samples"]])
    submitted = sum(c["submitted"] for c in eps)
    m = {
        "setup_s": (statistics.median(c["setup_s"] for c in eps), "s"),
        "commit_tput_txn_s": (committed / wall_s, "txn/s"),
        "late_commit_tput_txn_s": (sum(n for n, _ in late)
                                   / sum(t for _, t in late), "txn/s"),
        "latency_p50_ms": (lat["p"][50.0], "ms"),
        "latency_p98_ms": (lat["p"][98.0], "ms"),
        "server_rss_mb": (max(c["rss"] for c in eps), "MB"),
    }
    log("latency: %d samples; p98 has %d beyond it; highest percentile "
        "with at least %d beyond: p%g = %.3f ms"
        % (lat["n"], lat["beyond"][98.0], stats.MIN_BEYOND,
           lat["top_pct"] or 0, lat["top"] or float("nan")))
    log("latency_p99_ms %.6f ms (%d samples beyond it)"
        % (lat["p"][99.0], lat["beyond"][99.0]))
    failed_n = sum(c["aborted"] + c["rejected"] + c["unsettled"] for c in eps)
    log("failed_frac %.6f frac (%d aborted, %d of them vetoed; %d rejected; "
        "%d unsettled; of %d submitted)"
        % (failed_n / submitted, sum(c["aborted"] for c in eps),
           sum(c["vetoed"] for c in eps), sum(c["rejected"] for c in eps),
           sum(c["unsettled"] for c in eps), submitted))
    rec = [c["recover_s"] for c in eps if c["recover_s"] is not None]
    if rec:
        log("recover_s %.6f s (restart on the run's log -> Pong Recovered; "
            "median of %d)" % (statistics.median(rec), len(rec)))
    return m


# ----- stamps -----

def source_id(root):
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return "git " + r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p[len(root):].encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "source-sha256 " + h.hexdigest()[:16] + " (not a git checkout)"


def stamp(root, args):
    info = json.loads(run_ocaml(root, ["info"]))
    log("stamp: nproc=%d Domain.recommended_domain_count=%d ocaml=%s %s"
        % (os.cpu_count() or 0, info["domains"], info["ocaml"],
           source_id(root)))
    flags = FLAGS[args.workload] + (
        ["--wal", "FILE"] if args.workload in DURABLE else [])
    log("stamp: workload=%s seed=%d seconds=%d trace=%d server flags: %s"
        % (args.workload, args.seed, args.seconds, args.trace,
           " ".join(flags)))
    k = EPISODES.get(args.workload, 1)
    if k > 1 and args.trace == 0:
        log("stamp: %d fresh servers of %.1f s each, seeds %s"
            % (k, args.seconds / k,
               ", ".join(str(args.seed * k + e) for e in range(k))))
    if args.workload in DURABLE:
        log("stamp: WAL flush policy %s" % WAL_POLICY)
    log("stamp: latency is this sandbox's over a Unix-domain socket, "
        "not a device's")


def emit(correct, attempted, failed, metrics):
    for name, (value, unit) in metrics.items():
        log("%-28s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A signal unwinds through the finally below, which reaps children.
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, lambda n, _f: sys.exit(128 + n))
    root = os.getcwd()
    for need in (os.path.join(root, "dune-project"),
                 os.path.join(root, "bin"), os.path.join(root, "lib")):
        if not os.path.exists(need):
            raise SystemExit("perfbench: run from the repository root "
                             "(missing %s)" % need)
    build(root)
    base = os.path.join(root, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=base)
    os.chdir(tmp)
    code = 1
    try:
        stamp(root, args)
        if args.trace == 0:
            eps = live(root, args.workload, args.seed, args.seconds)
            failures = [f for c in eps for f in c["failures"]]
            metrics = end_to_end(eps)
            attempted = sum(c["submitted"] for c in eps)
            bad = sum(c["rejected"] + c["unsettled"] for c in eps)
        else:
            metrics, attempted, failures = traced(root, args)
            bad = 0
        for f in failures:
            log("GATE FAILURE: %s" % f)
        ok = not failures
        emit(ok, attempted, bad if ok else attempted, metrics)
        code = 0 if ok else 1
    except GateFailure as e:
        log("GATE FAILURE: %s" % e)
    finally:
        reap_all()
        os.chdir(root)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    sys.exit(code)


def traced(root, args):
    out = run_ocaml(root, ["traced", "--workload", args.workload,
                           "--seed", str(args.seed), "--dir", "."],
                    timeout=170)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    r = json.loads(lines[-1])
    metrics = {k: (float(v["value"]), v["unit"])
               for k, v in r["metrics"].items()}
    return metrics, r["attempted"], r["failures"]


if __name__ == "__main__":
    main()
