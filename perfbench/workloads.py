"""The three workloads.

Each workload function takes a :class:`Context` and fills in a
:class:`Result`.  Untraced runs (``ctx.trace`` false) produce the end-to-end
metrics; traced runs produce the per-layer ledger (see
:mod:`perfbench.layers`) and start the same entry points with the same argv
through :mod:`perfbench.launch`.

``train_warm_gen10k``
    An analyst's warm re-run during ablation and tuning.  Set-up generates
    a 10,000-trace ``repro.gen`` corpus (all 12 families, workload seed) and
    fills the decode and dataset caches with one cold run; the timed part is
    repeated ``python -m repro.pipeline`` processes over the warm caches.
    Training dominates; salvage, decode and the decode cache do no work,
    which makes this the bypass workload for decode changes.  The cold fill
    is where the cache *writes* happen: a traced run reports it as the
    ``fill.*`` rows, beside the warm repetitions' cache *reads*.
``serve_mixed_gen``
    The always-on daemon under independent callers.  Set-up trains an
    artifact from a 10k gen corpus (workload seed) and generates requests
    from a fixed-seed gen corpus, disjoint from every training seed.  One
    open-loop generator drives the daemon over 2 connections at 100 req/s,
    well below the knee (see :data:`RATE`); one request in 50 is damaged
    and goes through salvage.  ``--drift-window`` is the only non-default
    daemon flag, so the drift monitor runs on the event loop.

End-to-end metrics (every workload reports all of them):

- ``setup_s``: median over several complete set-ups in the run (corpus
  generation, cache fill, artifact build, daemon start-to-``/readyz``).
- ``lat_p50_ms``: median latency of the workload's operation -- one
  pipeline process from start to exit (interpreter import included), or one
  clean request timed from when it was due.  Failures count as +inf.
- ``peak_rss_mb``: median peak RSS of the measured process (pipeline child
  via ``wait4``; daemon ``VmHWM``).  Set-up processes are not counted.
- ``trace_accuracy`` / ``benign_tnr``: from ``metrics.json`` (``benign_tnr``
  is 1 - ``benign_false_positive_rate``); on serve, the served verdicts
  against the request traces' labels.  Deterministic for a seed.
- ``ok_frac``: 1 - failed / attempted operations.  Failures are pipeline
  runs that exit nonzero, quarantined files, correctness mismatches, non-200
  or unanswered requests, damaged requests not marked degraded, and daemons
  that do not drain and exit 0 on SIGTERM.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import layers
from .loadgen import Request, damage, drive, request_line, schedule
from .measure import median, percentile, proc_cpu_s, proc_status_kb, run_measured
from .spans import duration
from .spans import load as load_spans

GEN_COUNT = 10_000
#: the request corpus is fixed, so every run replays the same damaged
#: payloads (see perfbench.loadgen); a workload seed equal to it is refused,
#: so no request is ever training data
REQUEST_SEED = 2**31 - 1
REQUEST_CORPUS = 1_200
#: well below the knee: capacity measured 250-300 req/s on a 2-core VM, and
#: at 200 req/s a slow host phase already queued the median request
RATE = 100.0
CONNECTIONS = 2
DAMAGE_EVERY = 50
DRIFT_WINDOW = 200
#: capacity probes: clean p99 limit, probe length and the offered rates
CAPACITY_P99_MS = 100.0
PROBE_S = 3.0
PROBE_RATES = (150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 500.0)
#: complete set-ups per untraced run; the median is reported
SETUPS = 2
STEP_TIMEOUT_S = 150.0

#: metrics.json keys that legitimately differ between runs of one corpus
VOLATILE = ("created", "elapsed_s", "timings", "dataset_cache", "artifact")


class BenchError(RuntimeError):
    """Set-up or harness failure: the run cannot produce a result."""


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    env: dict
    log: Path

    def py(self, *args) -> list[str]:
        return [sys.executable, *map(str, args)]

    def entry(self, name: str, args, spans: Path | None = None) -> list[str]:
        """Command line of a program entry point, traced when ``spans``."""
        if spans is None:
            return self.py("-m", f"repro.{name}", *args)
        return self.py(self.root / "perfbench" / "launch.py", "--spans", spans, name, *args)

    def step(self, cmd) -> None:
        """Run a set-up step; raises when it fails."""
        res = run_measured(cmd, env=self.env, cwd=self.root, log_path=self.log,
                           timeout_s=STEP_TIMEOUT_S)
        if res.returncode != 0:
            raise BenchError(f"set-up step failed (exit {res.returncode}): {' '.join(cmd)}")


@dataclass
class Result:
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    diag: dict = field(default_factory=dict)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)


def stable_metrics(doc: dict) -> str:
    """``metrics.json`` minus timings, timestamps and cache statistics, as
    canonical JSON (so NaN compares equal to NaN)."""
    doc = {k: v for k, v in doc.items() if k not in VOLATILE}
    doc["ingest"] = {k: v for k, v in doc["ingest"].items() if k != "cache"}
    return json.dumps(doc, sort_keys=True)


def read_metrics(out_dir: Path) -> dict:
    return json.loads((out_dir / "metrics.json").read_text())


def gen_corpus(ctx: Context, out: Path, count: int, seed: int, spans=None) -> None:
    args = ["--out", out, "--count", count, "--seed", seed, "--workers", CONNECTIONS]
    ctx.step(ctx.entry("gen", args, spans))


def pipeline_args(corpus: Path, out: Path, cache: Path) -> list:
    return ["--trace-dir", corpus, "--out", out,
            "--cache-dir", cache / "decode", "--dataset-cache-dir", cache / "dataset"]


# ---------------------------------------------------------------------------
# pipeline workloads
# ---------------------------------------------------------------------------


def _setup_train_warm(ctx: Context, d: Path, spans_dir: Path | None) -> str:
    gen_corpus(ctx, d / "corpus", GEN_COUNT, ctx.seed,
               spans_dir / "gen.json" if spans_dir else None)
    ctx.step(ctx.entry("pipeline", pipeline_args(d / "corpus", d / "cold", d / "cache"),
                       spans_dir / "fill.json" if spans_dir else None))
    reference = read_metrics(d / "cold")
    if reference["ingest"]["quarantined"]:
        raise BenchError("cold fill quarantined generated traces")
    return stable_metrics(reference)


def _repeat_setup(ctx: Context, name: str, setup, res: Result, teardown=None):
    """Run the workload's set-up several times (once when traced); returns
    the directory and value of the last one and records ``setup_s``.
    ``teardown(value)`` releases an earlier set-up before the next starts."""
    times, value, d = [], None, None
    spans_dir = ctx.work / "spans" if ctx.trace else None
    if spans_dir:
        spans_dir.mkdir(parents=True, exist_ok=True)
    for i in range(1 if ctx.trace else SETUPS):
        if d is not None:
            if teardown is not None:
                teardown(value)
            shutil.rmtree(d)
        d = ctx.work / f"setup{i}"
        d.mkdir(parents=True)
        os.sync()  # start every set-up with no writeback pending
        t0 = time.perf_counter()
        value = setup(ctx, d, spans_dir)
        times.append(time.perf_counter() - t0)
    # flush the set-up's writes now, so writeback does not compete with the
    # measured processes for this box's two cores
    os.sync()
    res.e2e["setup_s"] = median(times)
    res.diag["setup_s_each"] = times
    return d, value, spans_dir


def train_warm_gen10k(ctx: Context, res: Result) -> None:
    d, reference, spans_dir = _repeat_setup(ctx, "train_warm_gen10k", _setup_train_warm, res)
    out = d / "rep"
    args = pipeline_args(d / "corpus", out, d / "cache")

    walls: dict[bool, list[float]] = {False: [], True: []}
    rss: list[float] = []
    traced_rows: list[dict] = []
    last_doc = None
    deadline = time.perf_counter() + ctx.seconds
    rep = 0
    while True:
        traced = ctx.trace and rep % 2 == 1
        spans_path = spans_dir / f"rep{rep}.json" if traced else None
        proc = run_measured(ctx.entry("pipeline", args, spans_path), env=ctx.env,
                            cwd=ctx.root, log_path=ctx.log, timeout_s=STEP_TIMEOUT_S)
        rep += 1
        res.attempted += 1
        ok = proc.returncode == 0
        if not ok:
            res.fail(f"pipeline repetition {rep} exited {proc.returncode}")
        else:
            doc = read_metrics(out)
            if stable_metrics(doc) != reference:
                ok = False
                res.fail(f"repetition {rep} metrics differ from the cold fill's")
            if not (doc.get("dataset_cache") or {}).get("hit"):
                ok = False
                res.fail(f"repetition {rep} missed the warm dataset cache")
            last_doc = doc
        if ok:
            walls[traced].append(proc.wall_s)
            rss.append(proc.maxrss_mb)
            if traced:
                traced_rows.append(layers.pipeline_layers(load_spans(spans_path),
                                                          wall_s=proc.wall_s))
        out_of_time = time.perf_counter() >= deadline
        if out_of_time and (not ctx.trace or (walls[False] and walls[True]) or res.failed):
            break

    ms = [w * 1e3 for w in walls[False]]
    res.e2e["lat_p50_ms"] = median(ms, failures=res.failed)
    res.e2e["peak_rss_mb"] = median(rss) if rss else 0.0
    if last_doc is not None:
        metrics = last_doc["metrics"]
        res.e2e["trace_accuracy"] = metrics["trace_accuracy"]
        res.e2e["benign_tnr"] = 1.0 - metrics["benign_false_positive_rate"]
    res.diag.update(repetitions=len(ms), wall_s=[round(w, 4) for w in walls[False]])

    if ctx.trace:
        res.layers = layers.combine(traced_rows)
        if walls[False] and walls[True]:
            untraced, traced_w = median(walls[False]), median(walls[True])
            res.layers["trace.overhead_frac"] = (traced_w - untraced) / untraced
        res.layers["ingest.quarantined"] = last_doc["ingest"]["quarantined"] if last_doc else 0
        res.layers["gen.corpus_s"] = _span_total(spans_dir.glob("gen*.json"), "gen.corpus")
        res.layers.update(layers.fill_layers(load_spans(spans_dir / "fill.json")))


def _span_total(paths, name: str) -> float:
    """Summed duration of every span called ``name`` in the given files."""
    return sum(duration(s) for path in paths for s in load_spans(path) if s["name"] == name)


# ---------------------------------------------------------------------------
# serving workload
# ---------------------------------------------------------------------------


def http_get(port: int, target: str, timeout: float = 5.0) -> tuple[int, dict]:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(f"GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body or b"{}")


class Daemon:
    """One ``repro.serve`` process: started, waited for, stopped and reaped."""

    def __init__(self, ctx: Context, artifact_root: Path, spans: Path | None = None):
        args = ["--artifact-root", artifact_root, "--port", 0, "--drift-window", DRIFT_WINDOW]
        t0 = time.perf_counter()
        with open(ctx.log, "ab") as log:
            self.proc = subprocess.Popen(ctx.entry("serve", args, spans), env=ctx.env,
                                         cwd=ctx.root, stdout=subprocess.PIPE, stderr=log)
        guard = threading.Timer(60.0, self.proc.kill)
        guard.start()
        try:
            line = self.proc.stdout.readline()
            self.port = int(json.loads(line)["listening"]["port"])
            while http_get(self.port, "/readyz")[0] != 200:
                if time.perf_counter() - t0 > 60.0:
                    raise TimeoutError("/readyz never answered 200")
                time.sleep(0.01)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"daemon did not become ready: {exc}") from exc
        finally:
            guard.cancel()
        self.ready_s = time.perf_counter() - t0

    def hwm_mb(self) -> float:
        return proc_status_kb(self.proc.pid, "VmHWM") / 1024.0

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def stop(self) -> bool:
        """SIGTERM, then wait for the drain; True when it exited 0 cleanly."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return False
        lines = out.decode(errors="replace").strip().splitlines()
        return self.proc.returncode == 0 and bool(lines) and '"stopped": true' in lines[-1]


@dataclass
class Expected:
    verdict: int
    margin: float
    label: int


class RequestSet:
    """Request payloads, their base64 lines and offline expected answers."""

    def __init__(self, corpus: Path):
        self.blobs = [p.read_bytes() for p in sorted(corpus.rglob("*.pkl"))]
        self._b64: dict[tuple[int, bool], str] = {}

    def payload(self, trace: int, damaged: bool) -> bytes:
        blob = self.blobs[trace]
        return damage(blob) if damaged else blob

    def b64(self, trace: int, damaged: bool) -> str:
        key = (trace, damaged)
        if key not in self._b64:
            self._b64[key] = base64.b64encode(self.payload(trace, damaged)).decode()
        return self._b64[key]

    def lines(self, sched: list[Request]) -> list[bytes]:
        return [request_line(r.index, self.b64(r.trace, r.damaged)) for r in sched]

    def expected(self, artifact_root: Path, sched: list[Request]) -> dict:
        """Offline ``LoadedArtifact.score_traces`` of every payload the
        schedule sends, computed the way the daemon reports it."""
        import numpy as np

        from repro.model.artifact import ArtifactStore
        from repro.sim.trace import decode_trace

        artifact = ArtifactStore(artifact_root).load()
        out: dict[tuple[int, bool], Expected] = {}
        for key in sorted({(r.trace, r.damaged) for r in sched}):
            label = 1 if decode_trace(self.blobs[key[0]])[0].is_attack else -1
            trace, _ = decode_trace(self.payload(*key))
            rows = np.asarray(trace.rows, dtype=np.float64)
            groups = np.zeros(rows.shape[0], dtype=np.int64)
            margins, verdicts = artifact.score_traces(rows, groups, 1)
            sums = np.bincount(groups, weights=margins, minlength=1)
            counts = np.bincount(groups, minlength=1)
            out[key] = Expected(int(verdicts[0]), float(sums[0] / counts[0]), label)
        return out


def _serve_setup(ctx: Context, d: Path, spans_dir: Path | None) -> Daemon:
    traced = spans_dir is not None
    gen_corpus(ctx, d / "train", GEN_COUNT, ctx.seed,
               spans_dir / "gen_train.json" if traced else None)
    # default flags: no caches, the artifact is built from a cold corpus
    args = ["save-artifact", "--trace-dir", d / "train", "--out", d / "train_run",
            "--artifact-root", d / "artifact"]
    ctx.step(ctx.entry("pipeline", args, spans_dir / "publish.json" if traced else None))
    gen_corpus(ctx, d / "requests", REQUEST_CORPUS, REQUEST_SEED,
               spans_dir / "gen_requests.json" if traced else None)
    return Daemon(ctx, d / "artifact")


def _drive(port: int, lines: list[bytes], sched: list[Request]):
    return asyncio.run(drive(port, sched, lambda r: lines[r.index], connections=CONNECTIONS))


def _score(sched, outcome, expected, res: Result | None) -> dict:
    """Latency samples and detection tallies of one drive; mismatches and
    unanswered requests are failures (counted in ``res`` when given)."""
    clean, damaged = [], []
    bad = {"clean": 0, "damaged": 0}
    correct = benign = benign_ok = good = 0
    for req in sched:
        resp = outcome.responses[req.index]
        kind = "damaged" if req.damaged else "clean"
        exp = expected.get((req.trace, req.damaged)) if expected is not None else None
        why = None
        if resp is None:
            why = "unanswered"
        elif resp.get("status") != 200 or not resp.get("ok"):
            why = f"status {resp.get('status')}"
        elif req.damaged and resp.get("degraded") is not True:
            why = "damaged request not marked degraded"
        elif exp is not None and (resp["verdict"] != exp.verdict or resp["margin"] != exp.margin):
            why = "verdict/margin differs from offline scoring"
        if why is not None:
            bad[kind] += 1
            if res is not None:
                res.fail(f"request {req.index} ({kind}): {why}")
            continue
        (damaged if req.damaged else clean).append(outcome.latency_ms[req.index])
        if exp is not None:
            good += 1
            correct += int(resp["verdict"] == exp.label)
            if exp.label == -1:
                benign += 1
                benign_ok += int(resp["verdict"] == -1)
    return {"clean": clean, "damaged": damaged, "bad": bad, "good": good,
            "correct": correct, "benign": benign, "benign_ok": benign_ok,
            "late_ms_p99": percentile(outcome.late_ms, 99) if outcome.late_ms else 0.0}


def _capacity(daemon: Daemon, requests: RequestSet, n_traces: int, seed: int,
              probes: list) -> float:
    """Highest offered rate, same mix, whose clean p99 stays within the limit
    with every request answered and no growing backlog (the last quarter's
    median latency no more than 50 ms above the first quarter's)."""
    capacity = RATE
    for rate in PROBE_RATES:
        sched = schedule(seed * 1009 + int(rate), rate=rate, count=int(rate * PROBE_S),
                         n_traces=n_traces, damage_every=DAMAGE_EVERY, connections=CONNECTIONS)
        outcome = _drive(daemon.port, requests.lines(sched), sched)
        tally = _score(sched, outcome, None, None)
        p99 = percentile(tally["clean"], 99, failures=tally["bad"]["clean"])
        quarter = len(sched) // 4
        first, last = outcome.latency_ms[:quarter], outcome.latency_ms[-quarter:]
        growth = median([x for x in last if x is not None], failures=last.count(None)) - median(
            [x for x in first if x is not None], failures=first.count(None))
        probes.append({"rate": rate, "clean_p99_ms": p99, "backlog_growth_ms": growth})
        if p99 > CAPACITY_P99_MS or growth > 50.0:
            break
        capacity = rate
    return capacity


def serve_mixed_gen(ctx: Context, res: Result) -> None:
    name = "serve_mixed_gen"
    if ctx.seed == REQUEST_SEED:
        raise BenchError(f"seed {REQUEST_SEED} is the request corpus seed; pick another")
    daemons: list[Daemon] = []

    def setup(c, d, spans_dir):
        daemons.append(_serve_setup(c, d, spans_dir))
        return daemons[-1]

    def teardown(daemon):
        # an earlier set-up's daemon must drain and exit cleanly too
        daemons.remove(daemon)
        res.attempted += 1
        if not daemon.stop():
            res.fail("set-up daemon did not drain and exit 0 on SIGTERM")

    try:
        d, daemon, spans_dir = _repeat_setup(ctx, name, setup, res, teardown)
        requests = RequestSet(d / "requests")
        n_traces = len(requests.blobs)
        count = int(RATE * (ctx.seconds / 2 if ctx.trace else ctx.seconds))
        sched = schedule(ctx.seed, rate=RATE, count=count, n_traces=n_traces,
                         damage_every=DAMAGE_EVERY, connections=CONNECTIONS)
        expected = requests.expected(d / "artifact", sched)
        lines = requests.lines(sched)

        cpu0 = daemon.cpu_s()
        outcome = _drive(daemon.port, lines, sched)
        cpu = daemon.cpu_s() - cpu0
        res.attempted += len(sched)
        for err in outcome.errors:
            res.notes.append(f"load generator: {err}")
        tally = _score(sched, outcome, expected, res)
        fails = tally["bad"]
        res.e2e["lat_p50_ms"] = median(tally["clean"], failures=fails["clean"])
        res.e2e["peak_rss_mb"] = daemon.hwm_mb()
        res.e2e["trace_accuracy"] = tally["correct"] / tally["good"] if tally["good"] else 0.0
        res.e2e["benign_tnr"] = tally["benign_ok"] / tally["benign"] if tally["benign"] else 0.0
        damaged_p50 = median(tally["damaged"], failures=fails["damaged"]) if sched else 0.0
        clean_ms = {f"p{k}": percentile(tally["clean"], k, failures=fails["clean"])
                    for k in (90, 95, 99)}
        res.diag.update(requests=len(sched), clean_ms=clean_ms, damaged_lat_p50_ms=damaged_p50,
                        loadgen_late_ms_p99=tally["late_ms_p99"], ready_s=daemon.ready_s)

        if ctx.trace:
            answered = sum(1 for r in outcome.responses if r is not None)
            res.layers = layers.zeroed()
            res.layers["serve.daemon_cpu_ms_per_req"] = cpu * 1e3 / answered if answered else 0.0
            res.layers["serve.damaged_p50_ms"] = damaged_p50
            res.layers["serve.clean_p99_ms"] = clean_ms["p99"]
            res.layers["serve.ready_s"] = daemon.ready_s
            probes = res.diag.setdefault("capacity_probes", [])
            res.layers["serve.capacity_rps"] = _capacity(daemon, requests, n_traces, ctx.seed,
                                                         probes)
        res.attempted += 1
        if not daemons.pop().stop():
            res.fail("daemon did not drain and exit 0 on SIGTERM")

        if ctx.trace:
            _traced_serve(ctx, d, spans_dir, sched, lines, expected, res)
    finally:
        for daemon in daemons:
            daemon.proc.kill()
            daemon.proc.wait()


def _traced_serve(ctx, d, spans_dir, sched, lines, expected, res: Result) -> None:
    spans_path = spans_dir / "serve.json"
    daemon = Daemon(ctx, d / "artifact", spans=spans_path)
    try:
        outcome = _drive(daemon.port, lines, sched)
        _, metricsz = http_get(daemon.port, "/metricsz")
    finally:
        stopped = daemon.stop()
    res.attempted += len(sched) + 1
    if not stopped:
        res.fail("traced daemon did not drain and exit 0 on SIGTERM")
    tally = _score(sched, outcome, expected, res)
    untraced = res.e2e["lat_p50_ms"]
    extra = {k: res.layers[k] for k in ("serve.daemon_cpu_ms_per_req", "serve.damaged_p50_ms",
                                         "serve.clean_p99_ms", "serve.ready_s",
                                         "serve.capacity_rps")}
    res.layers = layers.serve_layers(load_spans(spans_path))
    res.layers.update(extra)
    counters = metricsz.get("counters", {})
    for key in ("shed", "expired", "score_timeouts"):
        res.layers[f"serve.{key}"] = counters.get(key, 0)
    traced = median(tally["clean"], failures=tally["bad"]["clean"])
    res.layers["trace.overhead_frac"] = (traced - untraced) / untraced
    res.layers["loadgen.late_ms_p99"] = res.diag["loadgen_late_ms_p99"]
    res.layers["gen.corpus_s"] = _span_total(spans_dir.glob("gen*.json"), "gen.corpus")
    res.layers["model.artifact_publish_s"] = _span_total([spans_dir / "publish.json"],
                                                         "model.artifact_publish")


WORKLOADS = {
    "train_warm_gen10k": train_warm_gen10k,
    "serve_mixed_gen": serve_mixed_gen,
}
