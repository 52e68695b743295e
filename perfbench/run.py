"""Run the repository benchmark: one workload, untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  ``NAME`` is ``train_warm_gen10k``,
``serve_mixed_gen`` or ``all``.  The benchmark builds
what the program builds on first use (the native training kernel), sets the
workload up from ``--seed``, measures for ``--seconds`` and checks every
output for correctness.  It prints each metric with its unit, a diagnostics
line (host-speed calibration before and after, generator lateness, failure
notes) and, as the last line, one JSON object::

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"lat_p50_ms": {"value": 1834.2, "unit": "ms"}, ...}}

``--trace 0`` reports the end-to-end metrics (:data:`E2E`); ``--trace 1``
re-runs the workload with layer probes and reports the per-layer ledger
(:data:`perfbench.layers.LAYERS`), including ``trace.overhead_frac``, the
traced run's slowdown against untraced repetitions of the same run.

To back a later performance claim, run a workload alone on seeds that were
not used while the change was written, e.g.::

    python3 perfbench/run.py --workload serve_mixed_gen --seed 9001 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve_mixed_gen --seed 9001 --seconds 20 --trace 1

Scratch files live under ``.perfbench_work/`` in the checkout and are
removed when the run ends; every process the run starts is stopped and
reaped before it exits.  Exit status: 0 with a result printed, 1 when the
workload could not be set up, 2 on a usage error or when the checkout does
not hold the program.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# import as the perfbench package, never as loose modules from this directory
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench.layers import LAYERS  # noqa: E402
from perfbench.measure import finite, host_calib_ms  # noqa: E402
from perfbench.workloads import WORKLOADS, BenchError, Context, Result  # noqa: E402

#: end-to-end metric -> unit (see perfbench.workloads for definitions)
E2E = {
    "setup_s": "s",
    "lat_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "trace_accuracy": "frac",
    "benign_tnr": "frac",
    "ok_frac": "frac",
}


#: first use compiles the native training kernel and every module's bytecode
BUILD = (
    "import repro.gen.__main__, repro.pipeline.__main__, repro.serve.__main__\n"
    "from repro.model import _native\n"
    "_native.available()"
)


def build(ctx: Context) -> None:
    """Compile what the program compiles on first use, outside any timing."""
    subprocess.run(
        ctx.py("-c", BUILD),
        env=ctx.env, cwd=ctx.root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        check=False, timeout=600,
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(work / "tmp")
    ctx = Context(root=ROOT, work=work, seed=seed, seconds=seconds, trace=trace,
                  env=env, log=work / "children.log")
    try:
        build(ctx)
        res = Result()
        calib_before = host_calib_ms()
        WORKLOADS[name](ctx, res)
        calib_after = host_calib_ms()
    except BenchError as exc:
        log_tail = ctx.log.read_text(errors="replace")[-2000:] if ctx.log.exists() else ""
        raise BenchError(f"{exc}\n--- child log tail ---\n{log_tail}") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work.parent.rmdir()
    res.diag["host_calib_ms"] = [calib_before, calib_after]
    return report(res, trace)


def report(res: Result, trace: bool) -> dict:
    if trace:
        values = dict(res.layers)
        values["host.calib_ms"] = sum(res.diag["host_calib_ms"]) / 2
        units = {name: row[0] for name, row in LAYERS.items()}
    else:
        values = dict(res.e2e)
        attempted = max(res.attempted, 1)
        values["ok_frac"] = 1.0 - res.failed / attempted
        units = E2E
    metrics = {}
    correct = res.failed == 0 and res.attempted > 0
    for name, unit in units.items():
        value = float(values.get(name, math.nan))
        if math.isnan(value):
            correct = False
            res.notes.append(f"{name} was not measured")
            value = 0.0
        elif math.isinf(value):
            correct = False  # failures pushed a percentile past every success
            value = finite(value)
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": correct,
        "attempted": max(res.attempted, 1),
        "failed": res.failed,
        "metrics": metrics,
        "diagnostics": {**res.diag, "notes": res.notes[:20]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT} does not hold the program (src/repro); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"# {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        for metric, cell in out["metrics"].items():
            print(f"{name:>18} {metric:<30} {cell['value']:>16.6g} {cell['unit']}")
        print("# diagnostics " + json.dumps(out.pop("diagnostics"), default=str))
        results[name] = out
    final = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{m}": c for n, r in results.items() for m, c in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
