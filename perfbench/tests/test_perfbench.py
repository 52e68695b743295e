"""Tests for the benchmark's own code.

    python3 -m pytest -q perfbench/tests

The ledger tests run every workload, traced, end to end on tiny inputs (a
240-trace gen corpus, a 1-second serving phase); the whole module takes
about 15 s on a 2-core VM.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import layers, workloads  # noqa: E402
from perfbench.loadgen import damage, schedule  # noqa: E402
from perfbench.measure import INF, median, percentile  # noqa: E402
from perfbench.run import E2E, report  # noqa: E402
from perfbench.spans import SpanRecorder, covered, patch, self_time  # noqa: E402

# -- request schedule ---------------------------------------------------------


def _sched(seed):
    return schedule(seed, rate=200.0, count=1000, n_traces=300, damage_every=50)


def test_schedule_is_a_function_of_the_seed():
    a, b = _sched(7), _sched(7)
    assert a == b
    damaged = [r.index for r in a if r.damaged]
    assert len(damaged) == 1000 // 50
    assert [r.due_s for r in a] == [i / 200.0 for i in range(1000)]
    assert {r.conn for r in a} == {0, 1}


def test_schedule_differs_between_seeds():
    a, c = _sched(7), _sched(8)
    assert [r.trace for r in a] != [r.trace for r in c]
    assert {r.index for r in a if r.damaged} != {r.index for r in c if r.damaged}


def test_damage_drops_non_utf8_bytes():
    blob = bytes([4, 0x41, 0xFF, 0x42, 0xC3, 0xA9, 0x80])
    assert damage(blob) == bytes([4, 0x41, 0x42, 0xC3, 0xA9])


# -- percentiles --------------------------------------------------------------


def test_percentile_counts_failures_as_infinite():
    values = [float(v) for v in range(1, 100)]  # 99 samples
    assert percentile(values, 99) == 99.0
    assert percentile(values, 99, failures=1) == 99.0  # rank 99 of 100: a success
    assert percentile(values, 100, failures=1) == INF  # rank 100 of 100: the failure
    assert percentile(values, 99, failures=2) == INF  # rank 100 of 101: a failure
    assert median([1.0, 2.0, 3.0], failures=2) == 3.0
    assert median([1.0], failures=2) == INF
    with pytest.raises(ValueError):
        percentile([], 50)


# -- span arithmetic ----------------------------------------------------------


def _span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "thread": 1, "req": None, "attrs": None}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),  # nested in a: already inside a's interval
        _span("b", 5.0, 7.0, 0),
        _span("c", 6.5, 12.0, 0),  # overlaps b and runs past the parent's end
    ]
    assert self_time(spans, 0) == pytest.approx(10.0 - (3.0 + 5.0))
    assert self_time(spans, 1) == pytest.approx(2.0)
    assert self_time(spans, 2) == pytest.approx(1.0)
    assert covered([(1.0, 4.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_recorder_nests_spans_through_patched_names():
    rec = SpanRecorder()

    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

    def outer(x):
        return Owner.inner(x) * 2

    module = type("M", (), {"outer": staticmethod(outer)})
    patch(rec, Owner, "inner", "inner", attrs=lambda a, k, r: {"result": r})
    patch(rec, module, "outer", "outer")
    assert module.outer(1) == 4
    names = [s[0] for s in rec.spans]
    assert names == ["outer", "inner"]
    assert rec.spans[1][3] == 0 and rec.spans[0][3] == -1
    assert rec.spans[1][6] == {"result": 2}


# -- benchmark definition -----------------------------------------------------


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        name: row[:2] for name, row in layers.LAYERS.items()
    }
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])


def test_report_flags_unmeasured_metrics():
    res = workloads.Result(attempted=3)
    res.e2e = {name: 1.0 for name in E2E if name != "peak_rss_mb"}
    out = report(res, trace=False)
    assert not out["correct"]
    assert set(out["metrics"]) == set(E2E)
    assert out["metrics"]["ok_frac"]["value"] == 1.0


# -- the ledger on tiny inputs ------------------------------------------------


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """Every workload, traced, against a miniature checkout that links in
    ``src`` and ``perfbench``."""
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "perfbench"):
        (root / name).symlink_to(ROOT / name)

    saved = {k: getattr(workloads, k) for k in
             ("GEN_COUNT", "REQUEST_CORPUS", "RATE", "DRIFT_WINDOW", "PROBE_S", "PROBE_RATES")}
    workloads.GEN_COUNT, workloads.REQUEST_CORPUS, workloads.RATE = 240, 60, 100.0
    workloads.DRIFT_WINDOW, workloads.PROBE_S, workloads.PROBE_RATES = 20, 1.0, (150.0,)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = {}
    try:
        for name, fn in workloads.WORKLOADS.items():
            work = root / "work" / name
            work.mkdir(parents=True)
            ctx = workloads.Context(root=root, work=work, seed=3, seconds=2.0, trace=True,
                                    env=env, log=work / "children.log")
            res = workloads.Result()
            fn(ctx, res)
            assert res.failed == 0, res.notes
            out[name] = res.layers
    finally:
        for k, v in saved.items():
            setattr(workloads, k, v)
    return out


def test_ledger_reports_every_layer_on_every_workload(ledger):
    for name, values in ledger.items():
        missing = set(layers.LAYERS) - set(values) - {"host.calib_ms"}
        assert not missing, (name, missing)
        assert all(math.isfinite(v) for v in values.values()), name


def test_layers_fire_where_the_table_predicts_work(ledger):
    skip = {"host.calib_ms", "serve.shed", "serve.expired", "serve.score_timeouts",
            "serve.capacity_rps"}
    for metric, (_, _, _, where) in layers.LAYERS.items():
        if metric in skip:
            continue
        if where == "-":
            assert all(ledger[w][metric] == 0 for w in ledger), metric
            continue
        for workload in where.split(","):
            assert ledger[workload][metric] != 0, (metric, workload)


def test_layers_read_zero_where_the_table_predicts_none(ledger):
    warm = ledger["train_warm_gen10k"]
    assert warm["sim.salvage_calls"] == 0
    assert warm["cache.get_calls"] == 0
    assert warm["sim.decode_calls"] == 0
    assert warm["features.dataset_hit"] == 1
    assert warm["fill.decode_calls"] == 240  # the cold fill decodes every trace once
    serve = ledger["serve_mixed_gen"]
    assert serve["pipeline.run_s"] == 0 and serve["model.train_s"] == 0
