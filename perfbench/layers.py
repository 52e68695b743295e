"""Per-layer ledger: metric registry and span-to-metric arithmetic.

Layers are the program's modules.  Each row of :data:`LAYERS` names a
per-layer metric, its unit, which direction is better, the end-to-end
metric it should move and the workload on which it should move it -- the
prediction a later performance change states before it is measured.  A
traced run reports every row on every workload; a layer that does no work
on a workload reads 0 (``sim.salvage_calls`` and ``cache.get_calls`` on
``train_warm_gen10k`` must, for instance).  A workload column of ``-``
marks a row predicted to read 0 everywhere: a count of wasted work or
failures.

End-to-end names used as targets: ``lat_p50_ms`` (the wall time of one
pipeline process, or one clean request), ``ok_frac``, ``trace_accuracy``,
``benign_tnr``, ``setup_s``.  The serving tail, ``serve.clean_p99_ms``, is
itself a row here rather than an end-to-end metric: it tracks the host's
speed at running the pure-Python salvage parser, and between runs minutes
apart on a shared 2-core VM it spread by a quarter of its median, too wide
to gate a change on.  ``-`` marks a diagnostic that judges the run itself
rather than the program.
"""

from __future__ import annotations

from collections import defaultdict

from .measure import median, percentile
from .spans import children, duration, has_descendant, self_time

TW, SM = "train_warm_gen10k", "serve_mixed_gen"
ALL = f"{TW},{SM}"

#: name -> (unit, better, target end-to-end metric, workload(s))
LAYERS: dict[str, tuple[str, str, str, str]] = {
    "proc.import_s": ("s", "lower", "lat_p50_ms", TW),
    "proc.residual_s": ("s", "lower", "lat_p50_ms", TW),
    "pipeline.run_s": ("s", "lower", "lat_p50_ms", TW),
    "pipeline.self_s": ("s", "lower", "lat_p50_ms", TW),
    "pipeline.per_family_s": ("s", "lower", "lat_p50_ms", TW),
    "features.corpus_key_s": ("s", "lower", "lat_p50_ms", TW),
    "features.dataset_load_s": ("s", "lower", "lat_p50_ms", TW),
    "features.dataset_hit": ("count", "higher", "lat_p50_ms", TW),
    "features.normalize_s": ("s", "lower", "lat_p50_ms", TW),
    "model.train_s": ("s", "lower", "lat_p50_ms", TW),
    "model.fit_member_s_p50": ("s", "lower", "lat_p50_ms", TW),
    "model.quantize_s": ("s", "lower", "lat_p50_ms", TW),
    "model.save_s": ("s", "lower", "lat_p50_ms", TW),
    "model.epochs_run": ("count", "lower", "trace_accuracy,benign_tnr (must not move)", TW),
    "model.updates": ("count", "lower", "trace_accuracy,benign_tnr (must not move)", TW),
    "model.margins_s": ("s", "lower", "lat_p50_ms", TW),
    "model.verdicts_s": ("s", "lower", "lat_p50_ms", TW),
    "sim.decode_calls": ("count", "lower", "lat_p50_ms", SM),
    "sim.salvage_calls": ("count", "lower", "lat_p50_ms", SM),
    "sim.salvage_s": ("s", "lower", "serve.damaged_p50_ms,serve.clean_p99_ms", SM),
    "sim.salvage_mb_per_s": ("MB/s", "higher", "serve.damaged_p50_ms,serve.clean_p99_ms", SM),
    "sim.salvage_nan_frac": ("frac", "lower", "trace_accuracy (must not move)", SM),
    # 0 on the warm repetitions: the dataset cache hit leaves nothing to decode
    "cache.get_calls": ("count", "lower", "lat_p50_ms (predicted 0)", "-"),
    "ingest.retries": ("count", "lower", "lat_p50_ms,ok_frac", "-"),
    "ingest.quarantined": ("count", "lower", "ok_frac", "-"),
    # the traced cold fill of train_warm's set-up: cache writes and assembly
    "fill.run_s": ("s", "lower", "setup_s", TW),
    "fill.decode_calls": ("count", "lower", "setup_s", TW),
    "fill.ingest_load_s": ("s", "lower", "setup_s", TW),
    "fill.cache_get_s": ("s", "lower", "setup_s", TW),
    "fill.cache_put_s": ("s", "lower", "setup_s", TW),
    "fill.build_dataset_s": ("s", "lower", "setup_s", TW),
    "fill.dataset_store_s": ("s", "lower", "setup_s", TW),
    "serve.parse_us_p50": ("us", "lower", "lat_p50_ms", SM),
    "serve.score_batch_ms_p50": ("ms", "lower", "lat_p50_ms", SM),
    "serve.score_batch_self_ms_p50": ("ms", "lower", "lat_p50_ms", SM),
    "sim.clean_decode_us_p50": ("us", "lower", "lat_p50_ms,serve.capacity_rps", SM),
    "model.score_traces_ms_p50": ("ms", "lower", "lat_p50_ms,serve.capacity_rps", SM),
    "model.score_us_per_trace": ("us", "lower", "lat_p50_ms (base: traces per batch)", SM),
    "serve.queue_wait_ms_p50": ("ms", "lower", "serve.clean_p99_ms,serve.capacity_rps", SM),
    "serve.queue_wait_ms_p99": ("ms", "lower", "serve.clean_p99_ms,serve.capacity_rps", SM),
    "serve.batch_requests_mean": ("count", "higher", "serve.clean_p99_ms,serve.capacity_rps", SM),
    "serve.score_batch_ms_p99": ("ms", "lower", "serve.clean_p99_ms", SM),
    "serve.salvage_stall_ms": ("ms", "lower", "serve.clean_p99_ms", SM),
    "serve.daemon_cpu_ms_per_req": ("ms", "lower", "serve.capacity_rps", SM),
    "serve.shed": ("count", "lower", "ok_frac", SM),
    "serve.expired": ("count", "lower", "ok_frac", SM),
    "serve.score_timeouts": ("count", "lower", "ok_frac", SM),
    "serve.clean_p99_ms": ("ms", "lower", "- (clean requests; untraced)", SM),
    "serve.damaged_p50_ms": ("ms", "lower", "- (damaged requests; untraced)", SM),
    "serve.capacity_rps": ("1/s", "higher", "- (clean p99 <= 100 ms; untraced)", SM),
    "drift.observe_us_p50": ("us", "lower", "serve.clean_p99_ms", SM),
    "drift.evaluate_ms_p99": ("ms", "lower", "serve.clean_p99_ms", SM),
    "drift.windows": ("count", "higher", "serve.clean_p99_ms", SM),
    "gen.corpus_s": ("s", "lower", "setup_s", f"{TW},{SM}"),
    "model.artifact_publish_s": ("s", "lower", "setup_s", SM),
    "model.artifact_load_s": ("s", "lower", "setup_s", SM),
    "serve.ready_s": ("s", "lower", "setup_s", SM),
    "loadgen.late_ms_p99": ("ms", "lower", "-", SM),
    "host.calib_ms": ("ms", "lower", "-", ALL),
    "trace.overhead_frac": ("frac", "lower", "-", ALL),
}


def zeroed() -> dict[str, float]:
    return {name: 0.0 for name in LAYERS}


class SpanIndex:
    """Spans of one traced process, grouped by name."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.kids = children(spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            self.by_name[span["name"]].append(index)

    def count(self, name: str, pred=None) -> int:
        return sum(1 for i in self.by_name[name] if pred is None or pred(self.spans[i]))

    def durations(self, name: str, pred=None) -> list[float]:
        return [
            duration(self.spans[i])
            for i in self.by_name[name]
            if pred is None or pred(self.spans[i])
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self, name: str) -> list[float]:
        return [self_time(self.spans, i, self.kids) for i in self.by_name[name]]

    def attr_sum(self, name: str, key: str) -> float:
        return sum((self.spans[i]["attrs"] or {}).get(key, 0) for i in self.by_name[name])


def _attr(key):
    return lambda span: bool((span["attrs"] or {}).get(key))


def pipeline_layers(spans: list[dict], *, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced ``repro.pipeline`` process."""
    ix = SpanIndex(spans)
    out = zeroed()
    run = ix.total("pipeline.run")
    imp = ix.total("proc.import")
    out["proc.import_s"] = imp
    out["proc.residual_s"] = wall_s - imp - run
    out["pipeline.run_s"] = run
    out["pipeline.self_s"] = sum(ix.self_times("pipeline.run"))
    out["pipeline.per_family_s"] = ix.total("pipeline.per_family")
    out["features.corpus_key_s"] = ix.total("features.corpus_key")
    out["features.dataset_load_s"] = ix.total("features.dataset_load")
    out["features.dataset_hit"] = ix.count("features.dataset_load", _attr("hit"))
    out["features.normalize_s"] = ix.total("features.normalize")
    out["model.train_s"] = ix.total("model.train")
    fits = ix.durations("model.fit_member")
    out["model.fit_member_s_p50"] = median(fits) if fits else 0.0
    out["model.quantize_s"] = ix.total("model.quantize")
    out["model.save_s"] = ix.total("model.save")
    out["model.epochs_run"] = ix.attr_sum("model.fit_member", "epochs")
    out["model.updates"] = ix.attr_sum("model.fit_member", "updates")
    out["model.margins_s"] = ix.total("model.margins")
    out["model.verdicts_s"] = ix.total("model.verdicts")
    _decode_layers(ix, out)
    out["cache.get_calls"] = ix.count("cache.get")
    out["ingest.retries"] = ix.count("ingest.retry")
    return out


def fill_layers(spans: list[dict]) -> dict[str, float]:
    """``fill.*`` rows of the traced cold fill: the cache writes and the
    corpus assembly that the warm repetitions skip."""
    ix = SpanIndex(spans)
    return {
        "fill.run_s": ix.total("pipeline.run"),
        "fill.decode_calls": ix.count("sim.decode"),
        # TraceLoader.load minus its decode and cache calls: read, hash, retry
        "fill.ingest_load_s": sum(ix.self_times("ingest.load")),
        "fill.cache_get_s": ix.total("cache.get"),
        "fill.cache_put_s": ix.total("cache.put"),
        "fill.build_dataset_s": ix.total("features.build_dataset"),
        "fill.dataset_store_s": ix.total("features.dataset_store"),
    }


def _decode_layers(ix: SpanIndex, out: dict[str, float]) -> None:
    out["sim.decode_calls"] = ix.count("sim.decode")
    out["sim.salvage_calls"] = ix.count("sim.salvage")
    salvage_s = sum(ix.self_times("sim.salvage"))
    out["sim.salvage_s"] = salvage_s
    mb = ix.attr_sum("sim.salvage", "bytes") / 1e6
    out["sim.salvage_mb_per_s"] = mb / salvage_s if salvage_s > 0 else 0.0
    expected = ix.attr_sum("sim.salvage", "expected")
    out["sim.salvage_nan_frac"] = ix.attr_sum("sim.salvage", "nan") / expected if expected else 0.0


def serve_layers(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced ``repro.serve`` daemon."""
    ix = SpanIndex(spans)
    out = zeroed()
    out["proc.import_s"] = ix.total("proc.import")
    _decode_layers(ix, out)

    def pct(values, q, scale):
        return percentile(values, q) * scale if values else 0.0

    out["serve.parse_us_p50"] = pct(ix.durations("serve.parse"), 50, 1e6)
    batches = ix.durations("serve.score_batch")
    out["serve.score_batch_ms_p50"] = pct(batches, 50, 1e3)
    out["serve.score_batch_ms_p99"] = pct(batches, 99, 1e3)
    out["serve.score_batch_self_ms_p50"] = pct(ix.self_times("serve.score_batch"), 50, 1e3)
    clean = ix.durations("sim.decode", lambda s: (s["attrs"] or {}).get("mode") == "clean")
    out["sim.clean_decode_us_p50"] = pct(clean, 50, 1e6)
    scores = ix.durations("model.score_traces")
    out["model.score_traces_ms_p50"] = pct(scores, 50, 1e3)
    traces = ix.attr_sum("model.score_traces", "traces")
    out["model.score_us_per_trace"] = sum(scores) / traces * 1e6 if traces else 0.0
    waits, sizes = [], []
    for i in ix.by_name["serve.dispatch"]:
        batch_waits = ix.spans[i]["attrs"]["waits_ms"]
        waits.extend(batch_waits)
        sizes.append(len(batch_waits))
    out["serve.queue_wait_ms_p50"] = pct(waits, 50, 1.0)
    out["serve.queue_wait_ms_p99"] = pct(waits, 99, 1.0)
    out["serve.batch_requests_mean"] = sum(sizes) / len(sizes) if sizes else 0.0
    out["serve.salvage_stall_ms"] = 1e3 * sum(
        duration(ix.spans[i])
        for i in ix.by_name["serve.score_batch"]
        if has_descendant(ix.spans, i, "sim.salvage", ix.kids)
    )
    out["drift.observe_us_p50"] = pct(ix.durations("drift.observe"), 50, 1e6)
    # most calls find the window unfilled and return at once: the tail that
    # can stall the event loop is the cost of the calls that evaluate one
    out["drift.evaluate_ms_p99"] = pct(ix.durations("drift.evaluate", _attr("window")), 99, 1e3)
    out["drift.windows"] = ix.count("drift.evaluate", _attr("window"))
    out["model.artifact_load_s"] = ix.total("model.artifact_load")
    return out


def combine(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced repetitions of one run."""
    if not rows:
        return zeroed()
    return {name: median([row[name] for row in rows]) for name in rows[0]}
