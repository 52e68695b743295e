"""Traced launcher: run a program entry point with layer probes installed.

    python3 perfbench/launch.py --spans SPANS.json ENTRY [ARGS...]

``ENTRY`` is ``pipeline``, ``serve`` or ``gen``; ``ARGS`` go unchanged to
that entry point's ``main`` (the argv ``python -m repro.<entry>`` takes).
Before calling ``main`` the launcher wraps each layer's public functions at
the names their callers look up -- e.g. ``repro.sim.trace.salvage_f64``,
``repro.pipeline.train_ensemble``, ``repro.serve.service.parse_request_line``
-- so every call records a span (see :mod:`perfbench.spans`).  Nothing under
``src/`` changes.  Spans are written to ``SPANS.json`` when ``main`` returns.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# import as the perfbench package, never as loose modules from this directory
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench.spans import SpanRecorder, patch  # noqa: E402

ENTRIES = {
    "pipeline": "repro.pipeline.__main__",
    "serve": "repro.serve.__main__",
    "gen": "repro.gen.__main__",
}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _decode_attrs(args, kwargs, result):
    return {"mode": result[1].mode}


def _decode_req(args, kwargs):
    path = kwargs.get("path", "")
    return path[len("request:"):] if path.startswith("request:") else None


def _salvage_attrs(args, kwargs, result):
    report = result[1]  # its counters may be numpy integers
    return {"bytes": len(args[0]), "expected": int(report.expected_floats),
            "nan": int(report.nan_floats)}


def _hit(args, kwargs, result):
    return {"hit": result is not None}


def probe_common(rec: SpanRecorder) -> None:
    """Layers both the pipeline and the daemon call."""
    import repro.features.normalize as normalize
    import repro.model.artifact as artifact
    import repro.model.perceptron as perceptron
    import repro.sim.trace as trace

    patch(rec, trace, "salvage_f64", "sim.salvage", attrs=_salvage_attrs)
    patch(rec, perceptron, "quantize_bins", "model.quantize")
    patch(rec, normalize.Normalizer, "fit", "features.normalize")
    patch(rec, normalize.Normalizer, "transform", "features.normalize")
    patch(rec, artifact, "ensemble_margins", "model.margins")
    patch(rec, artifact, "trace_verdicts", "model.verdicts")
    patch(
        rec,
        artifact.LoadedArtifact,
        "score_traces",
        "model.score_traces",
        attrs=lambda a, k, r: {"traces": int(_arg(a, k, 3, "n_traces"))},
    )
    patch(rec, artifact.ArtifactStore, "publish", "model.artifact_publish")
    patch(rec, artifact.ArtifactStore, "load", "model.artifact_load")


def probe_pipeline(rec: SpanRecorder) -> None:
    import repro.cache as cache
    import repro.features.dataset_cache as dataset_cache
    import repro.ingest.loader as loader
    import repro.model.perceptron as perceptron
    import repro.model.train_pool as train_pool
    import repro.pipeline as pipeline
    import repro.pipeline.__main__ as pipeline_main

    probe_common(rec)
    patch(rec, pipeline_main, "run_pipeline", "pipeline.run")
    patch(rec, pipeline, "assemble_corpus", "features.assemble")
    patch(rec, pipeline, "split_traces", "pipeline.split")
    patch(rec, pipeline, "train_ensemble", "model.train")
    patch(rec, pipeline, "ensemble_margins", "model.margins")
    patch(rec, pipeline, "trace_verdicts", "model.verdicts")
    patch(rec, pipeline, "margin_scales", "model.margin_scales")
    patch(rec, pipeline, "per_family_metrics", "pipeline.per_family")
    patch(rec, dataset_cache, "build_dataset", "features.build_dataset")
    cls = dataset_cache.DatasetCache
    patch(rec, cls, "corpus_key", "features.corpus_key")
    patch(rec, cls, "load", "features.dataset_load", attrs=_hit)
    for name in ("store", "store_normalizer", "store_normalized"):
        patch(rec, cls, name, "features.dataset_store")
    for name in ("load_normalizer", "load_normalized"):
        patch(rec, cls, name, "features.normalize")
    patch(rec, train_pool, "quantize_bins", "model.quantize")
    patch(
        rec,
        perceptron.HashedPerceptron,
        "fit",
        "model.fit_member",
        attrs=lambda a, k, r: {"epochs": len(r), "updates": int(sum(r))},
    )
    patch(rec, perceptron.HashedPerceptron, "save", "model.save")
    patch(rec, loader, "decode_trace", "sim.decode", attrs=_decode_attrs)
    patch(rec, cache, "decode_trace", "sim.decode", attrs=_decode_attrs)
    patch(rec, cache.FeatureCache, "get", "cache.get", attrs=_hit)
    patch(rec, cache.FeatureCache, "put", "cache.put")
    patch(rec, loader.TraceLoader, "load", "ingest.load")

    retry_call = loader.retry_call

    def counted_retry_call(fn, policy=None, *, on_retry=None, **kwargs):
        def note(*args):
            rec.instant("ingest.retry", {})
            if on_retry is not None:
                on_retry(*args)

        return retry_call(fn, policy, on_retry=note, **kwargs)

    loader.retry_call = counted_retry_call


def probe_serve(rec: SpanRecorder) -> None:
    import time

    import repro.drift as drift
    import repro.serve.scorer as scorer
    import repro.serve.service as service

    probe_common(rec)
    patch(rec, service, "parse_request_line", "serve.parse")
    patch(rec, scorer, "decode_trace", "sim.decode", attrs=_decode_attrs, req=_decode_req)
    patch(
        rec,
        scorer.RequestScorer,
        "score_batch",
        "serve.score_batch",
        attrs=lambda a, k, r: {"requests": len(_arg(a, k, 1, "batch"))},
    )
    patch(rec, drift.DriftMonitor, "observe", "drift.observe")
    patch(
        rec,
        drift.DriftMonitor,
        "maybe_evaluate",
        "drift.evaluate",
        attrs=lambda a, k, r: {"window": r is not None},
    )

    # the batcher's dispatch is a coroutine: record the queue wait of every
    # request as an instant when its batch starts, not as a nested span
    dispatch = service.ScoringService._score_batch

    async def traced_dispatch(self, batch):
        now = time.monotonic()
        rec.instant(
            "serve.dispatch",
            {"waits_ms": [(now - req.received_mono) * 1e3 for req in batch]},
        )
        return await dispatch(self, batch)

    service.ScoringService._score_batch = traced_dispatch


def probe_gen(rec: SpanRecorder) -> None:
    import repro.gen.__main__ as gen_main

    patch(rec, gen_main, "generate_corpus", "gen.corpus")


PROBES = {"pipeline": probe_pipeline, "serve": probe_serve, "gen": probe_gen}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] not in ENTRIES:
        print(f"usage: launch.py --spans PATH {{{','.join(ENTRIES)}}} [ARGS...]", file=sys.stderr)
        return 2
    spans_path, entry, args = argv[1], argv[2], argv[3:]
    rec = SpanRecorder()
    index = rec.begin("proc.import")
    module = importlib.import_module(ENTRIES[entry])
    rec.end(index)
    PROBES[entry](rec)
    try:
        return module.main(args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
