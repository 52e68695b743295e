"""Threaded ensemble training: ``--train-workers N`` must be semantics-free
(identical models, histories, and metrics for any thread width), the
derived default width must follow its rule, and the opt-in minibatch mode
must stay within the golden-corpus accuracy tolerance."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.model import HashedPerceptron, train_ensemble
from repro.model.train_pool import derive_workers
from repro.pipeline import PipelineConfig, run_pipeline

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"

#: minibatch is a different training order; on the 8-trace golden corpus it
#: may flip at most one trace verdict against the online path
GOLDEN_MINIBATCH_TOLERANCE = 0.125


def blobs(n=80, d=16, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [rng.normal(-1.5, 1.0, size=(n // 2, d)), rng.normal(1.5, 1.0, size=(n // 2, d))]
    )
    y = np.array([-1] * (n // 2) + [1] * (n // 2), dtype=np.int64)
    return X, y


def _ensemble(workers: int):
    X, y = blobs()
    return train_ensemble(
        X,
        y,
        n_features=X.shape[1],
        seeds=[7000, 7001, 7002],
        model_kwargs={"theta": 5.0},
        fit_kwargs={"epochs": 6},
        workers=workers,
    )


def test_worker_count_is_semantics_free_for_training():
    serial = _ensemble(workers=1)
    pooled = _ensemble(workers=4)
    assert len(serial) == len(pooled) == 3
    for a, b in zip(serial, pooled):
        assert a.history == b.history
        np.testing.assert_array_equal(a.model.weights, b.model.weights)
        assert a.model.seed == b.model.seed
        np.testing.assert_array_equal(a.model._salts, b.model._salts)


def test_members_return_in_seed_order():
    members = _ensemble(workers=2)
    assert [m.model.seed for m in members] == [7000, 7001, 7002]
    assert all(m.train_s >= 0.0 for m in members)


def test_pooled_members_match_direct_fit():
    X, y = blobs()
    direct = HashedPerceptron(X.shape[1], theta=5.0, seed=7001)
    direct_history = direct.fit(X, y, epochs=6)
    pooled = _ensemble(workers=3)[1]
    assert pooled.history == direct_history
    np.testing.assert_array_equal(pooled.model.weights, direct.weights)


#: metrics.json fields that may differ between runs: wall-clock only
_VOLATILE = ("created", "elapsed_s", "timings")


def _run(out_dir: Path, **overrides) -> dict:
    settings = dict(epochs=6, seed=7, n_models=3, theta=5.0)
    settings.update(overrides)
    config = PipelineConfig(trace_dir=str(GOLDEN), out_dir=str(out_dir), **settings)
    run_pipeline(config)
    metrics = json.loads((out_dir / "metrics.json").read_text())
    for key in _VOLATILE:
        metrics.pop(key, None)
    # the knob under test is allowed to differ in the echoed config
    metrics["config"].pop("train_workers", None)
    return metrics


def _weights(out_dir: Path, members: int) -> list[np.ndarray]:
    return [
        HashedPerceptron.load(out_dir / "models" / f"member_{k}.npz").weights
        for k in range(members)
    ]


def test_pipeline_train_workers_invariance(tmp_path):
    serial = _run(tmp_path / "w1", train_workers=1)
    pooled = _run(tmp_path / "w4", train_workers=4)
    assert pooled == serial


def test_pipeline_train_workers_model_artifacts_identical(tmp_path):
    _run(tmp_path / "w1", train_workers=1)
    _run(tmp_path / "w4", train_workers=4)
    for a, b in zip(_weights(tmp_path / "w1", 3), _weights(tmp_path / "w4", 3)):
        np.testing.assert_array_equal(a, b)


def test_minibatch_stays_within_golden_accuracy_tolerance(tmp_path):
    online = _run(tmp_path / "online")
    minibatch = _run(tmp_path / "minibatch", fit_mode="minibatch")
    gap = abs(
        online["metrics"]["trace_accuracy"] - minibatch["metrics"]["trace_accuracy"]
    )
    assert gap <= GOLDEN_MINIBATCH_TOLERANCE


def test_per_member_timings_in_metrics(tmp_path):
    config = PipelineConfig(
        trace_dir=str(GOLDEN), out_dir=str(tmp_path / "run"), epochs=3, n_models=2, theta=5.0
    )
    metrics = run_pipeline(config)
    members = metrics["timings"]["train_members_s"]
    assert len(members) == 2
    assert all(isinstance(v, float) and v >= 0.0 for v in members)


@pytest.mark.parametrize("kernel", ["reference", "blocked"])
def test_pipeline_fit_kernel_is_semantics_free(tmp_path, kernel):
    base = _run(tmp_path / "default")
    variant = _run(tmp_path / kernel, fit_kernel=kernel)
    base["config"].pop("fit_kernel", None)
    variant["config"].pop("fit_kernel", None)
    assert variant == base


# -- thread width: byte-identical across every width, five members ---------


def _quarter_faults() -> FaultPlan:
    """The 25% payload-corruption plan the width-invariance matrix runs on."""
    return FaultPlan(corrupt_rate=0.25, seed=7)


def _assert_width_invariant(tmp_path: Path, width: int, **overrides) -> None:
    """Width ``width`` must reproduce the serial run's metrics (histories
    included) and every member's weights, with all five members fitted."""
    serial = _run(tmp_path / "serial", n_models=5, train_workers=1, **overrides)
    threaded = _run(tmp_path / f"w{width}", n_models=5, train_workers=width, **overrides)
    assert threaded["training"]["updates_per_epoch"] == serial["training"]["updates_per_epoch"]
    assert threaded == serial
    for a, b in zip(_weights(tmp_path / "serial", 5), _weights(tmp_path / f"w{width}", 5)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("width", [1, 2, 5])
def test_thread_width_matches_serial_on_golden(tmp_path, width):
    _assert_width_invariant(tmp_path, width)


@pytest.mark.parametrize("width", [1, 2, 5])
def test_thread_width_matches_serial_under_faults(tmp_path, width):
    _assert_width_invariant(tmp_path, width, faults=_quarter_faults())


# The next three tests keep the names they had when members were fitted in
# worker processes over shared memory; they now pin the member threads.


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_shm_pool_matches_serial_blocked_on_golden(tmp_path, workers):
    """The numpy ``blocked`` kernel holds the GIL for most of its work;
    member threads running it must still match the serial run."""
    serial = _run(tmp_path / "serial", train_workers=1, fit_kernel="blocked")
    pooled = _run(tmp_path / f"w{workers}", train_workers=workers, fit_kernel="blocked")
    assert pooled == serial


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_shm_pool_matches_serial_blocked_under_faults(tmp_path, workers):
    serial = _run(
        tmp_path / "serial",
        train_workers=1,
        fit_kernel="blocked",
        faults=_quarter_faults(),
    )
    pooled = _run(
        tmp_path / f"w{workers}",
        train_workers=workers,
        fit_kernel="blocked",
        faults=_quarter_faults(),
    )
    assert pooled == serial


def test_shm_model_artifacts_byte_identical(tmp_path):
    """Every saved member file, not only its weights, is byte-identical
    between the serial run and a two-thread run."""
    _run(tmp_path / "serial", train_workers=1)
    _run(tmp_path / "pooled", train_workers=2)
    for k in range(3):
        name = f"member_{k}.npz"
        a = (tmp_path / "serial" / "models" / name).read_bytes()
        b = (tmp_path / "pooled" / "models" / name).read_bytes()
        assert a == b, name


@pytest.mark.parametrize("kernel", ["blocked", "auto"])
def test_thread_width_matches_serial_under_forced_switching(kernel):
    """Five member threads on fewer cores, switching as often as the
    interpreter allows: a member that read or wrote another's state would
    change its weights."""
    X, y = blobs(n=400, d=24, seed=3)

    def fit(width: int):
        return train_ensemble(
            X,
            y,
            n_features=X.shape[1],
            seeds=[11, 12, 13, 14, 15],
            model_kwargs={"theta": 5.0},
            fit_kwargs={"epochs": 8, "kernel": kernel},
            workers=width,
        )

    serial = fit(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = fit(5)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert a.history == b.history
        np.testing.assert_array_equal(a.model.weights, b.model.weights)


def test_derived_width_is_usable_cpus_capped_at_members(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert derive_workers(None, 5) == 3
    assert derive_workers(None, 2) == 2
    assert derive_workers(None, 0) == 1
    # an explicit width wins over the CPU count, still capped at members
    assert derive_workers(8, 5) == 5
    assert derive_workers(1, 5) == 1
    assert derive_workers(0, 5) == 1


def test_width_defaults():
    """The pipeline derives its width; retrains keep one thread so they do
    not take a live daemon's cores."""
    from repro.serve.retrain import build_parser
    from repro.serve.service import ServeConfig

    assert PipelineConfig().train_workers is None
    assert ServeConfig(artifact_root="unused").retrain_workers == 1
    args = build_parser().parse_args(["--artifact-root", "a", "--base", "b", "--data", "c"])
    assert args.train_workers == 1
