"""Training-kernel equivalence: the optimized blocked kernel must be
bit-identical to the kept-as-reference naive ``fit_epoch`` across seeds,
shuffles, and fault-injected corpora; the minibatch mode must obey the
clamp and update-count contracts even though its training order differs."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.errors import ModelError
from repro.faults import FaultPlan
from repro.features import Normalizer, build_dataset
from repro.ingest import load_corpus_pooled
from repro.model import HashedPerceptron
from repro.model.kernels import TrainPlan

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"


def blobs(n=120, d=24, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal(-gap / 2, 1.0, size=(n // 2, d)),
            rng.normal(+gap / 2, 1.0, size=(n // 2, d)),
        ]
    )
    y = np.array([-1] * (n // 2) + [1] * (n // 2), dtype=np.int64)
    order = rng.permutation(n)
    return X[order], y[order]


def fit_pair(X, y, *, seed, epochs=12, theta=5.0, **kw):
    """Train one model per kernel from identical initial state."""
    out = {}
    for kernel in ("reference", "blocked"):
        model = HashedPerceptron(X.shape[1], theta=theta, seed=seed, **kw)
        history = model.fit(X, y, epochs=epochs, kernel=kernel)
        out[kernel] = (model.weights.copy(), history)
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 1234])
def test_blocked_matches_reference_bitwise(seed):
    X, y = blobs(seed=seed)
    pair = fit_pair(X, y, seed=seed)
    ref_w, ref_h = pair["reference"]
    blk_w, blk_h = pair["blocked"]
    assert ref_h == blk_h, "update histories diverged"
    np.testing.assert_array_equal(ref_w, blk_w)


def test_blocked_matches_reference_under_shuffle_streams():
    """Different fit seeds draw different shuffle orders; every one of them
    must agree bit-for-bit between kernels."""
    X, y = blobs(seed=3)
    for fit_seed in (0, 5, 99):
        ref = HashedPerceptron(X.shape[1], theta=5.0, seed=11)
        blk = HashedPerceptron(X.shape[1], theta=5.0, seed=11)
        ref_h = ref.fit(X, y, epochs=8, seed=fit_seed, kernel="reference")
        blk_h = blk.fit(X, y, epochs=8, seed=fit_seed, kernel="blocked")
        assert ref_h == blk_h
        np.testing.assert_array_equal(ref.weights, blk.weights)


def test_fit_epoch_kernels_agree_without_shuffle():
    X, y = blobs(seed=2)
    ref = HashedPerceptron(X.shape[1], theta=5.0, seed=4)
    blk = HashedPerceptron(X.shape[1], theta=5.0, seed=4)
    assert ref.fit_epoch(X, y, kernel="reference") == blk.fit_epoch(X, y, kernel="blocked")
    np.testing.assert_array_equal(ref.weights, blk.weights)


@pytest.mark.parametrize(
    "faults",
    [
        pytest.param(None, id="clean"),
        pytest.param(FaultPlan(corrupt_rate=0.25, seed=11), id="corrupt-25"),
        pytest.param(FaultPlan(corrupt_rate=0.50, seed=11), id="corrupt-50"),
    ],
)
def test_kernels_agree_on_fault_injected_corpus(faults):
    """The real (possibly salvage-degraded) feature matrices must train
    identically under both kernels, whatever the fault rate did to them."""
    results, _ = load_corpus_pooled(GOLDEN, workers=1, faults=faults)
    assert results, "golden corpus must yield at least one decodable trace"
    dataset = build_dataset([r.trace for r in results])
    X = Normalizer().fit(dataset.X).transform(dataset.X)
    pair = fit_pair(X, dataset.y, seed=7, epochs=6)
    ref_w, ref_h = pair["reference"]
    blk_w, blk_h = pair["blocked"]
    assert ref_h == blk_h
    np.testing.assert_array_equal(ref_w, blk_w)


def test_train_plan_preserves_index_multiset():
    """CSR dedup must reproduce exactly the flat index multiset per sample —
    that is what makes the fast update bit-identical to ``np.add.at``."""
    X, _ = blobs(n=30, seed=9)
    model = HashedPerceptron(X.shape[1], seed=9)
    flat = model._flat_indices(X)
    plan = TrainPlan.from_flat(flat)
    for i in range(flat.shape[0]):
        ui, cnt = plan.sample(i)
        assert len(ui) == len(np.unique(flat[i]))
        rebuilt = np.sort(np.repeat(ui, cnt))
        np.testing.assert_array_equal(rebuilt, np.sort(flat[i]))
        assert cnt.sum() == flat.shape[1]


def test_plan_indices_computed_once_per_fit_are_reused():
    """The permuted-row scratch is allocated once and reused across epochs."""
    X, y = blobs(n=40, seed=1)
    model = HashedPerceptron(X.shape[1], theta=5.0, seed=1)
    flat = model._flat_indices(X)
    plan = TrainPlan.from_flat(flat)
    order = np.arange(len(y))
    first = plan.permuted_rows(order)
    second = plan.permuted_rows(order[::-1].copy())
    assert first is second  # same buffer, rewritten in place
    np.testing.assert_array_equal(second, flat[order[::-1]])


def test_minibatch_respects_clamp_and_counts_updates():
    X, y = blobs(seed=5)
    model = HashedPerceptron(X.shape[1], theta=1000.0, weight_clamp=7, seed=5)
    history = model.fit(X, y, epochs=5, mode="minibatch")
    assert sum(history) > 0
    assert model.weights.max() <= 7
    assert model.weights.min() >= -7


def test_minibatch_learns_separable_data():
    X, y = blobs(gap=4.0, seed=6)
    model = HashedPerceptron(X.shape[1], theta=5.0, seed=6)
    model.fit(X, y, epochs=20, mode="minibatch")
    assert (model.predict(X) == y).mean() >= 0.95


def test_minibatch_size_one_equals_online():
    """A one-sample batch sees no stale decisions, so the minibatch rule
    degenerates to the online rule exactly."""
    X, y = blobs(n=60, seed=8)
    online = HashedPerceptron(X.shape[1], theta=5.0, seed=8)
    mb = HashedPerceptron(X.shape[1], theta=5.0, seed=8)
    h_online = online.fit(X, y, epochs=6)
    h_mb = mb.fit(X, y, epochs=6, mode="minibatch", minibatch_size=1)
    assert h_online == h_mb
    np.testing.assert_array_equal(online.weights, mb.weights)


def test_unknown_mode_and_kernel_are_typed_errors():
    X, y = blobs(n=20, seed=0)
    model = HashedPerceptron(X.shape[1], seed=0)
    with pytest.raises(ModelError):
        model.fit(X, y, mode="sgd")
    with pytest.raises(ModelError):
        model.fit(X, y, kernel="warp")
    with pytest.raises(ModelError):
        model.fit_epoch(X, y, kernel="warp")


# -- native C kernel: same bits as the spec, or a typed refusal -------------


def _native_available() -> bool:
    from repro.model import _native

    return _native.available()


@pytest.mark.skipif(not _native_available(), reason="no C compiler available")
@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_native_kernel_matches_reference_bitwise(seed):
    X, y = blobs(seed=seed)
    ref = HashedPerceptron(X.shape[1], theta=5.0, seed=seed)
    nat = HashedPerceptron(X.shape[1], theta=5.0, seed=seed)
    ref_h = ref.fit(X, y, epochs=12, kernel="reference")
    nat_h = nat.fit(X, y, epochs=12, kernel="native")
    assert ref_h == nat_h, "update histories diverged"
    np.testing.assert_array_equal(ref.weights, nat.weights)
    np.testing.assert_array_equal(ref.decision(X), nat.decision(X))


@pytest.mark.skipif(not _native_available(), reason="no C compiler available")
def test_native_hash_and_margins_match_numpy_paths(monkeypatch):
    """The fused native hash/scoring routines must agree with the pure-numpy
    implementations bit-for-bit on the same trained weights."""
    from repro.model import _native

    X, y = blobs(seed=5)
    model = HashedPerceptron(X.shape[1], theta=5.0, seed=9)
    model.fit(X, y, epochs=6)
    native_flat = model._flat_indices(X)
    native_margins = model.decision(X)
    # force the numpy fallback for the same model and inputs
    monkeypatch.setattr(_native, "available", lambda: False)
    np.testing.assert_array_equal(model._flat_indices(X), native_flat)
    np.testing.assert_array_equal(model.decision(X), native_margins)


def test_auto_kernel_resolves_to_a_real_kernel():
    from repro.model.kernels import KERNEL_CHOICES, ONLINE_KERNELS, resolve_kernel

    resolved = resolve_kernel("auto")
    assert resolved in ONLINE_KERNELS
    assert "auto" in KERNEL_CHOICES
    with pytest.raises(ModelError):
        resolve_kernel("warp")


@pytest.mark.skipif(not _native_available(), reason="no C compiler available")
@pytest.mark.parametrize("n", [1, 8, 9])
def test_native_kernel_matches_reference_near_prefetch_distance(n):
    """Epochs shorter than, equal to, and just past the prefetch distance."""
    X, y = blobs(n=20, seed=n)
    X, y = X[:n], y[:n]
    ref = HashedPerceptron(X.shape[1], theta=5.0, seed=n)
    nat = HashedPerceptron(X.shape[1], theta=5.0, seed=n)
    assert ref.fit(X, y, epochs=4, kernel="reference") == nat.fit(
        X, y, epochs=4, kernel="native"
    )
    np.testing.assert_array_equal(ref.weights, nat.weights)


def _reset_native(monkeypatch, tmp_path):
    """Forget any loaded library and point the build cache at an empty
    directory, so the next call makes a real first load attempt."""
    from repro.model import _native

    monkeypatch.setattr(_native, "_lib", None)
    monkeypatch.setattr(_native, "_load_attempted", False)
    monkeypatch.setattr(_native, "_unavailable_reason", None)
    monkeypatch.setattr(_native, "_warned", False)
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "native_build"))
    return _native


@pytest.mark.skipif(not _native_available(), reason="no C compiler available")
def test_concurrent_first_load_is_available_on_every_thread(monkeypatch, tmp_path):
    """Threads racing the first load must all wait for the one attempt, not
    see it in progress as a failure and fall back to the numpy kernel."""
    import threading

    _native = _reset_native(monkeypatch, tmp_path)
    barrier = threading.Barrier(8)
    results: list[bool] = []

    def first_call() -> None:
        barrier.wait(timeout=60)
        results.append(_native.available())

    threads = [threading.Thread(target=first_call) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert results == [True] * 8


def test_auto_fallback_warns_once_with_reason(monkeypatch, tmp_path, caplog):
    import logging

    from repro.model.kernels import resolve_kernel

    _reset_native(monkeypatch, tmp_path)
    monkeypatch.setenv("REPRO_NATIVE", "off")
    # the repro telemetry root does not propagate (it owns its own stderr
    # handler); re-enable propagation so caplog can observe the event
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    with caplog.at_level(logging.WARNING, logger="repro.model.native"):
        assert resolve_kernel("auto") == "blocked"
        assert resolve_kernel("auto") == "blocked"
    events = [r for r in caplog.records if "event=native.unavailable" in r.getMessage()]
    assert len(events) == 1
    assert events[0].levelno == logging.WARNING
    assert "REPRO_NATIVE" in events[0].getMessage()
