"""Memory the member threads share: one read-only bins matrix, no segments.

The train pool fits members on threads inside the process, so every member
reads the same quantized bins matrix and label array.  These tests pin that
the shared matrix is one object no member can write, that no fit creates
``/dev/shm`` segments (the shared-memory process pool this replaced named
them ``repro-train-*``), that a failing member surfaces its exception with
every pool thread joined, and that a pooled fit runs clean under
``-W error``.
"""

from __future__ import annotations

import glob
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.model import HashedPerceptron, train_ensemble

SRC = Path(__file__).resolve().parent.parent / "src"


def residue() -> list[str]:
    """Repro shared-memory segments currently visible in /dev/shm."""
    return sorted(glob.glob("/dev/shm/repro-*"))


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


def _spy_fit(monkeypatch, before=None):
    """Wrap :meth:`HashedPerceptron.fit`, recording each member's ``bins``
    and the segment residue while it runs; ``before(model)`` runs first."""
    seen: list[tuple[np.ndarray, list[str]]] = []
    fit = HashedPerceptron.fit

    def spy(self, X, y, **kwargs):
        if before is not None:
            before(self)
        seen.append((kwargs.get("bins"), residue()))
        return fit(self, X, y, **kwargs)

    monkeypatch.setattr(HashedPerceptron, "fit", spy)
    return seen


def test_attached_views_are_read_only(monkeypatch):
    seen = _spy_fit(monkeypatch)
    _ensemble(workers=2)
    assert len(seen) == 3
    bins = seen[0][0]
    assert all(b is bins for b, _ in seen), "members must share one bins matrix"
    assert bins.dtype == np.uint8 and not bins.flags.writeable
    with pytest.raises(ValueError):
        bins[0, 0] = 1


def test_no_residue_after_clean_pooled_fit(monkeypatch):
    seen = _spy_fit(monkeypatch)
    _ensemble(workers=2)
    assert [during for _, during in seen] == [[]] * 3
    assert not residue()


def test_segments_unlinked_when_block_raises(monkeypatch):
    """A member that raises fails the whole fit with its own exception, and
    no pool thread outlives the call."""

    def boom(model):
        if model.seed == 7001:
            raise RuntimeError("boom")

    _spy_fit(monkeypatch, before=boom)
    with pytest.raises(RuntimeError, match="boom"):
        _ensemble(workers=2)
    assert not [t for t in threading.enumerate() if t.name.startswith("train")]
    assert not residue()


# -- warnings-as-errors: threads, ctypes and the native build stay silent ---

_W_ERROR_SCRIPT = """
import numpy as np
from repro.model import train_ensemble

rng = np.random.default_rng(0)
X = rng.normal(size=(120, 12))
y = np.where(rng.random(120) > 0.5, 1, -1).astype(np.int64)
members = train_ensemble(
    X, y, n_features=12, seeds=[1, 2, 3],
    fit_kwargs={"epochs": 4}, workers=2,
)
assert len(members) == 3
print("POOL_OK")
"""


def test_pooled_shm_fit_is_warning_free_under_W_error():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _W_ERROR_SCRIPT],
        capture_output=True,
        text=True,
        timeout=180,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "POOL_OK" in proc.stdout
    assert "Warning" not in proc.stderr
    assert not residue()
