"""Thread-parallel ensemble training.

:func:`train_ensemble` fits every hash-seeded ensemble member and returns
them **in seed order**, with per-member training seconds and update
histories.  The width is semantics-free exactly like the ingest pool: each
member's training depends only on its own seed (hash salts, shuffle order,
and weights all derive from it, never from thread identity or shared
state), so any width produces bit-identical models — the train-pool
regression tests pin this.

Members fit on a :class:`~concurrent.futures.ThreadPoolExecutor` inside the
process.  The parent quantizes the feature matrix **once** into the
salt-free uint8 bins matrix and every member reads that one matrix and one
label array; each member owns only its weights and hash indices.  The hot
loops (index hashing and the native epoch kernel) are ``ctypes`` calls,
which release the GIL, so members overlap on separate cores with no
pickling, fork or shared-memory transport.  The numpy kernels hold the GIL
for most of their work and gain little from threads, but stay correct.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..telemetry import get_logger, log_event
from .perceptron import HashedPerceptron, quantize_bins

logger = get_logger("repro.model.train_pool")


@dataclass
class TrainedMember:
    """One fitted ensemble member plus its training record."""

    model: HashedPerceptron
    history: list[int] = field(default_factory=list)
    train_s: float = 0.0


def derive_workers(workers: int | None, members: int) -> int:
    """Threads to fit ``members`` on: ``workers`` when given, else one per
    CPU this process may run on, and never more than there are members."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:  # no affinity API off Linux
            workers = os.cpu_count() or 1
    return max(1, min(workers, members))


def train_ensemble(
    X: np.ndarray,
    y: np.ndarray,
    *,
    n_features: int,
    seeds: list[int],
    model_kwargs: dict | None = None,
    fit_kwargs: dict | None = None,
    workers: int | None = None,
) -> list[TrainedMember]:
    """Fit one member per seed; results are returned in ``seeds`` order.

    ``workers`` is the thread count (``None`` derives it, see
    :func:`derive_workers`); every width is bit-identical.
    ``model_kwargs`` feeds the :class:`HashedPerceptron` constructor (minus
    ``seed``); ``fit_kwargs`` feeds :meth:`HashedPerceptron.fit`.
    """
    model_kwargs = dict(model_kwargs or {})
    fit_kwargs = dict(fit_kwargs or {})
    t_start = time.monotonic()
    n_workers = derive_workers(workers, len(seeds))
    log_event(
        logger,
        "train_pool.start",
        workers=n_workers,
        members=len(seeds),
        mode=fit_kwargs.get("mode", "online"),
    )
    y = np.asarray(y)
    # quantization is salt-free, so one bins matrix serves every member;
    # read-only, so no member thread can change what another one reads
    bins = quantize_bins(X, int(model_kwargs.get("n_bins", 16)))
    bins.setflags(write=False)

    def fit(k: int) -> TrainedMember:
        t0 = time.monotonic()
        model = HashedPerceptron(n_features, seed=seeds[k], **model_kwargs)
        history = model.fit(None, y, bins=bins, **fit_kwargs)
        elapsed = time.monotonic() - t0
        log_event(
            logger,
            "train_pool.member",
            member=k,
            seed=seeds[k],
            epochs=len(history),
            elapsed=f"{elapsed:.3f}",
        )
        return TrainedMember(model=model, history=history, train_s=elapsed)

    if n_workers <= 1:
        members = [fit(k) for k in range(len(seeds))]
    else:
        with ThreadPoolExecutor(max_workers=n_workers, thread_name_prefix="train") as pool:
            members = list(pool.map(fit, range(len(seeds))))
    log_event(
        logger,
        "train_pool.done",
        workers=n_workers,
        members=len(members),
        elapsed=f"{time.monotonic() - t_start:.3f}",
    )
    return members
