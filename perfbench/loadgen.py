"""Open-loop load generator for the scoring daemon.

Independent callers do not wait for each other, so the generator is open
loop: request ``i`` is due at ``i / rate`` seconds and is written at that
time whether or not earlier requests were answered.  Latency is timed from
when a request was *due*, so a stall also charges the wait it imposes on
the requests behind it, and the generator's own lateness (write time minus
due time) is reported so an overrun generator is never mistaken for a slow
daemon.  Requests are spread round-robin over a fixed number of
connections.

One request in each consecutive block of ``damage_every``, at a position
the seed chooses, is sent damaged by the UTF-8 ``errors="ignore"`` round trip that
damaged the committed real capture, so it is decoded through the salvage
path.  The damaged requests replay the first ``count // damage_every``
traces of the request corpus, each once, in seed order: salvage time varies
fourfold between traces, so drawing them afresh would let the seed, not the
program, set the latency tail.  Every run therefore salvages the same
payloads; the seed decides when they arrive and which clean traces (drawn
from the whole corpus) surround them.  One per block, rather than a free
sample of positions, keeps the seed from also deciding how often two
salvages land back to back and stack their stalls.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Request:
    index: int
    due_s: float
    trace: int
    damaged: bool
    conn: int


def schedule(
    seed: int,
    *,
    rate: float,
    count: int,
    n_traces: int,
    damage_every: int = 50,
    connections: int = 2,
) -> list[Request]:
    """The request schedule: a pure function of its arguments."""
    rng = random.Random(f"perfbench-schedule:{seed}")
    n_damaged = count // damage_every
    if n_damaged > n_traces:
        raise ValueError(f"{n_damaged} damaged requests need as many distinct traces")
    traces = [rng.randrange(n_traces) for _ in range(count)]
    positions = [block * damage_every + rng.randrange(damage_every) for block in range(n_damaged)]
    for position, trace in zip(positions, rng.sample(range(n_damaged), n_damaged)):
        traces[position] = trace
    damaged = set(positions)
    return [
        Request(i, i / rate, traces[i], i in damaged, i % connections) for i in range(count)
    ]


def damage(blob: bytes) -> bytes:
    """The lossy UTF-8 round trip that damaged the committed real capture."""
    return blob.decode("utf-8", errors="ignore").encode("utf-8")


def request_line(req_id: int, payload_b64: str) -> bytes:
    return json.dumps({"id": str(req_id), "payload_b64": payload_b64}).encode() + b"\n"


@dataclass
class Outcome:
    """Per-request results of one drive, indexed like the schedule."""

    latency_ms: list[float | None]
    late_ms: list[float]
    responses: list[dict | None]
    errors: list[str] = field(default_factory=list)


async def drive(
    port: int,
    requests: list[Request],
    line_for,
    *,
    grace_s: float = 10.0,
    connections: int = 2,
) -> Outcome:
    """Send ``requests`` on schedule and collect every answer.

    ``line_for(request)`` returns the NDJSON bytes to send.  A request not
    answered within ``grace_s`` of the last due time stays ``None``.
    """
    loop = asyncio.get_running_loop()
    n = len(requests)
    latency: list[float | None] = [None] * n
    late = [0.0] * n
    responses: list[dict | None] = [None] * n
    errors: list[str] = []
    conns = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 20)
        for _ in range(connections)
    ]
    start = loop.time() + 0.05
    last_due = start + (requests[-1].due_s if requests else 0.0)

    async def sender(writer, mine: list[Request]) -> None:
        for req in mine:
            delay = start + req.due_s - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(line_for(req))
            late[req.index] = (loop.time() - start - req.due_s) * 1e3
        await writer.drain()

    async def receiver(reader, expected: int) -> None:
        for _ in range(expected):
            line = await reader.readline()
            now = loop.time()
            if not line:
                errors.append("connection closed early")
                return
            doc = json.loads(line)
            try:
                index = int(doc.get("id"))
            except (TypeError, ValueError):
                errors.append(f"unmatched response {doc.get('id')!r}")
                continue
            responses[index] = doc
            latency[index] = (now - start - requests[index].due_s) * 1e3

    tasks = []
    for c, (reader, writer) in enumerate(conns):
        mine = [r for r in requests if r.conn == c]
        tasks.append(asyncio.ensure_future(sender(writer, mine)))
        tasks.append(asyncio.ensure_future(receiver(reader, len(mine))))
    try:
        budget = max(0.0, last_due - loop.time()) + grace_s
        done, pending = await asyncio.wait(tasks, timeout=budget)
        for task in pending:
            task.cancel()
            errors.append("drive timed out")
        for task in done:
            if task.exception() is not None:
                errors.append(f"{type(task.exception()).__name__}: {task.exception()}")
        if pending:
            await asyncio.wait(pending)
    finally:
        for _, writer in conns:
            writer.close()
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return Outcome(latency, late, responses, errors)
