"""The four workloads and the load generators that drive them.

Each generator reads ``perf_counter`` itself, as a client would observe the
stream, and returns one :class:`Record` per request attempted.  Nothing in
here interprets the numbers; :mod:`benchmarks.e2e.metrics` does.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Callable

from benchmarks.e2e import inputs
from benchmarks.e2e.stack import TENANT_KEYS, Stack

now = time.perf_counter

#: ``--seconds`` at which the request counts below apply; it scales them
#: linearly.  At this value the open loop's arrivals last exactly that long,
#: and a closed loop's pass takes 16-20 s on the 2-core reference box.
REFERENCE_SECONDS = 24.0
#: Never fewer TTFT samples than this: p90 needs ten samples beyond it.
MIN_REQUESTS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``inproc`` = closed loop on ``submit/step``; ``core`` = open loop on
    #: ``ServerCore.submit``; ``http`` = closed loop of SSE connections.
    loop: str
    clients: int
    max_running: int
    prefix_cache_blocks: int
    base_requests: int
    #: Frozen latency limits, about 2.5x the reference-box p90.
    slo_ttft_ms: float
    slo_gap_ms: float
    make: Callable

    def n_requests(self, seconds: float) -> int:
        scaled = round(self.base_requests * seconds / REFERENCE_SECONDS)
        return max(MIN_REQUESTS, scaled)

    def requests(self, vocab, seed: int, n: int, seconds: float) -> list[inputs.Request]:
        if self.loop == "core":  # the open loop's arrivals last ``seconds``
            return self.make(vocab, seed, n, seconds)
        return self.make(vocab, seed, n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long_cold",
            "distinct long documents on the Cocktail backend: prefill, chunk search, "
            "encode and pack dominate; decode and prefix reads do almost nothing",
            "inproc", 4, 8, 192, 140, 360.0, 130.0, inputs.long_cold,
        ),
        Workload(
            "decode_batch",
            "short contexts, long outputs, four backends in one batch: decode steps "
            "dominate, so a prefill optimisation must predict no change here",
            "inproc", 4, 8, 96, 140, 80.0, 16.0, inputs.decode_batch,
        ),
        Workload(
            "prefix_churn",
            "open-loop Poisson arrivals over Zipf-popular documents with a prefix index "
            "half the working set: match/adopt reads beside insert/evict writes, and queueing",
            "core", 1, 8, 120, 150, 120.0, 30.0, inputs.prefix_churn,
        ),
        Workload(
            "http_stream",
            "tiny requests over two SSE connections and two tenants: front-door cost "
            "(parse, auth, SSE writes, thread hop) is the largest share it will ever be",
            "http", 2, 8, 256, 700, 75.0, 16.0, inputs.http_stream,
        ),
    )
}


class Record:
    """What the client saw of one request."""

    __slots__ = (
        "index", "start", "sent", "free_at", "token_times", "token_ids",
        "done", "error", "engine_total_s", "chunks",
    )

    def __init__(self, index: int):
        self.index = index
        #: Latency origin: ``submit()``/request write, or the due time (open loop).
        self.start = 0.0
        self.sent = 0.0
        #: When the generator could first have sent it (slot free, or due).
        self.free_at = 0.0
        self.token_times: list[float] = []
        self.token_ids: list[int] = []
        self.done: float | None = None
        self.error: str | None = None
        #: Engine-side submit-to-finish seconds carried by the final SSE chunk.
        self.engine_total_s: float | None = None
        self.chunks = 0


def run_inproc(stack: Stack, requests: list[inputs.Request], clients: int, budget_s: float):
    """Closed loop of ``clients`` virtual clients on ``submit``/``step``.

    One thread: a client whose request finished submits its next one before
    the following step, so the engine always has ``clients`` in flight.
    Clients join one per step at the start; all arriving in the same step
    would put ``clients`` prefills in front of every first token, and those
    few samples would then be most of what lies beyond the p90.
    Tokens are stamped when ``step`` returns, which is when a caller sees them.
    After ``budget_s`` seconds no further request is sent.
    """
    engine = stack.engine
    queue = iter(requests)
    live: dict[str, Record] = {}
    records: list[Record] = []
    t0 = freed = now()
    joined = 1

    def refill() -> None:
        while len(live) < min(joined, clients) and now() - t0 < budget_s:
            request = next(queue, None)
            if request is None:
                return
            record = Record(request.index)
            record.free_at = freed
            record.start = record.sent = now()
            rid = engine.submit(stack.engine_request(request))
            live[rid] = record
            records.append(record)

    refill()
    while live:
        events = engine.step()
        t = freed = now()
        for event in events:
            record = live[event.request_id]
            if event.token_id is not None:
                record.token_times.append(t)
                record.token_ids.append(event.token_id)
            if event.is_last:
                record.done = t
                engine.result(event.request_id, pop=True)
                del live[event.request_id]
        joined += 1
        refill()
    return records, now() - t0


def run_core(stack: Stack, requests: list[inputs.Request], budget_s: float):
    """Open loop: this thread submits each request at its due time.

    Latency runs from the due time, so a stall is charged to every request
    it delays.  Tokens are stamped in the stream's notify callback, the
    first point outside the engine at which they exist.  A request not
    finished ``budget_s`` seconds after the start has failed.
    """
    core = stack.server_core()
    tenants = list(TENANT_KEYS)
    records: list[Record] = []
    handles = []

    def on_events(handle, record: Record) -> None:
        t = now()
        for event in handle.pop_events():
            if event.token_id is not None:
                record.token_times.append(t)
                record.token_ids.append(event.token_id)
            if event.is_last:
                record.done = t
        if handle.error is not None:
            record.error = str(handle.error)

    try:
        t0 = now()
        for request in requests:
            record = Record(request.index)
            record.start = record.free_at = t0 + request.due_s
            delay = record.start - now()
            if delay > 0:
                time.sleep(delay)
            record.sent = now()
            records.append(record)
            try:
                handle = core.submit(
                    stack.engine_request(request),
                    tenant=tenants[request.index % len(tenants)],
                )
            except Exception as exc:  # noqa: BLE001 - a refusal is a counted failure
                record.error = f"rejected: {exc}"
                continue
            handle.set_notify(lambda h=handle, r=record: on_events(h, r))
            handles.append((handle, record))
        for handle, record in handles:
            if not handle.wait(timeout=max(t0 + budget_s - now(), 0.0)):
                record.error = "timeout"
        wall = now() - t0
    finally:
        core.close()
    return records, wall


async def _sse_request(host: str, port: int, key: str, request: inputs.Request, record: Record):
    """One streaming completion over a fresh connection (the server closes each)."""
    body = json.dumps(request.payload()).encode()
    head = (
        "POST /v1/completions HTTP/1.1\r\nHost: bench\r\n"
        f"Authorization: Bearer {key}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("latin-1")
    record.start = record.sent = now()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(head + body)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        if status != 200:
            record.error = f"http {status}"
            return
        while True:
            line = await reader.readline()
            if not line:
                record.error = record.error or "stream closed before [DONE]"
                return
            if not line.startswith(b"data: "):
                continue
            t = now()
            data = line[6:].strip()
            if data == b"[DONE]":
                record.done = t
                return
            record.chunks += 1
            chunk = json.loads(data)
            if "error" in chunk:
                record.error = str(chunk["error"])
            elif chunk["choices"][0]["finish_reason"] is None:
                record.token_times.append(t)
                record.token_ids.append(chunk["choices"][0]["token_id"])
            else:
                record.engine_total_s = chunk["stats"]["total_seconds"]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def run_http(stack: Stack, requests: list[inputs.Request], clients: int, budget_s: float):
    """Closed loop of ``clients`` SSE connections, one tenant key each.

    After ``budget_s`` seconds no further request is sent.
    """
    core = stack.server_core()
    keys = list(TENANT_KEYS.values())
    queue = iter(requests)
    records: list[Record] = []

    async def client(server, key: str, t0: float) -> None:
        freed = now()
        while freed - t0 < budget_s and (request := next(queue, None)) is not None:
            record = Record(request.index)
            record.free_at = freed
            records.append(record)
            try:
                await _sse_request(server.host, server.port, key, request, record)
            except (ConnectionError, OSError, ValueError) as exc:
                record.error = f"{type(exc).__name__}: {exc}"
            freed = now()

    async def scenario() -> float:
        async with stack.http_server(core) as server:
            t0 = now()
            await asyncio.gather(
                *(client(server, keys[c % len(keys)], t0) for c in range(clients))
            )
            return now() - t0

    try:
        wall = asyncio.run(scenario())
    finally:
        core.close()
    return records, wall


def drive(workload: Workload, stack: Stack, requests: list[inputs.Request], budget_s: float):
    """Send ``requests`` through ``stack`` the way ``workload`` prescribes.

    ``budget_s`` keeps a run inside the driver's time limit when the box
    stalls (one pass in fifty ran seven times slower than the rest): a
    closed loop stops sending, the open loop stops waiting.
    """
    if workload.loop == "inproc":
        return run_inproc(stack, requests, workload.clients, budget_s)
    if workload.loop == "core":
        return run_core(stack, requests, budget_s)
    return run_http(stack, requests, workload.clients, budget_s)
