"""The workload harness itself: determinism, oracles, drivers, SLO math.

The scenario *matrix* (every shape × seed with full invariant checks)
lives in ``tests/test_serving_stress.py``; this file tests the harness's
own contracts — that a seed pins a trace byte-for-byte, that oracles are
stamped and honoured, that both drivers agree with the sequential replay,
that tenant accounting reconciles across an HTTP run, and that the
``/v1/stats`` payload keeps its golden shape under a generated workload.

No assertion in this file compares absolute wall-clock time: engine-side
latencies are measured in deterministic virtual-step units, and the HTTP
tests only check ratios, counters and bit-exact payloads.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.config import CocktailConfig
from repro.kvpool.rows import CONTEXT_ROW_BYTES
from repro.serving.engine import InferenceEngine
from repro.serving.server import ServerCore, ServingServer, TenantRegistry, TenantSpec
from repro.workloads import (
    CANCELLED,
    COMPLETED,
    REJECTED,
    SCENARIOS,
    EngineDriver,
    HttpDriver,
    RequestOutcome,
    SloSpec,
    TraceRun,
    VirtualClock,
    WorkloadGenerator,
    WorkloadRequest,
    WorkloadTrace,
    assign_tenants,
    attach_oracles,
    build_report,
    burst_arrival_times,
    check_oracles,
    percentile,
    poisson_arrival_times,
    stamp_hit_floors,
    summarize,
)

BS = 16


@pytest.fixture()
def generator(tiny_samples) -> WorkloadGenerator:
    return WorkloadGenerator(tiny_samples, block_size=BS)


def make_engine(retrieval_model, tokenizer, vocab, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        retrieval_model,
        tokenizer,
        CocktailConfig(chunk_size=16),
        lexicon=vocab.lexicon,
        **kwargs,
    )


class TestStats:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 1.0) == 40.0
        assert percentile(values, 0.5) == 30.0  # round(0.5 * 3) = 2
        # Order independence: the sample is sorted internally.
        assert percentile([40.0, 10.0, 30.0, 20.0], 1.0) == 40.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            percentile([1.0], 95)

    def test_summarize_empty_is_explicit_none(self):
        assert summarize([]) == {"mean": None, "p50": None, "p95": None, "max": None}
        full = summarize([1.0, 2.0, 3.0])
        assert full["mean"] == pytest.approx(2.0)
        assert full["max"] == 3.0

    def test_poisson_arrivals_deterministic_and_ordered(self):
        a = poisson_arrival_times(np.random.default_rng(3), 2.0, 50)
        b = poisson_arrival_times(np.random.default_rng(3), 2.0, 50)
        assert a == b
        assert a == sorted(a)
        assert len(a) == 50
        # Mean gap tracks 1/rate within a generous statistical bound.
        gaps = np.diff([0.0] + a)
        assert 0.2 < float(np.mean(gaps)) < 1.2

    def test_burst_arrivals_cluster_inside_volleys(self):
        times = burst_arrival_times(
            np.random.default_rng(0), 3, 4, 10.0, jitter=0.5
        )
        assert len(times) == 12
        assert times == sorted(times)
        for burst in range(3):
            volley = times[burst * 4 : (burst + 1) * 4]
            assert all(burst * 10.0 <= t <= burst * 10.0 + 0.5 for t in volley)

    def test_arrival_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrival_times(rng, 0.0, 3)
        with pytest.raises(ValueError):
            burst_arrival_times(rng, 0, 4, 1.0)


class TestTraceGeneration:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_same_seed_same_trace(self, generator, scenario):
        a = generator.generate(scenario, 5)
        b = generator.generate(scenario, 5)
        assert a.to_payload() == b.to_payload()

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_different_seeds_differ(self, generator, scenario):
        a = generator.generate(scenario, 0)
        b = generator.generate(scenario, 1)
        assert a.to_payload() != b.to_payload()

    def test_unknown_scenario_is_a_clear_error(self, generator):
        with pytest.raises(ValueError, match="unknown scenario"):
            generator.generate("tsunami", 0)

    def test_overrides_shrink_scenarios(self, generator):
        trace = generator.generate("poisson", 0, n_requests=3, rate=0.5)
        assert len(trace) == 3
        assert trace.metadata["rate"] == 0.5

    def test_trace_rejects_forward_dependencies(self):
        with pytest.raises(ValueError, match="depends on"):
            WorkloadTrace(
                scenario="x",
                seed=0,
                requests=[
                    WorkloadRequest(
                        key="a", arrival=0.0, context_words=("w",) * 4,
                        query_words=("q",), depends_on="b",
                    ),
                    WorkloadRequest(
                        key="b", arrival=1.0, context_words=("w",) * 4,
                        query_words=("q",),
                    ),
                ],
            )

    def test_shared_prefix_floors_cover_the_document(self, generator):
        trace = generator.generate("shared_prefix", 2, context_len=64)
        floors = stamp_hit_floors(trace, block_size=BS)
        assert floors["fleet-leader"] == 0
        followers = [k for k in floors if k.startswith("fleet-")
                     and k != "fleet-leader"]
        assert followers
        assert all(floors[k] == 64 // BS for k in followers)

    def test_multi_turn_floors_grow_with_the_conversation(self, generator):
        trace = generator.generate("multi_turn", 0, n_conversations=1, n_turns=3)
        floors = stamp_hit_floors(trace, block_size=BS)
        turn_floors = [floors[f"conv0-turn{t}"] for t in range(3)]
        assert turn_floors[0] == 0
        # Each turn re-submits the grown prefix: floors are non-decreasing
        # and a later turn must adopt at least the earlier turn's pages.
        assert turn_floors[1] >= len(trace.by_key("conv0-turn0").context_words) // BS
        assert turn_floors[2] >= turn_floors[1]

    def test_query_dependent_backends_get_no_cross_query_floor(self):
        # dense quantization plans depend on the query, so two different
        # queries over one document guarantee nothing — only an identical
        # resubmission does.
        ctx = tuple(f"w{i}" for i in range(32))
        trace = WorkloadTrace(
            scenario="x", seed=0,
            requests=[
                WorkloadRequest(key="a", arrival=0.0, context_words=ctx,
                                query_words=("q1",), backend="dense"),
                WorkloadRequest(key="b", arrival=1.0, context_words=ctx,
                                query_words=("q2",), backend="dense",
                                depends_on="a"),
                WorkloadRequest(key="c", arrival=2.0, context_words=ctx,
                                query_words=("q1",), backend="dense",
                                depends_on="b"),
            ],
        )
        floors = stamp_hit_floors(trace, block_size=BS)
        assert floors["b"] == 0          # different query, plan may differ
        assert floors["c"] == len(ctx) // BS  # exact resubmission of "a"

    def test_floors_only_count_dependency_ancestors(self):
        # Without a depends_on edge there is no finish-before guarantee,
        # so even an identical fp16 resubmission gets no structural floor.
        ctx = tuple(f"w{i}" for i in range(32))
        trace = WorkloadTrace(
            scenario="x", seed=0,
            requests=[
                WorkloadRequest(key="a", arrival=0.0, context_words=ctx,
                                query_words=("q",), backend="fp16"),
                WorkloadRequest(key="b", arrival=5.0, context_words=ctx,
                                query_words=("q",), backend="fp16"),
            ],
        )
        assert stamp_hit_floors(trace, block_size=BS) == {"a": 0, "b": 0}


class TestOracles:
    def test_attach_oracles_stamps_every_request(
        self, generator, vocab, tokenizer, retrieval_model
    ):
        trace = generator.generate("poisson", 3, n_requests=4)
        assert not trace.has_oracles
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))
        assert trace.has_oracles
        for request in trace:
            from repro.model import STOP_REASONS

            assert request.oracle.token_ids
            assert request.oracle.stopped_by in STOP_REASONS
            assert request.oracle.replay_hit_blocks >= request.oracle.min_hit_blocks

    def test_oracle_replay_is_deterministic(
        self, generator, vocab, tokenizer, retrieval_model
    ):
        runs = []
        for _ in range(2):
            trace = generator.generate("mixed", 1, n_short=4, n_long=1)
            attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))
            runs.append(trace.to_payload())
        assert runs[0] == runs[1]


class TestEngineDriver:
    def test_virtual_clock_latencies_are_deterministic(
        self, generator, vocab, tokenizer, retrieval_model
    ):
        """Two fresh replays of one trace agree on every virtual latency."""
        payloads = []
        for _ in range(2):
            trace = generator.generate("bursty", 2, n_bursts=2, burst_size=3)
            attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))
            clock = VirtualClock()
            engine = make_engine(retrieval_model, tokenizer, vocab, clock=clock)
            run = EngineDriver(engine, clock=clock).run(trace)
            check_oracles(run)
            payloads.append(build_report(run).to_payload())
        assert payloads[0] == payloads[1]
        assert payloads[0]["goodput"] > 0

    def test_cancel_after_tokens_streams_an_oracle_prefix(
        self, generator, vocab, tokenizer, retrieval_model
    ):
        trace = generator.generate("cancel_storm", 0)
        assert trace.metadata["n_cancelled"] > 0
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))
        clock = VirtualClock()
        engine = make_engine(retrieval_model, tokenizer, vocab, clock=clock)
        run = EngineDriver(engine, clock=clock).run(trace)
        check_oracles(run)
        assert run.n_cancelled > 0
        for request in trace:
            if request.cancel_after_tokens is None:
                continue
            outcome = run.outcome(request.key)
            if outcome.status == CANCELLED:
                assert outcome.stopped_by == "cancelled"
                assert 0 < len(outcome.token_ids) <= len(request.oracle.token_ids)

    def test_reconnects_hit_the_pages_their_first_attempt_left(
        self, generator, vocab, tokenizer, retrieval_model
    ):
        trace = generator.generate("cancel_storm", 0)
        reconnects = [r for r in trace if r.reconnect_of is not None]
        assert reconnects, "seed 0 must produce reconnect traffic"
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))
        assert any(r.oracle.min_hit_blocks > 0 for r in reconnects)
        clock = VirtualClock()
        engine = make_engine(retrieval_model, tokenizer, vocab, clock=clock)
        run = EngineDriver(engine, clock=clock).run(trace)
        check_oracles(run)  # includes the reconnect hit floors

    def test_driver_detects_divergence(self, generator):
        """A corrupted outcome must fail the oracle check, not pass quietly."""
        trace = generator.generate("poisson", 0, n_requests=1)
        request = trace.requests[0]
        from repro.workloads import Oracle

        request.oracle = Oracle(token_ids=[1, 2, 3], stopped_by="length", text="x")
        run = TraceRun(
            trace=trace,
            driver="engine",
            outcomes={
                request.key: RequestOutcome(
                    key=request.key, status=COMPLETED,
                    token_ids=[1, 2, 99], stopped_by="length",
                )
            },
        )
        with pytest.raises(AssertionError, match="diverged"):
            check_oracles(run)


class TestSloReport:
    def _run_with(self, trace, ttft, tpot):
        outcomes = {
            r.key: RequestOutcome(
                key=r.key, status=COMPLETED, token_ids=[1],
                stopped_by="length", ttft=ttft, tpot=tpot, total=ttft + tpot,
            )
            for r in trace.requests
        }
        return TraceRun(trace=trace, driver="engine", outcomes=outcomes,
                        makespan=10.0)

    def test_goodput_counts_deadline_met_over_offered(self, generator):
        trace = generator.generate("poisson", 0, n_requests=4)
        fast = build_report(self._run_with(trace, ttft=1.0, tpot=1.0))
        assert fast.goodput == 1.0
        slow = build_report(self._run_with(trace, ttft=1e6, tpot=1.0))
        assert slow.goodput == 0.0
        assert slow.n_completed == 4  # completed, just late

    def test_rejections_count_against_goodput_and_acceptance(self, generator):
        trace = generator.generate("poisson", 0, n_requests=4)
        run = self._run_with(trace, ttft=1.0, tpot=1.0)
        victim = trace.requests[0].key
        run.outcomes[victim] = RequestOutcome(
            key=victim, status=REJECTED, error="quota"
        )
        report = build_report(run)
        assert report.n_rejected == 1
        assert report.acceptance_rate == pytest.approx(0.75)
        assert report.goodput == pytest.approx(0.75)

    def test_scaled_spec_multiplies_deadlines(self):
        spec = SloSpec().scaled(2.0)
        assert spec.deadline("interactive").ttft_deadline == 50.0
        with pytest.raises(ValueError, match="no SLO class"):
            spec.deadline("platinum")

    def test_report_payload_round_trips_to_json(self, generator, vocab,
                                                tokenizer, retrieval_model):
        import json

        trace = generator.generate("poisson", 0, n_requests=3)
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))
        clock = VirtualClock()
        engine = make_engine(retrieval_model, tokenizer, vocab, clock=clock)
        run = EngineDriver(engine, clock=clock).run(trace)
        payload = build_report(run).to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert set(payload["classes"]) == {"interactive"}


class TestHttpScenarios:
    def test_http_run_matches_oracles_and_reconciles_tenants(
        self, generator, vocab, tokenizer, retrieval_model
    ):
        trace = generator.generate("poisson", 4, n_requests=6)
        assign_tenants(trace, ["acme", "globex"])
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))

        tenants = TenantRegistry([
            TenantSpec("acme", api_key="key-acme"),
            TenantSpec("globex", api_key="key-globex"),
        ])
        core = ServerCore(
            make_engine(retrieval_model, tokenizer, vocab), tenants=tenants
        )

        async def scenario():
            async with ServingServer(core) as server:
                driver = HttpDriver(
                    server.host, server.port, time_scale=0.005,
                    api_keys={"acme": "key-acme", "globex": "key-globex"},
                )
                return await driver.run(trace)

        run = asyncio.run(scenario())
        check_oracles(run)
        assert run.n_completed == len(trace)

        # Tenant accounting reconciles to zero drift: nothing reserved,
        # nothing active, token counters equal the streamed totals.
        for name in ("acme", "globex"):
            usage = tenants.usage(name)
            mine = [r for r in trace if r.tenant == name]
            assert usage.n_submitted == len(mine)
            assert usage.n_completed == len(mine)
            assert usage.n_active == 0
            assert usage.reserved_tokens == 0
            assert usage.completion_tokens == sum(
                len(run.outcome(r.key).token_ids) for r in mine
            )
            assert usage.prompt_tokens == sum(r.n_prompt_tokens for r in mine)

    def test_quota_exhaustion_surfaces_as_rejected_outcomes(
        self, generator, vocab, tokenizer, retrieval_model
    ):
        trace = generator.generate("poisson", 0, n_requests=5)
        assign_tenants(trace, ["scrooge"])
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))
        # A budget that fits roughly one request: the rest must 429.
        first = trace.requests[0]
        budget = first.n_prompt_tokens + first.max_new_tokens
        tenants = TenantRegistry([
            TenantSpec("scrooge", api_key="key-s", token_budget=budget)
        ])
        core = ServerCore(
            make_engine(retrieval_model, tokenizer, vocab), tenants=tenants
        )

        async def scenario():
            async with ServingServer(core) as server:
                driver = HttpDriver(
                    server.host, server.port, time_scale=0.005,
                    api_keys={"scrooge": "key-s"},
                )
                return await driver.run(trace)

        run = asyncio.run(scenario())
        assert run.n_rejected >= 1
        assert run.n_completed >= 1
        report = build_report(run, SloSpec().scaled(1000.0))
        assert report.acceptance_rate < 1.0
        # Oracles still hold for whatever was admitted.
        check_oracles(run)
        usage = tenants.usage("scrooge")
        assert usage.n_rejected == run.n_rejected
        assert usage.reserved_tokens == 0


class TestStatsGoldenShape:
    """The ``/v1/stats`` contract dashboards and benches rely on."""

    SERVER_KEYS = {
        "n_submitted", "n_finished", "n_cancelled", "n_active",
        "n_backpressure_pauses", "n_dropped_events", "n_step_errors",
        "slow_reader_policy", "max_stream_backlog",
    }
    ENGINE_KEYS = {
        "n_steps", "n_forward_calls", "n_fused_calls", "n_decode_tokens",
        "n_prefill_chunks", "n_drafted_tokens", "n_accepted_tokens",
        "acceptance_rate", "forwards_per_token", "mean_batch_occupancy",
        "n_running", "n_waiting", "n_prefilling",
    }
    POOL_KEYS = {
        "n_allocated", "allocated_bytes", "peak_allocated_blocks",
        "peak_bytes", "capacity_blocks", "block_size",
    }
    PREFIX_KEYS = {"n_blocks", "n_hit_blocks", "hit_rate", "saved_bytes"}
    CONTEXT_ROWS_KEYS = {
        "hit_blocks", "miss_blocks", "admitted_blocks", "evicted_blocks",
        "resident_bytes", "capacity_bytes",
    }
    HTTP_KEYS = {"n_connections", "n_client_errors", "n_disconnect_cancels"}
    KV_MEMORY_KEYS = {"accounted_bytes", "physical_pool_bytes", "working_set_bytes"}
    MONOTONIC = [
        ("server", "n_submitted"),
        ("server", "n_finished"),
        ("server", "n_cancelled"),
        ("engine", "n_steps"),
        ("engine", "n_decode_tokens"),
        ("http", "n_connections"),
        ("prefix_cache", "n_hit_blocks"),
        ("context_rows", "hit_blocks"),
        ("context_rows", "miss_blocks"),
        ("context_rows", "admitted_blocks"),
    ]

    def test_stats_shape_and_monotonic_counters_across_a_workload(
        self, generator, vocab, tokenizer, retrieval_model
    ):
        from repro.serving.server.client import request_json

        trace = generator.generate("mixed", 2, n_short=5, n_long=1)
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))
        core = ServerCore(make_engine(retrieval_model, tokenizer, vocab))

        def check_shape(payload: dict) -> None:
            assert set(payload["server"]) == self.SERVER_KEYS
            assert set(payload["engine"]) == self.ENGINE_KEYS
            assert set(payload["pool"]) == self.POOL_KEYS
            assert set(payload["prefix_cache"]) == self.PREFIX_KEYS
            assert set(payload["context_rows"]) == self.CONTEXT_ROWS_KEYS
            assert set(payload["http"]) == self.HTTP_KEYS
            assert set(payload["kv_memory"]) == self.KV_MEMORY_KEYS
            assert "anonymous" in payload["tenants"]

        async def scenario():
            snapshots = []
            async with ServingServer(core) as server:
                async def snap():
                    response = await request_json(
                        server.host, server.port, "GET", "/v1/stats"
                    )
                    assert response.status == 200
                    snapshots.append(response.payload)

                await snap()
                driver = HttpDriver(server.host, server.port, time_scale=0.005)
                task = asyncio.create_task(driver.run(trace))
                while not task.done():
                    await snap()
                    await asyncio.sleep(0.02)
                run = await task
                await snap()
            return run, snapshots

        run, snapshots = asyncio.run(scenario())
        check_oracles(run)
        assert len(snapshots) >= 3
        for payload in snapshots:
            check_shape(payload)
        for section, key in self.MONOTONIC:
            series = [s[section][key] for s in snapshots]
            assert series == sorted(series), f"{section}.{key} went backwards"
        final = snapshots[-1]
        assert final["server"]["n_submitted"] == len(trace)
        assert final["server"]["n_finished"] == run.n_completed
        assert final["server"]["n_active"] == 0
        assert final["pool"]["n_allocated"] == final["prefix_cache"]["n_blocks"]
        kv_memory = final["kv_memory"]
        assert kv_memory["accounted_bytes"] == final["pool"]["allocated_bytes"]
        assert kv_memory["physical_pool_bytes"] >= kv_memory["accounted_bytes"]
        assert kv_memory["working_set_bytes"] == 0  # every sequence finished


class TestWorkersStatsSection:
    """The sharded-pool ``workers`` section of ``/v1/stats``.

    Same contract style as :class:`TestStatsGoldenShape`: exact key sets
    (dashboards break on silent renames), monotone per-worker counters
    across live snapshots, and a final reconciliation — every submission
    routed to exactly one worker, every worker's pool drained down to its
    published prefix pages.
    """

    WORKER_KEYS = {
        "worker_id", "alive", "queue_depth", "in_flight",
        "outstanding_tokens", "n_routed", "n_prefix_routed", "n_steps",
        "n_decode_tokens", "pool_blocks", "prefix_blocks",
        "prefix_hit_rate",
    }
    MONOTONIC = ["n_routed", "n_prefix_routed", "n_steps", "n_decode_tokens"]

    def test_workers_shape_and_monotonic_counters(
        self, generator, vocab, tokenizer, retrieval_model
    ):
        from repro.serving.server.client import request_json

        trace = generator.generate("shared_prefix", 3, fleet_size=5)
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))
        core = ServerCore(
            engine_factory=lambda: make_engine(
                retrieval_model, tokenizer, vocab, max_running=4
            ),
            n_workers=2,
        )

        async def scenario():
            snapshots = []
            async with ServingServer(core) as server:
                async def snap():
                    response = await request_json(
                        server.host, server.port, "GET", "/v1/stats"
                    )
                    assert response.status == 200
                    snapshots.append(response.payload)

                await snap()
                driver = HttpDriver(server.host, server.port, time_scale=0.005)
                task = asyncio.create_task(driver.run(trace))
                while not task.done():
                    await snap()
                    await asyncio.sleep(0.02)
                run = await task
                await snap()
            return run, snapshots

        run, snapshots = asyncio.run(scenario())
        check_oracles(run)
        assert len(snapshots) >= 3
        for payload in snapshots:
            workers = payload["workers"]
            assert [w["worker_id"] for w in workers] == [0, 1]
            for row in workers:
                assert set(row) == self.WORKER_KEYS
                assert row["alive"] is True
            # The facade has no shared pool: the sections describing one
            # are absent rather than lying with zeros.
            assert "pool" not in payload
            assert "prefix_cache" not in payload
            # The row tiers are host memory, not a pool: summed over workers.
            assert payload["context_rows"]["capacity_bytes"] == 2 * CONTEXT_ROW_BYTES
            # KV memory is summed over workers too.
            assert set(payload["kv_memory"]) == TestStatsGoldenShape.KV_MEMORY_KEYS
        for worker_id in (0, 1):
            for key in self.MONOTONIC:
                series = [s["workers"][worker_id][key] for s in snapshots]
                assert series == sorted(series), (
                    f"workers[{worker_id}].{key} went backwards"
                )
        final = snapshots[-1]
        assert sum(w["n_routed"] for w in final["workers"]) == len(trace)
        assert final["server"]["n_active"] == 0
        for row in final["workers"]:
            assert row["queue_depth"] == 0
            assert row["in_flight"] == 0
            assert row["outstanding_tokens"] == 0
            assert row["pool_blocks"] == row["prefix_blocks"]
        assert final["kv_memory"]["working_set_bytes"] == 0
        assert final["kv_memory"]["accounted_bytes"] > 0  # published prefix pages
