"""Tests of the harness's own rules (collected by tier-1 at smoke size)."""

from __future__ import annotations

import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest

from benchmarks.e2e import inputs, metrics, run, trace, workloads
from benchmarks.e2e.inputs import Request


# -- BENCHMARK.json ------------------------------------------------------------


def test_committed_contract_is_valid():
    contract = metrics.load_contract()
    metrics.check_contract(contract)
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in contract["per_layer"]] == [row[0] for row in trace.PER_LAYER]


@pytest.mark.parametrize(
    "group, cap", [("workloads", 8), ("end_to_end", 16), ("per_layer", 128)]
)
def test_contract_caps(group, cap):
    contract = metrics.load_contract()
    template = contract[group][0]
    contract[group] = [{**template, "name": f"m{i}"} for i in range(cap)]
    if group == "end_to_end":
        contract[group][0] = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    metrics.check_contract(contract)
    contract[group].append({**template, "name": "one-too-many"})
    with pytest.raises(ValueError, match=group):
        metrics.check_contract(contract)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a" * 65, "tok/s"])
def test_contract_rejects_bad_names(name):
    contract = metrics.load_contract()
    contract["per_layer"][0]["name"] = name
    with pytest.raises(ValueError, match="name"):
        metrics.check_contract(contract)


def test_contract_rejects_repeated_name_and_missing_setup():
    contract = metrics.load_contract()
    repeated = copy.deepcopy(contract)
    repeated["per_layer"][0]["name"] = repeated["end_to_end"][0]["name"]
    with pytest.raises(ValueError, match="repeated"):
        metrics.check_contract(repeated)
    contract["end_to_end"] = [m for m in contract["end_to_end"] if m["name"] != "setup_s"]
    with pytest.raises(ValueError, match="setup_s"):
        metrics.check_contract(contract)


# -- percentiles ------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert metrics.percentile(list(range(100)), 0.90) == 89
    assert metrics.samples_beyond(100, 0.90) == 10
    with pytest.raises(ValueError, match="fewer than 10"):
        metrics.percentile(list(range(99)), 0.90)
    assert metrics.percentile(list(range(200)), 0.95) == 189
    with pytest.raises(ValueError):
        metrics.percentile(list(range(199)), 0.95)
    # The median of twenty samples has ten beyond it; of nineteen, nine.
    assert metrics.percentile(list(range(20)), 0.50) == 9
    assert metrics.p_ms(list(range(19)), 0.50) is None


def test_tail_band_leaves_out_the_extremes_and_needs_ten_samples():
    gaps = [0.001] * 950 + [0.020] * 40 + [5.0] * 10  # ten hiccups of the box
    assert metrics.band_mean_ms(gaps, 0.95, 0.99) == pytest.approx(20.0)
    assert metrics.band_mean_ms(gaps[:225], 0.95, 0.99) is None  # nine in the band
    assert metrics.or_slowest_ms(None, gaps) == pytest.approx(5000.0)


# -- inputs ------------------------------------------------------------------------


def test_arrivals_are_dealt_not_drawn():
    a, b = (inputs._arrivals(inputs._rng(seed, "t"), 150, 24.0) for seed in (1, 2))
    gaps_a, gaps_b = (np.diff(due, prepend=0.0) for due in (a, b))
    assert not np.allclose(a, b)
    assert np.allclose(np.sort(gaps_a), np.sort(gaps_b))  # same load, another order
    assert a[-1] == pytest.approx(24.0, rel=0.01)
    short = gaps_a < np.quantile(gaps_a, 0.2)
    assert short.sum() == 30 and not np.any(short[2:] & short[1:-1] & short[:-2])


def test_closed_loop_stops_sending_when_its_budget_is_spent(monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr(workloads, "now", clock.now)

    class Engine:
        def __init__(self):
            self.live = []

        def submit(self, request):
            self.live.append(request.index)
            return request.index

        def step(self):
            clock.sleep(1.0)
            done, self.live = self.live, []
            return [_FakeEvent(7, is_last=True, request_id=rid) for rid in done]

        def result(self, request_id, pop):
            pass

    stack = _FakeStack(clock)
    stack.engine = Engine()
    requests = [Request(i, ("w",), ("q",), "cocktail", 1, "gold") for i in range(10)]
    records, wall = workloads.run_inproc(stack, requests, clients=1, budget_s=2.5)
    assert [r.index for r in records] == [0, 1, 2] and wall == pytest.approx(3.0)


# -- open-loop accounting ------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.t = 100.0

    def now(self):
        return self.t

    def sleep(self, seconds):
        self.t += seconds


class _FakeEvent:
    def __init__(self, token_id, is_last=False, request_id=None):
        self.token_id, self.is_last, self.request_id = token_id, is_last, request_id


class _FakeHandle:
    error = None

    def __init__(self):
        self._events = [_FakeEvent(7), _FakeEvent(None, is_last=True)]

    def set_notify(self, notify):
        notify()

    def pop_events(self):
        events, self._events = self._events, []
        return events

    def wait(self, timeout=None):
        return True


class _StallingCore:
    """A server whose ``submit`` blocks the generator for a full second."""

    def __init__(self, clock):
        self.clock = clock

    def submit(self, request, *, tenant):
        self.clock.sleep(1.0)
        return _FakeHandle()

    def close(self):
        pass


class _FakeStack:
    engine = None
    pool = SimpleNamespace(peak_allocated_blocks=0)

    def __init__(self, clock):
        self.clock = clock

    def server_core(self):
        return _StallingCore(self.clock)

    def engine_request(self, request):
        return request


def test_open_loop_latency_runs_from_the_due_time(monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr(workloads, "now", clock.now)
    monkeypatch.setattr(workloads.time, "sleep", clock.sleep)
    requests = [
        Request(i, ("w",), ("q",), "cocktail", 1, "gold", due_s=due)
        for i, due in enumerate((0.0, 0.1, 3.0))
    ]
    records, wall = workloads.run_core(_FakeStack(clock), requests, budget_s=60.0)
    first, second, third = records
    # The second request was due at 0.1 s but the stalled generator sent it at
    # 1.0 s: the stall is charged to its latency and shows as generator lag.
    assert second.start == pytest.approx(100.1)
    assert second.sent == pytest.approx(101.0)
    assert metrics.ttfts([second]) == [pytest.approx(1.9)]
    # The third was due after the stall had passed: sent on time.
    assert third.sent == pytest.approx(third.start) == pytest.approx(103.0)
    assert metrics.ttfts([first, third]) == [pytest.approx(1.0), pytest.approx(1.0)]
    assert wall == pytest.approx(4.0)
    # Backlog counts what was due and unfinished at an instant.
    assert metrics.backlog_at(records, 100.5) == 2
    assert metrics.backlog_at(records, 102.5) == 0


# -- span arithmetic -----------------------------------------------------------------


def test_self_time_subtracts_what_children_cover():
    S = trace.Span
    spans = [
        S(0, "engine.step", None, start=0.0, end=10.0),
        S(1, "backends.prepare", 0, start=1.0, end=3.0),
        S(2, "model.prefill", 0, start=2.0, end=5.0),  # overlaps span 1
        S(3, "kvpool.pack", 0, start=7.0, end=8.0),
        S(4, "core.plan", 1, start=1.5, end=2.5),
        S(5, "engine.submit", None, start=20.0, end=21.0),
    ]
    own = trace.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0))  # 1..5 covered once, plus 7..8
    assert own[1] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)
    # Self times of a properly nested tree add up to the roots' durations.
    nested = [s for s in spans if s.id != 2]
    assert sum(trace.self_times(nested).values()) == pytest.approx(11.0)


def test_unresolved_trace_target_is_a_warning_not_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(
        trace, "TARGETS", (("repro.serving.engine", "EngineCore.no_such_method", "engine.step"),)
    )
    with trace.Tracer(stack=_FakeStack(None)) as tracer:
        pass
    assert "engine.step" not in tracer.resolved
    assert "does not resolve" in capsys.readouterr().err
    values = trace.per_layer(
        tracer, workloads.WORKLOADS["long_cold"], [], 1.0, 0.0,
        {"sent": 0, "succeeded": 0, "failed": 0}, untraced=([], 1.0),
    )
    assert values["engine.steps"] is None and values["workloads.sent"] == 0


# -- one smoke run, end to end ---------------------------------------------------------


def test_smoke_run_prints_the_names_in_the_contract(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "MIN_REQUESTS", 20)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run_workload(workloads.WORKLOADS["http_stream"], 5, 0.5, traced=True)
    contract = metrics.load_contract()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 20
    assert list(result["metrics"]) == [m["name"] for m in contract["per_layer"]]
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()]
    declared = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert [name for name in printed if name in set(declared)] == declared
    spans = [json.loads(line) for line in (tmp_path / "spans-http_stream.jsonl").read_text().splitlines()]
    assert {"id", "name", "parent", "request", "start", "end"} <= set(spans[0])
    assert {s["name"] for s in spans} >= {"server.submit", "engine.step", "model.prefill"}
    json.dumps(result)  # the driver's last line must serialise
