"""Unit tests for the shared decode-step state machine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.decode import STOP_REASONS, DecodeSession, check_max_new_tokens


def scripted_session(script: list[int], **kwargs) -> DecodeSession:
    """A session whose sampler walks through ``script`` deterministically.

    ``script[0]`` plays the role of the prefill sample; each step's logits
    one-hot encode the next scripted token.
    """
    logits = np.eye(max(script) + 1, dtype=np.float32)

    iterator = iter(script[1:])

    def step_fn(_token: int) -> np.ndarray:
        return logits[next(iterator)]

    return DecodeSession(step_fn, logits[script[0]], **kwargs)


class TestDecodeSession:
    def test_runs_to_budget(self):
        session = scripted_session([5, 6, 7, 8], max_new_tokens=3)
        generated, stopped_by = session.run()
        assert generated == [5, 6, 7]
        assert stopped_by == "max_tokens"

    def test_stop_token_excluded_from_output(self):
        session = scripted_session([5, 6, 3, 9], max_new_tokens=8, stop_ids=(3,))
        generated, stopped_by = session.run()
        assert generated == [5, 6]
        assert stopped_by == "stop_token"

    def test_budget_wins_over_pending_stop_token(self):
        """Exhausting the budget reports max_tokens even if the next sampled
        token would have been a stop token (historical loop semantics)."""
        session = scripted_session([5, 3, 3], max_new_tokens=1, stop_ids=(3,))
        generated, stopped_by = session.run()
        assert generated == [5]
        assert stopped_by == "max_tokens"

    def test_immediate_stop_token(self):
        session = scripted_session([3, 9], max_new_tokens=4, stop_ids=(3,))
        generated, stopped_by = session.run()
        assert generated == []
        assert stopped_by == "stop_token"

    def test_cache_full_keeps_final_token(self):
        capacity = [2]

        def has_capacity() -> bool:
            capacity[0] -= 1
            return capacity[0] >= 0

        session = scripted_session(
            [5, 6, 7, 8], max_new_tokens=8, has_capacity=has_capacity
        )
        first = session.advance()
        assert first == 5 and not session.finished
        second = session.advance()
        assert second == 6 and not session.finished
        third = session.advance()
        # The token that no longer fits a follow-up step is still emitted.
        assert third == 7 and session.finished
        assert session.stopped_by == "cache_full"
        assert session.generated == [5, 6, 7]

    def test_advance_after_finish_is_noop(self):
        session = scripted_session([3], max_new_tokens=2, stop_ids=(3,))
        session.run()
        assert session.advance() is None
        assert session.generated == []

    def test_all_stop_reasons_covered(self):
        assert set(STOP_REASONS) == {"stop_token", "max_tokens", "cache_full"}

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_zero_budget_rejected(self, bad):
        with pytest.raises(ValueError, match="max_new_tokens"):
            scripted_session([5, 6], max_new_tokens=bad)
        with pytest.raises(ValueError, match="max_new_tokens"):
            check_max_new_tokens(bad)

    def test_check_max_new_tokens_passthrough(self):
        assert check_max_new_tokens(3) == 3


def counting_session(script: list[int], **kwargs) -> tuple[DecodeSession, list[int]]:
    """A :func:`scripted_session` that also records every token its step
    function (the backend forward) is called with."""
    logits = np.eye(max(script) + 1, dtype=np.float32)
    iterator = iter(script[1:])
    forwarded: list[int] = []

    def step_fn(token: int) -> np.ndarray:
        forwarded.append(token)
        return logits[next(iterator)]

    return DecodeSession(step_fn, logits[script[0]], **kwargs), forwarded


class TestDecodeStepPhases:
    """One decode step is ``begin_step`` then, when it needs a forward,
    ``complete_step``; ``advance`` is exactly that pair."""

    @pytest.mark.parametrize("budget", [1, 2, 3, 5])
    def test_every_budgeted_token_runs_its_forward(self, budget):
        """The final budgeted token's forward still runs; its successor is
        never emitted."""
        session, forwarded = counting_session([4, 5, 6, 7, 8, 9], max_new_tokens=budget)
        generated, stopped_by = session.run()
        assert generated == [4, 5, 6, 7, 8][:budget]
        assert forwarded == generated
        assert stopped_by == "max_tokens"

    def test_phases_equal_advance(self):
        script = [5, 6, 7, 3, 9]
        phased, forwarded = counting_session(script, max_new_tokens=8, stop_ids=(3,))
        reference = scripted_session(script, max_new_tokens=8, stop_ids=(3,))
        logits = np.eye(10, dtype=np.float32)
        while not phased.finished:
            token, needs_forward = phased.begin_step()
            assert token == reference.advance()
            if needs_forward:
                phased.complete_step(logits[script[len(phased.generated)]])
        assert (phased.generated, phased.stopped_by) == (reference.generated, reference.stopped_by)
        assert phased.generated == [5, 6, 7] and forwarded == []

    def test_stop_token_ends_the_step_without_a_forward(self):
        session, forwarded = counting_session([5, 3], max_new_tokens=4, stop_ids=(3,))
        assert session.begin_step() == (5, True)
        session.complete_step(np.eye(6, dtype=np.float32)[3])
        assert session.begin_step() == (None, False)
        assert session.stopped_by == "stop_token"
        assert forwarded == []

    def test_cache_full_on_the_first_step(self):
        session, forwarded = counting_session(
            [5, 6], max_new_tokens=4, has_capacity=lambda: False
        )
        assert session.begin_step() == (5, False)
        assert (session.generated, session.stopped_by) == ([5], "cache_full")
        assert session.advance() is None and forwarded == []

    def test_remaining_budget_counts_down(self):
        session = scripted_session([5, 6, 7, 8], max_new_tokens=3)
        assert (session.max_new_tokens, session.remaining_budget) == (3, 3)
        seen = []
        while not session.finished:
            session.advance()
            seen.append((session.n_generated, session.remaining_budget))
        assert seen == [(1, 2), (2, 1), (3, 0), (3, 0)]

    def test_sampler_sees_the_first_logits_and_every_forward(self):
        rows = np.eye(9, dtype=np.float32)
        seen: list[int] = []

        def sampler(logits: np.ndarray) -> int:
            seen.append(int(np.argmax(logits)))
            return (seen[-1] + 1) % 9

        session = DecodeSession(
            lambda token: rows[token], rows[2], max_new_tokens=3, sampler=sampler
        )
        generated, _ = session.run()
        assert seen == [2, 3, 4, 5]
        assert generated == [3, 4, 5]
