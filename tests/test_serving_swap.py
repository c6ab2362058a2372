"""Swap-based preemption and the preempt-thrash fairness guard."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.config import CocktailConfig
from repro.serving.backends import PreparedSequence
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest
from repro.serving.scheduler import ContinuousBatchingScheduler, SequenceState

CHUNK_SIZE = 16

#: Every globally registered backend: all of them swap.
ALL_BACKENDS = ("dense", "cocktail", "blockwise", "fp16", "atom", "kivi", "kvquant")


def make_engine(vocab, tokenizer, model, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(chunk_size=CHUNK_SIZE),
        lexicon=vocab.lexicon,
        **kwargs,
    )


def tight_budget_requests(tiny_samples, backend="dense"):
    """Two requests whose combined footprint exceeds a tight budget."""
    first, second = tiny_samples[0], tiny_samples[1]
    requests = [
        GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=8,
            backend=backend,
        )
        for sample in (first, second)
    ]
    budget = requests[0].n_prompt_tokens + requests[1].n_prompt_tokens + 1
    return requests, budget


class TestSwapPreemption:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_swap_roundtrips_without_recompute(
        self, vocab, tokenizer, retrieval_model, tiny_samples, backend
    ):
        """A swapped victim resumes in place: same tokens, zero replay work."""
        requests, budget = tight_budget_requests(tiny_samples, backend)
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_running=2,
            max_live_tokens=budget,
        )
        rids = [engine.submit(request) for request in requests]
        events = []
        while engine.has_pending:
            events.extend(engine.step())
        results = [engine.result(rid) for rid in rids]

        victim = results[1]
        assert victim.stats.n_preemptions >= 1
        assert victim.stats.n_swap_outs >= 1
        assert victim.stats.n_swap_ins >= 1
        assert victim.stats.n_swap_outs == victim.stats.n_preemptions
        # No recompute: every decode step produced forward progress (at most
        # one extra step for the terminal advance).
        assert victim.stats.n_decode_steps <= victim.stats.n_generated + 1

        # Reference: the same requests served without any capacity pressure.
        unconstrained = make_engine(vocab, tokenizer, retrieval_model, max_running=2)
        reference = unconstrained.run_batch(
            tight_budget_requests(tiny_samples, backend)[0]
        )
        for got, want in zip(results, reference):
            assert got.token_ids == want.token_ids
            assert got.stopped_by == want.stopped_by

        # The swapped request's stream stayed duplicate-free and ordered.
        victim_tokens = [
            e for e in events if e.request_id == rids[1] and e.token_id is not None
        ]
        assert [e.index for e in victim_tokens] == list(range(len(victim_tokens)))
        assert [e.token_id for e in victim_tokens] == victim.token_ids

    def test_swap_frees_pool_pages_while_waiting(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        requests, budget = tight_budget_requests(tiny_samples)
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_running=2,
            max_live_tokens=budget,
        )
        for request in requests:
            engine.submit(request)
        swapped_pages = []
        while engine.has_pending:
            engine.step()
            for state in engine.scheduler.waiting:
                if state.swapped:
                    # While a victim waits swapped-out, its pages are free.
                    swapped_pages.append(state.live_tokens())
        assert swapped_pages and all(pages == 0 for pages in swapped_pages)
        assert engine.pool.n_swap_outs >= 1
        # Only the prefix index's retained context pages stay allocated.
        assert engine.pool.n_allocated == engine.prefix_cache.n_blocks
        engine.prefix_cache.clear()
        assert engine.pool.n_allocated == 0

    @pytest.mark.parametrize("capacity_blocks", (7, 9))
    def test_bounded_pool_never_truncates_output(
        self, vocab, tokenizer, retrieval_model, tiny_samples, capacity_blocks
    ):
        """Regression: pool pressure must preempt, not stop a request early.

        With two sequences squeezed into a pool barely larger than one of
        them, a sequence that observes a transiently full pool mid-round
        must be swapped out and resumed — finishing ``cache_full`` one
        token short is a correctness bug.  Outputs must match the
        unconstrained engine exactly at every capacity.
        """
        from repro.kvpool import BlockPool

        sample = tiny_samples[2]

        def requests():
            return [
                GenerationRequest(
                    sample.context_words[:40],
                    sample.query_words,
                    max_new_tokens=6,
                    backend="dense",
                )
                for _ in range(2)
            ]

        reference = make_engine(
            vocab, tokenizer, retrieval_model, max_running=2
        ).run_batch(requests())
        config = retrieval_model.config
        pool = BlockPool(
            config.n_layers,
            config.n_kv_heads,
            config.head_dim,
            block_size=16,
            capacity_blocks=capacity_blocks,
        )
        engine = make_engine(
            vocab, tokenizer, retrieval_model, max_running=2, pool=pool
        )
        results = engine.run_batch(requests())
        for got, want in zip(results, reference):
            assert got.token_ids == want.token_ids
            assert got.stopped_by == want.stopped_by
        assert pool.n_allocated == engine.prefix_cache.n_blocks
        engine.prefix_cache.clear()
        assert pool.n_allocated == 0


class TestPreemptThrashGuard:
    """Regression tests for the near-finish victim guard."""

    @staticmethod
    def make_state(
        prompt_len: int, budget: int = 4, slo_class: str = "interactive"
    ) -> SequenceState:
        request = GenerationRequest(
            ["w"] * (prompt_len - 2), ["q"], max_new_tokens=budget,
            slo_class=slo_class,
        )
        return SequenceState(request=request)

    @classmethod
    def running_state(
        cls,
        scheduler,
        prompt_len: int,
        live: int,
        session=None,
        slo_class: str = "interactive",
        deadline: float | None = None,
    ) -> SequenceState:
        state = cls.make_state(prompt_len, slo_class=slo_class)
        state.deadline = deadline
        state.prepared = PreparedSequence(
            session=session,
            plan=None,
            n_prompt_tokens=state.request.n_prompt_tokens,
            n_context_tokens=len(state.request.context_words),
            # The one cache method the scheduler reads.
            cache=SimpleNamespace(live_tokens=lambda: live),
        )
        scheduler.enqueue(state)
        scheduler.mark_running(state)
        return state

    def test_victim_guard_skips_nearly_finished(self):
        from repro.model.decode import DecodeSession
        import numpy as np

        scheduler = ContinuousBatchingScheduler(max_running=4, max_live_tokens=30)
        logits = np.zeros(8, dtype=np.float32)

        def step(_token):
            return logits

        old = self.running_state(scheduler, 10, live=20)
        # Newest sequence has a 2-token budget and already emitted 1 token:
        # one token from finishing, so it must be spared.
        session = DecodeSession(step, logits, max_new_tokens=2)
        session.advance()
        assert session.remaining_budget == 1
        newest = self.running_state(scheduler, 10, live=20, session=session)
        assert scheduler.over_budget()
        assert newest.nearly_finished
        victim = scheduler.pop_preemption_victim()
        assert victim is None  # newest spared, oldest never preempted
        # A third, preemptable sequence becomes the victim instead.
        middle = self.running_state(scheduler, 10, live=20)
        assert scheduler.pop_preemption_victim() is middle
        assert old in scheduler.running and newest in scheduler.running

    def test_deadline_preemption_spares_near_finish_victim(self):
        """SLO-aware victim choice keeps the PR 2 guards intact.

        With an :class:`SloPolicy`, victims are picked by *(lowest class
        rank, most deadline slack)* — but a nearly-finished sequence is
        still never rolled back, even when its class and slack make it the
        policy's first choice, and the oldest running sequence remains
        untouchable.
        """
        from repro.model.decode import DecodeSession
        from repro.serving.adaptive import SloPolicy
        import numpy as np

        scheduler = ContinuousBatchingScheduler(
            max_running=4, max_live_tokens=30, slo_policy=SloPolicy()
        )
        logits = np.zeros(8, dtype=np.float32)

        def step(_token):
            return logits

        old = self.running_state(
            scheduler, 10, live=20, slo_class="interactive", deadline=5.0
        )
        # Background with huge slack *and* one token from finishing: the
        # policy's ideal victim on paper, protected by the guard in fact.
        session = DecodeSession(step, logits, max_new_tokens=2)
        session.advance()
        assert session.remaining_budget == 1
        background = self.running_state(
            scheduler, 10, live=20, session=session,
            slo_class="background", deadline=1000.0,
        )
        assert background.nearly_finished
        tight = self.running_state(
            scheduler, 10, live=20, slo_class="interactive", deadline=6.0
        )
        slack_batch = self.running_state(
            scheduler, 10, live=20, slo_class="batch", deadline=500.0
        )
        assert scheduler.over_budget()

        # Lowest class with the near-finish guard applied: the batch
        # sequence with 500 units of slack goes first...
        assert scheduler.pop_preemption_victim(now=0.0) is slack_batch
        # ...then the tight interactive one (only preemptable state left)...
        assert scheduler.pop_preemption_victim(now=0.0) is tight
        # ...and never the oldest or the nearly-finished background.
        assert scheduler.pop_preemption_victim(now=0.0) is None
        assert old in scheduler.running and background in scheduler.running

    def test_no_thrash_loop_under_tight_budget(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """The same victim is not rolled back repeatedly at its last token.

        With a budget that is permanently exceeded while both sequences
        run, an unguarded LIFO policy keeps preempting the newest sequence
        even when it is one token from finishing — a swap round trip per
        step to recover at most one token of budget.  With the guard the
        victim is spared once it gets that close.
        """
        requests, budget = tight_budget_requests(tiny_samples)
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_running=2,
            max_live_tokens=budget,
        )
        results = engine.run_batch(requests)
        victim = results[1]
        assert victim.stats.n_preemptions >= 1
        # Once within one token of its budget, the victim is spared; it can
        # only have been preempted before reaching that point.
        assert victim.stats.n_preemptions < requests[1].max_new_tokens
