"""Speculative decoding: draft proposers and their registry.

Prompt-lookup / n-gram speculative decoding attacks the one per-token cost
the batched refactor left standing — the target-model forward count itself.
Each engine step a :class:`DraftProposer` guesses up to ``k`` continuation
tokens for every in-flight sequence; the engine then runs **one** fused
multi-token verify forward over the ``[token, *drafts]`` runs
(:meth:`~repro.model.transformer.Transformer.forward_rows`) instead of
one forward per token, greedily verifies the guesses against the target
model's own logits and keeps the matching prefix.  Under greedy sampling this is provably output-identical
to plain decoding: every accepted token is *exactly* the token the target
model would have produced, every rejected tail is rolled back
(:meth:`~repro.kvpool.cache.PagedKVCache.truncate`), so speculation changes
how many forwards run — never what they compute.

The default proposer needs no draft model: :class:`NgramProposer` looks the
sequence's own recent suffix up in its history (prompt + generated tokens,
the vLLM-style "prompt lookup") and proposes whatever followed the previous
occurrence.  Repetitive serving workloads — summaries quoting their
document, code completion, greedy decode cycles — accept most of those
guesses.  New proposers (e.g. a small draft model) plug in through
:func:`register_proposer` and are selected by
:attr:`SpeculativeConfig.proposer`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class SpeculativeConfig:
    """Engine-level speculative-decoding knobs.

    Attributes
    ----------
    proposer:
        Registry name of the :class:`DraftProposer` to build
        (``"ngram"`` — prompt lookup — by default).
    k:
        Maximum draft tokens verified per sequence per engine step; the
        verify forward covers at most ``k + 1`` tokens.  Must be >= 1
        (``k=0`` would just be plain decoding).
    max_ngram, min_ngram:
        Longest and shortest history suffix the n-gram proposer tries to
        match, longest first.
    backends:
        Optional explicit opt-in list of backend names.  ``None`` (default)
        speculates on every backend (each decodes over a truncatable pool
        cache); a list limits drafting to the named backends and serves the
        rest on the plain fused step.  A name the engine cannot resolve
        raises at engine construction instead of at the first request.
    adaptive:
        ``True`` turns ``k`` into a *ceiling*: each sequence gets a
        :class:`~repro.serving.adaptive.DraftWindowController` that
        grows/shrinks its draft window from the observed acceptance rate
        (EWMA), degrading to plain decoding under sustained rejection and
        re-probing periodically.  Outputs are unchanged either way —
        greedy verification is exact — only the forward cost moves.
        ``False`` (default) keeps the static window.
    ewma_alpha, grow_threshold, shrink_threshold, min_window,
    probe_interval:
        Knobs of the per-sequence controller (see
        :class:`~repro.serving.adaptive.DraftWindowController`); ignored
        unless ``adaptive`` is set.
    """

    proposer: str = "ngram"
    k: int = 4
    max_ngram: int = 3
    min_ngram: int = 1
    backends: tuple[str, ...] | None = None
    adaptive: bool = False
    ewma_alpha: float = 0.5
    grow_threshold: float = 0.8
    shrink_threshold: float = 0.4
    min_window: int = 0
    probe_interval: int = 8

    def __post_init__(self) -> None:
        if not isinstance(self.proposer, str) or not self.proposer:
            raise ValueError(
                f"proposer must be a non-empty string, got {self.proposer!r}"
            )
        if self.k < 1:
            raise ValueError(f"speculative k must be >= 1, got {self.k}")
        if self.min_ngram < 1:
            raise ValueError(f"min_ngram must be >= 1, got {self.min_ngram}")
        if self.max_ngram < self.min_ngram:
            raise ValueError(
                f"max_ngram ({self.max_ngram}) must be >= min_ngram "
                f"({self.min_ngram})"
            )
        if self.backends is not None:
            object.__setattr__(
                self,
                "backends",
                tuple(str(name).lower() for name in self.backends),
            )
        if self.adaptive:
            # Building a controller validates every adaptive knob in one
            # place (DraftWindowController.__post_init__); the instance is
            # discarded — engines build one per sequence.
            self.build_window_controller()

    def build_window_controller(self):
        """A fresh per-sequence draft-window controller for this config."""
        from repro.serving.adaptive import DraftWindowController

        return DraftWindowController(
            k=self.k,
            alpha=self.ewma_alpha,
            grow_threshold=self.grow_threshold,
            shrink_threshold=self.shrink_threshold,
            min_window=self.min_window,
            probe_interval=self.probe_interval,
        )


class DraftProposer(abc.ABC):
    """Guesses the next few tokens of a sequence (cheaply, without the model)."""

    #: Registry name (instances may override per construction).
    name: str = "proposer"

    @abc.abstractmethod
    def propose(self, token_ids: Sequence[int], max_tokens: int) -> list[int]:
        """Draft up to ``max_tokens`` tokens continuing ``token_ids``.

        ``token_ids`` is the sequence's full history — prompt plus every
        generated token, *including* the token the current step is about to
        emit — so the proposal continues exactly the text the verify
        forward will extend.  Returning fewer tokens (or none) is always
        legal: the engine simply verifies a shorter draft (or runs a plain
        single-token step).
        """


class NgramProposer(DraftProposer):
    """Prompt-lookup drafting: match the history's suffix against itself.

    The longest suffix n-gram (``max_ngram`` down to ``min_ngram`` tokens)
    that occurred *earlier* in the history names a precedent; the tokens
    that followed its most recent earlier occurrence become the draft.
    Greedy decode loops, quoted context spans and boilerplate all repeat
    such n-grams, which is why this zero-cost proposer earns real
    acceptance rates without any draft model.
    """

    name = "ngram"

    def __init__(self, k: int = 4, max_ngram: int = 3, min_ngram: int = 1):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if min_ngram < 1:
            raise ValueError(f"min_ngram must be >= 1, got {min_ngram}")
        if max_ngram < min_ngram:
            raise ValueError(f"max_ngram ({max_ngram}) must be >= min_ngram ({min_ngram})")
        self.k = k
        self.max_ngram = max_ngram
        self.min_ngram = min_ngram

    def propose(self, token_ids: Sequence[int], max_tokens: int) -> list[int]:
        history = np.asarray(token_ids, dtype=np.int64)
        n = int(history.shape[0])
        limit = min(int(max_tokens), self.k)
        if limit < 1 or n <= self.min_ngram:
            return []
        for size in range(min(self.max_ngram, n - 1), self.min_ngram - 1, -1):
            # Most recent earlier occurrence wins: a decode loop's previous
            # period is a better precedent than a stale prompt mention.  The
            # windows end at start n - size - 1, so at least one token
            # follows any match.  One vectorised compare over all candidate
            # windows replaces the per-start Python list comparisons.
            windows = sliding_window_view(history[: n - 1], size)
            hits = np.flatnonzero((windows == history[n - size :]).all(axis=1))
            if hits.size:
                start = int(hits[-1])
                return [int(t) for t in history[start + size : start + size + limit]]
        return []


# -- registry ----------------------------------------------------------------

ProposerFactory = Callable[[SpeculativeConfig], DraftProposer]

_PROPOSER_FACTORIES: dict[str, ProposerFactory] = {}


def register_proposer(
    name: str, factory: ProposerFactory, *, overwrite: bool = False
) -> None:
    """Register a draft-proposer factory under ``name`` (case-insensitive)."""
    key = name.lower()
    if key in _PROPOSER_FACTORIES and not overwrite:
        raise KeyError(f"draft proposer {name!r} is already registered")
    _PROPOSER_FACTORIES[key] = factory


def proposer_names() -> tuple[str, ...]:
    """All registered draft-proposer names."""
    return tuple(sorted(_PROPOSER_FACTORIES))


def create_proposer(config: SpeculativeConfig) -> DraftProposer:
    """Instantiate the proposer ``config`` names."""
    key = config.proposer.lower()
    try:
        factory = _PROPOSER_FACTORIES[key]
    except KeyError:
        raise KeyError(
            f"unknown draft proposer {config.proposer!r}; "
            f"registered: {list(proposer_names())}"
        ) from None
    return factory(config)


register_proposer(
    "ngram",
    lambda config: NgramProposer(
        k=config.k, max_ngram=config.max_ngram, min_ngram=config.min_ngram
    ),
)
