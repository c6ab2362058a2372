"""Seeded inputs: every request a workload sends is generated here.

The program never sees a seed, only the generated requests.  Whatever the
seed does not need to vary is stratified, not drawn: document lengths,
backend mix, the repeat/new split and the arrival gaps are fixed ladders put
in a seeded order, so two seeds carry the same amount of work and differ
only in content and order.  That is what keeps the spread between seeds
inside the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from benchmarks.e2e import stack as stack_mod


@dataclass(frozen=True)
class Request:
    """One generated request, transport-neutral."""

    index: int
    context: tuple[str, ...]
    query: tuple[str, ...]
    backend: str
    max_new_tokens: int
    gold: str
    stop_on_special: bool = True
    #: Open loop only: scheduled send time, seconds after the pass starts.
    due_s: float = 0.0

    @property
    def n_prompt_tokens(self) -> int:
        return len(self.context) + 1 + len(self.query)

    def payload(self) -> dict:
        """The JSON body of ``POST /v1/completions`` for this request."""
        return {
            "context": list(self.context),
            "query": list(self.query),
            "max_tokens": self.max_new_tokens,
            "backend": self.backend,
            "stop_on_special": self.stop_on_special,
            "stream": True,
        }


def _from_sample(index: int, sample, backend: str, max_new_tokens: int, **extra) -> Request:
    return Request(
        index,
        sample.context_words,
        sample.query_words,
        backend,
        max_new_tokens,
        sample.answer_text,
        **extra,
    )


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _ladder(rng: np.random.Generator, values, n: int) -> list:
    """``values`` cycled to length ``n``, each cycle in its own seeded order.

    Shuffling inside cycles, not across them, keeps the mix the same in
    every stretch of the pass, so its two halves carry equal work.
    """
    out = []
    while len(out) < n:
        out.extend(values[int(i)] for i in rng.permutation(len(values)))
    return out[:n]


def long_cold(vocab, seed: int, n: int) -> list[Request]:
    """Distinct documents of 448 to 576 words, one Cocktail request each.

    Every request emits exactly eight tokens.  The clients join one per step
    and each sequence takes one token per step, so with equal budgets no two
    clients ever finish, and hence start, in the same step: a first token
    waits for one prefill, never a seeded number of them, and each request
    stalls behind the other three clients' prefills, a third of its gaps.
    With answers that stopped at their own length, three requests in ten
    were admitted in pairs or triples, and both tails (the p90 of TTFT, the
    slowest gaps) fell between one prefill time and two: they swung by
    18-29 % between seeds.
    """
    rng = _rng(seed, "long_cold")
    lengths = _ladder(rng, tuple(range(448, 577, 32)), n)
    generators = {
        length: stack_mod.sample_generator(vocab, n_words=length, seed=seed)
        for length in set(lengths)
    }
    return [
        _from_sample(
            index, generators[length].generate(index), "cocktail", 8, stop_on_special=False
        )
        for index, length in enumerate(lengths)
    ]


#: ``decode_batch`` rotates the four decode paths: Cocktail on the fused
#: batched forward, Algorithm 1's blockwise kernel, and two baselines.
DECODE_BACKENDS = ("cocktail", "blockwise", "fp16", "atom")


def decode_batch(vocab, seed: int, n: int) -> list[Request]:
    """128-word contexts, exactly 76 output tokens each, never stopping early.

    Equal budgets, for the reason given under :func:`long_cold`: no two
    clients start in the same step, so a first token waits for one prefill.
    The clients also take the queue in a fixed rotation, so each step's
    batch holds one sequence of each backend.
    """
    generator = stack_mod.sample_generator(vocab, n_words=128, seed=seed)
    return [
        _from_sample(
            index,
            generator.generate(index),
            DECODE_BACKENDS[index % len(DECODE_BACKENDS)],
            76,
            stop_on_special=False,
        )
        for index in range(n)
    ]


PREFIX_DOCS = 24


def _variant(rng: np.random.Generator, query: tuple[str, ...]) -> tuple[str, ...]:
    """A new query for the same fact: the lead-in words resampled, the key kept."""
    head = query[:-1]
    picks = rng.integers(0, len(head), size=len(head))
    return tuple(head[int(j)] for j in picks) + (query[-1],)


def _arrivals(rng: np.random.Generator, n: int, window_s: float) -> np.ndarray:
    """``n`` due times on ``window_s`` seconds with exponential gaps, dealt.

    The gaps are quantiles of the exponential distribution with mean
    ``window_s / n``, not draws from it.  The sequence says which fifth of
    the distribution each gap comes from, every five arrivals holding one
    of each; within a fifth the quantile midpoints go out in a seeded order.
    A request queues when it arrives inside the previous one's prefill,
    which is the shortest fifth of the gaps: every seed has the same number
    of those, and never more than two in a row.  Drawn, their count varied
    by a fifth from seed to seed, and with it both tails.
    """
    fifths = np.array(_ladder(rng, tuple(range(5)), n))
    quantile = np.empty(n)
    for fifth in range(5):
        at = np.flatnonzero(fifths == fifth)
        quantile[at] = (fifth + (rng.permutation(len(at)) + 0.5) / len(at)) / 5
    return np.cumsum(-np.log1p(-quantile) * (window_s / n))


def prefix_churn(vocab, seed: int, n: int, window_s: float) -> list[Request]:
    """Zipf-popular documents; a third of the requests repeat an earlier pair.

    Popularity is a fixed Zipf(1.1) histogram over 24 documents, dealt in a
    seeded order, not ``n`` draws from it, and so are the arrival times
    (:func:`_arrivals`): every seed offers the same load, in another order.

    One request in three repeats an earlier (document, query) pair exactly
    and finds its pages in the index; the others put a new query on a
    popular document and find some.  The first kind gets its first token a
    quarter sooner.  At one in two the median TTFT sat between the two
    kinds and read one or the other, 5-11 % apart, depending on the seed.

    Every request emits exactly four tokens (answers are two or three
    words): the open loop is about first tokens, and three gaps a request
    are enough for the slowest twentieth of the gaps to hold ten.
    """
    rng = _rng(seed, "prefix_churn")
    generator = stack_mod.sample_generator(
        vocab, n_words=160, seed=seed, answer_words=(2, 3)
    )
    docs = [generator.generate(doc) for doc in range(PREFIX_DOCS)]
    weights = 1.0 / np.arange(1, PREFIX_DOCS + 1) ** 1.1
    shares = np.cumsum(weights / weights.sum())
    popular = [int(np.searchsorted(shares, (i + 0.5) / n)) for i in range(n)]
    rng.shuffle(popular)
    repeats = _ladder(rng, (True, False, False), n)
    backends = _ladder(rng, ("cocktail", "cocktail", "cocktail", "atom"), n)
    due = _arrivals(rng, n, window_s)
    pairs: list[tuple[int, tuple[str, ...]]] = []
    requests = []
    for index in range(n):
        if repeats[index] and pairs:
            doc, query = pairs[int(rng.integers(len(pairs)))]
        else:
            doc = popular[index]
            query = _variant(rng, docs[doc].query_words)
        pairs.append((doc, query))
        requests.append(
            Request(
                index,
                docs[doc].context_words,
                query,
                backends[index],
                4,
                docs[doc].answer_text,
                stop_on_special=False,
                due_s=float(due[index]),
            )
        )
    return requests


def http_stream(vocab, seed: int, n: int) -> list[Request]:
    """The smallest model work there is: 64-word contexts, 16 tokens."""
    generator = stack_mod.sample_generator(vocab, n_words=64, seed=seed)
    return [_from_sample(index, generator.generate(index), "cocktail", 16) for index in range(n)]


def sha256_of(items) -> str:
    """Stable digest of a JSON-serialisable structure."""
    blob = json.dumps(items, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def inputs_sha256(requests: list[Request]) -> str:
    return sha256_of(
        [
            (
                r.context,
                r.query,
                r.backend,
                r.max_new_tokens,
                r.stop_on_special,
                round(r.due_s, 9),
            )
            for r in requests
        ]
    )


def oracle_subset(seed: int, workload: str, n: int) -> list[int]:
    """Indices of the seeded tenth (at least ten) replayed for the oracle."""
    rng = _rng(seed, "oracle:" + workload)
    size = min(n, max(10, n // 10))
    return sorted(int(i) for i in rng.choice(n, size=size, replace=False))
