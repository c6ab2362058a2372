"""The row forward's numerics: a row's bits never depend on its batch.

Every decode row goes through ``Transformer.forward_rows``,
whose weight GEMMs run on 2-row tiles (``tiled_matmul``, and
``tiled_block_matmul`` over the unembedding's column blocks).  These tests
pin the property that makes one forward per round safe: a row's output is
the same for any batch size, slot, neighbours and BLAS thread count —
first at the BLAS level for every decode GEMM shape, then through the
model on dense and paged caches, and for served logits (prefill's first
token and decode rows) across BLAS thread counts.

Prefill leans on the sibling property of plain GEMMs from 8 rows up: its
last block outputs only the final query tile, and the first-token logits
and every layer's K/V must equal a pass that runs every block over all
rows, bit for bit, at 1 and 2 BLAS threads.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.kvpool import BlockPool
from repro.model.attention import (
    COLUMN_BLOCK,
    column_blocks,
    tiled_block_matmul,
    tiled_matmul,
)
from repro.model.config import SIM_MODEL_NAMES, ModelConfig, get_sim_config
from repro.model.transformer import Transformer
from repro.model.weights import build_random_weights

_SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs in a fresh interpreter so ``OPENBLAS_NUM_THREADS`` takes effect.
#: For each kernel and shape, each of 64 random rows is multiplied alone
#: (beside the zero pad row), then inside random batches of 1-64 rows,
#: where it lands in every slot among random neighbours.  Prints the
#: mismatches and a digest of the solo products as JSON.
_TILE_PROBE = """
import hashlib, json, sys
import numpy as np
from repro.model.attention import column_blocks, tiled_block_matmul, tiled_matmul

def kernel(name, weight):
    if name == "tiled":
        return lambda stack: tiled_matmul(stack, weight)
    blocks = column_blocks(weight)
    return lambda stack: tiled_block_matmul(stack, blocks)[:, : weight.shape[1]]

rng = np.random.default_rng(0)
failures, digests = [], []
for name, k, n in json.loads(sys.argv[1]):
    multiply = kernel(name, rng.standard_normal((k, n), dtype=np.float32))
    rows = rng.standard_normal((64, k), dtype=np.float32)
    solo = np.stack([multiply(np.stack([r, np.zeros_like(r)]))[0] for r in rows])
    digests.append(hashlib.sha256(solo.tobytes()).hexdigest())
    for batch in range(1, 65):
        for _ in range(3):
            pick = rng.permutation(64)[:batch]
            stack = np.zeros((batch + batch % 2, k), dtype=np.float32)
            stack[:batch] = rows[pick]
            out = multiply(stack)[:batch]
            for slot in np.flatnonzero(np.any(out != solo[pick], axis=1)):
                failures.append([name, k, n, batch, int(slot)])
blas = {}
if failures:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "failures": failures[:20], "n_failures": len(failures), "digests": digests, "blas": blas,
}))
"""


def _run_probe(script: str, argument: str, threads: str) -> dict:
    """Run a probe in a fresh interpreter at ``threads`` BLAS threads; its last line's JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", script, argument],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(probe.stdout.strip().splitlines()[-1])


def _decode_gemm_shapes(config: ModelConfig) -> list[tuple[int, int]]:
    """``(K, N)`` of the tiled weights: ``[Wq|Wk|Wv]``, ``wo``, ``[W_gate|W_up]``, ``W_down``."""
    d, hd = config.d_model, config.head_dim
    return [
        (d, (config.n_heads + 2 * config.n_kv_heads) * hd),
        (config.n_heads * hd, d),
        (d, 2 * config.d_ff),
        (config.d_ff, d),
    ]


def _unit_config(n_kv_heads: int, max_seq_len: int = 64) -> ModelConfig:
    """The unit-test models' geometry (RoPE, RMSNorm, optionally GQA)."""
    return ModelConfig(
        name="rows-unit", vocab_size=50, d_model=32, n_layers=2, n_heads=4,
        n_kv_heads=n_kv_heads, d_ff=64, max_seq_len=max_seq_len, positional="rope",
        use_rmsnorm=True,
    )


def _all_decode_gemm_shapes() -> list[tuple[str, int, int]]:
    """``(kernel, K, N)``: every tiled weight, and every ``(d_model, vocab)``
    unembedding through its column blocks."""
    configs = [get_sim_config(name, vocab_size=6155) for name in SIM_MODEL_NAMES]
    configs += [_unit_config(2), _unit_config(4)]
    tiled = {shape for config in configs for shape in _decode_gemm_shapes(config)}
    blocked = {(config.d_model, config.vocab_size) for config in configs}
    return sorted(("tiled", *shape) for shape in tiled) + sorted(
        ("blocked", *shape) for shape in blocked
    )


class TestTileInvariance:
    def test_odd_stacks_are_refused(self):
        with pytest.raises(ValueError, match="even row count"):
            tiled_matmul(np.zeros((3, 4), dtype=np.float32), np.zeros((4, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="even row count"):
            tiled_block_matmul(
                np.zeros((3, 4), dtype=np.float32), np.zeros((2, 4, 8), dtype=np.float32)
            )

    @pytest.mark.parametrize("n", [1, 7, 8, 639, 640, 641, 6155])
    def test_column_blocks_hold_the_weight_and_zero_padding(self, rng, n):
        weight = rng.standard_normal((5, n), dtype=np.float32)
        blocks = column_blocks(weight)
        assert blocks.shape == (-(-n // COLUMN_BLOCK), 5, COLUMN_BLOCK)
        assert blocks.flags.c_contiguous
        columns = np.concatenate(list(blocks), axis=1)
        np.testing.assert_array_equal(columns[:, :n], weight)
        assert not columns[:, n:].any()

    @pytest.mark.parametrize("n_rows", [2, 4, 6])
    def test_blocked_product_equals_the_plain_product(self, rng, n_rows):
        """Same products to float32 rounding, padding columns zero."""
        weight = rng.standard_normal((16, 1300), dtype=np.float32)
        x = rng.standard_normal((n_rows, 16), dtype=np.float32)
        out = tiled_block_matmul(x, column_blocks(weight))
        assert out.shape == (n_rows, 3 * COLUMN_BLOCK)
        np.testing.assert_allclose(out[:, :1300], x @ weight, rtol=1e-5, atol=1e-5)
        assert not out[:, 1300:].any()

    def test_row_bits_ignore_batch_slot_neighbours_and_threads(self):
        shapes = _all_decode_gemm_shapes()
        assert ("blocked", 256, 6155) in shapes
        digests = {}
        for threads in ("1", "2"):
            report = _run_probe(_TILE_PROBE, json.dumps(shapes), threads)
            assert report["n_failures"] == 0, (
                f"OPENBLAS_NUM_THREADS={threads}: {report['n_failures']} rows changed "
                f"bits with their batch ([kernel, K, N, batch, slot]: "
                f"{report['failures']}); BLAS: {report['blas']}"
            )
            digests[threads] = report["digests"]
        changed = [s for s, a, b in zip(shapes, digests["1"], digests["2"]) if a != b]
        assert not changed, (
            f"tiles of shapes {changed} changed bits between 1 and 2 threads; "
            f"BLAS: {np.show_config(mode='dicts')['Build Dependencies']['blas']}"
        )


#: Runs in a fresh interpreter: for each geometry, prompt length and mode,
#: prefill one cache with ``Transformer.prefill`` (the last block pruned to
#: the final query tile) and a twin with every block over all rows, then
#: compare the first-token logits and every layer's K/V bit for bit.
#: Modes: one shot, three chunks, and a chunk continuing a cache that
#: already holds 37 rows.
_PREFILL_PROBE = """
import json, sys
import numpy as np
from repro.model.config import ModelConfig, get_sim_config
from repro.model.transformer import Transformer
from repro.model.weights import build_random_weights, build_retrieval_weights

def full_rows_prefill(model, tokens, cache):
    positions = np.arange(cache.length, cache.length + len(tokens))
    hidden = model.embed(tokens, positions)
    for block, layer_cache in zip(model.blocks, cache.layers):
        hidden = block.forward_prefill(hidden, layer_cache, positions)
    return model._logits(hidden[-1:])[0]

spec = json.loads(sys.argv[1])
e2e = get_sim_config("llama2-7b", 6155)
unit = ModelConfig(**spec["unit"])
models = {
    "e2e": Transformer(e2e, build_retrieval_weights(e2e)),
    "unit": Transformer(unit, build_random_weights(unit, seed=5, scale=0.2)),
}
rng = np.random.default_rng(0)
failures, checked = [], 0
for name, model in models.items():
    vocab = model.config.vocab_size
    for n in spec["lengths"]:
        tokens = rng.integers(0, vocab, size=n).tolist()
        for mode in ("one-shot", "three-chunk", "continue"):
            pruned, full = model.new_cache(), model.new_cache()
            if mode == "continue":
                head = rng.integers(0, vocab, size=37).tolist()
                model.prefill(head, pruned)
                full_rows_prefill(model, head, full)
            cuts = [0, n // 3, 2 * n // 3, n] if mode == "three-chunk" else [0, n]
            for lo, hi in zip(cuts, cuts[1:]):
                if lo < hi:
                    logits = model.prefill(tokens[lo:hi], pruned)
                    reference = full_rows_prefill(model, tokens[lo:hi], full)
            same = np.array_equal(logits, reference) and all(
                np.array_equal(a.keys(), b.keys()) and np.array_equal(a.values(), b.values())
                for a, b in zip(pruned.layers, full.layers)
            )
            checked += 1
            if not same:
                failures.append([name, n, mode])
blas = {}
if failures:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"failures": failures, "checked": checked, "blas": blas}))
"""

#: Tile edges (127-129, 255-257), the fewest kept rows around 8 (7-9,
#: 135/136, 263/264), a ``long_cold``-sized prompt (586) and a long one.
PRUNING_LENGTHS = [1, 7, 8, 9, 127, 128, 129, 135, 136, 255, 256, 257, 263, 264, 586, 2000]


class TestPrunedPrefill:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_logits_and_kv_equal_a_full_rows_pass(self, threads):
        unit = _unit_config(2, max_seq_len=2048)
        spec = {
            "lengths": PRUNING_LENGTHS,
            "unit": dataclasses.asdict(unit),
        }
        report = _run_probe(_PREFILL_PROBE, json.dumps(spec), threads)
        assert report["checked"] == 2 * 3 * len(PRUNING_LENGTHS)
        assert not report["failures"], (
            f"OPENBLAS_NUM_THREADS={threads}: pruned prefill changed bits for "
            f"[model, length, mode] {report['failures']}; BLAS: {report['blas']}"
        )


#: Runs in a fresh interpreter: the e2e model (llama2-7b sim, retrieval
#: weights) prefills two prompts cold into pool pages, then decodes both
#: greedily in one batch.  Prints a digest per logits row: each prompt's
#: first-token row, then every decode row, in order.
_SERVED_PROBE = """
import hashlib, json, sys
import numpy as np
from repro.kvpool import BlockPool
from repro.model.config import get_sim_config
from repro.model.transformer import Transformer
from repro.model.weights import build_retrieval_weights

spec = json.loads(sys.argv[1])
config = get_sim_config("llama2-7b", 6155)
model = Transformer(config, build_retrieval_weights(config))
pool = BlockPool(config.n_layers, config.n_kv_heads, config.head_dim, block_size=16)
rng = np.random.default_rng(0)
caches, rows = [], []
for length in spec["prompts"]:
    cache = model.new_cache(capacity=length + spec["steps"], pool=pool)
    rows.append(model.prefill(rng.integers(0, config.vocab_size, size=length).tolist(), cache))
    caches.append(cache)
tokens = [int(np.argmax(row)) for row in rows]
for _ in range(spec["steps"]):
    step = model.decode_step_batch(tokens, caches)
    rows.extend(step)
    tokens = [int(np.argmax(row)) for row in step]
print(json.dumps({
    "digests": [hashlib.sha256(row.tobytes()).hexdigest()[:16] for row in rows],
    "tokens": tokens,
}))
"""


class TestServedLogitsThreadInvariance:
    def test_prefill_and_decode_logits_equal_at_one_and_two_threads(self):
        """A cold prefill, then 10 decode steps batched with another sequence:
        every logits row has the same bits at 1 and 2 BLAS threads."""
        spec = {"prompts": [301, 140], "steps": 10}
        reports = {t: _run_probe(_SERVED_PROBE, json.dumps(spec), t) for t in ("1", "2")}
        one, two = reports["1"]["digests"], reports["2"]["digests"]
        assert len(one) == len(spec["prompts"]) * (1 + spec["steps"])
        changed = [i for i, (a, b) in enumerate(zip(one, two)) if a != b]
        assert not changed, (
            f"logits rows {changed} changed bits between 1 and 2 BLAS threads "
            f"(rows 0-1 are the first-token logits, then two per decode step); "
            f"BLAS: {np.show_config(mode='dicts')['Build Dependencies']['blas']}"
        )


@pytest.fixture(scope="module")
def unit_model() -> Transformer:
    config = _unit_config(2)
    return Transformer(config, build_random_weights(config, seed=5, scale=0.2))


@pytest.fixture(params=["retrieval", "unit"])
def model(request, retrieval_model, unit_model) -> Transformer:
    return retrieval_model if request.param == "retrieval" else unit_model


def _caches(model: Transformer, kind: str, prompts: list[list[int]]):
    """Two independently prefilled caches per prompt: (batched, reference)."""
    config = model.config
    pool = None
    if kind == "paged":
        pool = BlockPool(config.n_layers, config.n_kv_heads, config.head_dim, block_size=4)
    pairs = []
    for prompt in prompts:
        pair = []
        for _ in range(2):
            cache = model.new_cache(capacity=64, pool=pool)
            model.prefill(prompt, cache)
            pair.append(cache)
        pairs.append(pair)
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _prompts(model: Transformer, rng: np.random.Generator, n: int) -> list[list[int]]:
    vocab = model.config.vocab_size
    return [rng.integers(0, vocab, size=3 + 2 * i).tolist() for i in range(n)]


@pytest.mark.parametrize("kind", ["dense", "paged"])
class TestRowForwardInvariance:
    def test_batched_rows_equal_single_steps(self, model, kind, rng):
        """Batch sizes 1-9, every slot: rows equal ``decode_step`` on a twin cache."""
        vocab = model.config.vocab_size
        for batch in range(1, 10):
            batched, reference = _caches(model, kind, _prompts(model, rng, batch))
            tokens = rng.integers(0, vocab, size=batch).tolist()
            for step in range(2):
                order = list(range(batch)) if step == 0 else list(reversed(range(batch)))
                rows = model.decode_step_batch(
                    [tokens[i] for i in order], [batched[i] for i in order]
                )
                for slot, i in enumerate(order):
                    np.testing.assert_array_equal(
                        rows[slot], model.decode_step(tokens[i], reference[i]),
                        err_msg=f"batch {batch}, slot {slot}, step {step}",
                    )
                tokens = [int(np.argmax(rows[order.index(i)])) for i in range(batch)]

    def test_membership_changes_between_rounds(self, model, kind, rng):
        """Twelve rounds over six caches, each round a random subset in a
        random order (odd and even sizes, page edges crossed mid-batch):
        every row equals ``decode_step`` on a twin, and each cache ends
        holding its twin's keys and values."""
        vocab = model.config.vocab_size
        batched, reference = _caches(model, kind, _prompts(model, rng, 6))
        tokens = rng.integers(0, vocab, size=6).tolist()
        for step in range(12):
            members = rng.permutation(6)[: rng.integers(1, 7)].tolist()
            rows = model.decode_step_batch(
                [tokens[i] for i in members], [batched[i] for i in members]
            )
            for slot, i in enumerate(members):
                expected = model.decode_step(tokens[i], reference[i])
                np.testing.assert_array_equal(
                    rows[slot], expected, err_msg=f"step {step}, cache {i}, slot {slot}"
                )
                tokens[i] = int(np.argmax(expected))
        for mine, twin in zip(batched, reference):
            _assert_same_rows(mine, twin)

    def test_forward_rows_appends_one_row_per_cache(self, model, kind, rng):
        """``forward_rows`` returns one logits row per cache and grows each
        cache by exactly one row, its twin's; an odd batch's padding row is
        written to no cache and claims no page."""
        vocab = model.config.vocab_size
        for batch in range(1, 6):
            batched, reference = _caches(model, kind, _prompts(model, rng, batch))
            lengths = [cache.length for cache in batched]
            tokens = rng.integers(0, vocab, size=batch).tolist()
            logits = model.forward_rows(tokens, batched)
            assert logits.shape == (batch, vocab)
            assert [cache.length for cache in batched] == [n + 1 for n in lengths]
            for token, mine, twin in zip(tokens, batched, reference):
                model.decode_step(token, twin)
                _assert_same_rows(mine, twin)
                if kind == "paged":
                    assert mine.n_blocks == twin.n_blocks

    def test_refused_batch_leaves_every_cache_untouched(self, model, kind, rng):
        """A token count that differs from the cache count, or one full cache,
        refuses the whole batch before any row is appended."""
        vocab = model.config.vocab_size
        assert model.forward_rows([], []).shape == (0, vocab)
        batched, _ = _caches(model, kind, _prompts(model, rng, 3))
        full = model.new_cache(capacity=4)
        model.prefill([1, 2, 3, 4], full)
        lengths = [cache.length for cache in batched]
        with pytest.raises(ValueError, match="3 caches"):
            model.forward_rows([1, 2], batched)
        with pytest.raises(ValueError, match="does not fit"):
            model.forward_rows([1, 2, 3, 4], [*batched, full])
        assert [cache.length for cache in batched] == lengths
        assert full.length == 4


def _assert_same_rows(mine, twin) -> None:
    """Two caches hold the same length and the same K/V rows in every layer."""
    assert mine.length == twin.length
    for index, (a, b) in enumerate(zip(mine.layers, twin.layers)):
        np.testing.assert_array_equal(a.keys(), b.keys(), err_msg=f"layer {index} keys")
        np.testing.assert_array_equal(a.values(), b.values(), err_msg=f"layer {index} values")
