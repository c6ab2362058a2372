"""The paged cache's one float working copy: head-major mirrors per layer.

:class:`~repro.kvpool.cache.PagedKVCache` keeps no per-sequence float rows
besides its mirrors.  These tests pin the contract:

* after any sequence of append / pack / adopt / copy-on-write / truncate /
  swap operations, the mirrors equal the reference rows and hold at most
  twice the valid rows (a hypothesis walk);
* a speculative rollback shrinks the mirrors' valid length and decodes
  nothing, while tokens stay those of sequential greedy decoding;
* the physical-memory probes (``BlockPool.physical_bytes``,
  ``working_set_bytes``) count what is actually held;
* the per-sequence float bytes of four long Cocktail sequences stay under
  a fixed budget (a deterministic byte count, not RSS).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kvpool.cache as cache_module
from repro.core.config import CocktailConfig
from repro.datasets.base import DatasetSpec
from repro.datasets.generator import SampleGenerator
from repro.kvpool import BlockPool, PagedKVCache, encode_per_token_groups
from repro.quant.dtypes import BitWidth
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest

N_LAYERS, H, D, BS = 2, 2, 8, 4
FP16 = int(BitWidth.FP16)
CAPACITY = 96
ROW_BYTES = N_LAYERS * 2 * H * D * 4  # float32 K and V of one row, all layers


def random_rows(rng, n):
    return (
        rng.standard_normal((N_LAYERS, n, H, D), dtype=np.float32),
        rng.standard_normal((N_LAYERS, n, H, D), dtype=np.float32),
    )


def append(cache, k, v):
    for layer in range(N_LAYERS):
        cache.append_layer(layer, k[layer], v[layer])


def pack(cache, k, v, token_bits, first_block=0):
    """Pack the context; returns the rows a decode must read back."""
    n = cache.n_context
    encodings = [
        encode_per_token_groups(k[layer][:n], v[layer][:n], token_bits, D, start=first_block * BS)
        for layer in range(N_LAYERS)
    ]
    cache.pack_context(encodings, first_block=first_block)
    decoded_k, decoded_v = k.copy(), v.copy()
    for layer, pair in enumerate(encodings):
        for out, enc in zip((decoded_k, decoded_v), pair):
            for bits, codec in enc.codecs.items():
                rows = np.flatnonzero(token_bits == bits)
                rows = rows[rows >= first_block * BS]
                if rows.size:
                    out[layer][rows] = codec.decode(enc.codes[rows], enc.meta[rows])
    return decoded_k, decoded_v


def assert_mirrors_match(cache, ref_k, ref_v):
    length = cache.length
    for layer in range(N_LAYERS):
        k_t, v_t = cache.layer_mirrors(layer)
        np.testing.assert_array_equal(k_t, ref_k[layer][:length].transpose(1, 2, 0))
        np.testing.assert_array_equal(v_t, ref_v[layer][:length].transpose(1, 0, 2))
    assert cache.working_set_bytes() <= 2 * length * ROW_BYTES


_BITS = st.sampled_from([2, 4, FP16])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 9)),
        st.tuples(st.just("pack"), st.lists(_BITS, min_size=1, max_size=40)),
        st.tuples(st.just("share"), st.integers(0, 30)),
        st.tuples(st.just("truncate"), st.integers(0, 30)),
        st.tuples(st.just("swap"), st.just(0)),
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=80, deadline=None)
@given(ops=_OPS, n_adopted=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_mirrors_equal_reference_rows_after_every_operation(ops, n_adopted, seed):
    rng = np.random.default_rng(seed)
    pool = BlockPool(N_LAYERS, H, D, block_size=BS)
    ref_k = np.zeros((N_LAYERS, 0, H, D), dtype=np.float32)
    ref_v = ref_k.copy()
    cache = PagedKVCache(pool, CAPACITY)
    extra_refs: list[int] = []
    if n_adopted:
        # A donor packs its context; the cache adopts its leading pages.
        donor = PagedKVCache(pool, CAPACITY)
        k, v = random_rows(rng, n_adopted * BS + 3)
        append(donor, k, v)
        donor.mark_context(k.shape[1])
        token_bits = rng.choice([2, 4, FP16], size=k.shape[1]).astype(np.int64)
        decoded_k, decoded_v = pack(donor, k, v, token_bits)
        adopted = donor.table.block_ids[:n_adopted]
        for block_id in adopted:
            pool.retain(block_id)
        donor.release()
        cache.adopt_blocks(adopted, n_adopted * BS)
        cache.mark_context(n_adopted * BS)  # adopted rows are context: never truncated
        ref_k, ref_v = decoded_k[:, : n_adopted * BS], decoded_v[:, : n_adopted * BS]
        # The unpacked floats of the adopted region, as a later pack's encoder sees them.
        raw_k, raw_v = k[:, : n_adopted * BS], v[:, : n_adopted * BS]
    else:
        raw_k, raw_v = ref_k, ref_v
    assert_mirrors_match(cache, ref_k, ref_v)

    for op, arg in ops:
        length = cache.length
        if op == "append":
            n = min(arg, CAPACITY - length)
            if n == 0:
                continue
            k, v = random_rows(rng, n)
            append(cache, k, v)
            ref_k, ref_v = np.concatenate([ref_k, k], 1), np.concatenate([ref_v, v], 1)
            raw_k, raw_v = np.concatenate([raw_k, k], 1), np.concatenate([raw_v, v], 1)
        elif op == "pack":
            if cache._packed or length == 0:
                continue
            n_context = max(cache.n_adopted_blocks * BS, min(len(arg), length))
            token_bits = np.resize(np.asarray(arg, dtype=np.int64), n_context)
            cache.mark_context(n_context)
            decoded_k, decoded_v = pack(
                cache, raw_k, raw_v, token_bits, first_block=cache.n_adopted_blocks
            )
            lo = cache.n_adopted_blocks * BS
            ref_k[:, lo:n_context] = decoded_k[:, lo:n_context]
            ref_v[:, lo:n_context] = decoded_v[:, lo:n_context]
        elif op == "share":
            if not cache.table.block_ids:
                continue
            # Another reader takes a page: the next write to it must fork.
            block_id = cache.table.block_ids[arg % len(cache.table.block_ids)]
            pool.retain(block_id)
            extra_refs.append(block_id)
        elif op == "truncate":
            n = cache.n_context + arg % (length - cache.n_context + 1)
            cache.truncate(n)
            ref_k, ref_v = ref_k[:, :n], ref_v[:, :n]
            raw_k, raw_v = raw_k[:, :n], raw_v[:, :n]
        else:
            cache.swap_out()
            assert cache.working_set_bytes() == 0
            cache.swap_in()
        assert_mirrors_match(cache, ref_k, ref_v)
        pool.assert_consistent()

    cache.release()
    for block_id in extra_refs:
        pool.release(block_id)
    assert pool.n_allocated == 0


class TestPhysicalBytes:
    def test_pages_hold_float_shadows_plus_packed_runs(self, rng):
        pool = BlockPool(N_LAYERS, H, D, block_size=BS)
        page_floats = 2 * N_LAYERS * BS * H * D * 4
        cache = PagedKVCache(pool, CAPACITY)
        k, v = random_rows(rng, 2 * BS + 1)
        append(cache, k, v)
        assert pool.physical_bytes() == 3 * page_floats
        cache.mark_context(2 * BS)
        pack(cache, k, v, np.full(2 * BS, 4, dtype=np.int64))
        runs = [
            run
            for block_id in cache.table.block_ids
            for block in [pool.get(block_id)]
            for layer_runs in (*block.packed_k, *block.packed_v)
            for run in layer_runs
        ]
        assert runs
        packed = sum(run.packed_codes.nbytes + run.meta.nbytes for run in runs)
        # Packed rows are zeroed, not freed: the float shadow stays held.
        assert pool.physical_bytes() == 3 * page_floats + packed
        assert pool.physical_bytes() > pool.allocated_bytes()
        # A copy-on-write clone shares its runs: they are counted once.
        shared = cache.table.block_ids[0]
        pool.retain(shared)
        clone = pool.copy_on_write(shared)
        assert pool.physical_bytes() == 4 * page_floats + packed
        pool.release(clone)
        cache.release()
        assert pool.physical_bytes() == 0

    def test_working_set_is_the_mirrors(self, rng):
        pool = BlockPool(N_LAYERS, H, D, block_size=BS)
        cache = PagedKVCache(pool, capacity=40)
        append(cache, *random_rows(rng, 20))
        assert cache.working_set_bytes() == 0  # nothing read yet
        cache.layer_mirrors(0)
        # One layer read: 1.5x headroom over its 20 rows, K and V.
        assert cache.working_set_bytes() == 30 * 2 * H * D * 4
        cache.layer_mirrors(1)
        assert cache.working_set_bytes() == 30 * ROW_BYTES
        append(cache, *random_rows(rng, 15))
        cache.layer_mirrors(0)
        cache.layer_mirrors(1)
        # Grown past the headroom, capped at the cache's capacity.
        assert cache.working_set_bytes() == 40 * ROW_BYTES
        cache.release()
        assert cache.working_set_bytes() == 0


def test_rollback_decodes_nothing_and_keeps_greedy_tokens(
    retrieval_model, tokenizer, vocab, monkeypatch
):
    """20 verify/truncate rounds over a packed cache: no decode call, same tokens."""
    model = retrieval_model
    config = model.config
    words = vocab.all_words()
    prompt = tokenizer.encode(words[100:160] + ["<sep>"] + words[110:113])
    n_context = 60
    token_bits = np.random.default_rng(5).choice([2, 4, FP16], size=n_context).astype(np.int64)
    pool = BlockPool(config.n_layers, config.n_kv_heads, config.head_dim, block_size=8)

    def packed_cache():
        cache = model.new_cache(pool=pool)
        logits = model.prefill(prompt, cache)
        cache.mark_context(n_context)
        cache.pack_context(
            [
                encode_per_token_groups(
                    layer.keys()[:n_context], layer.values()[:n_context],
                    token_bits, config.head_dim,
                )
                for layer in cache.layers
            ]
        )
        return cache, logits

    # The oracle: plain sequential greedy decoding.
    sequential, logits = packed_cache()
    oracle_tokens, oracle_logits = [int(np.argmax(logits))], []
    for _ in range(60):
        oracle_logits.append(model.decode_step(oracle_tokens[-1], sequential))
        oracle_tokens.append(int(np.argmax(oracle_logits[-1])))

    speculative, _ = packed_cache()
    model.decode_step(oracle_tokens[0], speculative)  # the first read builds the mirrors
    emitted = [oracle_tokens[0]]
    next_token = int(np.argmax(oracle_logits[0]))
    calls = []
    real = cache_module.decode_runs
    monkeypatch.setattr(cache_module, "decode_runs", lambda runs: calls.append(runs) or real(runs))
    for round_index in range(20):
        # ``n_good`` correct drafts, then wrong ones: every round rejects.
        n_good = round_index % 4
        i = len(emitted)
        drafts = oracle_tokens[i + 1 : i + 1 + n_good]
        drafts += [(oracle_tokens[i + 1 + n_good] + 1) % config.vocab_size] * (4 - n_good)
        rows = model.decode_verify_step([next_token, *drafts], speculative)
        for j in range(n_good + 1):
            np.testing.assert_array_equal(rows[j], oracle_logits[i + j])
        accepted = 0
        while accepted < 4 and int(np.argmax(rows[accepted])) == drafts[accepted]:
            accepted += 1
        assert accepted == n_good
        emitted += [next_token, *drafts[:accepted]]
        next_token = int(np.argmax(rows[accepted]))
        speculative.truncate(speculative.length - (4 - accepted))
        assert speculative.length == len(prompt) + len(emitted)
    assert emitted == oracle_tokens[: len(emitted)]
    assert next_token == oracle_tokens[len(emitted)]
    assert calls == []
    sequential.release()
    speculative.release()


def test_four_long_cocktail_sequences_fit_the_float_budget(
    retrieval_model, tokenizer, vocab
):
    """The e2e geometry, four ~512-word Cocktail sequences, 4 decode steps.

    Summed per-sequence float bytes must stay <= 25 MiB.  The old design
    held three copies (context memo, row buffer and mirrors, the latter two
    with fixed headroom): 64.3 MiB on this probe.
    """
    spec = DatasetSpec(
        name="mirror-budget", display_name="mirror-budget", task="Single-Document QA",
        metric="f1", n_context_words=512, answer_length=(4, 7), n_related_facts=2,
        n_distractor_facts=5, n_trap_chunks=1,
    )
    samples = SampleGenerator(vocab, spec, seed=3).generate_many(4)
    engine = InferenceEngine(
        retrieval_model, tokenizer, CocktailConfig(), lexicon=vocab.lexicon, max_running=4
    )
    ids = [
        engine.submit(
            GenerationRequest(
                sample.context_words, sample.query_words, max_new_tokens=8,
                backend="cocktail", stop_on_special=False,
            )
        )
        for sample in samples
    ]
    emitted = dict.fromkeys(ids, 0)
    while min(emitted.values()) < 5:  # the prefill's token plus 4 decode steps
        for event in engine.step():
            emitted[event.request_id] += event.token_id is not None
    assert engine.n_running == 4
    memory = engine.kv_memory_stats()
    config = retrieval_model.config
    row_bytes = config.n_layers * 2 * config.n_kv_heads * config.head_dim * 4
    rows = sum(len(s.context_words) for s in samples)
    assert memory["working_set_bytes"] >= rows * row_bytes  # every context row held once
    assert memory["working_set_bytes"] <= 25 * 2**20
    assert memory["physical_pool_bytes"] >= memory["accounted_bytes"] > 0
    while engine.has_pending:
        engine.step()
    assert engine.kv_memory_stats()["working_set_bytes"] == 0
