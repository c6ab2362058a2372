"""The paged cache's one float working copy: head-major mirrors per layer.

:class:`~repro.kvpool.cache.PagedKVCache` keeps no per-sequence float rows
besides its mirrors.  These tests pin the contract:

* after any sequence of append / pack / adopt / copy-on-write / swap
  operations, the mirrors equal the reference rows and hold at most
  twice the valid rows (a hypothesis walk);
* the physical-memory probes (``BlockPool.physical_bytes``,
  ``working_set_bytes``) count what is actually held;
* the per-sequence float bytes of four long Cocktail sequences stay under
  a fixed budget (a deterministic byte count, not RSS);
* every backend's ``prepare`` leaves the mirrors built, byte-identical to
  a rebuild from its pages, cold and warm, and a cold Cocktail admission's
  first decode step decodes no page.
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
from repro.serving.backends import PrefillJob, backend_names
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
        cache.mark_context(n_adopted * BS)  # adopted rows are context
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


def _mirror_bytes(cache) -> list[tuple[bytes, bytes]]:
    """Every layer's valid mirror rows (read without building anything)."""
    out = []
    for mirror in cache._mirrors.values():
        length, valid = cache.length, mirror.valid
        assert valid == length
        out.append((mirror.k_t[:, :, :valid].tobytes(), mirror.v_t[:, :valid].tobytes()))
    return out


class TestPreparedMirrors:
    """``prepare`` builds the mirrors from the rows and codes it holds."""

    @staticmethod
    def _engine(model, tokenizer, vocab):
        return InferenceEngine(
            model, tokenizer, CocktailConfig(chunk_size=16), lexicon=vocab.lexicon
        )

    @staticmethod
    def _prepare(engine, request):
        job = PrefillJob(engine.model, engine.tokenizer, request)
        job.run()
        return engine.get_backend(request.backend).prepare(request, job)

    @pytest.mark.parametrize("backend", backend_names())
    def test_prepared_mirrors_equal_a_rebuild_from_the_pages(
        self, retrieval_model, tokenizer, vocab, tiny_samples, backend
    ):
        """Cold, an exact repeat (adopts every context page) and a longer
        context over the same prefix (adopts pages, packs fresh rows)."""
        engine = self._engine(retrieval_model, tokenizer, vocab)
        sample = tiny_samples[1]
        longer = list(sample.context_words) + vocab.all_words()[200:237]
        requests = [
            GenerationRequest(context, sample.query_words, backend=backend)
            for context in (sample.context_words, sample.context_words, longer)
        ]
        prepared = [self._prepare(engine, request) for request in requests]
        assert prepared[0].cached_tokens == 0
        assert prepared[1].cached_tokens > 0  # warm: the first one's pages
        n_layers = engine.model.config.n_layers
        for sequence in prepared:
            cache = sequence.cache
            assert len(cache._mirrors) == n_layers
            seeded, seeded_bytes = _mirror_bytes(cache), cache.working_set_bytes()
            cache.swap_out()
            cache.swap_in()
            for layer in range(n_layers):
                cache.layer_mirrors(layer)  # rebuilt from the pages
            assert _mirror_bytes(cache) == seeded
            assert cache.working_set_bytes() == seeded_bytes
        for sequence in prepared:
            sequence.cache.release()

    def test_cold_cocktail_admission_decodes_no_page(
        self, retrieval_model, tokenizer, vocab, tiny_samples, monkeypatch
    ):
        engine = self._engine(retrieval_model, tokenizer, vocab)
        sample = tiny_samples[2]
        request = GenerationRequest(sample.context_words, sample.query_words, backend="cocktail")
        calls = []
        real = cache_module.decode_runs
        monkeypatch.setattr(
            cache_module, "decode_runs", lambda runs: calls.append(runs) or real(runs)
        )
        prepared = self._prepare(engine, request)
        cache = prepared.cache
        assert prepared.cached_tokens == 0
        kv_bytes = cache.measured_bytes()
        assert kv_bytes["context_bytes"] < kv_bytes["context_fp16_bytes"]  # packed pages
        length = cache.length
        prepared.session.advance()  # the first decode step
        assert cache.length == length + 1
        assert calls == []
        prepared.cache.release()
