"""Figure 5: time per output token (TPOT) of the five methods on the four models.

The serving engine's measured decode bar — at most 0.5 forwards per token
at oracle-identical tokens — is a tier-1 test
(``tests/test_serving_batched.py``).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import save_table
from repro.evaluation.efficiency import tpot_table
from repro.evaluation.setup import DEFAULT_METHODS
from repro.model.config import SIM_MODEL_NAMES, get_model_spec


def _run_fig5():
    return tpot_table(SIM_MODEL_NAMES, DEFAULT_METHODS)


def test_fig5_tpot(benchmark, results_dir):
    table = benchmark.pedantic(_run_fig5, rounds=1, iterations=1)
    save_table(results_dir, "fig5_tpot", table)
    print("\n" + table.to_text(precision=0))

    for model_name in SIM_MODEL_NAMES:
        column = get_model_spec(model_name).display_name
        fp16 = table.get("FP16", column)
        cocktail = table.get("Cocktail", column)
        # Cocktail has the lowest TPOT on every model.
        for row in table.row_names:
            assert cocktail <= table.get(row, column) + 1e-9
        # The reduction against FP16 is substantial (paper: 32%-52%).
        reduction = (fp16 - cocktail) / fp16
        assert reduction > 0.10
