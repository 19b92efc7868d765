"""Acceptance battery: each headline criterion at full scale.

The criteria and their tolerances are defined once, in
``fockdm.acceptance``; ``fockdm verify`` runs the same functions at smaller
sample counts.  Each test prints one ``ACCEPTANCE nn`` line with the
measured figures (visible under ``pytest -s``).
"""

import numpy as np
import pytest

from fockdm import acceptance, discrepancy, states
from fockdm.acceptance import (
    CRITERIA,
    FLOW_DTS,
    coherent_eigenrelation,
    ladder_commutator_expansion,
    master_trace_conservation,
    master_vs_classical_flow,
    observed_order,
)
from fockdm.evolution import MasterTerms
from fockdm.fock import compile_operator


def accept(number, seed, cutoff, samples=0):
    rng = np.random.default_rng(seed)
    results = [c.check(rng, cutoff, samples) for c in CRITERIA
               if c.number == number]
    for r in results:
        assert r.passed, r
    print(f"ACCEPTANCE {number:02d} {' + '.join(r.tag for r in results)}: "
          f"PASS ({'; '.join(r.detail for r in results)})")


def test_c01_coherent_eigenrelation():
    accept(1, seed=101, cutoff=32, samples=50)


def test_c02_expectation_identity():
    accept(2, seed=102, cutoff=32, samples=100)


def test_c03_master_equation_finite_difference():
    accept(3, seed=103, cutoff=32, samples=10)


def test_c04_trace_conservation():
    accept(4, seed=104, cutoff=24, samples=50)


def test_c05_commutator_lemmas():
    accept(5, seed=105, cutoff=16, samples=100)


def test_c06_discrepancy_closed_form():
    accept(6, seed=106, cutoff=32, samples=200)


def test_c07_oscillator_example():
    accept(7, seed=107, cutoff=32)


def test_c08_field_scaling():
    accept(8, seed=108, cutoff=32)


def test_c09_projection_decay():
    accept(9, seed=109, cutoff=32)


def test_c10_reification_divergence():
    accept(10, seed=110, cutoff=32)


def test_c11_two_mode_escape():
    accept(11, seed=111, cutoff=32)


def test_c12_iee_condition():
    accept(12, seed=112, cutoff=32)


# --- the order fit of master-vs-classical-flow ---------------------------------


def test_order_fit_skips_errors_at_the_rounding_floor():
    assert observed_order(FLOW_DTS, [1.86e-08, 1.86e-10, 4.00e-12]) \
        == pytest.approx(2.0, abs=1e-6)
    assert observed_order(FLOW_DTS, [4.67e-12, 8.19e-14, 1.37e-13]) is None
    assert observed_order(FLOW_DTS, [0.0, 0.0, 0.0]) is None
    assert observed_order(FLOW_DTS, [1e-6, 1e-6, 1e-6]) == pytest.approx(0.0)


@pytest.mark.parametrize("seed", [*range(10), 103])
def test_master_flow_passes_across_seeds(seed):
    result = master_vs_classical_flow(np.random.default_rng(seed), 32, 10)
    assert result.passed, result


def skew_first_pass(table, factor):
    """table with the pad of its first pass scaled by factor: one word, or
    the words that share its shift."""
    (shift, pad), *rest = table.passes
    return table._replace(passes=((shift, factor * pad), *rest))


def skew_compiled_words(monkeypatch, module, factor):
    """Compile every operator that module compiles with its first pass
    skewed by factor."""
    monkeypatch.setattr(module, "compile_operator", lambda op, cutoff:
                        skew_first_pass(compile_operator(op, cutoff), factor))


def skew_first_pre_pass(monkeypatch, factor):
    """Build every MasterTerms with the first pre pass of group 0 scaled by
    factor, in the unpacked groups that its row blocks are planned from."""
    plan = MasterTerms._plan_blocks

    def skewed(self, groups):
        (shift, rolled, ((s, pad, lo, hi), *rest)), *others = groups
        plan(self, [(shift, rolled, [(s, factor * pad, lo, hi), *rest]),
                    *others])

    monkeypatch.setattr(MasterTerms, "_plan_blocks", skewed)


def test_master_flow_catches_a_one_percent_sandwich_error(monkeypatch):
    skew_first_pre_pass(monkeypatch, 1.01)
    result = master_vs_classical_flow(np.random.default_rng(103), 32, 10)
    assert not result.passed
    assert result.value < 1.0


def test_master_trace_conservation_catches_a_one_ppm_word_error(monkeypatch):
    # the traces of a word's sandwiches cancel only between each other: one
    # skewed pre pass leaves a share of them, near 1e-7 here
    assert master_trace_conservation(np.random.default_rng(5), 32, 10).passed
    skew_first_pre_pass(monkeypatch, 1 + 1e-6)
    result = master_trace_conservation(np.random.default_rng(5), 32, 10)
    assert not result.passed
    assert result.value > 1e-10


def test_coherent_eigenrelation_catches_a_one_ppm_word_error(monkeypatch):
    # every compiled a_j off by 1 + 1e-6 leaves a residual near 1e-6 |z| ||w||
    rng = np.random.default_rng(101)
    assert coherent_eigenrelation(rng, 32, 50).passed
    skew_compiled_words(monkeypatch, acceptance, 1 + 1e-6)
    result = coherent_eigenrelation(np.random.default_rng(101), 32, 50)
    assert not result.passed
    assert result.value > 1e-8


@pytest.mark.parametrize("number, module", [
    (2, states), (6, discrepancy), (7, discrepancy), (12, discrepancy)],
    ids=["c02", "c06", "c07", "c12"])
def test_trace_criterion_catches_a_one_ppm_word_error(monkeypatch, number,
                                                      module):
    # each criterion reads Tr(rho op) through operator_trace or block_trace
    # of the operators its module compiles: expectations (2) and fluxes (6,
    # 7, 12); a 1e-6 skew of one pass leaves an error of about 1e-7 to 1e-6
    [criterion] = [c for c in CRITERIA if c.number == number]
    assert criterion.check(np.random.default_rng(3), 32, 10).passed
    skew_compiled_words(monkeypatch, module, 1 + 1e-6)
    result = criterion.check(np.random.default_rng(3), 32, 10)
    assert not result.passed
    assert result.value > result.tolerance


def test_ladder_expansion_fails_on_an_empty_interior_block():
    # margin = degree + n reaches the cutoff, so no matrix element is left to
    # compare: an infinite residual, named in the detail, never a pass
    result = ladder_commutator_expansion(np.random.default_rng(105), 6, 10)
    assert not result.passed
    assert "empty interior blocks" in result.detail
    assert "matrix residual inf" in result.detail
