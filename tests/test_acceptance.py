"""Acceptance battery: each headline criterion at full scale.

The criteria and their tolerances are defined once, in
``fockdm.acceptance``; ``fockdm verify`` runs the same functions at smaller
sample counts.  Each test prints one ``ACCEPTANCE nn`` line with the
measured figures (visible under ``pytest -s``).
"""

import numpy as np
import pytest

from fockdm import acceptance, algebra, discrepancy, evolution, reify, states
from fockdm.acceptance import (
    CRITERIA,
    FLOW_DTS,
    coherent_eigenrelation,
    flow_coeffs,
    ladder_commutator_expansion,
    master_trace_conservation,
    master_vs_classical_flow,
    observed_order,
    rescale_field,
)
from fockdm.algebra import NormalFormOperator
from fockdm.evolution import MasterTerms
from fockdm.fock import compile_operator, compile_words


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


def skew_first_word(monkeypatch, module, factor):
    """Compile every operator that module compiles one mode at a time with
    the coefficient of its first word scaled by factor."""
    def skewed(op, cutoff):
        words = compile_words(op, cutoff)
        return words._replace(coeffs=np.concatenate(
            [words.coeffs[:1] * factor, words.coeffs[1:]]))

    monkeypatch.setattr(module, "compile_words", skewed)


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


@pytest.mark.parametrize("number, module, skew", [
    (2, states, skew_compiled_words), (6, discrepancy, skew_first_word),
    (7, discrepancy, skew_first_word), (12, discrepancy, skew_first_word)],
    ids=["c02", "c06", "c07", "c12"])
def test_trace_criterion_catches_a_one_ppm_word_error(monkeypatch, number,
                                                      module, skew):
    # each criterion reads Tr(rho op) off the operators its module compiles:
    # expectations (2) through the passes of operator_trace or block_trace,
    # fluxes (6, 7, 12) through the per-mode words of ProductMembers.expect;
    # a 1e-6 skew of one pass or of one word's coefficient leaves an error
    # of about 7e-8 to 1e-6
    [criterion] = [c for c in CRITERIA if c.number == number]
    assert criterion.check(np.random.default_rng(3), 32, 10).passed
    skew(monkeypatch, module, 1 + 1e-6)
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


def verify_run(tag):
    """The criterion of tag as fockdm verify runs it, at rng 1 and cutoff
    32."""
    [criterion] = [c for c in CRITERIA if c.tag == tag]
    return criterion.check(np.random.default_rng(1), 32,
                           criterion.verify_samples)


def test_ladder_expansion_catches_a_miscounted_reordering(monkeypatch):
    # every k = 2 weight k! C(r,k) C(l,k) of a^r adag^l one too large: both
    # sides of each identity go through normal_order_product, yet 91 of the
    # symbolic residuals are left nonzero
    assert verify_run("ladder-commutator-expansion").passed
    reorder = algebra._reorder_single_mode
    monkeypatch.setattr(algebra, "_reorder_single_mode", lambda r, l: [
        (w + (l - create == 2), create, annih)
        for w, create, annih in reorder(r, l)])
    result = verify_run("ladder-commutator-expansion")
    assert not result.passed
    assert result.value > 0


def test_field_scaling_catches_a_one_ppm_scale_error(monkeypatch):
    # the curvature residual goes from 4.4e-16 to 5.7e-6
    assert verify_run("field-scaling-balance").passed
    monkeypatch.setattr(acceptance, "rescale_field", lambda h, scales:
                        rescale_field(h, scales * (1 + 1e-6)))
    result = verify_run("field-scaling-balance")
    assert not result.passed
    assert result.value > 1e-6


def test_projection_decay_catches_an_average_over_the_first_delta(
        monkeypatch):
    # every eigenbasis average divided by the first delta, 50, instead of
    # its own: off * delta grows like delta and the band from 3.826 to 15.30
    assert verify_run("projection-offdiagonal-decay").passed
    average = evolution._time_average

    def first_delta(rho_eig, values, delta):
        return average(rho_eig, values, delta) * (delta / 50)

    monkeypatch.setattr(evolution, "_time_average", first_delta)
    result = verify_run("projection-offdiagonal-decay")
    assert not result.passed
    assert result.value > 15


def test_flow_coefficients_catch_a_flipped_sign(monkeypatch):
    # d = +4 sqrt3 at pi/6: a coefficient error of 8 sqrt3 = 13.86
    assert verify_run("reify-flow-coefficients").passed

    def flipped(alpha):
        c, d = flow_coeffs(alpha)
        return c, -d

    monkeypatch.setattr(acceptance, "flow_coeffs", flipped)
    result = verify_run("reify-flow-coefficients")
    assert not result.passed
    assert result.value == pytest.approx(8 * 3 ** 0.5)


def test_norm_divergence_catches_a_negated_generator(monkeypatch):
    # S(-alpha) squeezes the momentum state the other way: its norm falls
    # and ends at 1.13, not 2.35e11, and never crosses 1e6
    assert verify_run("reify-norm-divergence").passed
    monkeypatch.setattr(reify, "S_GENERATOR", reify.S_GENERATOR.scale(-1))
    result = verify_run("reify-norm-divergence")
    assert not result.passed
    assert "crossing at alpha none" in result.detail


def test_two_mode_escape_catches_pair_creation(monkeypatch):
    # adag bdag + a b creates quanta in pairs, so it is unbounded on the
    # doubled space: the norm at pi/4 changes by 0.478 from D=16 to D=32
    # where the exchange generator's changes by 6.7e-11
    assert verify_run("two-mode-escape").passed
    monkeypatch.setattr(acceptance, "m_generator", lambda modes:
                        NormalFormOperator(2, {((1, 1), (0, 0)): 1.0,
                                               ((0, 0), (1, 1)): 1.0}))
    result = verify_run("two-mode-escape")
    assert not result.passed
    assert result.value > 0.1
