import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulate import simulate_nb_glmm_design
from smellstab.stats.design import DesignMatrix
from smellstab.stats.fitbase import FitResult
from smellstab.stats.glmm import fit_negbin_random_intercept
from smellstab.stats.inference import (
    InferenceError,
    bh_adjust,
    count_cdf_bounds,
    effect_sizes,
    fit_quality,
    one_sided_p,
    predict_mu,
    randomized_quantile_residuals,
)


def _fit_with(beta, se, names):
    return FitResult(
        model="nb_glm", names=names, beta=np.array(beta, dtype=float),
        se=np.array(se, dtype=float), ll=-10.0, converged=True,
        n_obs=10, mu_hat=np.ones(10),
    )


def test_one_sided_p_symmetric_null():
    fit = _fit_with([0.0], [1.0], ["x"])
    assert one_sided_p(fit, "x", +1) == pytest.approx(0.5)


def test_one_sided_p_at_05_quantile():
    fit = _fit_with([1.6449], [1.0], ["x"])
    assert one_sided_p(fit, "x", +1) == pytest.approx(0.05, abs=1e-4)


def test_one_sided_p_wrong_direction_tends_to_one():
    fit = _fit_with([-5.0], [1.0], ["x"])
    assert one_sided_p(fit, "x", +1) > 0.999999


def _bh_oracle(ps):
    """Direct min-over-j formula, quadratic, written independently."""
    m = len(ps)
    order = sorted(range(m), key=lambda i: ps[i])
    adjusted = [None] * m
    for rank_pos, idx in enumerate(order):
        candidates = []
        for later_pos in range(rank_pos, m):
            j = later_pos + 1
            candidates.append(m * ps[order[later_pos]] / j)
        adjusted[idx] = min(1.0, min(candidates))
    return adjusted


def test_bh_hand_example():
    out = bh_adjust([0.01, 0.02, 0.03, 0.04])
    np.testing.assert_allclose(out, [0.04, 0.04, 0.04, 0.04], atol=1e-15)


def test_bh_single_p_unchanged():
    np.testing.assert_allclose(bh_adjust([0.42]), [0.42])


def test_bh_all_ones_capped():
    np.testing.assert_allclose(bh_adjust([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0])


def test_bh_matches_oracle_on_random_vectors():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        m = int(rng.choice([4, 6, 12]))
        ps = rng.uniform(size=m)
        np.testing.assert_allclose(bh_adjust(ps), _bh_oracle(list(ps)), atol=1e-12)


def test_bh_rejects_invalid():
    with pytest.raises(InferenceError):
        bh_adjust([0.5, 1.5])
    with pytest.raises(InferenceError):
        bh_adjust([])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12),
       st.integers(min_value=0, max_value=11), st.floats(min_value=0.0, max_value=0.2))
def test_bh_monotone_in_each_p(ps, idx, bump):
    idx = idx % len(ps)
    raised = list(ps)
    raised[idx] = min(1.0, raised[idx] + bump)
    before = bh_adjust(ps)
    after = bh_adjust(raised)
    assert np.all(after >= before - 1e-12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=-5, max_value=5))
def test_irr_inverse_identity(beta):
    assert math.exp(beta) * math.exp(-beta) == pytest.approx(1.0, rel=1e-12)


def _toy_design_and_fit(seed=3, binary_iv=False):
    design, _ = simulate_nb_glmm_design(6, 60, [0.5, -0.2], 0.15, 2.0, seed=seed)
    if binary_iv:
        design.X[:, 1] = (design.X[:, 1] > 0).astype(float)
    fit = fit_negbin_random_intercept(design)
    return design, fit


def test_irr_is_exact_exp_beta():
    design, fit = _toy_design_and_fit()
    irr, _ = effect_sizes(fit, design, "x1")
    assert irr == math.exp(fit.beta[fit.coef("x1")])  # bitwise identical


def test_ame_continuous_matches_finite_difference():
    design, fit = _toy_design_and_fit()
    _, ame = effect_sizes(fit, design, "x1")
    k = fit.coef("x1")
    h = 1e-5
    Xp = design.X.copy()
    Xm = design.X.copy()
    Xp[:, k] += h
    Xm[:, k] -= h
    fd = float(np.mean(predict_mu(fit, design, Xp)) - np.mean(predict_mu(fit, design, Xm))) / (2 * h)
    assert ame == pytest.approx(fd, rel=1e-6)


def test_ame_binary_hand_computed_three_rows():
    fit = FitResult(
        model="nb_glm", names=["Intercept", "IsSmelly"],
        beta=np.array([0.1, 0.7]), se=np.array([0.1, 0.1]),
        ll=-5.0, converged=True, n_obs=3, mu_hat=np.ones(3),
    )
    design = DesignMatrix(
        y=np.array([1.0, 2.0, 3.0]),
        X=np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]]),
        names=["Intercept", "IsSmelly"],
        groups=np.zeros(3, dtype=np.int64), n_groups=1,
        project_labels=["p"], row_index=np.arange(3, dtype=np.int64),
    )
    _, ame = effect_sizes(fit, design, "IsSmelly")
    mu1 = math.exp(0.1 + 0.7)
    mu0 = math.exp(0.1)
    assert ame == pytest.approx(mu1 - mu0)  # same covariates for all rows here


def test_mcfadden_identities():
    assert fit_quality(-1000.0, -1000.0)[1] == 0.0
    assert fit_quality(-900.0, -1000.0)[1] == pytest.approx(0.1)
    with pytest.raises(InferenceError):
        fit_quality(-10.0, 0.0)


def test_mcfadden_signal_exceeds_noise():
    rng = np.random.default_rng(55)
    n = 1200
    x = rng.normal(size=n)
    strong = rng.poisson(np.exp(0.5 + 0.9 * x)).astype(float)
    noise = rng.poisson(np.exp(0.5 + 0.0 * x)).astype(float)

    def r2_of(y):
        from smellstab.stats.design import null_design
        from smellstab.stats.glm import fit_poisson

        design = DesignMatrix(
            y=y, X=np.column_stack([np.ones(n), x]), names=["Intercept", "x1"],
            groups=np.zeros(n, dtype=np.int64), n_groups=1, project_labels=["p"],
            row_index=np.arange(n, dtype=np.int64),
        )
        full = fit_poisson(design)
        null = fit_poisson(null_design(design))
        return fit_quality(full.ll, null.ll)[1]

    assert r2_of(strong) > r2_of(noise)


def test_quantile_residuals_roughly_normal_and_seeded():
    design, fit = _toy_design_and_fit(seed=9)
    lower, pmf = count_cdf_bounds(design.y, fit.mu_hat, fit.theta)
    r1 = randomized_quantile_residuals(lower, pmf, seed=4)
    r2 = randomized_quantile_residuals(lower, pmf, seed=4)
    np.testing.assert_array_equal(r1, r2)
    assert abs(np.mean(r1)) < 0.2
    assert 0.8 < np.std(r1) < 1.25
