"""The numpy-only special functions against the scipy code they replaced.

``special_oracle`` holds that code.  Differences of the gamma functions at
whole counts, the normal CDF and its inverse, and the NB2 CDF are drawn
over theta from 1e-3 to e^14, counts up to 1e5 and u in [1e-12, 1 - 1e-12];
the fits and residual export of the whole suite are diffed on simulated
rows.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln, ndtr, ndtri, polygamma

import special_oracle
from simulate import simulate_observation_rows
from smellstab.stats.inference import count_cdf_bounds, normal_cdf, normal_quantile, randomized_quantile_residuals
from smellstab.stats.kernels import Counts, nb2_row_terms
from smellstab.stats.suite import run_hypothesis_suite

THETA_BOUND = math.exp(14.0)
log_thetas = st.floats(min_value=math.log(1e-3), max_value=14.0)
count_lists = st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=20)


@st.composite
def counts_and_means(draw) -> tuple[np.ndarray, np.ndarray]:
    """Counts up to 1e5 with means e^-30..e^30, half of them within a factor e^3 of their count,
    where the CDFs are neither 0 nor 1."""
    ys = draw(count_lists)
    mus = []
    for y in ys:
        if draw(st.booleans()):
            mus.append((y + 0.5) * math.exp(draw(st.floats(min_value=-3.0, max_value=3.0))))
        else:
            mus.append(math.exp(draw(st.floats(min_value=-30.0, max_value=30.0))))
    return np.array(ys, dtype=float), np.array(mus)
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(count_lists, log_thetas)
def test_gamma_differences_match_scipy(ys, log_theta):
    y = np.array(ys, dtype=float)
    theta = math.exp(log_theta)
    counts = Counts(y)
    # scipy's own rounding is a few ulps of the terms it subtracts
    lg = gammaln(y + theta) - gammaln(theta)
    scale = np.abs(gammaln(y + theta)) + abs(gammaln(theta)) + np.abs(y * log_theta) + 1.0
    assert np.all(np.abs(counts.log_rising(theta) + y * log_theta - lg) <= 1e-12 * scale)
    psi = digamma(y + theta) - digamma(theta)
    scale = np.abs(digamma(y + theta)) + abs(digamma(theta))
    assert np.all(np.abs(counts.digamma_step(theta) - psi) <= 1e-13 * scale + 1e-12 * np.abs(psi))
    psi1 = polygamma(1, y + theta) - polygamma(1, theta)
    scale = np.abs(polygamma(1, y + theta)) + abs(polygamma(1, theta))
    assert np.all(np.abs(counts.trigamma_step(theta) - psi1) <= 1e-13 * scale + 1e-12 * np.abs(psi1))
    np.testing.assert_allclose(counts.log_factorial, gammaln(y + 1.0), rtol=1e-14)


def test_row_terms_match_the_oracle():
    """Within the oracle's own rounding: a few ulps of the gamma-function values it subtracts."""
    rng = np.random.default_rng(31)
    y = np.concatenate([rng.poisson(3.0, size=300), rng.integers(0, 5000, size=100)]).astype(float)
    eta = rng.normal(1.0, 1.5, size=y.size)
    for theta in (1e-3, 0.4, 2.5, 300.0, THETA_BOUND):
        (ll, a, lth, lthth, rows), (ll_old, a_old, lth_old, lthth_old, rows_old) = (
            nb2_row_terms(y, eta, theta), special_oracle.row_terms(y, eta, theta))
        lg_scale = np.abs(gammaln(y + theta)) + abs(gammaln(theta)) + gammaln(y + 1.0)
        assert np.all(np.abs(ll - ll_old) <= 1e-15 * lg_scale + 1e-12 * np.abs(ll_old))
        psi_scale = np.abs(digamma(y + theta)) + abs(digamma(theta))
        assert np.all(np.abs(lth - lth_old) <= 1e-15 * psi_scale + 1e-12 * np.abs(lth_old))
        psi1_scale = polygamma(1, y + theta) + polygamma(1, theta)
        assert np.all(np.abs(lthth - lthth_old) <= 1e-15 * psi1_scale + 1e-12 * np.abs(lthth_old))
        np.testing.assert_array_equal(a, a_old)
        np.testing.assert_array_equal(rows, rows_old)


@pytest.mark.parametrize("bad", [[1.0, 2.5], [-1.0, 2.0], [np.nan], [np.inf]])
def test_counts_reject_a_response_that_is_not_a_whole_count(bad):
    with pytest.raises(ValueError, match="whole numbers"):
        Counts(np.array(bad))
    with pytest.raises(ValueError, match="whole numbers"):
        nb2_row_terms(np.array(bad), np.zeros(len(bad)), 2.0)


def test_counts_of_zeros_only():
    counts = Counts(np.zeros(4))
    assert np.array_equal(counts.log_rising(2.0), np.zeros(4))
    assert np.array_equal(counts.trigamma_step(2.0), np.zeros(4))


@SETTINGS
@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
def test_normal_quantile_matches_ndtri(u):
    z = float(normal_quantile(np.array([u]))[0])
    assert abs(z - ndtri(u)) <= 1e-13 * max(1.0, abs(z))


def test_normal_quantile_at_its_branch_edges():
    u = np.array([1e-12, math.exp(-25.0), 0.075, 0.0750001, 0.5, 0.925, 1.0 - math.exp(-25.0), 1.0 - 1e-12])
    np.testing.assert_allclose(normal_quantile(u), ndtri(u), rtol=1e-13, atol=1e-15)


@SETTINGS
@given(st.floats(min_value=-38.0, max_value=38.0))
def test_normal_cdf_matches_ndtr(z):
    assert abs(normal_cdf(z) - ndtr(z)) <= 1e-15 + 1e-12 * ndtr(z)


def _assert_bounds_match(y, mu, theta):
    lower, pmf = count_cdf_bounds(y, mu, theta)
    ref_lower, ref_upper = special_oracle.cdf_bounds(y, mu, theta)
    np.testing.assert_allclose(lower, ref_lower, rtol=0, atol=1e-9)
    np.testing.assert_allclose(lower + pmf, ref_upper, rtol=0, atol=1e-9)


@SETTINGS
@given(counts_and_means(), log_thetas)
def test_nb_cdf_matches_betainc(y_mu, log_theta):
    _assert_bounds_match(*y_mu, math.exp(log_theta))


def _assert_residuals_match(y, mu, theta, seed):
    """The same draws agree within 1e-9 on the probability scale.

    On the normal-score scale a difference in u grows by 1/phi(z), which
    passes 1e11 in the clipped tails, so the scores are compared only where
    that growth stays under 10, and within 1e-8: near theta = e^14 scipy's
    ``betainc`` itself is off by up to 1.4e-10 (against 50-digit mpmath).
    """
    new = randomized_quantile_residuals(*count_cdf_bounds(y, mu, theta), seed)
    old = special_oracle.randomized_quantile_residuals(*special_oracle.count_cdf_bounds(y, mu, theta), seed)
    np.testing.assert_allclose(ndtr(new), ndtr(old), rtol=0, atol=1e-9)
    central = np.abs(old) < 1.6
    np.testing.assert_allclose(new[central], old[central], rtol=0, atol=1e-8)


@SETTINGS
@given(counts_and_means(), log_thetas, st.integers(0, 2**32 - 1))
def test_quantile_residuals_match_the_oracle(y_mu, log_theta, seed):
    _assert_residuals_match(*y_mu, math.exp(log_theta), seed)


def test_suite_matches_the_scipy_oracle():
    rows = simulate_observation_rows(10, 60, seed=12)
    new = run_hypothesis_suite(rows)
    with special_oracle.scipy_special():
        old = run_hypothesis_suite(rows)
    for r, o in zip(new.results, old.results):
        assert (r.status, r.converged, r.accepted) == (o.status, o.converged, o.accepted), r.spec.label
        assert r.p_raw == pytest.approx(o.p_raw, rel=1e-9, abs=0)
        assert r.p_bh == pytest.approx(o.p_bh, rel=1e-9, abs=0)
        if o.converged:
            assert np.max(np.abs(r.fit.beta - o.fit.beta) / o.fit.se) <= 1e-9, r.spec.label
            resid = randomized_quantile_residuals(*count_cdf_bounds(r.y, r.fit.mu_hat, r.fit.theta), 0)
            ref = special_oracle.randomized_quantile_residuals(
                *special_oracle.count_cdf_bounds(o.y, o.fit.mu_hat, o.fit.theta), 0)
            np.testing.assert_allclose(resid, ref, rtol=0, atol=1e-9)
