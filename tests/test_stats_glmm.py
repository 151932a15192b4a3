import numpy as np
import pytest
from scipy.stats import nbinom

from smellstab.stats import fit_negbin_random_intercept, fit_poisson
from smellstab.stats.glmm import _LaplaceObjective, laplace_loglik_and_grad
from smellstab.stats.kernels import inner_modes, nb2_row_terms
from smellstab.stats.simulate import simulate_nb_glmm_design


def test_recovery_20x200():
    design, _u = simulate_nb_glmm_design(20, 200, [0.5, -0.3], 0.25, 1.5, seed=1234)
    fit = fit_negbin_random_intercept(design)
    assert fit.converged
    truth = [1.0, 0.5, -0.3]
    for b, t, s in zip(fit.beta, truth, fit.se):
        assert abs(b - t) < 3 * s
    assert 0.1 <= fit.sigma2 <= 0.5
    assert fit.theta == pytest.approx(1.5, rel=0.3)


def test_zero_variance_simulation_shrinks_sigma2():
    design, _ = simulate_nb_glmm_design(15, 150, [0.4], sigma2=0.0, theta=2.0, seed=99)
    fit = fit_negbin_random_intercept(design)
    assert fit.converged
    assert fit.sigma2 < 0.05


def test_poisson_limit_ll_within_2():
    # Poisson-generated data: NB-GLMM pushes theta up, sigma2 down; the
    # marginal LL approaches the plain Poisson GLM LL
    rng = np.random.default_rng(13)
    n_groups, per = 10, 150
    x = rng.normal(size=n_groups * per)
    groups = np.repeat(np.arange(n_groups), per)
    mu = np.exp(1.0 + 0.4 * x)
    y = rng.poisson(mu).astype(float)
    from smellstab.stats.design import DesignMatrix

    design = DesignMatrix(
        y=y, X=np.column_stack([np.ones(y.size), x]), names=["Intercept", "x1"],
        groups=groups, n_groups=n_groups,
        project_labels=[f"p{j}" for j in range(n_groups)],
        row_index=np.arange(y.size, dtype=np.int64),
    )
    pois = fit_poisson(design)
    glmm = fit_negbin_random_intercept(design)
    assert abs(glmm.ll - pois.ll) < 2.0


def test_gradient_matches_finite_differences():
    design, _ = simulate_nb_glmm_design(6, 30, [0.5, -0.3], 0.25, 1.5, seed=5)
    obj = _LaplaceObjective(design.y, design.X, design.groups, design.n_groups)
    params = np.array([0.8, 0.45, -0.2, np.log(1.2), np.log(0.3)])
    ll, grad = obj(params)
    for i in range(params.size):
        h = 1e-6 * max(1.0, abs(params[i]))
        pp, pm = params.copy(), params.copy()
        pp[i] += h
        pm[i] -= h
        fd = (obj(pp)[0] - obj(pm)[0]) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5)


def test_laplace_loglik_helper_consistency():
    design, _ = simulate_nb_glmm_design(5, 20, [0.3], 0.2, 2.0, seed=8)
    ll, grad = laplace_loglik_and_grad(design, beta=[0.9, 0.3], theta=2.0, sigma2=0.2)
    assert np.isfinite(ll)
    assert grad.shape == (4,)


def test_single_project_falls_back_with_warning():
    design, _ = simulate_nb_glmm_design(1, 300, [0.5], 0.0, 2.0, seed=3)
    with pytest.warns(UserWarning, match="single project"):
        fit = fit_negbin_random_intercept(design)
    assert fit.model == "nb_glm"
    assert fit.converged


def test_row_terms_match_scipy_and_finite_differences():
    rng = np.random.default_rng(17)
    y = rng.poisson(3.0, size=400).astype(float)
    eta = rng.normal(0.5, 0.4, size=400)
    theta, h = 1.7, 1e-5
    ll, a, b, _c, lth, _ath, _bth = nb2_row_terms(y, eta, theta)
    mu = np.exp(eta)
    np.testing.assert_allclose(ll, nbinom.logpmf(y, theta, theta / (theta + mu)), rtol=1e-12)
    ll_up, ll_down = nb2_row_terms(y, eta + h, theta)[0], nb2_row_terms(y, eta - h, theta)[0]
    np.testing.assert_allclose(a, (ll_up - ll_down) / (2 * h), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(b, -(ll_up - 2 * ll + ll_down) / (h * h), rtol=1e-3, atol=1e-4)
    th_up, th_down = nb2_row_terms(y, eta, theta + h)[0], nb2_row_terms(y, eta, theta - h)[0]
    np.testing.assert_allclose(lth, (th_up - th_down) / (2 * h), rtol=1e-6, atol=1e-8)


def test_inner_modes_solve_stationarity():
    rng = np.random.default_rng(23)
    n, G = 300, 6
    y = rng.poisson(4.0, size=n).astype(float)
    eta = rng.normal(1.0, 0.3, size=n)
    groups = np.sort(rng.integers(0, G, size=n)).astype(np.int64)
    theta, sigma2 = 2.0, 0.4
    u = inner_modes(y, eta, theta, sigma2, groups, np.zeros(G))
    mu = np.exp(eta + u[groups])
    a = y - (y + theta) * mu / (theta + mu)
    grad = np.bincount(groups, weights=a, minlength=G) - u / sigma2
    assert np.max(np.abs(grad)) < 1e-7
