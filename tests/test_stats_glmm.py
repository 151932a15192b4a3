import numpy as np
import pytest
from scipy.stats import nbinom

from fit_oracle import oracle_fits
from simulate import simulate_nb_glmm_design
from smellstab.stats import fit_negbin_random_intercept, fit_poisson
from smellstab.stats.fitbase import GRAD_TOL, numerical_hessian
from smellstab.stats.glmm import _LaplaceObjective, laplace_loglik_and_grad
from smellstab.stats.kernels import inner_modes, nb2_row_curvature, nb2_row_terms


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
    # here the estimate reaches the lower bound of log sigma2 and stays there
    assert fit.pinned == ["log_sigma2"]
    assert fit.sigma2 == pytest.approx(np.exp(-12.0))
    assert fit.to_dict()["pinned"] == ["log_sigma2"]


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
    ll, grad, _hess = obj(params)
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


def test_row_curvature_matches_finite_differences():
    rng = np.random.default_rng(19)
    y = rng.poisson(3.0, size=400).astype(float)
    eta = rng.normal(0.5, 0.8, size=400)
    theta, h = 1.7, 1e-6
    d, cth, lthth, athth, bthth = nb2_row_curvature(y, eta, theta)
    up, down = nb2_row_terms(y, eta + h, theta), nb2_row_terms(y, eta - h, theta)
    np.testing.assert_allclose(d, (up[3] - down[3]) / (2 * h), rtol=1e-6, atol=1e-8)
    up, down = nb2_row_terms(y, eta, theta + h), nb2_row_terms(y, eta, theta - h)
    for exact, k in ((cth, 3), (lthth, 4), (athth, 5), (bthth, 6)):
        np.testing.assert_allclose(exact, (up[k] - down[k]) / (2 * h), rtol=1e-6, atol=1e-8)


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


# -- exact Hessian and the Newton maximizer, against finite differences and the old optimizer --


@pytest.mark.parametrize("log_theta, log_sigma2", [
    (np.log(1.2), np.log(0.3)),
    (np.log(4.0), np.log(1.5)),
    (np.log(0.6), -12.0),  # log sigma2 at its lower bound
])
def test_exact_hessian_matches_finite_differences(log_theta, log_sigma2):
    design, _ = simulate_nb_glmm_design(6, 30, [0.5, -0.3], 0.25, 1.5, seed=5)
    obj = _LaplaceObjective(design.y, design.X, design.groups, design.n_groups)
    params = np.array([0.8, 0.45, -0.2, log_theta, log_sigma2])
    _ll, _grad, hess = obj(params)
    fd = numerical_hessian(lambda z: obj(z)[1], params)
    np.testing.assert_allclose(hess, fd, rtol=1e-5)


def test_newton_matches_the_oracle_on_criterion_7_data():
    design, _ = simulate_nb_glmm_design(20, 200, [0.5, -0.3], 0.25, 1.5, seed=1234)
    fit = fit_negbin_random_intercept(design)
    with oracle_fits():
        ref = fit_negbin_random_intercept(design)
    assert fit.converged and ref.converged
    assert np.max(np.abs(fit.beta - ref.beta) / ref.se) <= 1e-6
    assert fit.ll == pytest.approx(ref.ll, rel=1e-10)
    assert fit.iterations < 20 and fit.evaluations < 30
    assert fit.grad_norm < GRAD_TOL



def test_row_terms_keep_their_precision_near_the_theta_bound():
    rng = np.random.default_rng(29)
    y = rng.poisson(1.1, size=500).astype(float)
    eta = rng.normal(0.0, 0.5, size=500)
    theta, h = np.exp(14.0), 1e-6
    a = nb2_row_terms(y, eta, theta)[1]
    fd = (nb2_row_terms(y, eta + h, theta)[0].sum() - nb2_row_terms(y, eta - h, theta)[0].sum()) / (2 * h)
    assert fd == pytest.approx(a.sum(), abs=1e-5)


@pytest.mark.parametrize("seed", [5, 9, 24])
def test_poisson_limit_converges_near_the_theta_bound(seed):
    # the textbook NB2 log-pmf rounds away ~1e-8 of ll at theta = e^14, so a step
    # near the optimum could not be told from noise; L-BFGS-B stopped short as well
    design, _ = simulate_nb_glmm_design(6, 80, [0.15, 0.07, -0.01], 0.45, 1e6, seed=seed, intercept=0.0)
    fit = fit_negbin_random_intercept(design)
    assert fit.converged, fit.message
    assert fit.theta > 1e4 and fit.pinned in ([], ["log_theta"])
    assert fit.grad_norm < GRAD_TOL
