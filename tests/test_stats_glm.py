import numpy as np
import pytest
from scipy.special import gammaln

from simulate import nb2_draw
from smellstab.stats import (
    DesignMatrix,
    DispersionError,
    dispersion_statistic,
    fit_negbin_glm,
    fit_poisson,
)
from smellstab.stats.fitbase import GRAD_TOL, maximize, numerical_hessian
from smellstab.stats.glm import negbin_objective


def _design(y, X, names=None):
    n = len(y)
    X = np.asarray(X, dtype=float)
    return DesignMatrix(
        y=np.asarray(y, dtype=float),
        X=X,
        names=names or ["Intercept"] + [f"x{i}" for i in range(1, X.shape[1])],
        groups=np.zeros(n, dtype=np.int64),
        n_groups=1,
        project_labels=["p0"],
        row_index=np.arange(n, dtype=np.int64),
    )


def test_intercept_only_poisson_is_log_mean():
    rng = np.random.default_rng(5)
    y = rng.poisson(3.0, size=4000)
    design = _design(y, np.ones((y.size, 1)))
    fit = fit_poisson(design)
    assert fit.converged
    assert fit.beta[0] == pytest.approx(np.log(y.mean()), abs=1e-8)  # analytic MLE
    assert fit.beta[0] == pytest.approx(np.log(3.0), abs=0.05)


def test_all_zero_response_flags_nonconvergence():
    y = np.zeros(50)
    design = _design(y, np.ones((50, 1)))
    fit = fit_poisson(design)
    assert not fit.converged


def test_poisson_recovery_within_3_se():
    rng = np.random.default_rng(11)
    n = 2000
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    beta_true = np.array([0.8, 0.4, -0.25])
    mu = np.exp(beta_true[0] + beta_true[1] * x1 + beta_true[2] * x2)
    y = rng.poisson(mu)
    design = _design(y, np.column_stack([np.ones(n), x1, x2]))
    fit = fit_poisson(design)
    assert fit.converged
    for b, t, s in zip(fit.beta, beta_true, fit.se):
        assert abs(b - t) < 3 * s


def test_dispersion_equidispersed_near_one():
    rng = np.random.default_rng(21)
    n = 5000
    x = rng.normal(size=n)
    y = rng.poisson(np.exp(1.0 + 0.3 * x))
    design = _design(y, np.column_stack([np.ones(n), x]))
    fit = fit_poisson(design)
    ratio = dispersion_statistic(fit, design)
    assert 0.9 <= ratio <= 1.1


def test_dispersion_overdispersed_above_threshold():
    rng = np.random.default_rng(22)
    n = 5000
    x = rng.normal(size=n)
    mu = np.exp(1.0 + 0.3 * x)
    y = nb2_draw(rng, mu, theta=1.0)
    design = _design(y, np.column_stack([np.ones(n), x]))
    fit = fit_poisson(design)
    assert dispersion_statistic(fit, design) > 1.5


def test_dispersion_saturated_exact_fit_is_zero():
    # y sits exactly on the model surface (log y linear in x), df = 3 - 2 = 1
    y = np.array([2.0, 4.0, 8.0])
    design = _design(y, np.column_stack([np.ones(3), np.array([1.0, 2.0, 3.0])]))
    fit = fit_poisson(design)
    assert fit.converged
    assert dispersion_statistic(fit, design) == pytest.approx(0.0, abs=1e-12)


def test_dispersion_df_error():
    y = np.array([1.0, 2.0])
    design = _design(y, np.column_stack([np.ones(2), np.array([0.0, 1.0])]))
    fit = fit_poisson(design)
    with pytest.raises(DispersionError):
        dispersion_statistic(fit, design)


def test_negbin_glm_recovers_theta():
    rng = np.random.default_rng(41)
    n = 4000
    x = rng.normal(size=n)
    mu = np.exp(1.2 + 0.5 * x)
    y = nb2_draw(rng, mu, theta=2.5)
    design = _design(y, np.column_stack([np.ones(n), x]))
    fit = fit_negbin_glm(design)
    assert fit.converged
    assert fit.theta == pytest.approx(2.5, rel=0.25)
    assert abs(fit.beta[1] - 0.5) < 3 * fit.se[1]


def test_newton_polish_converges_at_large_log_likelihood():
    """At |ll| ~ 3.4e4 a step near the optimum moves ll only by rounding."""
    rng = np.random.default_rng(9)
    n = 20000
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
    y = rng.poisson(np.exp(X @ np.array([0.7, 0.3, -0.2, 0.1])))
    log_y_factorial = gammaln(y + 1)

    def obj(b):
        eta = X @ b
        mu = np.exp(eta)
        return float(np.sum(y * eta - mu - log_y_factorial)), X.T @ (y - mu), -(X.T * mu) @ X

    out = maximize(obj, np.zeros(4))
    assert out.ll < -3e4
    assert out.converged and np.max(np.abs(out.grad)) < GRAD_TOL


def test_negbin_glm_hessian_matches_finite_differences():
    rng = np.random.default_rng(43)
    n = 500
    x = rng.normal(size=n)
    X = np.column_stack([np.ones(n), x])
    y = nb2_draw(rng, np.exp(1.0 + 0.4 * x), theta=2.0).astype(float)
    obj = negbin_objective(y, X)
    params = np.array([0.9, 0.3, np.log(1.7)])
    _ll, _grad, hess = obj(params)
    fd = numerical_hessian(lambda z: obj(z)[1], params)
    np.testing.assert_allclose(hess, fd, rtol=1e-5)
