import numpy as np
import pytest
from scipy.special import gammaln

import poisson_oracle
from fit_oracle import _active_mask as loop_active_mask
from simulate import nb2_draw, simulate_observation_rows
from smellstab.stats import (
    DesignMatrix,
    DispersionError,
    dispersion_statistic,
    fit_negbin_glm,
    fit_poisson,
    run_hypothesis_suite,
)
from smellstab.stats import glm, suite
from smellstab.stats.fitbase import GRAD_TOL, _active_mask, maximize, numerical_hessian
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


@pytest.mark.parametrize("fit_model", [fit_poisson, fit_negbin_glm])
def test_a_converged_maximizer_overruled_by_the_fit_names_why(fit_model):
    """A zero SE or an all-zero response makes the fit unconverged, and its message says which."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=200)
    y = rng.poisson(np.exp(0.5 + 0.3 * x))
    unused_iv = fit_model(_design(y, np.column_stack([np.ones(200), x, np.zeros(200)]), ["Intercept", "x", "z"]))
    assert not unused_iv.converged and list(unused_iv.se[:2] > 0) == [True, True] and unused_iv.se[2] == 0
    assert unused_iv.message == "zero standard error for z"
    no_counts = fit_model(_design(np.zeros(200), np.column_stack([np.ones(200), x])))
    assert not no_counts.converged and no_counts.pinned[:1] == ["Intercept"]
    assert no_counts.message == "all-zero response; zero standard error for Intercept"


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


def test_active_mask_equals_the_loop_it_replaced():
    rng = np.random.default_rng(3)
    bounds = [(None, None), (-30.0, 30.0), (-6.0, 14.0), (None, 5.0), (-12.0, None)] * 40
    lo = np.array([-np.inf if b is None else b for b, _ in bounds])
    hi = np.array([np.inf if b is None else b for _, b in bounds])
    for _ in range(20):
        offset = rng.choice([0.0, 5e-10, 1e-9, 2e-9, 1.0], size=len(bounds))  # on, within 1e-9 of, or off a bound
        x = np.where(rng.random(len(bounds)) < 0.5, lo + offset, hi - offset)
        x = np.where(np.isfinite(x), x, 0.0)
        grad = rng.choice([-1.0, 0.0, 1.0], size=len(bounds))
        np.testing.assert_array_equal(_active_mask(grad, x, lo, hi), loop_active_mask(grad, x, bounds))


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


# -- the Poisson fit on the Newton maximizer against the IRLS loop it replaced ----------

def _oracle_designs() -> dict[str, DesignMatrix]:
    """The designs of the Poisson tests above, two singular ones and the 38 Poisson fits of a suite."""
    rng = np.random.default_rng(5)
    y = rng.poisson(3.0, size=4000)
    designs = {"intercept-only": _design(y, np.ones((y.size, 1)))}
    rng = np.random.default_rng(11)
    x1, x2 = rng.normal(size=2000), rng.normal(size=2000)
    y = rng.poisson(np.exp(0.8 + 0.4 * x1 - 0.25 * x2))
    designs["three-columns"] = _design(y, np.column_stack([np.ones(2000), x1, x2]))
    designs["all-zero"] = _design(np.zeros(50), np.ones((50, 1)))
    designs["saturated"] = _design([2.0, 4.0, 8.0], np.column_stack([np.ones(3), [1.0, 2.0, 3.0]]))
    designs["df-0"] = _design([1.0, 2.0], np.column_stack([np.ones(2), [0.0, 1.0]]))
    rng = np.random.default_rng(31)
    x = rng.normal(size=300)
    y = rng.poisson(np.exp(0.5 + 0.3 * x))
    designs["zero-iv-column"] = _design(y, np.column_stack([np.ones(300), x, np.zeros(300)]))
    designs["collinear-pair"] = _design(y, np.column_stack([np.ones(300), x, 2.0 * x]))
    recorded = []

    def recording(design, fit=glm.fit_poisson):
        recorded.append(design)
        return fit(design)

    with pytest.MonkeyPatch.context() as mp:  # the full models' fits in the suite, the null models' in glm
        mp.setattr(suite, "fit_poisson", recording)
        mp.setattr(glm, "fit_poisson", recording)
        run_hypothesis_suite(simulate_observation_rows(8, 50, seed=10_015))
    assert len(recorded) == 38
    return designs | {f"suite-{i}": d for i, d in enumerate(recorded)}


def _dispersion(fit, design) -> float:
    try:
        return dispersion_statistic(fit, design)
    except DispersionError:
        return float("nan")


def test_newton_poisson_fits_match_the_irls_oracle():
    # measured: |dbeta|/SE <= 1.9e-8 (IRLS stops at a relative ll change of 1e-10), dispersion
    # 1.7e-10 of max(1, stat), the new ll at most 3.8e-16 relative below the old, 1-5 evaluations.
    # Bounds: 5x, 5x, 25x and +2.
    for name, design in _oracle_designs().items():
        new, old = fit_poisson(design), poisson_oracle.fit_poisson(design)
        assert new.converged == old.converged, name
        if not old.converged:
            continue
        assert np.max(np.abs(new.beta - old.beta) / old.se) <= 1e-7, name
        d_new, d_old = _dispersion(new, design), _dispersion(old, design)
        assert np.isnan(d_new) == np.isnan(d_old), name
        if not np.isnan(d_old):
            assert abs(d_new - d_old) <= 1e-9 * max(1.0, d_old), name
        assert new.ll >= old.ll - 1e-14 * max(1.0, abs(old.ll)), name
        assert new.evaluations <= 7, name
