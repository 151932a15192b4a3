import math
from dataclasses import fields as dc_fields

import numpy as np
import pytest
from scipy.stats import nbinom

import laplace_oracle
import nb_fit_oracle
import smellstab.stats.suite
from fit_oracle import oracle_fits
from simulate import simulate_nb_glmm_design, simulate_observation_rows
from smellstab.stats import (
    FitResult, fit_negbin_glm, fit_negbin_random_intercept, fit_poisson, null_design, run_hypothesis_suite,
)
from smellstab.stats import fitbase, glm, glmm
from smellstab.stats.fitbase import GRAD_TOL, numerical_hessian
from smellstab.stats.glmm import _LOG_S2_BOUNDS, _LaplaceObjective
from smellstab.stats.kernels import inner_modes, nb2_row_terms

ROW_NAMES = ("b", "c", "d", "ath", "bth", "cth", "athth", "bthth")


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


def test_single_project_falls_back_with_warning():
    design, _ = simulate_nb_glmm_design(1, 300, [0.5], 0.0, 2.0, seed=3)
    with pytest.warns(UserWarning, match="single project"):
        fit = fit_negbin_random_intercept(design)
    assert fit.model == "nb_glm"
    assert fit.converged


def _terms(y, eta, theta) -> dict[str, np.ndarray]:
    """``nb2_row_terms`` by name."""
    ll, a, lth, lthth, rows = nb2_row_terms(y, eta, theta)
    return dict(zip(ROW_NAMES, rows), ll=ll, a=a, lth=lth, lthth=lthth)


def test_row_terms_match_scipy_and_finite_differences():
    rng = np.random.default_rng(17)
    y = rng.poisson(3.0, size=400).astype(float)
    eta = rng.normal(0.5, 0.4, size=400)
    theta, h = 1.7, 1e-5
    ll, a, lth, _lthth, (b, *_) = nb2_row_terms(y, eta, theta)
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
    terms = _terms(y, eta, theta)
    up, down = _terms(y, eta + h, theta), _terms(y, eta - h, theta)
    np.testing.assert_allclose(terms["d"], (up["c"] - down["c"]) / (2 * h), rtol=1e-6, atol=1e-8)
    up, down = _terms(y, eta, theta + h), _terms(y, eta, theta - h)
    for name, of in (("cth", "c"), ("lthth", "lth"), ("athth", "ath"), ("bthth", "bth")):
        np.testing.assert_allclose(terms[name], (up[of] - down[of]) / (2 * h), rtol=1e-6, atol=1e-8)


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


# -- the shared NB2 driver against the two fits it replaced, bit for bit ---------


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _assert_same_fit(new: FitResult, old: FitResult, where: str = "") -> None:
    for f in dc_fields(FitResult):
        a, b = getattr(new, f.name), getattr(old, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b), (where, f.name)
        else:
            assert type(a) is type(b) and _same(a, b), (where, f.name, a, b)


@pytest.mark.filterwarnings("ignore:single project")
@pytest.mark.parametrize("n_groups, sigma2, theta, pinned", [
    (6, 0.25, 1.5, []),
    (6, 0.0, 1.5, ["log_sigma2"]),
    (6, 0.45, 1e6, ["log_theta"]),
    (1, 0.0, 1.5, []),  # the fixed-effect fallback
    (1, 0.0, 1e6, ["log_theta"]),
])
def test_driver_fits_equal_the_oracle_bitwise(n_groups, sigma2, theta, pinned):
    design, _ = simulate_nb_glmm_design(n_groups, 300 // n_groups, [0.5, -0.3], sigma2, theta, seed=7)
    new = fit_negbin_random_intercept(design)
    assert (new.model, new.converged, new.pinned) == ("nb_glmm" if n_groups > 1 else "nb_glm", True, pinned)
    _assert_same_fit(new, nb_fit_oracle.fit_negbin_random_intercept(design))
    _assert_same_fit(fit_negbin_random_intercept(null_design(design)),
                     nb_fit_oracle.fit_negbin_random_intercept(null_design(design)))
    _assert_same_fit(fit_negbin_glm(design), nb_fit_oracle.fit_negbin_glm(design))


@pytest.mark.filterwarnings("ignore:single project")
@pytest.mark.parametrize("n_projects, per_project", [(6, 40), (1, 80)])
def test_suite_on_the_driver_equals_the_oracle_bitwise(monkeypatch, n_projects, per_project):
    rows = simulate_observation_rows(n_projects, per_project, seed=13)
    new = run_hypothesis_suite(rows)
    monkeypatch.setattr(smellstab.stats.suite, "fit_negbin_random_intercept",
                        nb_fit_oracle.fit_negbin_random_intercept)
    old = run_hypothesis_suite(rows)
    assert sum(r.fit is not None for r in old.results) == 34
    for r, o in zip(new.results, old.results):
        _assert_same_fit(r.fit, o.fit, r.spec.label)
        for name in smellstab.stats.suite._OUTCOME_FIELDS:
            assert _same(getattr(r, name), getattr(o, name)), (r.spec.label, name)


# -- the Newton step cap ------------------------------------------------------------


def _record_fits(monkeypatch) -> list:
    """``(objective, every point it was evaluated at, outcome)`` of each NB2 maximization from here on."""
    calls = []

    def recording(obj, x0, bounds=None):
        if glm._LOG_THETA_BOUNDS not in bounds:  # a Poisson fit: no log theta
            return fitbase.maximize(obj, x0, bounds)
        points = []

        def traced(x):
            points.append(x.copy())
            return obj(x)

        out = fitbase.maximize(traced, x0, bounds)
        calls.append((obj, points, out))
        return out

    monkeypatch.setattr(glm, "maximize", recording)
    return calls


def test_overdispersed_null_suite_fits_in_eight_evaluations(monkeypatch):
    # uncapped, the first step threw log sigma2 of 14 ChS fits from -2.3 to +1.6..+4.6; the halvings of
    # the next step landed on the bound at -12, and those fits took 15-30 evaluations
    calls = _record_fits(monkeypatch)
    suite = run_hypothesis_suite(simulate_observation_rows(8, 50, seed=10_015))
    assert len(calls) >= 34
    assert max(out.evaluations for _obj, _points, out in calls) <= 8
    for obj, points, out in calls:
        if isinstance(obj, _LaplaceObjective) and not out.active[-1]:
            assert min(x[-1] for x in points) > _LOG_S2_BOUNDS[0]
    assert sum(r.fit.evaluations for r in suite.results) <= 221  # 426 uncapped


_CAP_CASES = {
    **{f"criterion-11-{seed}": dict(n_projects=8, per_project=50, seed=seed) for seed in range(10_000, 10_020)},
    # overdispersed like ChS, with many projects: 238 evaluations capped, 597 uncapped
    "overdispersed-100-projects": dict(n_projects=100, per_project=40, seed=4242, theta=0.5, sigma2=0.5),
}


@pytest.mark.parametrize("case", _CAP_CASES.values(), ids=_CAP_CASES.keys())
def test_capped_steps_reach_the_uncapped_optimum(monkeypatch, case):
    rows = simulate_observation_rows(**case)
    capped = run_hypothesis_suite(rows)
    monkeypatch.setattr(fitbase, "_MAX_STEP", math.inf)
    uncapped = run_hypothesis_suite(rows)
    assert [r.status for r in capped.results] == [r.status for r in uncapped.results]
    for r, o in zip(capped.results, uncapped.results):
        assert abs(r.p_bh - o.p_bh) <= 1e-6, r.spec.label
        if o.converged:
            assert np.max(np.abs(r.fit.beta - o.fit.beta) / o.fit.se) <= 1e-6, r.spec.label


# -- one row kernel per evaluation, against the two it replaced, bit for bit ------------


def _assert_bitwise(new, old, where="") -> None:
    assert len(new) == len(old), where
    for k, (a, b) in enumerate(zip(new, old)):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), (where, k)


@pytest.mark.parametrize("theta", [1e-2, 1.7, math.exp(14.0)])
def test_row_kernels_equal_the_oracle_bitwise(theta):
    rng = np.random.default_rng(37)
    y = np.concatenate([rng.poisson(2.0, 300), rng.integers(0, 5000, 50), np.zeros(20)]).astype(float)
    eta = rng.uniform(-30.0, 30.0, y.size)
    ll, a, lth, lthth, (b, c, d, ath, bth, cth, athth, bthth) = nb2_row_terms(y, eta, theta)
    _assert_bitwise((ll, a, b, c, lth, ath, bth, d, cth, lthth, athth, bthth),
                    laplace_oracle.nb2_row_terms(y, eta, theta) + laplace_oracle.nb2_row_curvature(y, eta, theta))
    groups = np.sort(rng.integers(0, 12, y.size))
    _assert_bitwise(inner_modes(y, eta / 10.0, theta, 0.3, groups, np.zeros(12)),
                    laplace_oracle.inner_modes(y, eta / 10.0, theta, 0.3, groups, np.zeros(12)))
    design, _ = simulate_nb_glmm_design(6, 30, [0.5, -0.3], 0.25, 1.5, seed=5)
    new = _LaplaceObjective(design.y, design.X, design.groups, design.n_groups)
    old = laplace_oracle.LaplaceObjective(design.y, design.X, design.groups, design.n_groups)
    for log_sigma2 in (np.log(0.3), -12.0, 8.0):  # warm-started modes carry over
        params = np.array([0.8, 0.45, -0.2, np.log(theta), log_sigma2])
        _assert_bitwise(new(params), old(params), log_sigma2)
        _assert_bitwise([new.u], [old.u], log_sigma2)


def test_laplace_objective_equals_the_oracle_bitwise_at_every_iterate(monkeypatch):
    checked = []

    class Checked(_LaplaceObjective):
        def __call__(self, params):
            start = self.u
            new = super().__call__(params)
            modes, self.u = self.u, start
            old = laplace_oracle.LaplaceObjective.__call__(self, params)
            _assert_bitwise((*new, modes), (*old, self.u), len(checked))
            checked.append(params)
            return new

    rows = simulate_observation_rows(8, 50, seed=10_015)
    monkeypatch.setattr(glmm, "_LaplaceObjective", Checked)
    capped = run_hypothesis_suite(rows)
    monkeypatch.setattr(fitbase, "_MAX_STEP", math.inf)
    uncapped = run_hypothesis_suite(rows)
    assert len(checked) >= sum(r.fit.evaluations for suite in (capped, uncapped) for r in suite.results)
    # uncapped and on the old objective, the suite is the one fitted before the cap, bit for bit
    monkeypatch.setattr(glmm, "_LaplaceObjective", laplace_oracle.LaplaceObjective)
    before = run_hypothesis_suite(rows)
    for r, o in zip(uncapped.results, before.results):
        _assert_same_fit(r.fit, o.fit, r.spec.label)
