"""The two NB2 fits as they were before they shared one driver, kept as a
test oracle.

``fit_negbin_glm`` and ``fit_negbin_random_intercept`` each took their own
Poisson start, moment start for theta, bounds, covariance and ``FitResult``
assembly.  They are kept verbatim but for the GLM's ``theta_fixed`` branch,
which no fit took; the objectives, ``maximize`` and the Poisson start are
the program's own, so a fit here must equal the driver's bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np

from smellstab.stats.design import DesignMatrix
from smellstab.stats.fitbase import FitResult, covariance_from_hessian, maximize
from smellstab.stats.glm import fit_poisson, negbin_objective
from smellstab.stats.glmm import _LaplaceObjective

_ETA_CAP = 30.0
_BETA_CAP = 30.0
_LOG_THETA_BOUNDS = (-6.0, 14.0)
_LOG_S2_BOUNDS = (-12.0, 8.0)


def fit_negbin_glm(design: DesignMatrix) -> FitResult:
    """NB2 GLM with log link; theta estimated jointly."""
    y, X = design.y, design.X
    n, p = X.shape
    start = fit_poisson(design)
    beta0 = start.beta if np.all(np.isfinite(start.beta)) else np.zeros(p)
    obj = negbin_objective(design.counts, X)
    m, v = float(y.mean()), float(y.var())
    theta0 = m * m / (v - m) if v > m and m > 0 else 10.0
    theta0 = float(np.clip(theta0, 1e-2, 1e4))
    bounds = [(-_BETA_CAP, _BETA_CAP)] * p + [(-6.0, 14.0)]
    out = maximize(obj, np.append(beta0, np.log(theta0)), bounds)
    log_theta = out.x[p]
    param_names = [*design.names, "log_theta"]
    beta = out.x[:p]
    theta = float(np.exp(log_theta))
    eta = np.clip(X @ beta, -_ETA_CAP, _ETA_CAP)
    mu = np.exp(eta)
    cov_full, _ = covariance_from_hessian(out.hessian, out.active)
    cov = cov_full[:p, :p]  # beta block of the full inverse (theta uncertainty included)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    cov_ok = bool(np.all(se[:p] > 0))
    return FitResult(
        model="nb_glm",
        names=list(design.names),
        beta=beta,
        se=se[:p],
        cov=cov,
        ll=out.ll,
        converged=out.converged and cov_ok and bool(y.sum() > 0),
        n_obs=n,
        mu_hat=mu,
        theta=theta,
        message=out.message,
        grad_norm=out.grad_norm,
        iterations=out.iterations,
        evaluations=out.evaluations,
        pinned=[name for name, pin in zip(param_names, out.active) if pin],
    )


def fit_negbin_random_intercept(design: DesignMatrix) -> FitResult:
    """Fit the NB2 random-intercept model; single-group designs fall back
    to the fixed-effect NB GLM with a warning."""
    if design.n_groups < 2:
        warnings.warn(
            "single project: falling back to fixed-intercept NB GLM", stacklevel=2
        )
        fit = fit_negbin_glm(design)
        fit.message = (fit.message + "; single-project fixed-intercept fallback").strip("; ")
        return fit
    y, X, groups = design.y, design.X, design.groups
    n, p = X.shape
    start = fit_poisson(design)
    beta0 = start.beta if np.all(np.isfinite(start.beta)) else np.zeros(p)
    m, v = float(y.mean()), float(y.var())
    theta0 = m * m / (v - m) if v > m and m > 0 else 10.0
    theta0 = float(np.clip(theta0, 1e-2, 1e4))
    x0 = np.concatenate([beta0, [np.log(theta0), np.log(0.1)]])
    bounds = [(-_BETA_CAP, _BETA_CAP)] * p + [_LOG_THETA_BOUNDS, _LOG_S2_BOUNDS]
    objective = _LaplaceObjective(design.counts, X, groups, design.n_groups)
    out = maximize(objective, x0, bounds)
    beta = out.x[:p]
    theta = float(np.exp(out.x[p]))
    sigma2 = float(np.exp(out.x[p + 1]))
    cov_full, _ = covariance_from_hessian(out.hessian, out.active)
    cov = cov_full[:p, :p]
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    cov_ok = bool(np.all(se > 0))
    u_sorted = objective.u
    eta = np.clip(X @ beta, -_ETA_CAP, _ETA_CAP) + u_sorted[np.asarray(groups, dtype=np.int64)]
    mu = np.exp(np.clip(eta, -_ETA_CAP, _ETA_CAP))
    return FitResult(
        model="nb_glmm",
        names=list(design.names),
        beta=beta,
        se=se,
        cov=cov,
        ll=out.ll,
        converged=out.converged and cov_ok and bool(y.sum() > 0),
        n_obs=n,
        mu_hat=mu,
        theta=theta,
        sigma2=sigma2,
        n_groups=design.n_groups,
        u_hat=u_sorted,
        message=out.message,
        grad_norm=out.grad_norm,
        iterations=out.iterations,
        evaluations=out.evaluations,
        pinned=[name for name, pin in zip([*design.names, "log_theta", "log_sigma2"], out.active) if pin],
    )
