"""Fixed-effect count GLMs: Poisson via IRLS, NB2 via Newton with the exact Hessian.

``fit_nb2`` fits both NB2 models, the GLM here and the random-intercept GLMM
of ``glmm``: each supplies only its objective and its own fields.
"""

from __future__ import annotations

import numpy as np

from .design import DesignMatrix
from .fitbase import FitResult, covariance_from_hessian, maximize
from .kernels import Counts, as_counts, nb2_row_terms

ETA_CAP = 30.0  # |eta| bound of every log link
_BETA_CAP = 30.0
_LOG_THETA_BOUNDS = (-6.0, 14.0)


class DispersionError(ValueError):
    pass


def poisson_loglik(counts: Counts, eta: np.ndarray) -> float:
    return float(np.sum(counts.y * eta - np.exp(eta) - counts.log_factorial))


def fit_poisson(design: DesignMatrix) -> FitResult:
    """Maximum-likelihood Poisson regression, log link, no random effect.

    Iteratively reweighted least squares; divergence (e.g. an all-zero
    response pushing the intercept to -inf) flags the fit unconverged
    instead of raising.
    """
    y, X = design.y, design.X
    n, p = X.shape
    beta = np.zeros(p)
    beta[0] = np.log(y.mean() + 1e-8) if y.mean() > 0 else -_BETA_CAP
    ll_old = -np.inf
    converged = False
    message = ""
    for _ in range(200):
        eta = np.clip(X @ beta, -ETA_CAP, ETA_CAP)
        mu = np.exp(eta)
        W = mu
        z = eta + (y - mu) / np.maximum(mu, 1e-12)
        XtW = X.T * W
        try:
            beta_new = np.linalg.solve(XtW @ X, XtW @ z)
        except np.linalg.LinAlgError:
            message = "singular weighted design"
            break
        if not np.all(np.isfinite(beta_new)) or np.max(np.abs(beta_new)) > _BETA_CAP:
            beta = np.clip(beta_new, -_BETA_CAP, _BETA_CAP)
            message = "diverging coefficients"
            break
        beta = beta_new
        ll = poisson_loglik(design.counts, np.clip(X @ beta, -ETA_CAP, ETA_CAP))
        if abs(ll - ll_old) < 1e-10 * (1.0 + abs(ll)):
            converged = True
            break
        ll_old = ll
    eta = np.clip(X @ beta, -ETA_CAP, ETA_CAP)
    mu = np.exp(eta)
    info = (X.T * mu) @ X
    cov, cov_ok = covariance_from_hessian(info)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(
        model="poisson",
        names=list(design.names),
        beta=beta,
        se=se,
        cov=cov,
        ll=poisson_loglik(design.counts, eta),
        converged=converged and cov_ok,
        n_obs=n,
        mu_hat=mu,
        message=message,
        grad_norm=float(np.max(np.abs(X.T @ (y - mu)))),
    )


def dispersion_statistic(fit: FitResult, design: DesignMatrix) -> float:
    """Pearson chi-square over residual degrees of freedom."""
    y = design.y
    mu = fit.mu_hat
    pearson = float(np.sum((y - mu) ** 2 / np.maximum(mu, 1e-12)))
    df = design.y.size - design.X.shape[1]
    if df <= 0:
        raise DispersionError(f"non-positive residual degrees of freedom: {df}")
    return pearson / df


def negbin_objective(y, X: np.ndarray):
    """``obj(params) -> (ll, grad, hess)`` of the NB2 GLM in ``params = (beta, log theta)``.

    ``y`` is a ``Counts`` or an array of counts.
    """
    p = X.shape[1]
    counts = as_counts(y)

    def obj(params):
        beta = params[:p]
        theta = float(np.exp(params[p]))
        eta = np.clip(X @ beta, -ETA_CAP, ETA_CAP)
        ll, a, lth, lthth, (b, _c, _d, ath, *_) = nb2_row_terms(counts, eta, theta)
        grad_log_theta = theta * float(lth.sum())
        hess = np.empty((p + 1, p + 1))
        hess[:p, :p] = -(X.T * b) @ X
        hess[:p, p] = hess[p, :p] = theta * (X.T @ ath)
        hess[p, p] = theta * theta * float(lthth.sum()) + grad_log_theta
        return float(ll.sum()), np.append(X.T @ a, grad_log_theta), hess

    return obj


def fit_nb2(design: DesignMatrix, objective, model: str, extra=(),
            start: FitResult | None = None) -> tuple[FitResult, np.ndarray]:
    """Maximize an NB2 ``objective`` over ``(beta, log theta, *extra)`` and build the fit.

    ``objective(params) -> (ll, grad, hess)``; ``extra`` holds ``(name,
    initial value, bounds)`` for each parameter after log theta.  beta starts
    at the Poisson GLM's, ``start`` when the caller has fitted it, and theta
    at its moment estimate.  The SEs come from the beta block of the inverse
    over all free parameters, so theta's uncertainty is in them.  Returns the
    fit, whose ``mu_hat`` and model-specific fields the caller sets, and the
    estimates of the ``extra`` parameters.
    """
    y, X = design.y, design.X
    n, p = X.shape
    start = fit_poisson(design) if start is None else start
    beta0 = start.beta if np.all(np.isfinite(start.beta)) else np.zeros(p)
    m, v = float(y.mean()), float(y.var())
    theta0 = m * m / (v - m) if v > m and m > 0 else 10.0
    theta0 = float(np.clip(theta0, 1e-2, 1e4))
    names, starts, bounds = zip(*extra) if extra else ((), (), ())
    x0 = np.concatenate([beta0, [np.log(theta0), *starts]])
    out = maximize(objective, x0, [(-_BETA_CAP, _BETA_CAP)] * p + [_LOG_THETA_BOUNDS, *bounds])
    cov = covariance_from_hessian(out.hessian, out.active)[0][:p, :p]
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    fit = FitResult(
        model=model,
        names=list(design.names),
        beta=out.x[:p],
        se=se,
        cov=cov,
        ll=out.ll,
        converged=out.converged and bool(np.all(se > 0)) and bool(y.sum() > 0),
        n_obs=n,
        mu_hat=np.empty(0),
        theta=float(np.exp(out.x[p])),
        message=out.message,
        grad_norm=out.grad_norm,
        iterations=out.iterations,
        evaluations=out.evaluations,
        pinned=[name for name, pin in zip([*design.names, "log_theta", *names], out.active) if pin],
    )
    return fit, out.x[p + 1:]


def fit_negbin_glm(design: DesignMatrix, start: FitResult | None = None) -> FitResult:
    """NB2 GLM with log link; theta estimated jointly.  ``start``: the design's Poisson fit, if made."""
    fit, _ = fit_nb2(design, negbin_objective(design.counts, design.X), "nb_glm", start=start)
    fit.mu_hat = np.exp(np.clip(design.X @ fit.beta, -ETA_CAP, ETA_CAP))
    return fit
