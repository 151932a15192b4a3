"""Fixed-effect count GLMs: Poisson and NB2, by Newton with the exact Hessian.

All three models, the two GLMs here and the random-intercept GLMM of
``glmm``, go through one builder, ``_fit``, on the maximizer of ``fitbase``:
each supplies only its objective, its starting values and its own fields.
For the Poisson GLM's canonical log link the Newton step is the IRLS step
(McCullagh & Nelder, *Generalized Linear Models*, section 2.5).
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


def poisson_objective(counts: Counts, X: np.ndarray):
    """``obj(beta) -> (ll, grad, hess)`` of the Poisson GLM with log link."""

    def obj(beta):
        eta = np.clip(X @ beta, -ETA_CAP, ETA_CAP)
        mu = np.exp(eta)
        # X'(mu X) rather than (X' mu) X: with the row-major temporary, a cold stats run on
        # 8,000 rows peaked 0.3 MB lower
        return poisson_loglik(counts, eta), X.T @ (counts.y - mu), -(X.T @ (X * mu[:, None]))

    return obj


def fit_poisson(design: DesignMatrix) -> FitResult:
    """Maximum-likelihood Poisson regression, log link, no random effect.

    beta starts at the log mean on the intercept.  An all-zero response
    pins the intercept at -30, so the fit is flagged unconverged.
    """
    m = float(design.y.mean())
    beta0 = np.zeros(design.X.shape[1])
    beta0[0] = np.log(m) if m > 0 else -_BETA_CAP
    fit, _ = _fit(design, poisson_objective(design.counts, design.X), "poisson", beta0)
    fit.mu_hat = np.exp(np.clip(design.X @ fit.beta, -ETA_CAP, ETA_CAP))
    return fit


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


def _fit(design: DesignMatrix, objective, model: str, beta0: np.ndarray,
         extra=()) -> tuple[FitResult, np.ndarray]:
    """Maximize ``objective`` over ``(beta, *extra)`` from ``beta0`` and build the fit.

    ``objective(params) -> (ll, grad, hess)``; ``extra`` holds ``(name,
    initial value, bounds)`` for each parameter after beta.  The SEs come
    from the beta block of the inverse over all free parameters, so the
    uncertainty of the others is in them.  Returns the fit, whose ``mu_hat``
    and model-specific fields the caller sets, and the estimates of the
    ``extra`` parameters.
    """
    y, X = design.y, design.X
    n, p = X.shape
    names, starts, bounds = zip(*extra) if extra else ((), (), ())
    out = maximize(objective, np.concatenate([beta0, starts]), [(-_BETA_CAP, _BETA_CAP)] * p + list(bounds))
    cov = covariance_from_hessian(out.hessian, out.active)[:p, :p]
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    # reasons that make even a fit the maximizer converged on unusable
    reasons = [] if y.sum() > 0 else ["all-zero response"]
    zero_se = [name for name, s in zip(design.names, se) if not s > 0]
    if zero_se:
        reasons.append(f"zero standard error for {', '.join(zero_se)}")
    fit = FitResult(
        model=model,
        names=list(design.names),
        beta=out.x[:p],
        se=se,
        ll=out.ll,
        converged=out.converged and not reasons,
        n_obs=n,
        mu_hat=np.empty(0),
        message=out.message or "; ".join(reasons),
        grad_norm=out.grad_norm,
        iterations=out.iterations,
        evaluations=out.evaluations,
        pinned=[name for name, pin in zip([*design.names, *names], out.active) if pin],
    )
    return fit, out.x[p:]


def fit_nb2(design: DesignMatrix, objective, model: str, extra=(),
            start: FitResult | None = None) -> tuple[FitResult, np.ndarray]:
    """Fit an NB2 ``objective`` over ``(beta, log theta, *extra)`` with ``_fit``.

    beta starts at the Poisson GLM's, ``start`` when the caller has fitted
    it, and theta at its moment estimate.  Returns the fit, with ``theta``
    set, and the estimates of the ``extra`` parameters.
    """
    y = design.y
    start = fit_poisson(design) if start is None else start
    m, v = float(y.mean()), float(y.var())
    theta0 = m * m / (v - m) if v > m and m > 0 else 10.0
    theta0 = float(np.clip(theta0, 1e-2, 1e4))
    fit, rest = _fit(design, objective, model, start.beta,
                     [("log_theta", np.log(theta0), _LOG_THETA_BOUNDS), *extra])
    fit.theta = float(np.exp(rest[0]))
    return fit, rest[1:]


def fit_negbin_glm(design: DesignMatrix, start: FitResult | None = None) -> FitResult:
    """NB2 GLM with log link; theta estimated jointly.  ``start``: the design's Poisson fit, if made."""
    fit, _ = fit_nb2(design, negbin_objective(design.counts, design.X), "nb_glm", start=start)
    fit.mu_hat = np.exp(np.clip(design.X @ fit.beta, -ETA_CAP, ETA_CAP))
    return fit
