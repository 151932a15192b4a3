"""The Poisson GLM as it was fitted before it shared the Newton maximizer,
kept as a test oracle.

Iteratively reweighted least squares, with its own convergence rule (the
log-likelihood changes by less than 1e-10 relative), its own divergence
handling and its own covariance.  ``fit_poisson`` is kept verbatim but for
the covariance, which it inverts with its own copy of the old
``covariance_from_hessian`` (no bound-pinned parameters, and an ``ok`` flag),
and the ``cov`` field that ``FitResult`` no longer has.  The log-likelihood
is the program's ``poisson_loglik``.
"""

from __future__ import annotations

import numpy as np

from smellstab.stats.design import DesignMatrix
from smellstab.stats.fitbase import FitResult
from smellstab.stats.glm import ETA_CAP, poisson_loglik

_BETA_CAP = 30.0


def _covariance(info: np.ndarray) -> tuple[np.ndarray, bool]:
    """Inverse of the information, and whether every variance in it is positive."""
    try:
        cov = np.linalg.inv(info)
        return cov, bool(np.all(np.diag(cov) > 0))
    except np.linalg.LinAlgError:
        return np.linalg.pinv(info), False


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
    cov, cov_ok = _covariance(info)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(
        model="poisson",
        names=list(design.names),
        beta=beta,
        se=se,
        ll=poisson_loglik(design.counts, eta),
        converged=converged and cov_ok,
        n_obs=n,
        mu_hat=mu,
        message=message,
        grad_norm=float(np.max(np.abs(X.T @ (y - mu)))),
    )
