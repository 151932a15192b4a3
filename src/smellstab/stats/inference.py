"""Wald tests, BH adjustment, effect sizes, fit quality, residual export."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, ndtr, ndtri, pdtr

from .design import BINARY, DesignMatrix
from .fitbase import FitResult

_ETA_CAP = 30.0


class InferenceError(ValueError):
    pass


def one_sided_p(fit: FitResult, iv: str, direction: int) -> float:
    """Normal tail probability of beta/se in the predicted direction."""
    k = fit.coef(iv)
    se = float(fit.se[k])
    if se <= 0 or not math.isfinite(se):
        return float("nan")
    z = float(fit.beta[k]) / se
    return float(ndtr(-z)) if direction > 0 else float(ndtr(z))


def bh_adjust(p_values) -> np.ndarray:
    """Benjamini-Hochberg step-up adjustment, returned in input order.

    adj_(i) = min_{j >= i} (m * p_(j) / j), capped at 1.
    """
    p = np.asarray(p_values, dtype=float)
    if p.size == 0:
        raise InferenceError("empty p-value family")
    if np.any(p < 0) or np.any(p > 1) or np.any(~np.isfinite(p)):
        raise InferenceError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
    adjusted = np.minimum(adjusted, 1.0)
    out = np.empty(m)
    out[order] = adjusted
    return out


def predict_mu(fit: FitResult, design: DesignMatrix, X: np.ndarray | None = None) -> np.ndarray:
    """Fitted means, conditional on the estimated random intercepts."""
    X = design.X if X is None else X
    eta = X @ fit.beta
    if fit.u_hat is not None:
        eta = eta + fit.u_hat[design.groups]
    return np.exp(np.clip(eta, -_ETA_CAP, _ETA_CAP))


def effect_sizes(fit: FitResult, design: DesignMatrix, iv: str) -> tuple[float, float]:
    """(IRR, AME) for the IV.

    IRR = exp(beta), exactly.  AME: binary IVs use the discrete difference of
    mean predictions at x=1 vs x=0; continuous (log1p-transformed count) IVs
    use the derivative form beta * mean(mu).
    """
    k = fit.coef(iv)
    beta_k = float(fit.beta[k])
    irr = math.exp(beta_k)
    if iv in BINARY:
        X1 = design.X.copy()
        X0 = design.X.copy()
        X1[:, k] = 1.0
        X0[:, k] = 0.0
        ame = float(np.mean(predict_mu(fit, design, X1) - predict_mu(fit, design, X0)))
    else:
        ame = beta_k * float(np.mean(predict_mu(fit, design)))
    return irr, ame


def fit_quality(ll_full: float, ll_null: float) -> tuple[float, float]:
    """(log-likelihood, McFadden pseudo-R^2 = 1 - LL_full/LL_null)."""
    if ll_null == 0:
        raise InferenceError("null log-likelihood is zero")
    r2 = 1.0 - ll_full / ll_null
    if -1e-9 < r2 < 0.0:
        r2 = 0.0  # numerical round-off on near-identical likelihoods
    return ll_full, r2


def randomized_quantile_residuals(
    y: np.ndarray, mu: np.ndarray, theta: float | None, seed: int
) -> np.ndarray:
    """Quantile residuals (normal scores) for QQ export; plotting is external."""
    rng = np.random.default_rng(seed)
    y = np.asarray(y)
    if theta is None:
        upper = pdtr(y, mu)
        lower = np.where(y >= 1, pdtr(y - 1, mu), 0.0)
    else:
        p = theta / (theta + mu)
        upper = betainc(theta, y + 1, p)
        lower = np.where(y >= 1, betainc(theta, y, p), 0.0)
    u = lower + rng.uniform(size=y.size) * np.maximum(upper - lower, 1e-12)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return ndtri(u)
