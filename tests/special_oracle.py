"""The ``scipy.special`` code that the numpy-only special functions replaced,
kept as a test oracle.

The NB2 row terms took ``lgamma``, ``digamma`` and ``trigamma`` at ``y+theta``
and ``theta`` and subtracted; the Poisson log-likelihood took ``gammaln(y+1)``
on every call; the quantile residuals took the NB2 CDF from ``betainc``
and the normal scores from ``ndtri``; the Wald p-value
was ``ndtr``.  ``scipy_special()`` routes the fits, the p-values and the
residual export (the bounds a suite stores when saved and the draw from
them) through these until the block closes.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
from scipy.special import betainc, digamma, gammaln, ndtr, ndtri, polygamma

from smellstab.stats import glm, glmm, inference, suite


def _y(y) -> np.ndarray:
    return np.asarray(getattr(y, "y", y), dtype=float)  # a ``Counts`` or an array


def nb2_row_terms(y, eta, theta):
    y = _y(y)
    theta = float(theta)
    mu = np.exp(eta)
    q = theta + mu
    yt = y + theta
    log1p_mu_theta = np.log1p(mu / theta)
    ll = gammaln(yt) - gammaln(theta) - gammaln(y + 1.0) + y * eta - theta * log1p_mu_theta - y * np.log(q)
    a = y - yt * mu / q
    b = yt * theta * mu / (q * q)
    c = -yt * theta * mu * (theta - mu) / (q * q * q)
    lth = digamma(yt) - digamma(theta) - log1p_mu_theta + (mu - y) / q
    ath = -mu / q + yt * mu / (q * q)
    bth = (y + 2.0 * theta) * mu / (q * q) - 2.0 * yt * theta * mu / (q * q * q)
    return ll, a, b, c, lth, ath, bth


def nb2_row_curvature(y, eta, theta):
    y = _y(y)
    theta = float(theta)
    mu = np.exp(eta)
    q = theta + mu
    yt = y + theta
    r = mu / q
    s = r * (1.0 - r)
    quartic = 1.0 - 6.0 * r + 6.0 * r * r
    d = -yt * s * quartic
    cth = -s * (1.0 - 2.0 * r) + yt * quartic * r / q
    lthth = polygamma(1, yt) - float(polygamma(1, theta)) + (mu * mu + theta * y) / (theta * q * q)
    athth = 2.0 * r * (mu - y) / (q * q)
    bthth = -2.0 * r * (1.0 - 2.0 * r) / q + 2.0 * yt * r * (1.0 - 3.0 * r) / (q * q)
    return d, cth, lthth, athth, bthth


def row_terms(y, eta, theta, out=None):
    """The two above in the layout of the program's ``nb2_row_terms``: ``(ll, a, lth, lthth, rows)``."""
    ll, a, b, c, lth, ath, bth = nb2_row_terms(y, eta, theta)
    d, cth, lthth, athth, bthth = nb2_row_curvature(y, eta, theta)
    rows = np.empty((8, a.size)) if out is None else out
    rows[:] = b, c, d, ath, bth, cth, athth, bthth
    return ll, a, lth, lthth, rows


def poisson_loglik(y, eta) -> float:
    y = _y(y)
    return float(np.sum(y * eta - np.exp(eta) - gammaln(y + 1.0)))


def cdf_bounds(y, mu, theta):
    """``P(Y < y)`` and ``P(Y <= y)`` of NB2(mu, theta)."""
    y = _y(y)
    p = theta / (theta + mu)
    return np.where(y >= 1, betainc(theta, np.maximum(y, 1), p), 0.0), betainc(theta, y + 1, p)


def count_cdf_bounds(y, mu, theta):
    """``P(Y < y)`` and ``P(Y = y)``, the halves the residual draw takes."""
    lower, upper = cdf_bounds(y, mu, theta)
    return lower, upper - lower


def randomized_quantile_residuals(lower, pmf, seed):
    rng = np.random.default_rng(seed)
    u = lower + rng.uniform(size=lower.size) * np.maximum(pmf, 1e-12)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return ndtri(u)


def normal_cdf(z: float) -> float:
    return float(ndtr(z))


@contextmanager
def scipy_special():
    """Run every fit, p-value and residual export on the scipy path while the block is open."""
    with ExitStack() as stack:
        for module, name, value in (
            (glm, "nb2_row_terms", row_terms),
            (glm, "poisson_loglik", poisson_loglik),
            (glmm, "nb2_row_terms", row_terms),
            (inference, "normal_cdf", normal_cdf),
            (suite, "count_cdf_bounds", count_cdf_bounds),
            (suite, "randomized_quantile_residuals", randomized_quantile_residuals),
        ):
            stack.enter_context(mock.patch.object(module, name, value))
        yield
