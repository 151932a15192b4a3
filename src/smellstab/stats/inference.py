"""Wald tests, BH adjustment, effect sizes, fit quality, residual export.

The normal CDF is ``erfc``; its inverse is Wichura's algorithm AS 241
(PPND16, about 1e-16 relative).  The NB2 CDF that the quantile residuals
need (Dunn & Smyth 1996) is a regularized incomplete beta function,
evaluated as one continued fraction per row by the modified Lentz method,
all rows at once.
"""

from __future__ import annotations

import math

import numpy as np

from .design import BINARY, DesignMatrix
from .fitbase import FitResult
from .glm import ETA_CAP
from .kernels import Counts, as_counts

_SQRT_HALF = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# continued fractions: a row stops once a step changes its value by less than
# _CF_TOL relative; _CF_TINY stands in for a zero denominator
_CF_TOL = 1e-15
_CF_TINY = 1e-300
_CF_MAX_TERMS = 10_000


class InferenceError(ValueError):
    pass


def one_sided_p(fit: FitResult, iv: str, direction: int) -> float:
    """Normal tail probability of beta/se in the predicted direction."""
    k = fit.coef(iv)
    se = float(fit.se[k])
    if se <= 0 or not math.isfinite(se):
        return float("nan")
    z = float(fit.beta[k]) / se
    return normal_cdf(-z) if direction > 0 else normal_cdf(z)


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z * _SQRT_HALF)


# AS 241 (PPND16): rational approximations in r = 0.180625 - q^2 for |q| <= 0.425,
# q = p - 1/2, and in r = sqrt(-log(min(p, 1-p))) - 1.6 (r <= 5) or - 5 beyond
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3, 1.3731693765509461125e4,
     4.5921953931549871457e4, 6.7265770927008700853e4, 3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4, 5.2264952788528545610e3),
)
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0, 3.64784832476320460504e0,
     1.27045825245236838258e0, 2.41780725177450611770e-1, 2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4, 1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0, 2.96560571828504891230e-1,
     2.65321895265761230930e-2, 1.24266094738807843860e-3, 2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7, 2.04426310338993978564e-15),
)


def _rational(coeffs, r: np.ndarray) -> np.ndarray:
    num, den = (np.zeros(r.shape) for _ in coeffs)
    for a, b in zip(reversed(coeffs[0]), reversed(coeffs[1])):  # Horner, highest power first
        num = num * r + a
        den = den * r + b
    return num / den


def normal_quantile(p) -> np.ndarray:
    """Inverse standard normal CDF of each ``p`` in (0, 1), by AS 241."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    z = np.empty(p.shape)
    central = np.abs(q) <= 0.425
    qc = q[central]
    z[central] = qc * _rational(_AS241_CENTRAL, 0.180625 - qc * qc)
    tails = ~central
    r = np.sqrt(-np.log(np.minimum(p[tails], 1.0 - p[tails])))
    near = r <= 5.0
    zt = np.empty(r.shape)
    zt[near] = _rational(_AS241_NEAR, r[near] - 1.6)
    zt[~near] = _rational(_AS241_FAR, r[~near] - 5.0)
    z[tails] = np.where(q[tails] < 0.0, -zt, zt)
    return z


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
    return np.exp(np.clip(eta, -ETA_CAP, ETA_CAP))


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


def _continued_fraction(term, params: tuple[np.ndarray, ...]) -> np.ndarray:
    """``a1/(b1 + a2/(b2 + ...))`` per row, by the modified Lentz method.

    ``term(n, *params)`` gives ``a_n`` and ``b_n`` for the rows still
    iterating; ``params`` are per-row arrays, narrowed as rows converge.
    """
    size = params[0].size
    out = np.empty(size)
    rows = np.arange(size)
    value = np.full(size, _CF_TINY)
    c = value.copy()
    d = np.zeros(size)
    for n in range(1, _CF_MAX_TERMS + 1):
        if not rows.size:
            return out
        a, b = term(n, *params)
        d = b + a * d
        d[np.abs(d) < _CF_TINY] = _CF_TINY
        d = 1.0 / d
        c = b + a / c
        c[np.abs(c) < _CF_TINY] = _CF_TINY
        step = c * d
        value *= step
        done = np.abs(step - 1.0) <= _CF_TOL
        if done.any():
            out[rows[done]] = value[done]
            keep = ~done
            rows, value, c, d = rows[keep], value[keep], c[keep], d[keep]
            params = tuple(x[keep] for x in params)
    out[rows] = value
    return out


def _beta_term(n: int, a, b, x):
    """Terms of ``I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * 1/(1 + d1/(1 + d2/(1 + ...)))``."""
    if n == 1:
        return 1.0, 1.0
    m = n - 1
    k = m // 2
    if m % 2:
        num = -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1))
    else:
        num = k * (b - k) * x / ((a + 2 * k - 1) * (a + 2 * k))
    return num, 1.0


def _stirling_error(z: np.ndarray) -> np.ndarray:
    """``lgamma(z+1) - (z+1/2) log z + z - log sqrt(2 pi)``, which falls like 1/(12 z)."""
    out = np.empty(z.shape)
    small = z <= 15.0
    zs = z[small]
    out[small] = np.array([math.lgamma(v + 1.0) for v in zs.tolist()]) - (zs + 0.5) * np.log(zs) + zs - _LOG_SQRT_2PI
    zl = z[~small]
    w = 1.0 / (zl * zl)
    out[~small] = (1.0 / 12 - (1.0 / 360 - (1.0 / 1260 - (1.0 / 1680 - w / 1188) * w) * w) * w) / zl
    return out


def _deviance(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x log(x/m) + m - x``; where x is near m, by its series in ``v = (x-m)/(x+m)``."""
    out = x * np.log(x / m) + m - x
    near = np.flatnonzero(np.abs(x - m) < 0.1 * (x + m))
    xn, mn = x[near], m[near]
    v = (xn - mn) / (xn + mn)
    total = (xn - mn) * v
    term = 2.0 * xn * v
    for j in range(1, 40):  # |v| < 0.1: each term is at most 1/100 of the last
        term = term * (v * v)
        grown = total + term / (2 * j + 1)
        if np.array_equal(grown, total):
            break
        total = grown
    out[near] = total
    return out


def _log_pmf(counts: Counts, mu: np.ndarray, theta: float) -> np.ndarray:
    """Log-pmf of NB2(mu, theta) per row.

    Loader's (2000) saddle-point form: Stirling errors and deviances, each small
    where the pmf is not, so that a count near 1e5 keeps the pmf to about
    1e-14 relative where the sum of its log-gamma terms loses 1e-10.  The NB2
    pmf is ``theta/(theta+y)`` times the binomial pmf of ``theta`` in
    ``theta+y`` trials with success probability ``theta/(theta+mu)``.
    """
    y = counts.y
    out = -theta * np.log1p(mu / theta)
    some = np.flatnonzero(y >= 1)
    ys, ms = y[some], mu[some]
    positive = counts.levels >= 1
    stirling_y = np.zeros(counts.levels.size)
    stirling_y[positive] = _stirling_error(counts.levels[positive])
    stirling_y = stirling_y[counts.level_of_row[some]]
    stirling_n = _stirling_error(theta + counts.levels)[counts.level_of_row[some]]
    n = theta + ys
    out[some] = (
        stirling_n - _stirling_error(np.array([theta]))[0] - stirling_y
        - _deviance(np.full(some.size, theta), n * theta / (theta + ms))
        - _deviance(ys, n * ms / (theta + ms))
        + 0.5 * np.log(theta / (n * ys)) - _LOG_SQRT_2PI
    )
    return out


def count_cdf_bounds(y, mu: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """``P(Y < y)`` and ``P(Y = y)`` per row for NB2(mu, theta).

    ``y`` is a ``Counts`` or an array of counts.  ``P(Y < y)`` is
    ``I_p(theta, y)`` with ``p = theta/(theta+mu)``; each row evaluates the
    continued fraction of that function or of its complement, whichever
    converges fast at its argument.
    """
    counts = as_counts(y)
    y = counts.y
    mu = np.asarray(mu, dtype=float)
    theta = float(theta)
    pmf = np.exp(_log_pmf(counts, mu, theta))
    lower = np.zeros(y.size)
    some = np.flatnonzero(y >= 1)
    ys, ms, pmfs = y[some], mu[some], pmf[some]
    p, one_minus_p = theta / (theta + ms), ms / (theta + ms)
    # I_p(theta, y) where p < (theta+1)/(theta+y+2), else 1 - I_{1-p}(y, theta)
    small = p * (theta + ys + 2.0) < theta + 1.0
    direct = _continued_fraction(lambda n, b, x: _beta_term(n, theta, b, x), (ys[small], p[small]))
    complement = _continued_fraction(lambda n, a, x: _beta_term(n, a, theta, x), (ys[~small], one_minus_p[~small]))
    lower[some[small]] = ys[small] / theta * pmfs[small] * direct
    lower[some[~small]] = 1.0 - pmfs[~small] * complement
    return lower, pmf


def randomized_quantile_residuals(lower: np.ndarray, pmf: np.ndarray, seed: int) -> np.ndarray:
    """Quantile residuals (normal scores) of an NB2 fit for QQ export; plotting is external.

    ``lower`` and ``pmf`` are the fit's ``count_cdf_bounds``, which do not
    depend on the seed: each row's ``P(Y < y) + U * P(Y = y)``, ``U``
    uniform, goes through the normal quantile.
    """
    rng = np.random.default_rng(seed)
    u = lower + rng.uniform(size=lower.size) * np.maximum(pmf, 1e-12)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return normal_quantile(u)
