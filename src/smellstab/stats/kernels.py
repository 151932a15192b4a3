"""Hot numeric kernels for the NB2 mixed-model likelihood.

Two kernels dominate fit runtime:

* ``nb2_row_terms`` -- per-row log-pmf value and every eta/theta derivative
                       the gradient and the exact Hessian need, from one
                       ``mu`` and ``q`` per call,
* ``inner_modes``   -- per-group Newton solve for the Laplace mode of the
                       random intercept.

The NB2 log-pmf with log link, ``mu = exp(eta)``, ``q = theta + mu``::

    ll  = lgamma(y+th) - lgamma(th) - lgamma(y+1) + y*eta - th*log(q/th) - y*log q
    a   = dll/deta   = y - (y+th) mu/q
    b   = -d2ll/deta2 = (y+th) th mu / q^2           (> 0: concave)
    c   = d3ll/deta3 = -(y+th) th mu (th-mu) / q^3
    lth = dll/dth    = psi(y+th) - psi(th) - log(q/th) + (mu-y)/q
    ath = da/dth     = -mu/q + (y+th) mu/q^2
    bth = db/dth     = (y+2th) mu/q^2 - 2 (y+th) th mu/q^3

With ``r = mu/q`` (so ``dr/deta = r(1-r)`` and ``dr/dth = -r/q``) and
``s = r(1-r)``, the curvature terms are::

    d     = dc/deta   = -(y+th) s (1 - 6r + 6r^2)
    cth   = dc/dth    = -s (1-2r) + (y+th) (1 - 6r + 6r^2) r/q
    lthth = d2ll/dth2 = psi1(y+th) - psi1(th) + (mu^2 + th y)/(th q^2)
    athth = d2a/dth2  = 2 r (mu - y)/q^2
    bthth = d2b/dth2  = -2 r (1-2r)/q + 2 (y+th) r (1-3r)/q^2

(``psi`` is the digamma and ``psi1`` the trigamma function).  The gamma
functions enter only as differences between ``y+th`` and ``th`` at a whole
count ``y``, which are finite sums over ``j < y`` (``Counts``)::

    lgamma(y+th) - lgamma(th) = y log th + sum log1p(j/th)
    psi(y+th)    - psi(th)    = sum 1/(th+j)
    psi1(y+th)   - psi1(th)   = -sum 1/(th+j)^2

``log(q/th)`` is taken as ``log1p(mu/th)``, so ``ll`` is
``sum log1p(j/th) - lgamma(y+1) + y*eta - (th+y) log1p(mu/th)``: no two large
terms cancel, where at th near its upper bound e^14 the textbook form loses
about 1e-8 of ``ll`` to rounding, more than a Newton step near the optimum
gains.  ``lgamma(y+1)`` is a constant of the response.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_NEWTON = 100
_STEP_TOL = 1e-12
_STEP_CAP = 5.0


class Counts:
    """A count response and its per-row constants, computed once.

    ``levels`` are the distinct counts, ``level_of_row`` maps each row to its
    level and ``log_factorial`` holds ``lgamma(y+1)`` per row.  The sums over
    ``j < y`` that stand in for the gamma-function differences are taken for
    every ``j`` below the largest count, summed level to level, and read
    back per row.
    """

    __slots__ = ("y", "levels", "level_of_row", "log_factorial", "_level_log_factorial", "_j", "_starts",
                 "_positive")

    def __init__(self, y):
        y = np.asarray(y, dtype=float)
        levels, level_of_row = np.unique(y, return_inverse=True)
        if levels.size and not (levels[0] >= 0 and np.isfinite(levels[-1]) and np.all(levels == np.floor(levels))):
            raise ValueError("counts must be non-negative whole numbers")
        self._index(y, levels, level_of_row, np.array([math.lgamma(v + 1.0) for v in levels.tolist()]))

    def _index(self, y, levels, level_of_row, level_log_factorial) -> None:
        self.y = y
        self.levels = levels
        self.level_of_row = level_of_row
        self._level_log_factorial = level_log_factorial
        self.log_factorial = level_log_factorial[level_of_row]
        self._j = np.arange(int(levels[-1]) if levels.size else 0, dtype=float)
        self._positive = levels > 0
        positive = levels[self._positive].astype(np.int64)
        # segment k sums j from one positive level up to the next (the first from 0)
        self._starts = np.concatenate([[0], positive[:-1]]) if positive.size else positive

    def take(self, order: np.ndarray) -> "Counts":
        """The same counts with the rows in ``order``; the levels are shared."""
        out = Counts.__new__(Counts)
        out._index(self.y[order], self.levels, self.level_of_row[order], self._level_log_factorial)
        return out

    def _per_row(self, terms: np.ndarray) -> np.ndarray:
        """``sum(terms[:y])`` for every row, with ``terms`` given for ``j`` below the largest count."""
        sums = np.zeros(self.levels.size)
        if self._starts.size:
            sums[self._positive] = np.cumsum(np.add.reduceat(terms, self._starts))
        return sums[self.level_of_row]

    def log_rising(self, theta: float) -> np.ndarray:
        """``lgamma(y+theta) - lgamma(theta) - y log theta`` per row."""
        return self._per_row(np.log1p(self._j / theta))

    def digamma_step(self, theta: float) -> np.ndarray:
        """``psi(y+theta) - psi(theta)`` per row."""
        return self._per_row(1.0 / (theta + self._j))

    def trigamma_step(self, theta: float) -> np.ndarray:
        """``psi1(y+theta) - psi1(theta)`` per row."""
        inv = 1.0 / (theta + self._j)
        return -self._per_row(inv * inv)


def as_counts(y) -> Counts:
    return y if isinstance(y, Counts) else Counts(y)


def nb2_row_terms(y, eta, theta, out=None):
    """Per-row NB2 terms: ``(ll, a, lth, lthth, rows)``, with ``rows`` = b, c, d, ath, bth, cth, athth, bthth.

    ``rows`` is an ``(8, n)`` array, ``out`` when given; ``y`` is a ``Counts``
    or an array of counts.  Each term takes the same rounded operations, in the
    same order, as its formula above, so sharing ``mu``, ``q`` and the other
    parts between terms changes no bit of any.
    """
    counts = as_counts(y)
    y = counts.y
    theta = float(theta)
    rows = np.empty((8, y.size)) if out is None else out
    b, c, d, ath, bth, cth, athth, bthth = rows
    mu = np.exp(eta)
    q = theta + mu
    q2 = q * q
    q3 = q2 * q
    yt = y + theta
    yt_mu = yt * mu
    yt_theta_mu = yt * theta * mu
    mu_y = mu - y
    log1p_mu_theta = np.log1p(mu / theta)  # log(q/th), exact where th >> mu
    ll = counts.log_rising(theta) - counts.log_factorial + y * eta - yt * log1p_mu_theta
    a = y - yt_mu / q
    np.divide(yt_theta_mu, q2, out=b)
    np.divide(yt_theta_mu * (theta - mu), q3, out=c)
    np.negative(c, out=c)
    lth = counts.digamma_step(theta) - log1p_mu_theta + mu_y / q
    r = mu / q
    np.subtract(yt_mu / q2, r, out=ath)
    np.subtract((y + 2.0 * theta) * mu / q2, 2.0 * yt_theta_mu / q3, out=bth)
    r2, r6 = 2.0 * r, 6.0 * r
    one_2r = 1.0 - r2
    s = r * (1.0 - r)
    quartic = 1.0 - r6 + r6 * r
    np.multiply(yt * s, quartic, out=d)
    np.negative(d, out=d)
    np.subtract(yt * quartic * r / q, s * one_2r, out=cth)
    lthth = counts.trigamma_step(theta) + (mu * mu + theta * y) / (theta * q * q)
    np.divide(r2 * mu_y, q2, out=athth)
    np.subtract(yt * r2 * (1.0 - 3.0 * r) / q2, r2 * one_2r / q, out=bthth)
    return ll, a, lth, lthth, rows


def inner_modes(y, eta_fix, theta, sigma2, groups, u0):
    """Laplace mode of the random intercept for every group.

    ``groups`` holds the per-row group code and ``u0`` the starting modes,
    one per group; each group's Newton iteration stops on its own.
    """
    theta, sigma2 = float(theta), float(sigma2)
    n_groups = u0.size
    u = u0.copy()
    active = np.ones(n_groups, dtype=bool)
    yt = y + theta
    yt_theta = yt * theta
    for _ in range(_MAX_NEWTON):
        eta = eta_fix + u[groups]
        mu = np.exp(eta)
        q = theta + mu
        a = y - yt * mu / q
        b = yt_theta * mu / (q * q)
        ga = np.bincount(groups, weights=a, minlength=n_groups) - u / sigma2
        gb = np.bincount(groups, weights=b, minlength=n_groups) + 1.0 / sigma2
        step = np.clip(ga / gb, -_STEP_CAP, _STEP_CAP)
        step = np.where(active, step, 0.0)
        u = u + step
        active = np.abs(step) >= _STEP_TOL
        if not active.any():
            break
    return u
