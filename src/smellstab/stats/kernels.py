"""Hot numeric kernels for the NB2 mixed-model likelihood.

Two kernels dominate fit runtime:

* ``nb2_row_terms`` -- per-row log-pmf value and its eta/theta derivatives,
* ``inner_modes``   -- per-group Newton solve for the Laplace mode of the
                       random intercept.

The NB2 log-pmf with log link, ``mu = exp(eta)``, ``q = theta + mu``::

    ll  = lgamma(y+th) - lgamma(th) - lgamma(y+1) + th*log th + y*eta - (y+th)*log q
    a   = dll/deta   = y - (y+th) mu/q
    b   = -d2ll/deta2 = (y+th) th mu / q^2           (> 0: concave)
    c   = d3ll/deta3 = -(y+th) th mu (th-mu) / q^3
    lth = dll/dth    = psi(y+th) - psi(th) + log th + 1 - log q - (y+th)/q
    ath = da/dth     = -mu/q + (y+th) mu/q^2
    bth = db/dth     = (y+2th) mu/q^2 - 2 (y+th) th mu/q^3
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma as _sp_digamma, gammaln as _sp_gammaln

_MAX_NEWTON = 100
_STEP_TOL = 1e-12
_STEP_CAP = 5.0


def nb2_row_terms(y, eta, theta):
    theta = float(theta)
    mu = np.exp(eta)
    q = theta + mu
    yt = y + theta
    ll = (
        _sp_gammaln(yt)
        - _sp_gammaln(theta)
        - _sp_gammaln(y + 1.0)
        + theta * math.log(theta)
        + y * eta
        - yt * np.log(q)
    )
    a = y - yt * mu / q
    b = yt * theta * mu / (q * q)
    c = -yt * theta * mu * (theta - mu) / (q * q * q)
    lth = _sp_digamma(yt) - _sp_digamma(theta) + math.log(theta) + 1.0 - np.log(q) - yt / q
    ath = -mu / q + yt * mu / (q * q)
    bth = (y + 2.0 * theta) * mu / (q * q) - 2.0 * yt * theta * mu / (q * q * q)
    return ll, a, b, c, lth, ath, bth


def inner_modes(y, eta_fix, theta, sigma2, groups, u0):
    """Laplace mode of the random intercept for every group.

    ``groups`` holds the per-row group code and ``u0`` the starting modes,
    one per group; each group's Newton iteration stops on its own.
    """
    theta, sigma2 = float(theta), float(sigma2)
    n_groups = u0.size
    u = u0.copy()
    active = np.ones(n_groups, dtype=bool)
    for _ in range(_MAX_NEWTON):
        eta = eta_fix + u[groups]
        mu = np.exp(eta)
        q = theta + mu
        yt = y + theta
        a = y - yt * mu / q
        b = yt * theta * mu / (q * q)
        ga = np.bincount(groups, weights=a, minlength=n_groups) - u / sigma2
        gb = np.bincount(groups, weights=b, minlength=n_groups) + 1.0 / sigma2
        step = np.clip(ga / gb, -_STEP_CAP, _STEP_CAP)
        step = np.where(active, step, 0.0)
        u = u + step
        active = np.abs(step) >= _STEP_TOL
        if not active.any():
            break
    return u
