"""Hot numeric kernels for the NB2 mixed-model likelihood.

Three kernels dominate fit runtime:

* ``nb2_row_terms``     -- per-row log-pmf value and the eta/theta
                           derivatives the gradient needs,
* ``nb2_row_curvature`` -- the higher derivatives the exact Hessian adds,
* ``inner_modes``       -- per-group Newton solve for the Laplace mode of
                           the random intercept.

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

(``psi1`` is the trigamma function).  ``log(q/th)`` is taken as
``log1p(mu/th)``, and the terms of ``ll``, ``lth`` and ``lthth`` are grouped
so that no two large terms cancel: at th near its upper bound e^14 the
textbook forms lose about 1e-8 of ``ll`` to rounding, more than a Newton
step near the optimum gains.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma as _sp_digamma, gammaln as _sp_gammaln, polygamma as _sp_polygamma

_MAX_NEWTON = 100
_STEP_TOL = 1e-12
_STEP_CAP = 5.0


def nb2_row_terms(y, eta, theta):
    theta = float(theta)
    mu = np.exp(eta)
    q = theta + mu
    yt = y + theta
    log1p_mu_theta = np.log1p(mu / theta)  # log(q/th), exact where th >> mu
    ll = (
        _sp_gammaln(yt)
        - _sp_gammaln(theta)
        - _sp_gammaln(y + 1.0)
        + y * eta
        - theta * log1p_mu_theta
        - y * np.log(q)
    )
    a = y - yt * mu / q
    b = yt * theta * mu / (q * q)
    c = -yt * theta * mu * (theta - mu) / (q * q * q)
    lth = _sp_digamma(yt) - _sp_digamma(theta) - log1p_mu_theta + (mu - y) / q
    ath = -mu / q + yt * mu / (q * q)
    bth = (y + 2.0 * theta) * mu / (q * q) - 2.0 * yt * theta * mu / (q * q * q)
    return ll, a, b, c, lth, ath, bth


def nb2_row_curvature(y, eta, theta):
    theta = float(theta)
    mu = np.exp(eta)
    q = theta + mu
    yt = y + theta
    r = mu / q
    s = r * (1.0 - r)
    quartic = 1.0 - 6.0 * r + 6.0 * r * r
    d = -yt * s * quartic
    cth = -s * (1.0 - 2.0 * r) + yt * quartic * r / q
    # trigamma is costly per element; counts take few distinct values
    levels, level_of_row = np.unique(y, return_inverse=True)
    trigamma_yt = _sp_polygamma(1, levels + theta)[level_of_row]
    lthth = trigamma_yt - float(_sp_polygamma(1, theta)) + (mu * mu + theta * y) / (theta * q * q)
    athth = 2.0 * r * (mu - y) / (q * q)
    bthth = -2.0 * r * (1.0 - 2.0 * r) / q + 2.0 * yt * r * (1.0 - 3.0 * r) / (q * q)
    return d, cth, lthth, athth, bthth


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
