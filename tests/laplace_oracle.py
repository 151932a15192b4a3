"""The NB2 row kernels and the Laplace objective as they were before they
shared one set of row terms, kept as a bitwise test oracle.

``nb2_row_terms`` and ``nb2_row_curvature`` each computed ``mu``, ``q`` and
``y + theta`` for themselves, ``inner_modes`` computed ``y + theta`` on every
iteration, and ``_LaplaceObjective.__call__`` copied the eight group-summed
terms into its buffer one by one.  They are kept verbatim; ``LaplaceObjective``
is the program's objective with the old ``__call__``, so it shares the
program's constructor, buffer and warm-started modes.
"""

from __future__ import annotations

import numpy as np

from smellstab.stats import glmm
from smellstab.stats.glm import ETA_CAP
from smellstab.stats.kernels import _MAX_NEWTON, _STEP_CAP, _STEP_TOL, as_counts


def nb2_row_terms(y, eta, theta):
    """Per-row ll, a, b, c, lth, ath, bth; ``y`` is a ``Counts`` or an array of counts."""
    counts = as_counts(y)
    y = counts.y
    theta = float(theta)
    mu = np.exp(eta)
    q = theta + mu
    yt = y + theta
    log1p_mu_theta = np.log1p(mu / theta)  # log(q/th), exact where th >> mu
    ll = counts.log_rising(theta) - counts.log_factorial + y * eta - yt * log1p_mu_theta
    a = y - yt * mu / q
    b = yt * theta * mu / (q * q)
    c = -yt * theta * mu * (theta - mu) / (q * q * q)
    lth = counts.digamma_step(theta) - log1p_mu_theta + (mu - y) / q
    ath = -mu / q + yt * mu / (q * q)
    bth = (y + 2.0 * theta) * mu / (q * q) - 2.0 * yt * theta * mu / (q * q * q)
    return ll, a, b, c, lth, ath, bth


def nb2_row_curvature(y, eta, theta):
    """Per-row d, cth, lthth, athth, bthth; ``y`` is a ``Counts`` or an array of counts."""
    counts = as_counts(y)
    y = counts.y
    theta = float(theta)
    mu = np.exp(eta)
    q = theta + mu
    yt = y + theta
    r = mu / q
    s = r * (1.0 - r)
    quartic = 1.0 - 6.0 * r + 6.0 * r * r
    d = -yt * s * quartic
    cth = -s * (1.0 - 2.0 * r) + yt * quartic * r / q
    lthth = counts.trigamma_step(theta) + (mu * mu + theta * y) / (theta * q * q)
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


class LaplaceObjective(glmm._LaplaceObjective):
    """The program's Laplace objective, evaluated the old way."""

    def __call__(self, params: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        p, G, X = self.p, self.n_groups, self.X
        beta = params[:p]
        theta = float(np.exp(params[p]))
        s2 = float(np.exp(params[p + 1]))
        eta_fix = np.clip(X @ beta, -ETA_CAP, ETA_CAP)
        u = inner_modes(self.y, eta_fix, theta, s2, self.groups, self.u)
        self.u = u
        eta = eta_fix + u[self.groups]
        ll_row, a, b, c, lth, ath, bth = nb2_row_terms(self.counts, eta, theta)
        d, cth, lthth, athth, bthth = nb2_row_curvature(self.counts, eta, theta)
        XT, rows = self.XT, self._rows
        for i, values in enumerate((b, c, d, ath, bth, cth, athth, bthth)):
            rows[i] = values
        for i, values in enumerate((b, c, d)):
            np.multiply(XT, values, out=rows[8 + i * p : 8 + (i + 1) * p])
        sums = self._segsum(rows)
        B, C, D, ATH, BTH, CTH, ATHTH, BTHTH = sums[:8]
        BX, CX, DX = sums[8 : 8 + p].T, sums[8 + p : 8 + 2 * p].T, sums[8 + 2 * p :].T
        H = B + 1.0 / s2
        ll = float(
            ll_row.sum()
            - np.sum(u * u) / (2.0 * s2)
            - 0.5 * G * np.log(s2)
            - 0.5 * np.sum(np.log(H))
        )
        # per-group derivatives of g in phi = (beta, theta, s2), one row per group
        g_uphi = np.column_stack([-BX, ATH, u / (s2 * s2)])
        g_uuphi = np.column_stack([CX, -BTH, np.full(G, 1.0 / (s2 * s2))])
        g_uuuphi = np.column_stack([DX, CTH, np.zeros(G)])
        V = g_uphi / H[:, None]  # du/dphi
        dh = -(C[:, None] * V + g_uuphi)  # dh/dphi, with C = g_uuu
        grad = np.concatenate([XT @ a, [lth.sum(), np.sum(u * u) / (2.0 * s2 * s2) - G / (2.0 * s2)]])
        grad -= dh.T @ (0.5 / H)
        # Hessian in phi.  The g part is g_phiphi' + H V V'.  The -log(h)/2 part is
        # dh dh'/(2H^2) - d2h/(2H), with d2h = -D V V' - (V M' + M V') - C d2u - Q and
        # d2u = (C V V' + V K' + K V' + P)/H, where K = g_uuphi, M = g_uuuphi,
        # P = g_uphiphi' and Q = g_uuphiphi'.  g_phiphi', P and Q are sums over rows,
        # taken row by row with P weighted by w_p = C/(2H^2) and Q by w_q = 1/(2H);
        # the other terms are rank one per group.
        w_p, w_q = 0.5 * C / (H * H), 0.5 / H
        rows_p, rows_q = w_p[self.groups], w_q[self.groups]
        hess = np.zeros((p + 2, p + 2))
        hess[:p, :p] = np.multiply(XT, -b + rows_p * c + rows_q * d, out=rows[8 : 8 + p]) @ X
        hess[:p, p] = XT @ (ath - rows_p * bth + rows_q * cth)
        hess[p, p] = lthth.sum() + np.sum(w_p * ATHTH - w_q * BTHTH)
        hess[p + 1, p + 1] = (
            np.sum(-u * u - 2.0 * (u * w_p + w_q)) / s2**3 + G / (2.0 * s2 * s2)
        )
        hess[p, :p] = hess[:p, p]
        cross = (V.T * w_q) @ g_uuuphi + (V.T * w_p) @ g_uuphi
        hess += (V.T * (H + w_q * D + C * C / (2.0 * H * H))) @ V
        hess += cross + cross.T
        hess += (dh.T * (0.5 / (H * H))) @ dh
        # chain rule to (beta, log theta, log s2)
        jac = np.concatenate([np.ones(p), [theta, s2]])
        hess = hess * jac[:, None] * jac[None, :]
        hess[p, p] += theta * grad[p]
        hess[p + 1, p + 1] += s2 * grad[p + 1]
        return ll, grad * jac, hess
