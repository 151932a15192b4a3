"""NB2 GLMM with a per-project random intercept, Laplace approximation.

Marginal log-likelihood per group j (mode u_j, curvature H_j):

    g_j(u)  = sum_i ll_i(eta_i + u) - u^2/(2 s2)
    H_j     = sum_i b_i + 1/s2            (b = -d2 ll/d eta2 > 0)
    logL_j  = g_j(u_j) - log(s2)/2 - log(H_j)/2     (2*pi terms cancel)

Gradient and Hessian are exact in phi = (beta, theta, s2), then chained to
(beta, log theta, log s2), the parameters the Newton maximizer in ``fitbase``
maximizes.  Both differentiate through the mode by the implicit function
theorem: du/dphi = g_uphi/H.  By the envelope theorem the g part has
gradient g_phi and Hessian g_phiphi' + g_uphi g_uphi'/H (a Schur
complement).  The -log(H)/2 part needs the total first and second
derivatives of h(phi) = H(u(phi), phi), which bring in the second
derivatives of the mode and the per-row NB2 derivatives up to d4/deta4
(``kernels.nb2_row_curvature``).
"""

from __future__ import annotations

import warnings

import numpy as np

from .design import DesignMatrix
from .fitbase import FitResult
from .glm import ETA_CAP, fit_nb2, fit_negbin_glm
from .kernels import as_counts, inner_modes, nb2_row_curvature, nb2_row_terms

_LOG_S2_BOUNDS = (-12.0, 8.0)


class _LaplaceObjective:
    """Laplace marginal LL, gradient and Hessian; warm-starts the inner modes.

    ``y`` is a ``Counts`` or an array of counts.
    """

    def __init__(self, y, X, groups, n_groups):
        order = np.argsort(groups, kind="stable")
        self.counts = as_counts(y).take(order)
        self.y = self.counts.y
        self.X = np.asarray(X, dtype=float)[order]
        self.XT = np.ascontiguousarray(self.X.T)
        self.groups = np.asarray(groups, dtype=np.int64)[order]
        self.n_groups = int(n_groups)
        self.u = np.zeros(self.n_groups)
        self.p = self.X.shape[1]
        sizes = np.bincount(self.groups, minlength=self.n_groups)
        self._filled = sizes > 0
        self._starts = (np.cumsum(sizes) - sizes)[self._filled]
        # one reused buffer for the per-row terms summed by group: fresh arrays of
        # this size cost a page-mapping round trip on every call
        self._rows = np.empty((8 + 3 * self.p, self.y.size))

    def _segsum(self, values: np.ndarray) -> np.ndarray:
        """Per-group sums along the last (row) axis; rows are sorted by group."""
        out = np.zeros(values.shape[:-1] + (self.n_groups,))
        out[..., self._filled] = np.add.reduceat(values, self._starts, axis=-1)
        return out

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


def fit_negbin_random_intercept(design: DesignMatrix) -> FitResult:
    """Fit the NB2 random-intercept model; single-group designs fall back
    to the fixed-effect NB GLM with a warning."""
    if design.n_groups < 2:
        warnings.warn(
            "single project: falling back to fixed-intercept NB GLM", stacklevel=2
        )
        fit = fit_negbin_glm(design)
        fit.message = (fit.message + "; single-project fixed-intercept fallback").strip("; ")
        return fit
    objective = _LaplaceObjective(design.counts, design.X, design.groups, design.n_groups)
    fit, (log_sigma2,) = fit_nb2(design, objective, "nb_glmm", [("log_sigma2", np.log(0.1), _LOG_S2_BOUNDS)])
    eta = np.clip(design.X @ fit.beta, -ETA_CAP, ETA_CAP) + objective.u[design.groups]
    fit.mu_hat = np.exp(np.clip(eta, -ETA_CAP, ETA_CAP))
    fit.sigma2 = float(np.exp(log_sigma2))
    fit.n_groups = design.n_groups
    fit.u_hat = objective.u
    return fit
