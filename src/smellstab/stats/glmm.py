"""NB2 GLMM with a per-project random intercept, Laplace approximation.

Marginal log-likelihood per group j (mode u_j, curvature H_j):

    g_j(u)  = sum_i ll_i(eta_i + u) - u^2/(2 s2)
    H_j     = sum_i b_i + 1/s2            (b = -d2 ll/d eta2 > 0)
    logL_j  = g_j(u_j) - log(s2)/2 - log(H_j)/2     (2*pi terms cancel)

The analytic gradient differentiates through the mode via the implicit
function theorem; the envelope theorem removes the direct u-dependence of
g, leaving only the -log(H)/2 correction terms (third derivatives).
Parameters are (beta, log theta, log sigma2), maximized quasi-Newton.
"""

from __future__ import annotations

import warnings

import numpy as np

from .design import DesignMatrix
from .fitbase import FitResult, covariance_from_hessian, maximize
from .glm import fit_negbin_glm, fit_poisson
from .kernels import inner_modes, nb2_row_terms

_ETA_CAP = 30.0
_BETA_CAP = 30.0
_LOG_THETA_BOUNDS = (-6.0, 14.0)
_LOG_S2_BOUNDS = (-12.0, 8.0)


class _LaplaceObjective:
    """Laplace marginal LL and gradient; warm-starts the inner modes."""

    def __init__(self, y, X, groups, n_groups):
        order = np.argsort(groups, kind="stable")
        self.y = np.asarray(y, dtype=float)[order]
        self.X = np.asarray(X, dtype=float)[order]
        self.groups = np.asarray(groups, dtype=np.int64)[order]
        self.n_groups = int(n_groups)
        self.u = np.zeros(self.n_groups)
        self.p = self.X.shape[1]

    def _segsum(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.groups, weights=values, minlength=self.n_groups)

    def __call__(self, params: np.ndarray) -> tuple[float, np.ndarray]:
        beta = params[: self.p]
        theta = float(np.exp(params[self.p]))
        s2 = float(np.exp(params[self.p + 1]))
        eta_fix = np.clip(self.X @ beta, -_ETA_CAP, _ETA_CAP)
        u = inner_modes(self.y, eta_fix, theta, s2, self.groups, self.u)
        self.u = u
        eta = eta_fix + u[self.groups]
        ll_row, a, b, c, lth, ath, bth = nb2_row_terms(self.y, eta, theta)
        B = self._segsum(b)
        C = self._segsum(c)
        H = B + 1.0 / s2
        ll = float(
            ll_row.sum()
            - np.sum(u * u) / (2.0 * s2)
            - 0.5 * self.n_groups * np.log(s2)
            - 0.5 * np.sum(np.log(H))
        )
        # beta gradient
        Hg = H[self.groups]
        grad_beta = self.X.T @ a + self.X.T @ (c / (2.0 * Hg))
        Bx = np.empty((self.n_groups, self.p))
        for k in range(self.p):
            Bx[:, k] = self._segsum(b * self.X[:, k])
        grad_beta -= Bx.T @ (C / (2.0 * H * H))
        # theta gradient (then chain to log theta)
        ATH = self._segsum(ath)
        BTH = self._segsum(bth)
        grad_theta = float(lth.sum() - np.sum((BTH - C * ATH / H) / (2.0 * H)))
        # sigma2 gradient (then chain to log sigma2)
        grad_s2 = float(
            np.sum(
                u * u / (2.0 * s2 * s2)
                - 1.0 / (2.0 * s2)
                + 1.0 / (2.0 * H * s2 * s2)
                + C * u / (2.0 * H * H * s2 * s2)
            )
        )
        grad = np.concatenate([grad_beta, [theta * grad_theta, s2 * grad_s2]])
        return ll, grad


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
    y, X, groups = design.y, design.X, design.groups
    n, p = X.shape
    start = fit_poisson(design)
    beta0 = start.beta if np.all(np.isfinite(start.beta)) else np.zeros(p)
    m, v = float(y.mean()), float(y.var())
    theta0 = m * m / (v - m) if v > m and m > 0 else 10.0
    theta0 = float(np.clip(theta0, 1e-2, 1e4))
    x0 = np.concatenate([beta0, [np.log(theta0), np.log(0.1)]])
    bounds = [(-_BETA_CAP, _BETA_CAP)] * p + [_LOG_THETA_BOUNDS, _LOG_S2_BOUNDS]
    objective = _LaplaceObjective(y, X, groups, design.n_groups)
    out = maximize(objective, x0, bounds)
    beta = out.x[:p]
    theta = float(np.exp(out.x[p]))
    sigma2 = float(np.exp(out.x[p + 1]))
    cov_full, _ = covariance_from_hessian(out.hessian, out.active)
    cov = cov_full[:p, :p]
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    cov_ok = bool(np.all(se > 0))
    u_sorted = objective.u
    eta = np.clip(X @ beta, -_ETA_CAP, _ETA_CAP) + u_sorted[np.asarray(groups, dtype=np.int64)]
    mu = np.exp(np.clip(eta, -_ETA_CAP, _ETA_CAP))
    return FitResult(
        model="nb_glmm",
        names=list(design.names),
        beta=beta,
        se=se,
        cov=cov,
        ll=out.ll,
        converged=out.converged and cov_ok and bool(y.sum() > 0),
        n_obs=n,
        mu_hat=mu,
        theta=theta,
        sigma2=sigma2,
        n_groups=design.n_groups,
        u_hat=u_sorted,
        message=out.message,
        grad_norm=float(np.max(np.abs(out.grad))),
    )


def laplace_loglik_and_grad(design: DesignMatrix, beta, theta, sigma2):
    """Direct access to the Laplace objective (gradient checks, tests)."""
    objective = _LaplaceObjective(design.y, design.X, design.groups, design.n_groups)
    params = np.concatenate([np.asarray(beta, dtype=float), [np.log(theta), np.log(sigma2)]])
    return objective(params)
