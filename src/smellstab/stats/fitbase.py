"""Shared fit result container and maximization driver.

Maximization runs L-BFGS-B on the negative objective with analytic
gradients, then polishes with damped Newton steps using a finite-difference
Hessian of the analytic gradient until the gradient infinity-norm drops
under 1e-5 (the convergence contract: relative LL change < 1e-8, grad
inf-norm < 1e-5, at most 500 iterations).  The same Hessian supplies Wald
standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

GRAD_TOL = 1e-5
REL_LL_TOL = 1e-8
MAX_ITER = 500
Z_95 = 1.959963984540054


@dataclass
class FitResult:
    model: str  # "poisson" | "nb_glm" | "nb_glmm"
    names: list[str]
    beta: np.ndarray
    se: np.ndarray
    cov: np.ndarray
    ll: float
    converged: bool
    n_obs: int
    mu_hat: np.ndarray  # fitted means, original row order
    theta: float | None = None
    sigma2: float | None = None
    n_groups: int = 1
    u_hat: np.ndarray | None = None
    message: str = ""
    grad_norm: float = float("nan")

    @property
    def ci_low(self) -> np.ndarray:
        return self.beta - Z_95 * self.se

    @property
    def ci_high(self) -> np.ndarray:
        return self.beta + Z_95 * self.se

    def coef(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no coefficient named {name!r} in fit") from None

    def to_dict(self) -> dict:
        out = {
            "model": self.model,
            "converged": self.converged,
            "ll": self.ll,
            "n_obs": self.n_obs,
            "n_groups": self.n_groups,
            "coefficients": {
                n: {"beta": float(b), "se": float(s), "ci_low": float(lo), "ci_high": float(hi)}
                for n, b, s, lo, hi in zip(self.names, self.beta, self.se, self.ci_low, self.ci_high)
            },
            "message": self.message,
        }
        if self.theta is not None:
            out["theta"] = float(self.theta)
        if self.sigma2 is not None:
            out["sigma2"] = float(self.sigma2)
        return out


def numerical_hessian(grad_fn, x: np.ndarray, rel_step: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian of an analytic gradient (symmetrized)."""
    k = x.size
    H = np.empty((k, k))
    for i in range(k):
        h = rel_step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        H[i] = (grad_fn(xp) - grad_fn(xm)) / (2.0 * h)
    return 0.5 * (H + H.T)


@dataclass
class MaximizeOutcome:
    x: np.ndarray
    ll: float
    grad: np.ndarray
    hessian: np.ndarray  # of the NEGATIVE log-likelihood (observed information)
    converged: bool
    active: np.ndarray = None  # type: ignore[assignment]  # bound-pinned params
    message: str = ""
    rel_ll_change: float = field(default=float("nan"))


def _active_mask(grad: np.ndarray, x: np.ndarray, bounds) -> np.ndarray:
    """Parameters pinned at a bound with the gradient pushing outward."""
    active = np.zeros(x.size, dtype=bool)
    if bounds is None:
        return active
    for i, (lo, hi) in enumerate(bounds):
        if lo is not None and x[i] <= lo + 1e-9 and grad[i] < 0:
            active[i] = True
        if hi is not None and x[i] >= hi - 1e-9 and grad[i] > 0:
            active[i] = True
    return active


def maximize(obj_grad, x0: np.ndarray, bounds=None) -> MaximizeOutcome:
    """Maximize a log-likelihood given ``obj_grad(x) -> (ll, grad)``.

    After L-BFGS-B, damped Newton steps on the free (non-bound-pinned)
    parameters polish the solution to the stated gradient tolerance.
    """

    def neg(x):
        ll, g = obj_grad(x)
        return -ll, -g

    res = minimize(
        neg, x0, jac=True, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": MAX_ITER, "ftol": 1e-12, "gtol": 1e-7},
    )
    x = res.x
    ll, grad = obj_grad(x)
    rel_change = float("inf")
    grad_fn = lambda z: -obj_grad(z)[1]  # gradient of the negative objective
    hess = numerical_hessian(grad_fn, x)
    for _ in range(40):
        active = _active_mask(grad, x, bounds)
        free = ~active
        gnorm = float(np.max(np.abs(grad[free]))) if free.any() else 0.0
        if gnorm < GRAD_TOL and rel_change < REL_LL_TOL:
            break
        try:
            step_free = np.linalg.solve(hess[np.ix_(free, free)], grad[free])
        except np.linalg.LinAlgError:
            break
        step = np.zeros_like(x)
        step[free] = step_free
        if not np.all(np.isfinite(step)):
            break
        if np.max(np.abs(step)) < 1e-10:
            rel_change = 0.0  # at a stationary point already
            continue
        scale = 1.0
        improved = False
        for _ in range(25):
            x_new = x + scale * step
            if bounds is not None:
                x_new = np.clip(x_new, [b[0] for b in bounds], [b[1] for b in bounds])
            ll_new, grad_new = obj_grad(x_new)
            # relative slack: at large |ll| a step at the optimum moves ll only by rounding
            if np.isfinite(ll_new) and ll_new >= ll - 1e-12 * max(1.0, abs(ll)):
                rel_change = abs(ll_new - ll) / max(1.0, abs(ll))
                x, ll, grad = x_new, ll_new, grad_new
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
        hess = numerical_hessian(grad_fn, x)
    active = _active_mask(grad, x, bounds)
    free = ~active
    gnorm = float(np.max(np.abs(grad[free]))) if free.any() else 0.0
    converged = bool(np.isfinite(ll)) and gnorm < GRAD_TOL and rel_change < REL_LL_TOL
    return MaximizeOutcome(
        x, ll, grad, hess, converged, active,
        res.message if isinstance(res.message, str) else "", rel_change,
    )


def covariance_from_hessian(hessian: np.ndarray, active: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Invert the observed information over the free parameters.

    Bound-pinned parameters get zero rows/columns (their uncertainty is not
    identified at the boundary); degeneracy falls back to the pseudo-inverse.
    """
    k = hessian.shape[0]
    free = np.ones(k, dtype=bool) if active is None else ~active
    sub = hessian[np.ix_(free, free)]
    try:
        cov_free = np.linalg.inv(sub)
        ok = bool(np.all(np.diag(cov_free) > 0))
    except np.linalg.LinAlgError:
        cov_free = np.linalg.pinv(sub)
        ok = False
    cov = np.zeros((k, k))
    cov[np.ix_(free, free)] = cov_free
    return cov, ok
