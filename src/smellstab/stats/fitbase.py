"""Shared fit result container and maximization driver.

Every fit maximizes a log-likelihood whose gradient and Hessian are exact,
``obj(x) -> (ll, grad, hess)``, by projected Newton: parameters pinned at a
bound with the gradient pushing outward are held there, and the others take
a Newton step on their block of the Hessian, shortened so that no parameter
moves by more than ``_MAX_STEP``, clipped to the bounds and halved until the
log-likelihood does not fall.  A block that is not
negative definite gets Levenberg damping on a fixed schedule.  The fit
converges when the free-gradient inf-norm is under 1e-5 and the last step
changed the log-likelihood by less than 1e-8 relative, within 500 steps.
The Hessian at the optimum supplies the Wald standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    ll: float
    converged: bool
    n_obs: int
    mu_hat: np.ndarray  # fitted means, original row order
    theta: float | None = None
    sigma2: float | None = None
    n_groups: int = 1
    u_hat: np.ndarray | None = None
    message: str = ""
    grad_norm: float = float("nan")  # free-gradient inf-norm at the end
    iterations: int = 0  # accepted Newton steps
    evaluations: int = 0
    pinned: list[str] = field(default_factory=list)  # parameters held at a bound

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
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "grad_norm": self.grad_norm,
            "pinned": list(self.pinned),
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
    active: np.ndarray  # bound-pinned params
    grad_norm: float  # inf-norm of the free gradient
    iterations: int  # accepted Newton steps
    evaluations: int  # objective calls
    message: str = ""


def _active_mask(grad: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Parameters pinned at a bound with the gradient pushing outward."""
    return ((x <= lo + 1e-9) & (grad < 0)) | ((x >= hi - 1e-9) & (grad > 0))


# Levenberg damping tried in turn, as multiples of the largest diagonal entry
_DAMPING = (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2)
# Longest Newton step in any one parameter, before halving (Dennis & Schnabel's
# maxstep).  Every parameter of the NB2 fits is on a log scale, so one step
# changes none by more than a factor e^2.  Uncapped, the first log sigma2 step
# on overdispersed counts overshot by several units, and the halvings of the
# next step landed on the bound one after another.
_MAX_STEP = 2.0
_MAX_HALVINGS = 25


def _newton_step(info: np.ndarray, grad: np.ndarray) -> np.ndarray | None:
    """Solve ``(info + lam I) step = grad`` with the first damping that factors."""
    if not (np.all(np.isfinite(info)) and np.all(np.isfinite(grad))):
        return None
    scale = max(1.0, float(np.max(np.abs(np.diag(info)))))
    eye = np.eye(grad.size)
    for lam in _DAMPING:
        damped = info + lam * scale * eye
        try:
            np.linalg.cholesky(damped)
            return np.linalg.solve(damped, grad)
        except np.linalg.LinAlgError:  # not positive definite, or singular
            continue
    return None


def maximize(obj, x0: np.ndarray, bounds=None) -> MaximizeOutcome:
    """Maximize a log-likelihood given ``obj(x) -> (ll, grad, hess)``."""
    bounds = bounds or [(None, None)] * len(x0)
    lo = np.array([-np.inf if b is None else b for b, _ in bounds])
    hi = np.array([np.inf if b is None else b for _, b in bounds])
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    ll, grad, hess = obj(x)
    evaluations, iterations = 1, 0
    rel_change = float("inf")
    message = ""
    while iterations < MAX_ITER:
        free = ~_active_mask(grad, x, lo, hi)
        if not free.any():
            rel_change = 0.0
            break
        gnorm = float(np.max(np.abs(grad[free])))
        if gnorm < GRAD_TOL and rel_change < REL_LL_TOL:
            break
        step_free = _newton_step(-hess[np.ix_(free, free)], grad[free])
        if step_free is None:
            message = "no damping makes the Hessian negative definite and finite"
            break
        longest = float(np.max(np.abs(step_free)))
        if longest < 1e-10:
            rel_change = 0.0  # at a stationary point already
            if gnorm >= GRAD_TOL:
                message = "Newton step vanished before the gradient did"
            break
        if longest > _MAX_STEP:
            step_free = step_free * (_MAX_STEP / longest)
        step = np.zeros_like(x)
        step[free] = step_free
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            x_new = np.clip(x + scale * step, lo, hi)
            ll_new, grad_new, hess_new = obj(x_new)
            evaluations += 1
            # relative slack: at large |ll| a step at the optimum moves ll only by rounding
            if np.isfinite(ll_new) and ll_new >= ll - 1e-12 * max(1.0, abs(ll)):
                rel_change = abs(ll_new - ll) / max(1.0, abs(ll))
                x, ll, grad, hess = x_new, ll_new, grad_new, hess_new
                iterations += 1
                break
            scale *= 0.5
        else:
            message = "line search found no step that keeps the log-likelihood"
            break
    active = _active_mask(grad, x, lo, hi)
    free = ~active
    gnorm = float(np.max(np.abs(grad[free]))) if free.any() else 0.0
    converged = bool(np.isfinite(ll)) and gnorm < GRAD_TOL and rel_change < REL_LL_TOL
    if not converged and not message:
        message = f"no convergence in {MAX_ITER} Newton steps" if np.isfinite(ll) else "log-likelihood not finite"
    return MaximizeOutcome(x, ll, grad, -hess, converged, active, gnorm, iterations, evaluations, message)


def covariance_from_hessian(hessian: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Invert the observed information over the free parameters.

    Bound-pinned parameters get zero rows/columns (their uncertainty is not
    identified at the boundary); degeneracy falls back to the pseudo-inverse.
    """
    k = hessian.shape[0]
    free = ~active
    sub = hessian[np.ix_(free, free)]
    try:
        cov_free = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        cov_free = np.linalg.pinv(sub)
    cov = np.zeros((k, k))
    cov[np.ix_(free, free)] = cov_free
    return cov
