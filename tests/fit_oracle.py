"""The former maximization path, kept as a test oracle for the Newton maximizer.

L-BFGS-B on the negative objective with analytic gradients, then damped
Newton steps on a central-difference Hessian of the gradient until the
gradient inf-norm drops under 1e-5.  ``maximize`` takes the same
``obj(x) -> (ll, grad, hess)`` as ``fitbase.maximize`` but ignores ``hess``,
so a fit can run on either path (see ``oracle_fits``).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.optimize import minimize

from smellstab.stats import glm
from smellstab.stats.fitbase import (
    GRAD_TOL,
    MAX_ITER,
    REL_LL_TOL,
    MaximizeOutcome,
    numerical_hessian,
)


def _active_mask(grad: np.ndarray, x: np.ndarray, bounds) -> np.ndarray:
    """Parameters pinned at a bound with the gradient pushing outward."""
    active = np.zeros(x.size, dtype=bool)
    for i, (lo, hi) in enumerate(bounds):
        if lo is not None and x[i] <= lo + 1e-9 and grad[i] < 0:
            active[i] = True
        if hi is not None and x[i] >= hi - 1e-9 and grad[i] > 0:
            active[i] = True
    return active


def maximize(obj, x0: np.ndarray, bounds=None) -> MaximizeOutcome:
    evaluations = 0

    def obj_grad(x):
        nonlocal evaluations
        evaluations += 1
        ll, grad, _hess = obj(x)
        return ll, grad

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
    iterations = int(res.nit)
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
            if np.isfinite(ll_new) and ll_new >= ll - 1e-12 * max(1.0, abs(ll)):
                rel_change = abs(ll_new - ll) / max(1.0, abs(ll))
                x, ll, grad = x_new, ll_new, grad_new
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
        iterations += 1
        hess = numerical_hessian(grad_fn, x)
    active = _active_mask(grad, x, bounds)
    free = ~active
    gnorm = float(np.max(np.abs(grad[free]))) if free.any() else 0.0
    converged = bool(np.isfinite(ll)) and gnorm < GRAD_TOL and rel_change < REL_LL_TOL
    return MaximizeOutcome(
        x, ll, grad, hess, converged, active, gnorm, iterations, evaluations,
        res.message if isinstance(res.message, str) else "",
    )


@contextmanager
def oracle_fits():
    """Run every GLM and GLMM fit on the oracle path while the block is open.

    All three models maximize through ``glm._fit``.
    """
    saved = glm.maximize
    glm.maximize = maximize
    try:
        yield
    finally:
        glm.maximize = saved
