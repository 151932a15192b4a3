"""The row-dict design builder and row-list residual writer that the columnar
stats input replaced, kept as a test oracle.

``prepare_design`` converts the joined rows' strings again for every model;
``export_quantile_residuals`` builds one Python row per residual and formats
each cell through ``io_utils.write_csv``; ``randomized_quantile_residuals``
computes a fit's CDF bounds from its fitted means on every draw, where the
program stores them with the suite.  The differential tests compare the
production designs and file bytes with these.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from smellstab.io_utils import write_csv
from smellstab.stats.design import (
    BINARY,
    LOG_TRANSFORMED,
    POP_NON_SMELLY,
    DesignError,
    DesignMatrix,
    ModelSpec,
)
from smellstab.stats.inference import count_cdf_bounds, normal_quantile
from smellstab.stats.kernels import as_counts


def _as_float(column: str, values: list) -> np.ndarray:
    if column in BINARY:
        out = np.array([1.0 if str(v).lower() in ("true", "1") else 0.0 for v in values])
        return out
    return np.array([float(v) for v in values], dtype=float)


def prepare_design(rows: list[dict], spec: ModelSpec) -> DesignMatrix:
    """Build the design matrix for one model spec from joined dataset rows."""
    if spec.population == POP_NON_SMELLY:
        keep = [i for i, r in enumerate(rows) if str(r["IsSmelly"]).lower() not in ("true", "1")]
    else:
        keep = list(range(len(rows)))
    if not keep:
        raise DesignError(f"{spec.label}: empty population {spec.population!r}")
    sub = [rows[i] for i in keep]
    y = np.array([float(r[spec.dv]) for r in sub])
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise DesignError(f"{spec.label}: response {spec.dv} must be non-negative integers")
    columns = [spec.iv, *spec.cvs]
    mats = [np.ones(len(sub))]
    for col in columns:
        v = _as_float(col, [r[col] for r in sub])
        if col in LOG_TRANSFORMED:
            v = np.log1p(v)
        mats.append(v)
    X = np.column_stack(mats)
    projects = [str(r["project"]) for r in sub]
    labels = sorted(set(projects))
    code = {p: i for i, p in enumerate(labels)}
    groups = np.array([code[p] for p in projects], dtype=np.int64)
    return DesignMatrix(
        y=y,
        X=X,
        names=["Intercept", *columns],
        groups=groups,
        n_groups=len(labels),
        project_labels=labels,
        row_index=np.array(keep, dtype=np.int64),
    )


def randomized_quantile_residuals(y, mu: np.ndarray, theta: float, seed: int) -> np.ndarray:
    """Quantile residuals (normal scores) of an NB2 fit for QQ export; plotting is external.

    ``y`` is a ``Counts`` or an array of counts.
    """
    rng = np.random.default_rng(seed)
    counts = as_counts(y)
    lower, pmf = count_cdf_bounds(counts, mu, theta)
    u = lower + rng.uniform(size=counts.y.size) * np.maximum(pmf, 1e-12)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return normal_quantile(u)


def export_quantile_residuals(suite, path: str | Path, seed: int = 0) -> None:
    """Randomized quantile residuals per model, for external QQ plotting."""
    out_rows: list[list] = []
    for r in suite.results:
        if r.fit is None or not r.fit.converged:
            continue
        resid = randomized_quantile_residuals(r.y, r.fit.mu_hat, r.fit.theta, seed)
        for idx, value in zip(r.row_index, resid):
            out_rows.append([r.spec.label, int(idx), float(value)])
    write_csv(path, ["hypothesis", "row", "quantile_residual"], out_rows)
