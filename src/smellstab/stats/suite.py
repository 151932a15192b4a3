"""The 34-model hypothesis suite with per-RQ BH correction."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from ..io_utils import atomic_writer, write_csv, write_json
from .design import (
    DesignError,
    ModelSpec,
    all_model_specs,
    column_table,
    null_design,
    prepare_design,
)
from .fitbase import FitResult
from .glm import DispersionError, dispersion_statistic, fit_poisson
from .glmm import fit_negbin_random_intercept
from .inference import bh_adjust, effect_sizes, fit_quality, one_sided_p, randomized_quantile_residuals

ALPHA = 0.05

ACCEPTED = "accepted"
REJECTED = "rejected"
INCONCLUSIVE = "inconclusive"


@dataclass
class HypothesisResult:
    spec: ModelSpec
    fit: FitResult | None = None
    # the design's response and source rows, kept for the residual export
    y: np.ndarray | None = None
    row_index: np.ndarray | None = None
    null_ll: float = float("nan")
    dispersion_stat: float = float("nan")
    p_raw: float = 1.0
    p_bh: float = 1.0
    irr: float = float("nan")
    ame: float = float("nan")
    mcfadden: float = float("nan")
    status: str = INCONCLUSIVE
    note: str = ""

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED

    @property
    def converged(self) -> bool:
        return self.fit is not None and self.fit.converged

    def iv_stats(self) -> tuple[float, float, float, float]:
        if self.fit is None:
            nan = float("nan")
            return nan, nan, nan, nan
        k = self.fit.coef(self.spec.iv)
        return (
            float(self.fit.beta[k]),
            float(self.fit.se[k]),
            float(self.fit.ci_low[k]),
            float(self.fit.ci_high[k]),
        )


@dataclass
class SuiteResult:
    results: list[HypothesisResult]


def run_hypothesis_suite(rows: list[dict]) -> SuiteResult:
    """Fit all 34 models, BH-adjust within each RQ, set each status.

    Non-converged or unfittable models carry a conservative raw p of 1.0
    into the family adjustment (family sizes stay 6/12/4/12) and are marked
    inconclusive, never accepted.  The rows are converted to columns once;
    each design is a choice of columns and rows from that table.
    """
    specs = all_model_specs()
    table = column_table(rows)
    results: list[HypothesisResult] = []
    null_cache: dict[tuple[str, str], float] = {}
    for spec in specs:
        res = HypothesisResult(spec)
        results.append(res)
        try:
            design = prepare_design(table, spec)
        except DesignError as exc:
            res.note = str(exc)
            continue
        res.y, res.row_index = design.y, design.row_index
        poisson = fit_poisson(design)
        if poisson.converged:
            try:
                res.dispersion_stat = dispersion_statistic(poisson, design)
            except DispersionError:
                pass
        fit = fit_negbin_random_intercept(design)
        res.fit = fit
        if not fit.converged:
            res.note = f"fit not converged: {fit.message}".strip()
            continue
        key = (spec.dv, spec.population)
        if key not in null_cache:
            null_fit = fit_negbin_random_intercept(null_design(design))
            null_cache[key] = null_fit.ll if null_fit.converged else float("nan")
        res.null_ll = null_cache[key]
        res.p_raw = one_sided_p(fit, spec.iv, spec.direction)
        if math.isnan(res.p_raw):
            res.p_raw = 1.0
            res.note = "degenerate IV standard error"
            continue
        res.irr, res.ame = effect_sizes(fit, design, spec.iv)
        if math.isfinite(res.null_ll) and res.null_ll != 0:
            _, res.mcfadden = fit_quality(fit.ll, res.null_ll)
        res.status = REJECTED  # upgraded after BH below

    for rq in ("RQ1", "RQ2", "RQ3", "RQ4"):
        family = [r for r in results if r.spec.rq == rq]
        adjusted = bh_adjust([r.p_raw for r in family])
        for r, adj in zip(family, adjusted):
            r.p_bh = float(adj)
            if r.status == INCONCLUSIVE:
                continue
            beta_iv = r.fit.beta[r.fit.coef(r.spec.iv)]
            in_direction = (beta_iv > 0) if r.spec.direction > 0 else (beta_iv < 0)
            r.status = ACCEPTED if (in_direction and r.p_bh < ALPHA) else REJECTED

    return SuiteResult(results)


# The fields the three exporters read of a model beside its spec, fit and rows.
_OUTCOME_FIELDS = ("status", "note", "p_raw", "p_bh", "irr", "ame", "mcfadden", "null_ll",
                   "dispersion_stat")


def save_suite(suite: SuiteResult, directory: str | Path) -> None:
    """Store what the three exporters read of ``suite`` in ``directory``.

    ``suite.json`` holds per model its label, outcome fields and the scalar
    fields of its fit; ``suite.npz`` (uncompressed, no pickled objects) holds
    each fit's arrays, with the fitted means of converged fits only, and the
    response and source rows once per (dv, population), which alone choose
    a design's rows.  The Poisson fits are not kept.  Each file is replaced
    atomically.
    """
    directory = Path(directory)
    models, arrays = [], {}
    for i, r in enumerate(suite.results):
        entry: dict = {"label": r.spec.label, **{k: getattr(r, k) for k in _OUTCOME_FIELDS}}
        if r.fit is not None:
            entry["fit"] = {}
            for f in dc_fields(FitResult):
                value = getattr(r.fit, f.name)
                if not isinstance(value, np.ndarray):
                    entry["fit"][f.name] = value
                elif f.name != "mu_hat" or r.fit.converged:
                    arrays[f"{i}.{f.name}"] = value
        if r.y is not None:
            entry["sample"] = sample = f"{r.spec.dv}.{r.spec.population}"
            arrays.setdefault(f"{sample}.y", r.y)
            arrays.setdefault(f"{sample}.row_index", r.row_index)
        models.append(entry)
    with atomic_writer(directory / "suite.npz", "wb") as fh:
        np.savez(fh, **arrays)
    write_json(directory / "suite.json", {"models": models})


def load_suite(directory: str | Path) -> SuiteResult:
    """The suite ``save_suite`` stored in ``directory``, for the three exporters.

    Raises on a missing, truncated or foreign file; arrays are read without
    unpickling.  An unconverged fit comes back with empty fitted means.
    """
    directory = Path(directory)
    models = json.loads((directory / "suite.json").read_text())["models"]
    with np.load(directory / "suite.npz", allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    specs = {spec.label: spec for spec in all_model_specs()}
    if [m["label"] for m in models] != list(specs):
        raise ValueError(f"{directory}: the cached models are not the suite's 34")
    results = []
    for i, m in enumerate(models):
        r = HypothesisResult(specs[m["label"]], **{k: m[k] for k in _OUTCOME_FIELDS})
        if "fit" in m:
            fit_arrays = {"mu_hat": np.empty(0)}
            fit_arrays.update((name.split(".", 1)[1], a) for name, a in arrays.items()
                              if name.startswith(f"{i}."))
            r.fit = FitResult(**m["fit"], **fit_arrays)
        if "sample" in m:
            r.y, r.row_index = arrays[f"{m['sample']}.y"], arrays[f"{m['sample']}.row_index"]
        results.append(r)
    return SuiteResult(results)


RESULTS_HEADER = [
    "hypothesis", "dv", "beta", "se", "ci_low", "ci_high", "p_raw", "p_bh",
    "irr", "ame", "ll", "mcfadden_r2", "dispersion_stat", "converged", "accepted",
]


def results_rows(suite: SuiteResult) -> list[list]:
    rows = []
    for r in suite.results:
        beta, se, lo, hi = r.iv_stats()
        rows.append([
            r.spec.hypothesis, r.spec.dv, beta, se, lo, hi, r.p_raw, r.p_bh,
            r.irr, r.ame, r.fit.ll if r.fit is not None else float("nan"),
            r.mcfadden, r.dispersion_stat, r.converged, r.accepted,
        ])
    return rows


def export_results_csv(suite: SuiteResult, path: str | Path) -> None:
    write_csv(path, RESULTS_HEADER, results_rows(suite))


def export_fits_json(suite: SuiteResult, path: str | Path, seed: int = 0, config_echo: dict | None = None) -> None:
    doc = {
        "alpha": ALPHA,
        "seed": seed,
        "config": config_echo or {},
        "fits": {},
    }
    for r in suite.results:
        entry: dict = {
            "hypothesis": r.spec.hypothesis,
            "dv": r.spec.dv,
            "rq": r.spec.rq,
            "iv": r.spec.iv,
            "cvs": list(r.spec.cvs),
            "population": r.spec.population,
            "status": r.status,
            "p_raw": r.p_raw,
            "p_bh": r.p_bh,
            "irr": r.irr,
            "ame": r.ame,
            "mcfadden_r2": r.mcfadden,
            "dispersion_stat": r.dispersion_stat,
            "null_ll": r.null_ll,
            "note": r.note,
        }
        if r.fit is not None:
            entry["fit"] = r.fit.to_dict()
        doc["fits"][r.spec.label] = entry
    write_json(path, doc)


def export_quantile_residuals(suite: SuiteResult, path: str | Path, seed: int = 0) -> None:
    """Randomized quantile residuals per model, for external QQ plotting.

    Written model by model into one atomic file.  Each line is what
    ``write_csv`` makes of ``[label, row, residual]``: ``repr`` of the float
    and no quoting, since labels hold no comma, quote or newline.
    """
    with atomic_writer(path) as fh:
        fh.write("hypothesis,row,quantile_residual\n")
        for r in suite.results:
            if r.fit is None or not r.fit.converged:
                continue
            resid = randomized_quantile_residuals(r.y, r.fit.mu_hat, r.fit.theta, seed)
            label = r.spec.label
            fh.write("".join([f"{label},{i},{v!r}\n"
                              for i, v in zip(r.row_index.tolist(), resid.tolist())]))
