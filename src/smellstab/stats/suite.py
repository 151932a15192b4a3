"""The 34-model hypothesis suite with per-RQ BH correction."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from ..io_utils import atomic_writer, write_csv, write_json
from .design import (
    ColumnTable,
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
from .inference import (
    bh_adjust,
    count_cdf_bounds,
    effect_sizes,
    fit_quality,
    one_sided_p,
    randomized_quantile_residuals,
)

ALPHA = 0.05

ACCEPTED = "accepted"
REJECTED = "rejected"
INCONCLUSIVE = "inconclusive"


@dataclass
class HypothesisResult:
    spec: ModelSpec
    fit: FitResult | None = None
    # the design's response and source rows, one copy per (dv, population), for the residual export
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
    # once stored: the suite.bin that holds each converged model's CDF bounds, and its index
    store: Path | None = None
    index: dict[str, list] | None = None


def _fit_model(spec: ModelSpec, table: ColumnTable, null_cache: dict, samples: dict) -> HypothesisResult:
    """One model fitted, with every outcome field set but ``p_bh`` and the BH verdict.

    A design's rows depend only on its (dv, population): ``samples`` keeps
    one copy of each, and ``null_cache`` one null log-likelihood.
    """
    res = HypothesisResult(spec)
    try:
        design = prepare_design(table, spec)
    except DesignError as exc:
        res.note = str(exc)
        return res
    key = (spec.dv, spec.population)
    res.y, res.row_index = samples.setdefault(key, (design.y, design.row_index))
    poisson = fit_poisson(design)
    if poisson.converged:
        try:
            res.dispersion_stat = dispersion_statistic(poisson, design)
        except DispersionError:
            pass
    fit = fit_negbin_random_intercept(design, poisson)
    res.fit = fit
    if not fit.converged:
        res.note = f"fit not converged: {fit.message}".strip()
        return res
    if key not in null_cache:
        null_fit = fit_negbin_random_intercept(null_design(design))
        null_cache[key] = null_fit.ll if null_fit.converged else float("nan")
    res.null_ll = null_cache[key]
    res.p_raw = one_sided_p(fit, spec.iv, spec.direction)
    if math.isnan(res.p_raw):
        res.p_raw = 1.0
        res.note = "degenerate IV standard error"
        return res
    res.irr, res.ame = effect_sizes(fit, design, spec.iv)
    if math.isfinite(res.null_ll) and res.null_ll != 0:
        _, res.mcfadden = fit_quality(fit.ll, res.null_ll)
    res.status = REJECTED  # upgraded after BH
    return res


def run_hypothesis_suite(rows: Iterable[Mapping], store: str | Path | None = None) -> SuiteResult:
    """Fit all 34 models, BH-adjust within each RQ, set each status.

    Non-converged or unfittable models carry a conservative raw p of 1.0
    into the family adjustment (family sizes stay 6/12/4/12) and are marked
    inconclusive, never accepted.  The rows are read once into columns;
    each design is a choice of columns and rows from that table.

    With a ``store`` directory each model is stored there as its fit ends
    (see ``_SuiteStore``) and its fitted means are dropped, so the suite
    holds one model's means at a time; the result reads its CDF bounds
    from the store.  Without one, the fits keep their fitted means.
    """
    table = column_table(rows)
    results: list[HypothesisResult] = []
    null_cache: dict[tuple[str, str], float] = {}
    samples: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
    path = None if store is None else Path(store) / "suite.bin"
    with contextlib.nullcontext() if path is None else atomic_writer(path, "wb") as fh:
        saved = None if fh is None else _SuiteStore(fh)
        for i, spec in enumerate(all_model_specs()):
            res = _fit_model(spec, table, null_cache, samples)
            results.append(res)
            if saved is not None:
                saved.add(i, res)

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
    if saved is None:
        return SuiteResult(results)
    saved.finish(path.parent, results)
    return SuiteResult(results, store=path, index=saved.index)


# The fields the three exporters read of a model beside its spec, fit and rows.
_OUTCOME_FIELDS = ("status", "note", "p_raw", "p_bh", "irr", "ame", "mcfadden", "null_ll",
                   "dispersion_stat")


def _read(fh, entry: list) -> np.ndarray:
    """The array an index ``entry`` (``[dtype, shape, offset]``) places in the open store ``fh``."""
    dtype, shape, offset = entry
    fh.seek(offset)
    return np.fromfile(fh, dtype, math.prod(shape)).reshape(shape)


def _cdf_bounds(suite: SuiteResult):
    """``(index, result, P(Y < y), P(Y = y))`` per converged model, in suite order.

    Read one model at a time through one handle on the suite's store once
    stored, else computed from the fitted means.
    """
    with open(suite.store, "rb") if suite.store is not None else contextlib.nullcontext() as fh:
        for i, r in enumerate(suite.results):
            if not r.converged:
                continue
            if fh is None:
                yield i, r, *count_cdf_bounds(r.y, r.fit.mu_hat, r.fit.theta)
            else:
                yield i, r, _read(fh, suite.index[f"{i}.cdf_lower"]), _read(fh, suite.index[f"{i}.cdf_pmf"])


def _sample(r: HypothesisResult) -> str:
    return f"{r.spec.dv}.{r.spec.population}"


class _SuiteStore:
    """What the three exporters read of the suite, stored model by model as each fit ends.

    ``suite.bin`` holds raw arrays back to back, per model in suite order:
    the fit's arrays but the fitted means, the response and source rows of
    its sample (its dv and population) where the sample first appears, and
    for a converged fit its ``count_cdf_bounds``, the seed-free half of its
    quantile residuals.  ``add`` then drops the fitted means.  The caller
    writes ``suite.bin`` through an atomic writer, so it stays a temp file
    until the suite ends.  ``finish`` then writes ``suite.json``: per model
    its label, outcome fields and scalar fit fields, and the
    ``name -> [dtype, shape, offset]`` index, byte count and sha256 of
    ``suite.bin``.  Poisson fits are not kept.
    """

    def __init__(self, fh) -> None:
        self.fh, self.size, self.index, self.digest = fh, 0, {}, hashlib.sha256()

    def put(self, name: str, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        self.index[name] = [array.dtype.str, list(array.shape), self.size]
        self.fh.write(array.data)
        self.digest.update(array.data)
        self.size += array.nbytes

    def add(self, i: int, r: HypothesisResult) -> None:
        if r.fit is not None:
            for f in dc_fields(FitResult):
                if f.name != "mu_hat" and isinstance(value := getattr(r.fit, f.name), np.ndarray):
                    self.put(f"{i}.{f.name}", value)
        if r.y is not None:
            sample = _sample(r)
            if f"{sample}.y" not in self.index:
                self.put(f"{sample}.y", r.y)
                self.put(f"{sample}.row_index", r.row_index)
        if r.converged:
            lower, pmf = count_cdf_bounds(r.y, r.fit.mu_hat, r.fit.theta)
            self.put(f"{i}.cdf_lower", lower)
            self.put(f"{i}.cdf_pmf", pmf)
        if r.fit is not None:
            r.fit.mu_hat = np.empty(0)

    def finish(self, directory: Path, results: list[HypothesisResult]) -> None:
        """Write ``suite.json`` for the whole ``suite.bin``, and remove an older version's ``suite.npz``."""
        models = []
        for r in results:
            entry: dict = {"label": r.spec.label, **{k: getattr(r, k) for k in _OUTCOME_FIELDS}}
            if r.fit is not None:
                entry["fit"] = {f.name: value for f in dc_fields(FitResult)
                                if not isinstance(value := getattr(r.fit, f.name), np.ndarray)}
            if r.y is not None:
                entry["sample"] = _sample(r)
            models.append(entry)
        write_json(directory / "suite.json", {"models": models, "arrays": self.index, "bytes": self.size,
                                              "sha256": self.digest.hexdigest()})
        (directory / "suite.npz").unlink(missing_ok=True)  # the zip store that suite.bin replaced


def load_suite(directory: str | Path) -> SuiteResult:
    """The suite ``run_hypothesis_suite`` stored in ``directory``, for the three exporters.

    Raises on a missing or foreign file, a ``suite.bin`` of another size or
    sha256, an entry that is not a plain numeric array inside it (nothing is
    unpickled), and converged bounds missing or not one per row of their
    sample.  The bounds stay on disk until exported.  Fits come back with
    empty fitted means.
    """
    directory = Path(directory)
    path = directory / "suite.bin"
    doc = json.loads((directory / "suite.json").read_text())
    models, index = doc["models"], doc["arrays"]
    specs = {spec.label: spec for spec in all_model_specs()}
    if [m["label"] for m in models] != list(specs):
        raise ValueError(f"{directory}: the cached models are not the suite's 34")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
        if (size := fh.tell()) != doc["bytes"] or digest.hexdigest() != doc["sha256"]:
            raise ValueError(f"{path}: not the {doc['bytes']} bytes that suite.json records")
        for name, (dtype, shape, offset) in index.items():
            dtype = np.dtype(dtype)
            if dtype.kind not in "biufc" or not 0 <= offset <= offset + dtype.itemsize * math.prod(shape) <= size:
                raise ValueError(f"{path}: {name} is not a plain numeric array inside the file")
        arrays = {name: _read(fh, entry) for name, entry in index.items() if ".cdf_" not in name}
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
        if r.converged:
            for name in (f"{i}.cdf_lower", f"{i}.cdf_pmf"):  # a missing one raises KeyError
                if tuple(index[name][1]) != r.y.shape:
                    raise ValueError(f"{path}: {name} does not hold one value per row of {r.spec.label}")
        results.append(r)
    return SuiteResult(results, store=path, index=index)


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
        entry: dict = {k: getattr(r, k) for k in _OUTCOME_FIELDS}  # write_json sorts the keys
        entry.update(hypothesis=r.spec.hypothesis, dv=r.spec.dv, rq=r.spec.rq, iv=r.spec.iv, cvs=list(r.spec.cvs),
                     population=r.spec.population, mcfadden_r2=entry.pop("mcfadden"))
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
        for _, r, lower, pmf in _cdf_bounds(suite):
            resid = randomized_quantile_residuals(lower, pmf, seed)
            label = r.spec.label
            fh.write("".join([f"{label},{i},{v!r}\n"
                              for i, v in zip(r.row_index.tolist(), resid.tolist())]))
