"""The 34-model hypothesis suite with per-RQ BH correction."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
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


@dataclass
class SuiteResult:
    """What the three exporters read of the suite.

    ``entries`` holds each model's seed-free ``fits.json`` entry, in
    ``all_model_specs()`` order.  ``results`` holds the fitted models when
    the suite was fitted in this run.  Once stored, ``store`` is the
    ``suite.bin`` that holds each population's source rows and each
    converged model's CDF bounds, and ``index`` places them in it.
    """

    entries: list[dict]
    results: list[HypothesisResult] | None = None
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
        res.note = f"fit not converged: {fit.message}"
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
    holds one model's means at a time; the result reads its source rows and
    CDF bounds from the store.  Without one, the fits keep their fitted means.
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
    entries = [_entry(r) for r in results]
    if saved is None:
        return SuiteResult(entries, results)
    saved.finish(path.parent, entries)
    return SuiteResult(entries, results, store=path, index=saved.index)


# The outcome fields of a model that its fits.json entry records beside its spec and fit.
_OUTCOME_FIELDS = ("status", "note", "p_raw", "p_bh", "irr", "ame", "mcfadden", "null_ll",
                   "dispersion_stat")


def _entry(r: HypothesisResult) -> dict:
    """The model's seed-free ``fits.json`` entry."""
    entry: dict = {k: getattr(r, k) for k in _OUTCOME_FIELDS}
    entry.update(hypothesis=r.spec.hypothesis, dv=r.spec.dv, rq=r.spec.rq, iv=r.spec.iv, cvs=list(r.spec.cvs),
                 population=r.spec.population, mcfadden_r2=entry.pop("mcfadden"))
    if r.fit is not None:
        entry["fit"] = r.fit.to_dict()
    return entry


def _converged(entry: dict) -> bool:
    return "fit" in entry and entry["fit"]["converged"]


def _canonical(models: list[dict], index: dict) -> bytes:
    """What ``suite.json``'s sha256 covers of its entries and index, the same before and after a JSON round trip."""
    return json.dumps([models, index], sort_keys=True).encode()


def _read(fh, entry: list) -> np.ndarray:
    """The array an index ``entry`` (``[dtype, shape, offset]``) places in the open store ``fh``."""
    dtype, shape, offset = entry
    fh.seek(offset)
    return np.fromfile(fh, dtype, math.prod(shape)).reshape(shape)


def _cdf_bounds(suite: SuiteResult):
    """``(label, source rows, P(Y < y), P(Y = y))`` per converged model, in suite order.

    Read one model at a time through one handle on the suite's store once
    stored, else computed from the fitted means.
    """
    if suite.store is None:
        for r in suite.results:
            if r.converged:
                yield r.spec.label, r.row_index, *count_cdf_bounds(r.y, r.fit.mu_hat, r.fit.theta)
        return
    with open(suite.store, "rb") as fh:
        for i, (spec, entry) in enumerate(zip(all_model_specs(), suite.entries)):
            if _converged(entry):
                yield (spec.label, _read(fh, suite.index[f"{spec.population}.row_index"]),
                       _read(fh, suite.index[f"{i}.cdf_lower"]), _read(fh, suite.index[f"{i}.cdf_pmf"]))


class _SuiteStore:
    """What the residual export reads of the suite, stored model by model as each fit ends.

    ``suite.bin`` holds raw arrays back to back: the source rows of each
    population where its first design appears, and for a converged model
    its ``count_cdf_bounds``, the seed-free half of its quantile residuals.
    ``add`` then drops the fitted means.  The caller writes ``suite.bin``
    through an atomic writer, so it stays a temp file until the suite ends.
    ``finish`` then writes ``suite.json``: each model's ``fits.json`` entry,
    the ``name -> [dtype, shape, offset]`` index and byte count of
    ``suite.bin``, and one sha256 over ``suite.bin``, the entries and the index.
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
        if r.row_index is not None and (rows := f"{r.spec.population}.row_index") not in self.index:
            self.put(rows, r.row_index)
        if r.converged:
            lower, pmf = count_cdf_bounds(r.y, r.fit.mu_hat, r.fit.theta)
            self.put(f"{i}.cdf_lower", lower)
            self.put(f"{i}.cdf_pmf", pmf)
        if r.fit is not None:
            r.fit.mu_hat = np.empty(0)

    def finish(self, directory: Path, entries: list[dict]) -> None:
        """Write ``suite.json`` for the whole ``suite.bin``, and remove an older version's ``suite.npz``."""
        self.digest.update(_canonical(entries, self.index))
        write_json(directory / "suite.json", {"models": entries, "arrays": self.index, "bytes": self.size,
                                              "sha256": self.digest.hexdigest()})
        (directory / "suite.npz").unlink(missing_ok=True)  # the zip store that suite.bin replaced


def load_suite(directory: str | Path) -> SuiteResult:
    """The suite ``run_hypothesis_suite`` stored in ``directory``, for the three exporters.

    Raises on a missing or foreign file, an index entry that is not a plain
    numeric array inside ``suite.bin`` (nothing is unpickled), converged
    bounds missing or not one per source row of their population, and a
    ``suite.bin`` of another size or a sha256 over it, the model entries
    and the index other than the one recorded.  It reads no array: the
    rows and bounds stay on disk until exported.
    """
    directory = Path(directory)
    path = directory / "suite.bin"
    doc = json.loads((directory / "suite.json").read_text())
    models, index = doc["models"], doc["arrays"]
    specs = all_model_specs()
    if [(m["hypothesis"], m["dv"]) for m in models] != [(s.hypothesis, s.dv) for s in specs]:
        raise ValueError(f"{directory}: the cached models are not the suite's 34")
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
        size = fh.tell()
    for name, (dtype, shape, offset) in index.items():
        dtype = np.dtype(dtype)
        if dtype.kind not in "biufc" or not 0 <= offset <= offset + dtype.itemsize * math.prod(shape) <= size:
            raise ValueError(f"{path}: {name} is not a plain numeric array inside the file")
    for i, (spec, m) in enumerate(zip(specs, models)):
        if _converged(m):
            rows = index[f"{spec.population}.row_index"][1]  # a missing entry raises KeyError
            for name in (f"{i}.cdf_lower", f"{i}.cdf_pmf"):
                if index[name][1] != rows:
                    raise ValueError(f"{path}: {name} does not hold one value per row of {spec.label}")
    digest.update(_canonical(models, index))
    if size != doc["bytes"] or digest.hexdigest() != doc["sha256"]:
        raise ValueError(f"{path}: not the {doc['bytes']} bytes, models and index that suite.json records")
    return SuiteResult(models, store=path, index=index)


RESULTS_HEADER = [
    "hypothesis", "dv", "beta", "se", "ci_low", "ci_high", "p_raw", "p_bh",
    "irr", "ame", "ll", "mcfadden_r2", "dispersion_stat", "converged", "accepted",
]


def results_rows(suite: SuiteResult) -> list[list]:
    rows, nan = [], float("nan")
    for e in suite.entries:
        fit = e.get("fit", {})
        iv = fit["coefficients"][e["iv"]] if fit else {}
        rows.append([
            e["hypothesis"], e["dv"], *(iv.get(k, nan) for k in ("beta", "se", "ci_low", "ci_high")),
            e["p_raw"], e["p_bh"], e["irr"], e["ame"], fit.get("ll", nan),
            e["mcfadden_r2"], e["dispersion_stat"], _converged(e), e["status"] == ACCEPTED,
        ])
    return rows


def export_results_csv(suite: SuiteResult, path: str | Path) -> None:
    write_csv(path, RESULTS_HEADER, results_rows(suite))


def export_fits_json(suite: SuiteResult, path: str | Path, seed: int = 0, config_echo: dict | None = None) -> None:
    fits = {spec.label: entry for spec, entry in zip(all_model_specs(), suite.entries)}
    write_json(path, {"alpha": ALPHA, "seed": seed, "config": config_echo or {}, "fits": fits})


def export_quantile_residuals(suite: SuiteResult, path: str | Path, seed: int = 0) -> None:
    """Randomized quantile residuals per model, for external QQ plotting.

    Written model by model into one atomic file.  Each line is what
    ``write_csv`` makes of ``[label, row, residual]``: ``repr`` of the float
    and no quoting, since labels hold no comma, quote or newline.
    """
    with atomic_writer(path) as fh:
        fh.write("hypothesis,row,quantile_residual\n")
        for label, rows, lower, pmf in _cdf_bounds(suite):
            resid = randomized_quantile_residuals(lower, pmf, seed)
            fh.write("".join([f"{label},{i},{v!r}\n" for i, v in zip(rows.tolist(), resid.tolist())]))
