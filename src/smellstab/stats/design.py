"""Hypothesis table and design-matrix preparation.

Seventeen hypotheses over four research questions, each evaluated against
both stability outcomes (ChF, ChS) -- 34 models, BH families of 6/12/4/12
per research question.  Count-based predictors are log(1+x)-transformed;
binary flags enter untransformed.  Every alternative hypothesis predicts
lower stability, i.e. higher counts, so the predicted coefficient sign is
positive throughout (encoded in the table, not assumed downstream).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import Counts

DVS = ("ChF", "ChS")
BASE_CVS = ("ClSize", "#EffNei")

LOG_TRANSFORMED = frozenset(
    {"ClSize", "#EffNei", "#SmellFoc", "#SmellEff", "VarSmellFoc", "VarSmellEff",
     "#EffSmellInt", "EffIntInten"}
)
BINARY = frozenset({"IsSmelly", "HasSmellEff", "HasEffCoup", "HasEffInt"})

POP_ALL = "all"
POP_NON_SMELLY = "non_smelly"


@dataclass(frozen=True)
class ModelSpec:
    hypothesis: str  # e.g. "H1.2"
    rq: str  # "RQ1".."RQ4"
    dv: str  # "ChF" | "ChS"
    iv: str
    cvs: tuple[str, ...]
    population: str
    direction: int = +1  # predicted sign of the IV coefficient

    @property
    def label(self) -> str:
        return f"{self.hypothesis}:{self.dv}"


_HYPOTHESES: list[tuple[str, str, str, tuple[str, ...], str]] = [
    ("H1.1", "RQ1", "IsSmelly", BASE_CVS, POP_ALL),
    ("H1.2", "RQ1", "#SmellFoc", BASE_CVS, POP_ALL),
    ("H1.3", "RQ1", "VarSmellFoc", BASE_CVS, POP_ALL),
    ("H2.1", "RQ2", "HasSmellEff", BASE_CVS, POP_ALL),
    ("H2.2", "RQ2", "#SmellEff", BASE_CVS, POP_ALL),
    ("H2.3", "RQ2", "VarSmellEff", BASE_CVS, POP_ALL),
    ("H2.4", "RQ2", "HasSmellEff", BASE_CVS, POP_NON_SMELLY),
    ("H2.5", "RQ2", "#SmellEff", BASE_CVS, POP_NON_SMELLY),
    ("H2.6", "RQ2", "VarSmellEff", BASE_CVS, POP_NON_SMELLY),
    ("H3.1", "RQ3", "HasEffCoup", BASE_CVS, POP_ALL),
    ("H3.2", "RQ3", "HasEffCoup", BASE_CVS + ("IsSmelly", "HasSmellEff"), POP_ALL),
    ("H4.1", "RQ4", "HasEffInt", BASE_CVS, POP_ALL),
    ("H4.2", "RQ4", "#EffSmellInt", BASE_CVS, POP_ALL),
    ("H4.3", "RQ4", "EffIntInten", BASE_CVS, POP_ALL),
    ("H4.4", "RQ4", "HasEffInt", BASE_CVS + ("#SmellFoc", "#SmellEff"), POP_ALL),
    ("H4.5", "RQ4", "#EffSmellInt", BASE_CVS + ("#SmellFoc", "#SmellEff"), POP_ALL),
    ("H4.6", "RQ4", "EffIntInten", BASE_CVS + ("#SmellFoc", "#SmellEff"), POP_ALL),
]
# H3.2 carries extra controls; H4.4-H4.6 likewise (held-constant variants).

FAMILY_SIZES = {"RQ1": 6, "RQ2": 12, "RQ3": 4, "RQ4": 12}


def all_model_specs() -> list[ModelSpec]:
    specs = []
    for hyp, rq, iv, cvs, pop in _HYPOTHESES:
        for dv in DVS:
            specs.append(ModelSpec(hyp, rq, dv, iv, cvs, pop))
    assert len(specs) == 34
    counts: dict[str, int] = {}
    for s in specs:
        counts[s.rq] = counts.get(s.rq, 0) + 1
    assert counts == FAMILY_SIZES
    return specs


class DesignError(ValueError):
    pass


@dataclass
class DesignMatrix:
    y: np.ndarray  # counts
    X: np.ndarray  # intercept + iv + cvs, transformed
    names: list[str]  # column names, "Intercept" first
    groups: np.ndarray  # dense project codes, one per row
    n_groups: int
    project_labels: list[str]
    row_index: np.ndarray  # indices into the source dataset
    counts: Counts | None = field(default=None, repr=False, compare=False)  # from y unless given

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = Counts(self.y)


def _as_float(column: str, values: list) -> np.ndarray:
    """One dataset column as floats: ``true``/``1`` for a flag, ``float()`` otherwise."""
    if column in BINARY:
        return np.array([1.0 if str(v).lower() in ("true", "1") else 0.0 for v in values])
    return np.array([float(v) for v in values], dtype=float)


@dataclass(frozen=True)
class ColumnTable:
    """The dataset columns the 34 models read, converted once."""

    columns: dict[str, np.ndarray]  # float column per DV, IV, CV and IsSmelly
    project_codes: np.ndarray  # dense index into ``projects``, one per row
    projects: list[str]  # sorted project labels


def spec_columns() -> list[str]:
    """Every column the 34 models read, in first-use order."""
    cols = dict.fromkeys(["IsSmelly"])
    for spec in all_model_specs():
        cols.update(dict.fromkeys([spec.dv, spec.iv, *spec.cvs]))
    return list(cols)


def column_table(rows: list[dict]) -> ColumnTable:
    """Convert joined dataset rows once into the columns the 34 models read."""
    columns = {c: _as_float(c, [r[c] for r in rows]) for c in spec_columns()}
    projects = [str(r["project"]) for r in rows]
    labels = sorted(set(projects))
    code = {p: i for i, p in enumerate(labels)}
    return ColumnTable(columns, np.array([code[p] for p in projects], dtype=np.int64), labels)


def prepare_design(table: ColumnTable, spec: ModelSpec) -> DesignMatrix:
    """Build the design matrix for one model spec from the dataset's columns."""
    if spec.population == POP_NON_SMELLY:
        keep = np.flatnonzero(table.columns["IsSmelly"] == 0.0)
    else:
        keep = np.arange(table.project_codes.size, dtype=np.int64)
    if not keep.size:
        raise DesignError(f"{spec.label}: empty population {spec.population!r}")
    y = table.columns[spec.dv][keep]
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise DesignError(f"{spec.label}: response {spec.dv} must be non-negative integers")
    columns = [spec.iv, *spec.cvs]
    mats = [np.ones(keep.size)]
    for col in columns:
        v = table.columns[col][keep]
        if col in LOG_TRANSFORMED:
            v = np.log1p(v)
        mats.append(v)
    # renumber the projects densely within the population
    present, groups = np.unique(table.project_codes[keep], return_inverse=True)
    return DesignMatrix(
        y=y,
        X=np.column_stack(mats),
        names=["Intercept", *columns],
        groups=groups.astype(np.int64, copy=False),
        n_groups=present.size,
        project_labels=[table.projects[i] for i in present],
        row_index=keep.astype(np.int64, copy=False),
    )


def null_design(design: DesignMatrix) -> DesignMatrix:
    """Intercept-only design on the same rows (same grouping)."""
    return DesignMatrix(
        y=design.y,
        X=design.X[:, :1],
        names=["Intercept"],
        groups=design.groups,
        n_groups=design.n_groups,
        project_labels=design.project_labels,
        row_index=design.row_index,
        counts=design.counts,
    )
