"""End-to-end orchestration: analyze, mine, join, fit, report.

Each project's snapshot is read from git by blob id and parsed at most once
per run, and only when a stage that reads the parse is stale.  Analyze, mine
and stats are cached through one protocol (``_cached_stage``), keyed on
exactly the inputs each reads and on the package's own sources: a project's
``stage_inputs``, and the bytes of ``dataset.csv`` for the fits.  A project
failure quarantines the project without stopping the run.  All outputs are
deterministic byte-for-byte for a fixed config.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

from . import __version__ as _version
from .bodyscan import BodyFacts
from .corpus import ingest_corpus
from .graph import extract_dependencies
from .io_utils import parse_csv, read_csv, write_csv, write_json, write_meta
from .manifest import DEFAULT_PROJECT_LIMIT, ProjectManifestEntry, Rejection, filter_manifest, load_manifest
from .metrics import ClassMetrics, MethodMetrics, build_metrics_context, compute_class_metrics, compute_method_metrics
from .mining import (
    activity_summary,
    aggregate_stability,
    archive_snapshot,
    branch_head,
    make_window,
    mine_window,
)
from .mining.miner import ACTIVITY_HEADER, DEFAULT_RENAME_THRESHOLD, DEFAULT_SPLIT_THRESHOLD, DEFAULT_WINDOW_DAYS
from .model import ArtifactId, SourceCorpus
from .neighborhood import OBSERVATION_HEADER, build_all_observations, observation_row
from .smells import (
    THRESHOLD_SCHEMA_VERSION,
    ThresholdConfig,
    detect_smells_with_diagnostics,
    per_strategy_counts,
)
from .stats.suite import (
    SuiteResult,
    export_fits_json,
    export_quantile_residuals,
    export_results_csv,
    load_suite,
    run_hypothesis_suite,
)

DATASET_HEADER = OBSERVATION_HEADER + ["ChF", "ChS", "lineage_status"]

METHOD_METRICS_HEADER = [
    "project", "method", "signature", "enclosing_class", "loc", "cyclo", "max_nesting",
    "noav", "atfd_m", "laa", "fdp", "cint", "cdisp", "cm", "cc",
]
CLASS_METRICS_HEADER = [
    "project", "class", "loc", "wmc", "tcc", "atfd_c", "woc", "nopa", "noam", "nom",
    "amw", "nprotm", "bur", "bovr", "nas", "pnas",
]
SMELLS_HEADER = ["smell", "level", "host", "enclosing_class"]
EDGES_HEADER = ["relation", "source_kind", "source", "target_kind", "target", "site_count"]
ANALYZE_OUTPUTS = ("corpus.json", "edges.csv", "metrics_method.csv", "metrics_method.csv.meta.json",
                   "metrics_class.csv", "metrics_class.csv.meta.json", "smells.csv",
                   "smells.csv.meta.json", "observations.csv", "observations.csv.meta.json")
MINE_OUTPUTS = ("outcomes.csv", "outcomes.csv.meta.json")


_log = logging.getLogger(__name__)
T = TypeVar("T")


class PipelineIntegrityError(RuntimeError):
    pass


@dataclass
class PipelineConfig:
    manifest: str = ""
    output_dir: str = "out"
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    window_days: int = DEFAULT_WINDOW_DAYS
    rename_threshold: float = DEFAULT_RENAME_THRESHOLD
    split_threshold: float = DEFAULT_SPLIT_THRESHOLD
    project_limit: int = DEFAULT_PROJECT_LIMIT
    include_deleted: bool = True
    path_excludes: tuple[str, ...] = ()
    workers: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for names, low, high, rule in ((("seed", "project_limit"), 0, math.inf, "non-negative"),
                                       (("window_days", "workers"), 1, math.inf, "at least 1"),
                                       (("rename_threshold", "split_threshold"), 0, 1, "between 0 and 1")):
            for name in names:
                if not low <= getattr(self, name) <= high:
                    raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")

    def echo(self) -> dict:
        return {
            "tool_version": _version,
            "manifest": self.manifest,
            "output_dir": self.output_dir,
            "thresholds": self.thresholds.echo(),
            "window_days": self.window_days,
            "rename_threshold": self.rename_threshold,
            "split_threshold": self.split_threshold,
            "project_limit": self.project_limit,
            "include_deleted": self.include_deleted,
            "path_excludes": list(self.path_excludes),
            "workers": self.workers,
            "seed": self.seed,
        }

    @classmethod
    def from_file(cls, path: str | Path | None, **overrides) -> "PipelineConfig":
        """Load a config JSON, or the defaults if ``path`` is None, with ``overrides`` on top.

        A config echo from a previous run is accepted.  Every value, at the
        top level and under ``thresholds``, must have the JSON type of its
        default in the echo: ``true``/``false`` for a flag, a whole number
        for a count, a finite number for a fraction, a string for a path and
        a list of strings for ``path_excludes``.  An unknown key is an
        error, so a misspelt field cannot silently fall back to its default;
        ``tool_version`` is echo-only and ignored, and an echoed
        ``threshold_schema_version`` must be current.
        """
        where = f"{path}: " if path else ""
        doc = json.loads(Path(path).read_text()) if path else {}
        if not isinstance(doc, dict):
            raise ValueError(f"{where}config is not a JSON object")
        doc = _typed(where, "config", {**doc, **overrides}, cls().echo())
        threshold_doc = _typed(where, "threshold", doc.pop("thresholds", {}), ThresholdConfig().echo())
        version = threshold_doc.pop("threshold_schema_version", THRESHOLD_SCHEMA_VERSION)
        if version != THRESHOLD_SCHEMA_VERSION:
            raise ValueError(f"{where}unsupported threshold_schema_version {version!r}")
        doc.pop("tool_version", None)
        return cls(thresholds=ThresholdConfig(**threshold_doc),
                   path_excludes=tuple(doc.pop("path_excludes", ())), **doc)


def _typed(where: str, what: str, doc: dict, defaults: dict) -> dict:
    """A copy of ``doc``, refused unless each value has the JSON type of its default."""
    unknown = sorted(doc.keys() - defaults.keys())
    if unknown:
        raise ValueError(f"{where}unknown {what} keys {', '.join(unknown)}")
    for name, value in doc.items():
        default, wanted = defaults[name], None
        if isinstance(default, bool):
            if not isinstance(value, bool):
                wanted = "true or false"
        elif isinstance(default, (int, float)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                wanted = "a number"
            elif isinstance(value, float) and not math.isfinite(value):
                wanted = "a finite number"
            elif isinstance(default, int) and not isinstance(value, int):
                wanted = "a whole number"
        elif isinstance(default, str):
            if not isinstance(value, str):
                wanted = "a string"
        elif isinstance(default, list):
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                wanted = "a list of strings"
        elif not isinstance(value, dict):
            wanted = "a JSON object"
        if wanted:
            raise ValueError(f"{where}{what} {name} must be {wanted}, got {value!r}")
    return dict(doc)


def _safe_name(repo: str) -> str:
    return repo.replace("/", "__")


def _project_dir(config: PipelineConfig, entry: ProjectManifestEntry) -> Path:
    return Path(config.output_dir) / "projects" / _safe_name(entry.repo)


def stage_inputs(stage: str, entry: ProjectManifestEntry, config: PipelineConfig) -> dict:
    """Exactly the inputs that the per-project outputs of ``stage`` ("analyze" or "mine") depend on.

    They are the stage's cache inputs and the ``config`` echo in its
    per-project sidecars.  Mine reads the branch's history, so its inputs
    hold the commit the branch points at; analyze's do not, and cost no git.
    """
    inputs = {"tool_version": _version, "snapshot": entry.snapshot,
              "path_excludes": list(config.path_excludes)}
    if stage == "analyze":
        return {**inputs, "thresholds": config.thresholds.echo()}
    return {**inputs, "branch": entry.branch,
            "branch_head": branch_head(entry.clone_path, entry.branch),
            "window_days": config.window_days,
            "rename_threshold": config.rename_threshold,
            "split_threshold": config.split_threshold,
            "include_deleted": config.include_deleted}


@functools.cache
def code_digest() -> str:
    """sha256 of the package's own ``*.py`` files, by sorted relative path.

    Part of every stage key, so an edited program never reuses what an
    older one computed; the sidecars do not echo it.
    """
    root = os.path.dirname(os.path.abspath(__file__))
    rels = sorted(os.path.join(d, n)[len(root) + 1:]
                  for d, _, names in os.walk(root) for n in names if n.endswith(".py"))
    h = hashlib.sha256()
    for rel in rels:
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _cached_stage(stage_dir: Path, inputs: dict, compute: Callable[[str], T], load: Callable[[str], T]) -> T:
    """``load(key)`` if ``stage_dir`` holds the outputs for ``inputs``, else ``compute(key)``.

    ``key`` is the sha256 of ``inputs`` and of the code, and ``stage.json``
    holds it once the outputs are complete.  A hit that ``load`` cannot read
    back is a miss, with a WARNING.  The marker is dropped before ``compute``
    rewrites anything, so a crash never leaves a valid marker on old files.
    """
    key = hashlib.sha256((json.dumps(inputs, sort_keys=True) + code_digest()).encode()).hexdigest()
    marker = stage_dir / "stage.json"
    try:
        hit = json.loads(marker.read_bytes()) == {"key": key}
    except (OSError, ValueError):  # missing, unreadable, or not JSON in UTF-8
        hit = False
    if hit:
        try:
            return load(key)
        except Exception as exc:
            _log.warning("%s cache in %s unreadable (%s: %s)", stage_dir.name, stage_dir, type(exc).__name__, exc)
    stage_dir.mkdir(parents=True, exist_ok=True)
    marker.unlink(missing_ok=True)
    result = compute(key)
    write_json(marker, {"key": key})
    return result


def _outputs_present(stage_dir: Path, names: tuple[str, ...]) -> None:
    """Raise FileNotFoundError unless ``stage_dir`` holds every file in ``names``; it reads none."""
    for name in names:
        if not (stage_dir / name).is_file():
            raise FileNotFoundError(f"no {name}")


def _snapshot_loader(entry: ProjectManifestEntry, config: PipelineConfig) -> Callable[[], SourceCorpus]:
    """The project's parsed snapshot, ingested on first call and then reused."""
    @functools.cache
    def load() -> SourceCorpus:
        return ingest_corpus(archive_snapshot(entry.clone_path, entry.snapshot), entry.snapshot,
                             project=entry.repo, path_excludes=config.path_excludes)

    return load


def metric_tables(corpus: SourceCorpus, facts: dict[ArtifactId, BodyFacts]
                  ) -> tuple[dict[ArtifactId, MethodMetrics], dict[ArtifactId, ClassMetrics]]:
    """The project's metric table, computed once: the two metric CSVs and the smell strategies read it.

    A row for each method or constructor outside an interface and for each
    top-level class.
    """
    ctx = build_metrics_context(corpus, facts)
    method_metrics = {m.id: compute_method_metrics(ctx, m.id) for top in corpus.top_level_classes()
                      for t in top.own_and_nested() for m in t.methods + t.constructors}
    class_metrics = {decl.id: compute_class_metrics(ctx, decl.id) for decl in corpus.top_level_classes()}
    return method_metrics, class_metrics


def analyze_project(entry: ProjectManifestEntry, config: PipelineConfig,
                    load_corpus: Callable[[], SourceCorpus]) -> None:
    """Graph, metrics, smells, observations for one project, under ``projects/<repo>/analyze``."""
    out = _project_dir(config, entry) / "analyze"
    echo = stage_inputs("analyze", entry, config)

    def compute(_key: str) -> None:
        corpus = load_corpus()
        write_json(out / "corpus.json", corpus.json_doc(), end="")
        graph, facts = extract_dependencies(corpus)
        write_csv(out / "edges.csv", EDGES_HEADER, (
            [e.relation.value, e.source.kind.value, str(e.source), e.target.kind.value, str(e.target),
             e.site_count] for e in graph.edges
        ))
        method_metrics, class_metrics = metric_tables(corpus, facts)
        write_csv(out / "metrics_method.csv", METHOD_METRICS_HEADER, (
            [entry.repo, mid.qualified_name, mid.signature, corpus.enclosing_class(mid).qualified_name,
             *(getattr(method_metrics[mid], name) for name in METHOD_METRICS_HEADER[4:])]
            for mid in sorted(method_metrics, key=lambda mid: (mid.qualified_name, mid.signature))))
        write_meta(out / "metrics_method.csv", config_echo=echo)
        write_csv(out / "metrics_class.csv", CLASS_METRICS_HEADER, [
            [entry.repo, cid.qualified_name, *(getattr(cm, name) for name in CLASS_METRICS_HEADER[2:])]
            for cid, cm in class_metrics.items()
        ])
        write_meta(out / "metrics_class.csv", config_echo=echo)

        smells, smell_diags = detect_smells_with_diagnostics(
            corpus, method_metrics, class_metrics, config.thresholds)
        write_csv(out / "smells.csv", SMELLS_HEADER, [
            [s.smell.value, s.smell.level, str(s.host), s.enclosing.qualified_name] for s in smells
        ])
        write_meta(out / "smells.csv", config_echo=echo,
                   extra={"per_strategy_counts": per_strategy_counts(smells),
                          "diagnostics": [f"{d.file}: {d.message}" for d in smell_diags]})

        observations = build_all_observations(corpus, graph, smells)
        write_csv(out / "observations.csv", OBSERVATION_HEADER, (observation_row(o) for o in observations))
        write_meta(out / "observations.csv", config_echo=echo)

    _cached_stage(out, echo, compute, lambda _key: _outputs_present(out, ANALYZE_OUTPUTS))


def mine_project(entry: ProjectManifestEntry, config: PipelineConfig,
                 load_corpus: Callable[[], SourceCorpus]) -> None:
    """Window mining and stability outcomes for one project, under ``projects/<repo>/mine``."""
    out = _project_dir(config, entry) / "mine"
    echo = stage_inputs("mine", entry, config)

    def compute(_key: str) -> None:
        window = make_window(entry.clone_path, entry.snapshot, entry.branch, config.window_days)
        result = mine_window(entry.clone_path, window, load_corpus(),
                             config.rename_threshold, config.split_threshold)
        outcomes = aggregate_stability(result, include_deleted=config.include_deleted)
        write_csv(out / "outcomes.csv", ["project", "class", "ChF", "ChS", "lineage_status"], [
            [entry.repo, o.focal.qualified_name, o.chf, o.chs, o.status] for o in outcomes
        ])
        write_meta(out / "outcomes.csv", config_echo=echo, extra={
            "window": {"snapshot": window.snapshot, "start": window.start, "end": window.end,
                       "branch": window.branch},
            "window_commits": len(result.commits),
            "system_churn": result.system_churn,
            "diagnostics": [f"{d.file}: {d.message}" for d in result.diagnostics],
        })

    _cached_stage(out, echo, compute, lambda _key: _outputs_present(out, MINE_OUTPUTS))


def join_project(entry: ProjectManifestEntry, config: PipelineConfig) -> list[list]:
    """Inner-join observations with outcomes on (project, class)."""
    base = _project_dir(config, entry)
    _, obs_rows = read_csv(base / "analyze" / "observations.csv")
    _, out_rows = read_csv(base / "mine" / "outcomes.csv")
    outcomes: dict[tuple[str, str], dict] = {}
    for r in out_rows:
        key = (r["project"], r["class"])
        if key in outcomes:
            raise PipelineIntegrityError(f"duplicate outcome key {key}")
        outcomes[key] = r
    joined = []
    seen: set[tuple[str, str]] = set()
    for r in obs_rows:
        key = (r["project"], r["class"])
        if key in seen:
            raise PipelineIntegrityError(f"duplicate observation key {key}")
        seen.add(key)
        oc = outcomes.get(key)
        if oc is None:
            continue  # excluded or secondary lineage: no outcome row
        joined.append([r[c] for c in OBSERVATION_HEADER] + [oc["ChF"], oc["ChS"], oc["lineage_status"]])
    joined.sort(key=lambda row: (row[0], row[1]))
    return joined


def export_dataset(all_rows: list[list], config: PipelineConfig) -> None:
    path = Path(config.output_dir) / "dataset.csv"
    keys = [(r[0], r[1]) for r in all_rows]
    if len(keys) != len(set(keys)):
        raise PipelineIntegrityError("duplicate (project, class) keys in dataset")
    write_csv(path, DATASET_HEADER, all_rows)
    write_meta(path, config_echo=config.echo())


def run_stats(config: PipelineConfig) -> None:
    """Fit the 34 models on ``dataset.csv``, or reuse the fits cached for its bytes, and export.

    The fits read only the dataset, so ``out/stats/`` is keyed on its sha256
    and the code, not on the seed: a seed-changed rerun draws new quantile
    residuals from the CDF bounds cached with the fits, and writes what a cold
    run would.  A cold run exports through those cached bounds as well.  It
    reads the dataset one row at a time into the models' columns and stores
    each model as its fit ends, so its memory follows one model.
    """
    out = Path(config.output_dir)
    data = (out / "dataset.csv").read_bytes()
    stage_dir = out / "stats"

    def fit(key: str) -> SuiteResult:
        _log.info("stats: fitting the suite (key %s)", key[:12])
        return run_hypothesis_suite(parse_csv(data, str(out / "dataset.csv"))[1], stage_dir)

    def reuse(key: str) -> SuiteResult:
        suite = load_suite(stage_dir)
        _log.info("stats: reusing the cached fits (key %s)", key[:12])
        return suite

    suite = _cached_stage(stage_dir, {"tool_version": _version,
                                      "dataset_sha256": hashlib.sha256(data).hexdigest()}, fit, reuse)
    export_results_csv(suite, out / "results.csv")
    write_meta(out / "results.csv", config_echo=config.echo())
    export_fits_json(suite, out / "fits.json", seed=config.seed, config_echo=config.echo())
    export_quantile_residuals(suite, out / "quantile_residuals.csv", seed=config.seed)
    write_meta(out / "quantile_residuals.csv", config_echo=config.echo())


def selection_doc(config: PipelineConfig, accepted: list[ProjectManifestEntry],
                  rejections: list[Rejection]) -> dict:
    """Contents of ``selection.json``: the manifest filter's verdicts."""
    return {
        "accepted": [e.repo for e in accepted],
        "rejected": [{"repo": r.repo, "reason": r.reason} for r in rejections],
        "config": config.echo(),
    }


@dataclass
class PipelineOutcome:
    accepted: list[str]
    quarantined: dict[str, dict[str, str]]


def quarantine_record(repo: str, stage: str, exc: Exception) -> dict[str, str]:
    """Why a project was quarantined: the failing stage, exception type and message.

    The traceback goes to the log only: its source paths and line numbers
    would make ``quarantine.json`` differ between checkouts of the same code.
    """
    _log.warning("quarantined %s in %s", repo, stage, exc_info=exc)
    return {"stage": stage, "type": type(exc).__name__, "message": str(exc)}


def run_pipeline(config: PipelineConfig, stages: tuple[str, ...] = ("analyze", "mine", "join", "stats")) -> PipelineOutcome:
    records = load_manifest(config.manifest)
    accepted, rejections = filter_manifest(records, config.project_limit)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "selection.json", selection_doc(config, accepted, rejections))
    quarantined: dict[str, dict[str, str]] = {}

    def per_project(entry: ProjectManifestEntry) -> dict[str, str] | None:
        load_corpus = _snapshot_loader(entry, config)
        for stage, run in (("analyze", analyze_project), ("mine", mine_project)):
            if stage in stages:
                try:
                    run(entry, config, load_corpus)
                except Exception as exc:
                    return quarantine_record(entry.repo, stage, exc)
        return None

    if config.workers > 1:
        code_digest()  # functools.cache would let each worker's first stage key compute it again
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            failures = list(pool.map(per_project, accepted))
    else:
        failures = [per_project(entry) for entry in accepted]
    for entry, failure in zip(accepted, failures):
        if failure is not None:
            quarantined[entry.repo] = failure

    healthy = [e for e in accepted if e.repo not in quarantined]
    if "join" in stages:
        all_rows: list[list] = []
        activity = []
        for entry in sorted(healthy, key=lambda e: e.repo):
            try:
                all_rows.extend(join_project(entry, config))
                meta = json.loads((_project_dir(config, entry) / "mine" / "outcomes.csv.meta.json").read_text())
                activity.append({"project": entry.repo,
                                 "window_commits": meta["window_commits"],
                                 "system_churn": meta["system_churn"]})
            except Exception as exc:
                quarantined[entry.repo] = quarantine_record(entry.repo, "join", exc)
        healthy = [e for e in healthy if e.repo not in quarantined]
        export_dataset(all_rows, config)
        write_csv(out / "activity.csv", ACTIVITY_HEADER, activity_summary(activity))
        write_meta(out / "activity.csv", config_echo=config.echo())
    write_json(out / "quarantine.json", {"quarantined": quarantined})
    if "stats" in stages and "join" in stages:
        run_stats(config)
    return PipelineOutcome([e.repo for e in healthy], quarantined)
