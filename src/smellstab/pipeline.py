"""End-to-end orchestration: analyze, mine, join, fit, report.

Each project's snapshot is read from git by blob id and parsed at most once
per run, and only when a stage that reads the parse is stale.  Per-project
stages are cached under a key derived from exactly the inputs each reads
(``stage_inputs``) and from the package's own sources, and a project failure
quarantines the project without stopping the run.  The stats stage caches
its fits the same way, keyed on the bytes of ``dataset.csv``.  All outputs
are deterministic byte-for-byte for a fixed config.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from . import __version__ as _version
from .corpus import ingest_corpus
from .graph import extract_dependencies
from .io_utils import parse_csv, read_csv, write_csv, write_json, write_meta, write_text
from .manifest import ProjectManifestEntry, Rejection, filter_manifest, load_manifest
from .metrics import build_metrics_context, compute_class_metrics, compute_method_metrics
from .mining import (
    activity_summary,
    aggregate_stability,
    archive_snapshot,
    branch_head,
    make_window,
    mine_window,
)
from .mining.miner import ACTIVITY_HEADER
from .model import SourceCorpus
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
    save_suite,
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


_log = logging.getLogger(__name__)


class PipelineIntegrityError(RuntimeError):
    pass


@dataclass
class PipelineConfig:
    manifest: str = ""
    output_dir: str = "out"
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    window_days: int = 365
    rename_threshold: float = 0.6
    split_threshold: float = 0.3
    project_limit: int = 100
    include_deleted: bool = True
    path_excludes: tuple[str, ...] = ()
    workers: int = 1
    seed: int = 0

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
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Load a config JSON; a config echo from a previous run is accepted.

        An unknown key is an error, so a misspelt field cannot silently fall
        back to its default; ``tool_version`` is echo-only and ignored.  The
        same holds under ``thresholds``, whose values must be numbers and
        whose echoed ``threshold_schema_version``, if given, must be current.
        """
        doc = json.loads(Path(path).read_text())
        known = {f.name for f in dc_fields(cls)}
        unknown = sorted(doc.keys() - known - {"tool_version"})
        if unknown:
            raise ValueError(f"{path}: unknown config keys {', '.join(unknown)}")
        threshold_doc = dict(doc.get("thresholds", {}))
        version = threshold_doc.pop("threshold_schema_version", THRESHOLD_SCHEMA_VERSION)
        if version != THRESHOLD_SCHEMA_VERSION:
            raise ValueError(f"{path}: unsupported threshold_schema_version {version!r}")
        unknown = sorted(threshold_doc.keys() - {f.name for f in dc_fields(ThresholdConfig)})
        if unknown:
            raise ValueError(f"{path}: unknown threshold keys {', '.join(unknown)}")
        for name, value in threshold_doc.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{path}: threshold {name} must be a number, got {value!r}")
        thresholds = ThresholdConfig(**threshold_doc)
        kwargs = {k: v for k, v in doc.items() if k not in ("tool_version", "thresholds")}
        if "path_excludes" in kwargs:
            kwargs["path_excludes"] = tuple(kwargs["path_excludes"])
        return cls(thresholds=thresholds, **kwargs)


def _safe_name(repo: str) -> str:
    return repo.replace("/", "__")


def _project_dir(config: PipelineConfig, entry: ProjectManifestEntry) -> Path:
    d = Path(config.output_dir) / "projects" / _safe_name(entry.repo)
    d.mkdir(parents=True, exist_ok=True)
    return d


def stage_inputs(entry: ProjectManifestEntry, config: PipelineConfig,
                 stages: tuple[str, ...] = ("analyze", "mine")) -> dict[str, dict]:
    """Per stage in ``stages``, exactly the inputs its per-project outputs depend on.

    The sha256 of a stage's dict is that stage's cache key, and the dict is
    the ``config`` echo in that stage's per-project sidecars.  Mine reads the
    branch's history, so its inputs hold the commit the branch points at.
    """
    both = {"tool_version": _version, "snapshot": entry.snapshot,
            "path_excludes": list(config.path_excludes)}
    inputs = {}
    if "analyze" in stages:
        inputs["analyze"] = {**both, "thresholds": config.thresholds.echo()}
    if "mine" in stages:
        inputs["mine"] = {**both, "branch": entry.branch,
                          "branch_head": branch_head(entry.clone_path, entry.branch),
                          "window_days": config.window_days,
                          "rename_threshold": config.rename_threshold,
                          "split_threshold": config.split_threshold,
                          "include_deleted": config.include_deleted}
    return inputs


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


def _stage_key(inputs: dict) -> str:
    """sha256 of a stage's inputs and of the code that computes from them."""
    return hashlib.sha256((json.dumps(inputs, sort_keys=True) + code_digest()).encode()).hexdigest()


def _snapshot_loader(entry: ProjectManifestEntry, config: PipelineConfig) -> Callable[[], SourceCorpus]:
    """The project's parsed snapshot, ingested on first call and then reused."""
    @functools.cache
    def load() -> SourceCorpus:
        return ingest_corpus(archive_snapshot(entry.clone_path, entry.snapshot), entry.snapshot,
                             project=entry.repo, path_excludes=config.path_excludes)

    return load


def _cache_hit(stage_dir: Path, key: str) -> bool:
    """Whether ``stage_dir`` holds complete outputs for ``key``.

    On a miss the old marker is dropped before anything is rewritten, so a
    crash mid-stage never leaves old and new files under a valid marker.
    """
    marker = stage_dir / "stage.json"
    try:
        if json.loads(marker.read_bytes()) == {"key": key}:
            return True
    except (OSError, ValueError):  # missing, unreadable, or not JSON in UTF-8
        pass
    stage_dir.mkdir(parents=True, exist_ok=True)
    marker.unlink(missing_ok=True)
    return False


def _write_stage_marker(stage_dir: Path, key: str) -> None:
    write_json(stage_dir / "stage.json", {"key": key})


def analyze_project(entry: ProjectManifestEntry, config: PipelineConfig,
                    load_corpus: Callable[[], SourceCorpus]) -> Path:
    """Graph, metrics, smells, observations for one project; returns stage dir."""
    out = _project_dir(config, entry) / "analyze"
    echo = stage_inputs(entry, config, ("analyze",))["analyze"]
    key = _stage_key(echo)
    if _cache_hit(out, key):
        return out
    corpus = load_corpus()
    write_text(out / "corpus.json", corpus.to_json())
    graph, facts = extract_dependencies(corpus)
    write_csv(out / "edges.csv", EDGES_HEADER, [
        [e.relation.value, e.source.kind.value, str(e.source), e.target.kind.value, str(e.target),
         e.site_count] for e in graph.edges
    ])
    ctx = build_metrics_context(corpus, graph, facts)

    method_rows = []
    for t, m in corpus.iter_methods():
        if corpus.type_decl(corpus.enclosing_class(m.id).qualified_name).is_interface:
            continue
        mm = compute_method_metrics(ctx, m.id)
        method_rows.append([
            entry.repo, m.id.qualified_name, m.id.signature,
            corpus.enclosing_class(m.id).qualified_name,
            mm.loc, mm.cyclo, mm.max_nesting, mm.noav, mm.atfd_m, mm.laa, mm.fdp,
            mm.cint, mm.cdisp, mm.cm, mm.cc,
        ])
    method_rows.sort(key=lambda r: (r[1], r[2]))
    write_csv(out / "metrics_method.csv", METHOD_METRICS_HEADER, method_rows)
    write_meta(out / "metrics_method.csv", config_echo=echo)

    class_rows = []
    for decl in corpus.top_level_classes():
        cm = compute_class_metrics(ctx, decl.id)
        class_rows.append([
            entry.repo, decl.id.qualified_name, cm.loc, cm.wmc, cm.tcc, cm.atfd_c,
            cm.woc, cm.nopa, cm.noam, cm.nom, cm.amw, cm.nprotm, cm.bur, cm.bovr,
            cm.nas, cm.pnas,
        ])
    write_csv(out / "metrics_class.csv", CLASS_METRICS_HEADER, class_rows)
    write_meta(out / "metrics_class.csv", config_echo=echo)

    smells, smell_diags = detect_smells_with_diagnostics(
        corpus, graph, facts, config.thresholds, ctx)
    write_csv(out / "smells.csv", SMELLS_HEADER, [
        [s.smell.value, s.smell.level, str(s.host), s.enclosing.qualified_name] for s in smells
    ])
    write_meta(out / "smells.csv", config_echo=echo,
               extra={"per_strategy_counts": per_strategy_counts(smells),
                      "diagnostics": [f"{d.file}: {d.message}" for d in smell_diags]})

    observations = build_all_observations(corpus, graph, smells)
    write_csv(out / "observations.csv", OBSERVATION_HEADER,
              [observation_row(o) for o in observations])
    write_meta(out / "observations.csv", config_echo=echo)
    _write_stage_marker(out, key)
    return out


def mine_project(entry: ProjectManifestEntry, config: PipelineConfig,
                 load_corpus: Callable[[], SourceCorpus]) -> Path:
    """Window mining and stability outcomes for one project."""
    out = _project_dir(config, entry) / "mine"
    echo = stage_inputs(entry, config, ("mine",))["mine"]
    key = _stage_key(echo)
    if _cache_hit(out, key):
        return out
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
    _write_stage_marker(out, key)
    return out


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


def export_dataset(all_rows: list[list], config: PipelineConfig) -> Path:
    path = Path(config.output_dir) / "dataset.csv"
    keys = [(r[0], r[1]) for r in all_rows]
    if len(keys) != len(set(keys)):
        raise PipelineIntegrityError("duplicate (project, class) keys in dataset")
    write_csv(path, DATASET_HEADER, all_rows)
    write_meta(path, config_echo=config.echo())
    return path


def _cached_suite(stage_dir: Path, key: str) -> SuiteResult | None:
    """The suite cached in ``stage_dir`` under ``key``, or None on a miss.

    A cache that cannot be read is a miss: its marker is dropped and the
    suite is fitted again.
    """
    if not _cache_hit(stage_dir, key):
        return None
    try:
        return load_suite(stage_dir)
    except Exception as exc:
        _log.warning("stats cache in %s unreadable (%s: %s)", stage_dir, type(exc).__name__, exc)
        (stage_dir / "stage.json").unlink(missing_ok=True)
        return None


def run_stats(config: PipelineConfig) -> None:
    """Fit the 34 models on ``dataset.csv``, or reuse the fits cached for its bytes, and export.

    The fits read only the dataset, so ``out/stats/`` is keyed on its sha256
    and the code, not on the seed: a seed-changed rerun draws new quantile
    residuals from the cached fits, and writes what a cold run would.
    """
    out = Path(config.output_dir)
    data = (out / "dataset.csv").read_bytes()
    stage_dir = out / "stats"
    key = _stage_key({"tool_version": _version, "dataset_sha256": hashlib.sha256(data).hexdigest()})
    suite = _cached_suite(stage_dir, key)
    if suite is None:
        _log.info("stats: fitting the suite (key %s)", key[:12])
        rows = parse_csv(data)[1]
        del data  # the rows hold the dataset now; the bytes would only raise the peak RSS
        suite = run_hypothesis_suite(rows)
        save_suite(suite, stage_dir)
        _write_stage_marker(stage_dir, key)
    else:
        _log.info("stats: reusing the cached fits (key %s)", key[:12])
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
    dataset_path: Path | None


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
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            failures = list(pool.map(per_project, accepted))
    else:
        failures = [per_project(entry) for entry in accepted]
    for entry, failure in zip(accepted, failures):
        if failure is not None:
            quarantined[entry.repo] = failure

    healthy = [e for e in accepted if e.repo not in quarantined]
    dataset_path = None
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
        dataset_path = export_dataset(all_rows, config)
        write_csv(out / "activity.csv", ACTIVITY_HEADER, activity_summary(activity))
        write_meta(out / "activity.csv", config_echo=config.echo())
    write_json(out / "quarantine.json", {"quarantined": quarantined})
    if "stats" in stages and dataset_path is not None:
        run_stats(config)
    return PipelineOutcome([e.repo for e in healthy], quarantined, dataset_path)
