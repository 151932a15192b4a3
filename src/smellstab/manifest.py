"""Candidate-repository manifest: load, filter by inclusion criteria, rank.

The manifest decouples data collection from analysis; entries are JSON
lines with externally collected metadata.  The education flag (IC5) is a
manual judgment recorded in the manifest, never inferred.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_PROJECT_LIMIT = 100

_REQUIRED = ("repo", "stars", "forks", "contributors", "java_fraction", "window_commits",
             "education_flag", "clone_path", "snapshot", "branch")
_COUNTS = ("stars", "forks", "contributors", "window_commits")
_TEXTS = ("repo", "clone_path", "snapshot", "branch", "url")


@dataclass(frozen=True)
class ProjectManifestEntry:
    repo: str
    stars: int
    forks: int
    contributors: int
    java_fraction: float
    window_commits: int
    education_flag: bool
    clone_path: str
    snapshot: str
    branch: str
    url: str = ""

    def __post_init__(self) -> None:
        for name in ("stars", "forks", "contributors", "window_commits"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.java_fraction <= 1.0:
            raise ValueError("java_fraction must lie in [0, 1]")


def load_manifest(path: str | Path) -> list[dict]:
    """Raw manifest records (one JSON object per line).

    A line that is not JSON reads as ``None``, which ``filter_manifest``
    rejects as ``malformed`` like any other line that is not an object.
    """
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                records.append(None)
    return records


@dataclass(frozen=True)
class Rejection:
    repo: str
    reason: str


def _well_typed(rec: dict) -> bool:
    """Counts are non-negative whole numbers, the Java fraction a number in
    [0, 1], the education flag true or false, and the texts strings."""
    return (all(type(rec[k]) is int and rec[k] >= 0 for k in _COUNTS)
            and type(rec["java_fraction"]) in (int, float) and 0 <= rec["java_fraction"] <= 1
            and type(rec["education_flag"]) is bool
            and all(isinstance(rec.get(k, ""), str) for k in _TEXTS))


def filter_manifest(
    records: list[dict], limit: int = DEFAULT_PROJECT_LIMIT
) -> tuple[list[ProjectManifestEntry], list[Rejection]]:
    """Apply IC1-IC5, rank by stars (ties: repo id), truncate to ``limit``.

    IC1 forks > 100; IC2 contributors >= 20; IC3 >= 50 window commits;
    IC4 java fraction > 0.8; IC5 manual education flag false.  A record
    missing a field is rejected as ``incomplete``; one that is not a JSON
    object, or has a field of the wrong type or out of range, as
    ``malformed``.  Nothing is coerced.
    """
    accepted: list[ProjectManifestEntry] = []
    rejections: list[Rejection] = []
    for rec in records:
        if not isinstance(rec, dict):
            rejections.append(Rejection("<unknown>", "malformed"))
            continue
        repo = str(rec.get("repo", "<unknown>"))
        missing = [f for f in _REQUIRED if f not in rec]
        if missing:
            rejections.append(Rejection(repo, "incomplete"))
            continue
        if not _well_typed(rec):
            rejections.append(Rejection(repo, "malformed"))
            continue
        entry = ProjectManifestEntry(
            repo=repo,
            stars=rec["stars"],
            forks=rec["forks"],
            contributors=rec["contributors"],
            java_fraction=float(rec["java_fraction"]),
            window_commits=rec["window_commits"],
            education_flag=rec["education_flag"],
            clone_path=rec["clone_path"],
            snapshot=rec["snapshot"],
            branch=rec["branch"],
            url=rec.get("url", ""),
        )
        if not entry.forks > 100:
            rejections.append(Rejection(repo, "IC1"))
        elif not entry.contributors >= 20:
            rejections.append(Rejection(repo, "IC2"))
        elif not entry.window_commits >= 50:
            rejections.append(Rejection(repo, "IC3"))
        elif not entry.java_fraction > 0.8:
            rejections.append(Rejection(repo, "IC4"))
        elif entry.education_flag:
            rejections.append(Rejection(repo, "IC5"))
        else:
            accepted.append(entry)
    accepted.sort(key=lambda e: (-e.stars, e.repo))
    return accepted[:limit], rejections
