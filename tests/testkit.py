"""Corpus builders and the scripted git repository shared by the tests.

Kept out of ``conftest.py`` so that no test imports a module named
``conftest``: pytest loads one such module per test directory, and
``perfbench/tests`` imports its own by that name.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

from smellstab.corpus import ingest_corpus
from smellstab.graph import extract_dependencies

EPOCH = 1577836800  # 2020-01-01T00:00:00Z


def build_corpus(files: dict[str, str], project: str = "fix", snapshot: str = "s0"):
    return ingest_corpus(files, snapshot, project=project)


def build_analyzed(files: dict[str, str], project: str = "fix"):
    corpus = build_corpus(files, project=project)
    graph, facts = extract_dependencies(corpus)
    return corpus, graph, facts


class GitRepo:
    """Scripted fixture repository with deterministic committer timestamps."""

    def __init__(self, path: Path, branch: str = "main"):
        self.path = path
        self.branch = branch
        path.mkdir(parents=True, exist_ok=True)
        self.git("init", "-q", "-b", branch)
        self.git("config", "user.name", "Fixture Committer")
        self.git("config", "user.email", "fixture.committer@example.invalid")

    def git(self, *args: str, ts: int | None = None) -> str:
        env = dict(os.environ)
        if ts is not None:
            stamp = f"@{ts} +0000"
            env["GIT_COMMITTER_DATE"] = stamp
            env["GIT_AUTHOR_DATE"] = stamp
        proc = subprocess.run(
            ["git", "-C", str(self.path), *args], capture_output=True, text=True, env=env
        )
        if proc.returncode != 0:
            raise RuntimeError(f"git {args} failed: {proc.stderr}")
        return proc.stdout

    def write(self, rel: str, content: str) -> None:
        p = self.path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content)

    def remove(self, rel: str) -> None:
        (self.path / rel).unlink()

    def commit_all(self, message: str, ts: int) -> str:
        self.git("add", "-A")
        self.git("commit", "-q", "--allow-empty", "-m", message, ts=ts)
        return self.git("rev-parse", "HEAD").strip()

    def head(self) -> str:
        return self.git("rev-parse", "HEAD").strip()

