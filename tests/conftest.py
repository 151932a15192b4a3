from __future__ import annotations

import pytest

from testkit import GitRepo, build_analyzed, build_corpus


@pytest.fixture
def corpus_factory():
    return build_corpus


@pytest.fixture
def analyzed_factory():
    return build_analyzed


@pytest.fixture
def git_repo_factory(tmp_path):
    counter = [0]

    def make(branch: str = "main") -> GitRepo:
        counter[0] += 1
        return GitRepo(tmp_path / f"repo{counter[0]}", branch=branch)

    return make
