"""The generators are deterministic and their ledger follows the history."""

import random
import subprocess

import inputs
import javagen


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                          check=True).stdout


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and "/.git/" not in f"/{p.relative_to(root).as_posix()}"}


def test_same_seed_gives_same_commits_and_bytes(tmp_path):
    for name in ("a", "b"):
        inputs.build_history_long(tmp_path / name, seed=7)
    repo_a, repo_b = tmp_path / "a" / "repos" / "longhist", tmp_path / "b" / "repos" / "longhist"
    log_a = _git(repo_a, "log", "--format=%H %P", "--all")
    assert log_a == _git(repo_b, "log", "--format=%H %P", "--all")
    assert len(log_a.splitlines()) > 120
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def test_other_seed_gives_other_inputs(tmp_path):
    inputs.build_all_mixed(tmp_path / "a", seed=1)
    inputs.build_all_mixed(tmp_path / "b", seed=2)
    assert (tmp_path / "a" / "ledger.csv").read_bytes() != (tmp_path / "b" / "ledger.csv").read_bytes()


def test_suite_dataset_is_fixed_and_consistent():
    rows = inputs.dataset_rows()
    assert rows == inputs.dataset_rows()
    assert len(rows) == inputs.SUITE_PROJECTS * inputs.SUITE_CLASSES
    h = inputs.DATASET_HEADER
    for r in rows[:2000]:
        d = dict(zip(h, r))
        assert (d["IsSmelly"] == "true") == (d["#SmellFoc"] > 0)
        assert (d["HasSmellEff"] == "true") == (d["#SmellEff"] > 0)
        assert (d["HasEffCoup"] == "true") == (d["IsSmelly"] == "true" and d["HasSmellEff"] == "true")
        assert (d["HasEffInt"] == "true") == (d["#EffSmellInt"] > 0)


def test_ledger_churn_follows_content_lines():
    rng, text = random.Random(3), random.Random(4)
    project = javagen.build_project(rng, text, "t", 30)
    h = javagen.History(rng, text, project)
    before = {lin.cls.index: h.state[lin.path].code() for lin in h.lineages.values()}
    h.edit_commit(javagen.T0 + javagen.DAY)
    changed = [lin for lin in h.lineages.values() if h.state[lin.path].code() != before[lin.cls.index]]
    assert len(changed) == 6
    for lin in changed:
        old, new = set(before[lin.cls.index]), set(h.state[lin.path].code())
        assert (lin.chf, lin.chs) == (1, len(old ^ new))


def test_content_lines_are_unique_within_each_file():
    project = javagen.build_project(random.Random(5), random.Random(6), "u", 60)
    for f in project.files.values():
        code = f.code()
        assert len(code) == len(set(code))
