import statistics

import pytest

import smellstab.mining.gitio
import smellstab.mining.miner
from smellstab.corpus import ingest_corpus
from smellstab.lexer import logical_lines
from smellstab.mining import (
    DELETED,
    EXCLUDED_MERGE,
    EXCLUDED_SPLIT,
    TRACKED,
    GitError,
    MiningConfigError,
    activity_summary,
    aggregate_stability,
    archive_snapshot,
    branch_head,
    enumerate_window_commits,
    make_window,
    mine_window,
)

from testkit import EPOCH, GitRepo

DAY = 86400

ALPHA_V0 = "class Alpha {\n    int a;\n    void m() {\n        a = 1;\n    }\n}\n"
ALPHA_V1 = (
    "class Alpha {\n    int b;\n\n    // note\n    int c;\n    int d;\n\n"
    "    void m() {\n        b = 2;\n        c = 3;\n    }\n}\n"
)
ALPHA_V2 = ALPHA_V1.replace("    int d;\n", "    int d;\n    int e;\n")
ALPHA_V3 = ALPHA_V2.replace("    int e;\n", "    int e;\n    int f;\n")

RENAMED_V0 = "class Renamed {\n" + "".join(f"    int r{k};\n" for k in range(1, 6)) + "}\n"
MOVED_V2 = RENAMED_V0.replace("}\n", "    int r6;\n    int r7;\n    int r8;\n}\n")

SPLIT_V0 = "class Split {\n" + "".join(f"    int f{k};\n" for k in range(1, 9)) + "}\n"
SPLIT_A = "class SplitA {\n" + "".join(f"    int f{k};\n" for k in range(1, 5)) + "}\n"
SPLIT_B = "class SplitB {\n" + "".join(f"    int f{k};\n" for k in range(5, 9)) + "}\n"

MERGE_A_V0 = "class MergeA {\n" + "".join(f"    int a{k};\n" for k in range(1, 6)) + "}\n"
MERGE_B_V0 = "class MergeB {\n" + "".join(f"    int b{k};\n" for k in range(1, 6)) + "}\n"
MERGED = (
    "class Merged {\n"
    + "".join(f"    int a{k};\n" for k in range(1, 6))
    + "".join(f"    int b{k};\n" for k in range(1, 6))
    + "}\n"
)

GONE_V0 = "class Gone {\n    int g;\n}\n"
GONE_V1 = "class Gone {\n    int g;\n    int h;\n    int i;\n}\n"
GONE_V2 = GONE_V1.replace("    int g;\n", "    int gg;\n")

QUIET_V0 = "class Quiet {\n    int q;\n}\n"
WSPACE_V0 = "class Wspace {\n    int w;\n}\n"
WSPACE_V1 = "class Wspace {\n\n    // still the same\n        int w;\n}\n"


def build_fixture_repo(git_repo_factory):
    repo = git_repo_factory(branch="main")
    repo.write("Alpha.java", ALPHA_V0)
    repo.write("Renamed.java", RENAMED_V0)
    repo.write("Split.java", SPLIT_V0)
    repo.write("MergeA.java", MERGE_A_V0)
    repo.write("MergeB.java", MERGE_B_V0)
    repo.write("Gone.java", GONE_V0)
    repo.write("Quiet.java", QUIET_V0)
    repo.write("Wspace.java", WSPACE_V0)
    snapshot = repo.commit_all("snapshot", EPOCH)

    repo.write("Alpha.java", ALPHA_V1)
    repo.commit_all("alpha rework", EPOCH + 10 * DAY)

    repo.write("Gone.java", GONE_V1)
    repo.commit_all("extend gone", EPOCH + 15 * DAY)

    repo.git("mv", "Renamed.java", "Moved.java")
    repo.commit_all("move file", EPOCH + 20 * DAY)

    repo.write("Gone.java", GONE_V2)
    repo.commit_all("tweak gone", EPOCH + 25 * DAY)

    repo.write("Moved.java", MOVED_V2)
    repo.commit_all("extend moved", EPOCH + 30 * DAY)

    repo.remove("Split.java")
    repo.write("SplitA.java", SPLIT_A)
    repo.write("SplitB.java", SPLIT_B)
    repo.commit_all("split refactor", EPOCH + 40 * DAY)

    repo.remove("MergeA.java")
    repo.remove("MergeB.java")
    repo.write("Merged.java", MERGED)
    repo.commit_all("merge refactor", EPOCH + 50 * DAY)

    repo.write("Wspace.java", WSPACE_V1)
    repo.commit_all("cosmetics", EPOCH + 60 * DAY)

    repo.git("checkout", "-q", "-b", "feature")
    repo.write("Alpha.java", ALPHA_V2)
    repo.commit_all("feature work", EPOCH + 65 * DAY)
    repo.git("checkout", "-q", "main")
    repo.git("merge", "-q", "--no-ff", "-m", "merge feature", "feature", ts=EPOCH + 70 * DAY)

    repo.remove("Gone.java")
    repo.commit_all("drop gone", EPOCH + 80 * DAY)

    repo.write("Alpha.java", ALPHA_V3)
    repo.commit_all("outside window", EPOCH + 400 * DAY)
    return repo, snapshot


def snapshot_corpus(repo, snapshot: str, project: str):
    return ingest_corpus(archive_snapshot(repo.path, snapshot), snapshot, project=project)


@pytest.fixture
def mined(git_repo_factory):
    repo, snapshot = build_fixture_repo(git_repo_factory)
    corpus = snapshot_corpus(repo, snapshot, "mined")
    window = make_window(repo.path, snapshot, "main")
    result = mine_window(repo.path, window, corpus)
    return repo, snapshot, corpus, window, result


def test_window_commit_enumeration(mined):
    repo, snapshot, corpus, window, result = mined
    assert len(result.commits) == 10  # the out-of-window commit is dropped
    timestamps = [c.timestamp for c in result.commits]
    assert timestamps == sorted(timestamps)
    assert all(window.start < t <= window.end for t in timestamps)
    merge_commits = [c for c in result.commits if c.parent_count == 2]
    assert len(merge_commits) == 1


def test_snapshot_not_on_branch_is_fatal(git_repo_factory):
    repo = git_repo_factory()
    repo.write("A.java", "class A {}\n")
    repo.commit_all("only", EPOCH)
    with pytest.raises(MiningConfigError):
        make_window(repo.path, "0" * 40, "main")


def test_zero_subsequent_commits(git_repo_factory, tmp_path):
    repo = git_repo_factory()
    repo.write("A.java", "class A {}\n")
    snapshot = repo.commit_all("only", EPOCH)
    window = make_window(repo.path, snapshot, "main")
    assert enumerate_window_commits(window) == []


def test_lineage_statuses(mined):
    _, _, _, _, result = mined
    status = {q: lin.status for q, lin in result.lineages.items()}
    assert status["Alpha"] == TRACKED
    assert status["Renamed"] == TRACKED
    assert status["Quiet"] == TRACKED
    assert status["Wspace"] == TRACKED
    assert status["Split"] == EXCLUDED_SPLIT
    assert status["MergeA"] == EXCLUDED_MERGE
    assert status["MergeB"] == EXCLUDED_MERGE
    assert status["Gone"] == DELETED


def test_rename_keeps_tracking_and_pure_rename_free(mined):
    _, _, _, _, result = mined
    lin = result.lineages["Renamed"]
    assert [p for _, p in lin.timeline] == ["Renamed.java", "Moved.java"]
    events = result.churn_by_class["Renamed"]
    assert len(events) == 1  # the rename commit itself contributed nothing
    assert events[0][1:] == (3, 0)


def test_hand_computed_churn(mined):
    _, _, _, _, result = mined
    outcomes = {o.focal.qualified_name: o for o in aggregate_stability(result)}
    assert (outcomes["Alpha"].chf, outcomes["Alpha"].chs) == (2, 8)
    assert (outcomes["Renamed"].chf, outcomes["Renamed"].chs) == (1, 3)
    assert (outcomes["Quiet"].chf, outcomes["Quiet"].chs) == (0, 0)
    assert (outcomes["Wspace"].chf, outcomes["Wspace"].chs) == (0, 0)
    assert (outcomes["Gone"].chf, outcomes["Gone"].chs) == (2, 4)
    assert outcomes["Gone"].status == DELETED
    assert "Split" not in outcomes and "MergeA" not in outcomes and "MergeB" not in outcomes


def test_exclude_deleted_config(mined):
    _, _, _, _, result = mined
    outcomes = {o.focal.qualified_name for o in aggregate_stability(result, include_deleted=False)}
    assert "Gone" not in outcomes
    assert "Alpha" in outcomes


def test_chf_bounded_by_window_commits(mined):
    _, _, _, _, result = mined
    for o in aggregate_stability(result):
        assert 0 <= o.chf <= len(result.commits)
        if o.chf == 0:
            assert o.chs == 0


SHARED_IMPORTS = "".join(f"import java.util.Type{k};\n" for k in range(8))


def _helper(name: str, last: int) -> str:
    """18 logical lines: the shared imports, then 9 lines of the class's own."""
    fields = "".join(f"    int {name.lower()}{k};\n" for k in range(1, 8))
    return f"{SHARED_IMPORTS}public class {name} {{\n{fields}    int last{last};\n}}\n"


def test_shared_imports_are_not_a_merge(git_repo_factory):
    repo = git_repo_factory()
    repo.write("UtilHelperA.java", _helper("UtilHelperA", 0))
    repo.write("UtilHelperB.java", _helper("UtilHelperB", 0))
    snapshot = repo.commit_all("snapshot", EPOCH)
    repo.write("UtilHelperA.java", _helper("UtilHelperA", 1))
    repo.write("UtilHelperB.java", _helper("UtilHelperB", 1))
    repo.commit_all("edit both helpers", EPOCH + 3 * DAY)
    corpus = snapshot_corpus(repo, snapshot, "helpers")
    assert len(logical_lines(_helper("UtilHelperA", 0))) == 18
    result = mine_window(repo.path, make_window(repo.path, snapshot, "main"), corpus)
    outcomes = {o.focal.qualified_name: (o.status, o.chf) for o in aggregate_stability(result)}
    assert outcomes == {"UtilHelperA": (TRACKED, 1), "UtilHelperB": (TRACKED, 1)}


def test_modified_target_absorbing_a_class_is_a_merge(git_repo_factory):
    repo = git_repo_factory()
    repo.write("MergeA.java", MERGE_A_V0)
    repo.write("MergeB.java", MERGE_B_V0)
    snapshot = repo.commit_all("snapshot", EPOCH)
    repo.remove("MergeB.java")
    repo.write("MergeA.java", MERGED.replace("Merged", "MergeA"))
    repo.commit_all("fold B into A", EPOCH + 3 * DAY)
    corpus = snapshot_corpus(repo, snapshot, "fold")
    result = mine_window(repo.path, make_window(repo.path, snapshot, "main"), corpus)
    assert {q: lin.status for q, lin in result.lineages.items()} == {
        "MergeA": EXCLUDED_MERGE, "MergeB": EXCLUDED_MERGE}


def test_determinism_replay(git_repo_factory):
    repo, snapshot = build_fixture_repo(git_repo_factory)
    corpus = snapshot_corpus(repo, snapshot, "mined")
    window = make_window(repo.path, snapshot, "main")
    r1 = mine_window(repo.path, window, corpus)
    r2 = mine_window(repo.path, window, corpus)
    s1 = [(o.focal.qualified_name, o.chf, o.chs, o.status) for o in aggregate_stability(r1)]
    s2 = [(o.focal.qualified_name, o.chf, o.chs, o.status) for o in aggregate_stability(r2)]
    assert s1 == s2


def _one_edit(git_repo_factory, path: str, before: bytes, after: bytes):
    """Snapshot corpus and mining result of one commit that rewrites ``path``."""
    repo = git_repo_factory()
    (repo.path / path).write_bytes(before)
    snapshot = repo.commit_all("snapshot", EPOCH)
    (repo.path / path).write_bytes(after)
    repo.commit_all("edit", EPOCH + DAY)
    corpus = snapshot_corpus(repo, snapshot, "one")
    return corpus, mine_window(repo.path, make_window(repo.path, snapshot, "main"), corpus)


def test_non_ascii_path_is_mined(git_repo_factory):
    corpus, result = _one_edit(git_repo_factory, "Café.java", "class Café {\n    int a;\n}\n".encode(),
                               "class Café {\n    int a;\n    int b;\n}\n".encode())
    assert corpus.primary_type_of_file == {"Café.java": "Café"}
    outcomes = {o.focal.qualified_name: (o.chf, o.chs) for o in aggregate_stability(result)}
    assert outcomes == {"Café": (1, 1)}


def test_carriage_returns_end_lines_for_analysis_and_mining(git_repo_factory):
    corpus, result = _one_edit(git_repo_factory, "Cr.java", b"class Cr {\r    int a;\r}\r",
                               b"class Cr {\r    int a;\r    int b;\r}\r")
    assert corpus.type_decl("Cr").loc == 3
    outcomes = {o.focal.qualified_name: (o.chf, o.chs) for o in aggregate_stability(result)}
    assert outcomes == {"Cr": (1, 1)}


def test_window_reads_take_one_git_process_per_commit(git_repo_factory, monkeypatch):
    repo, snapshot = build_fixture_repo(git_repo_factory)
    corpus = snapshot_corpus(repo, snapshot, "mined")
    window = make_window(repo.path, snapshot, "main")
    spawns, lexed = [], []
    real_run, real_lines = smellstab.mining.gitio.subprocess.run, smellstab.mining.miner.logical_lines

    def counting_run(argv, *args, **kwargs):
        spawns.append(argv)
        return real_run(argv, *args, **kwargs)

    def counting_lines(text):
        lexed.append(text)
        return real_lines(text)

    monkeypatch.setattr(smellstab.mining.gitio.subprocess, "run", counting_run)
    monkeypatch.setattr(smellstab.mining.miner, "logical_lines", counting_lines)
    result = mine_window(repo.path, window, corpus)
    assert len(spawns) <= len(result.commits) + 2
    assert len(lexed) == len(set(lexed))  # each blob is lexed once


def test_branch_head_resolves_as_git_does(git_repo_factory, tmp_path, monkeypatch):
    repo = git_repo_factory()
    repo.write("A.java", "class A {}\n")
    first = repo.commit_all("one", EPOCH)
    repo.git("branch", "feature/x")
    repo.write("A.java", "class A { int a; }\n")
    second = repo.commit_all("two", EPOCH + DAY)
    bare = tmp_path / "bare.git"
    repo.git("clone", "-q", "--bare", str(repo.path), str(bare))
    resolved = []
    real_run = smellstab.mining.gitio.subprocess.run

    def counting_run(argv, *args, **kwargs):
        if argv[3] == "rev-parse":  # not the fixture's own git commands
            resolved.append(argv)
        return real_run(argv, *args, **kwargs)

    monkeypatch.setattr(smellstab.mining.gitio.subprocess, "run", counting_run)
    # a branch in a loose or packed ref, of an ordinary or a bare repository: no process
    assert (branch_head(repo.path, "main"), branch_head(repo.path, "feature/x")) == (second, first)
    repo.git("pack-refs", "--all")
    assert (branch_head(repo.path, "main"), branch_head(bare, "main")) == (second, second)
    assert resolved == []
    # git looks a short name up as a tag before a branch; symbolic and unknown names go to git
    repo.git("tag", "-a", "main", "-m", "shadows the branch", first)
    assert branch_head(repo.path, "main") == first
    assert branch_head(repo.path, "HEAD") == second
    with pytest.raises(GitError):
        branch_head(repo.path, "missing")
    assert len(resolved) == 3


def test_snapshot_reads_regular_java_files_only(git_repo_factory):
    repo = git_repo_factory()
    repo.write("a/b/A.java", "class A {}\n")
    repo.write("Run.java", "class Run {}\n")
    (repo.path / "Run.java").chmod(0o755)
    repo.write("README.md", "not java\n")
    (repo.path / "Link.java").symlink_to("Run.java")
    snapshot = repo.commit_all("snapshot", EPOCH)
    assert archive_snapshot(repo.path, snapshot) == {"Run.java": "class Run {}\n",
                                                     "a/b/A.java": "class A {}\n"}


def test_unreadable_snapshot_blob_is_fatal(git_repo_factory):
    repo = git_repo_factory()
    repo.write("A.java", "class A {}\n")
    snapshot = repo.commit_all("snapshot", EPOCH)
    blob = repo.git("rev-parse", f"{snapshot}:A.java").strip()
    (repo.path / ".git" / "objects" / blob[:2] / blob[2:]).unlink()
    with pytest.raises(GitError):
        archive_snapshot(repo.path, snapshot)


def test_churn_never_invents_lines(mined):
    _, _, _, _, result = mined
    per_commit_file = {}
    for rec in result.commits:
        per_commit_file[rec.id] = sum(a + d for _, _, a, d in rec.files)
    per_commit_class = {}
    for qname, events in result.churn_by_class.items():
        for commit, a, d in events:
            per_commit_class[commit] = per_commit_class.get(commit, 0) + a + d
    for commit, class_total in per_commit_class.items():
        assert class_total <= per_commit_file[commit]


def test_activity_summary_three_projects():
    rows = activity_summary([
        {"project": "a", "window_commits": 50, "system_churn": 10},
        {"project": "b", "window_commits": 100, "system_churn": 20},
        {"project": "c", "window_commits": 150, "system_churn": 30},
    ])
    commits_row = next(r for r in rows if r[0] == "window_commits")
    assert commits_row[1:5] == [50, 150, 100, 100]
    assert commits_row[5] == pytest.approx(statistics.pstdev([50, 100, 150]))


def test_activity_summary_single_project_sd_zero():
    rows = activity_summary([{"project": "a", "window_commits": 42, "system_churn": 5}])
    commits_row = next(r for r in rows if r[0] == "window_commits")
    assert commits_row[1:] == [42, 42, 42, 42.0, 0.0]


def test_activity_summary_empty():
    assert activity_summary([]) == []
