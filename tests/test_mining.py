import hashlib
import itertools
import logging
import random
import statistics
import subprocess
from pathlib import Path

import pytest

import smellstab.mining.gitio
import smellstab.mining.miner
from smellstab.corpus import ingest_corpus
from smellstab.lexer import logical_lines
from smellstab.mining.gitio import BlobReader, GitError, archive_snapshot, branch_head, first_parent_chain, show_blob
from smellstab.mining.miner import (
    DELETED,
    EXCLUDED_MERGE,
    EXCLUDED_SPLIT,
    TRACKED,
    MiningConfigError,
    activity_summary,
    aggregate_stability,
    enumerate_window_commits,
    make_window,
    mine_window,
)

import miner_oracle
from testkit import EPOCH, GitRepo, record_processes, within

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
    window = make_window(repo.path, snapshot, "main")
    result = mine_window(repo.path, window, corpus)
    outcomes = {o.focal.qualified_name: (o.status, o.chf) for o in aggregate_stability(result)}
    assert outcomes == {"UtilHelperA": (TRACKED, 1), "UtilHelperB": (TRACKED, 1)}
    assert_same_as_oracle(repo, window, corpus, result)


def test_modified_target_absorbing_a_class_is_a_merge(git_repo_factory):
    repo = git_repo_factory()
    repo.write("MergeA.java", MERGE_A_V0)
    repo.write("MergeB.java", MERGE_B_V0)
    snapshot = repo.commit_all("snapshot", EPOCH)
    repo.remove("MergeB.java")
    repo.write("MergeA.java", MERGED.replace("Merged", "MergeA"))
    repo.commit_all("fold B into A", EPOCH + 3 * DAY)
    corpus = snapshot_corpus(repo, snapshot, "fold")
    window = make_window(repo.path, snapshot, "main")
    result = mine_window(repo.path, window, corpus)
    assert {q: lin.status for q, lin in result.lineages.items()} == {
        "MergeA": EXCLUDED_MERGE, "MergeB": EXCLUDED_MERGE}
    assert_same_as_oracle(repo, window, corpus, result)


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
    window = make_window(repo.path, snapshot, "main")
    result = mine_window(repo.path, window, corpus)
    assert_same_as_oracle(repo, window, corpus, result)
    return corpus, result


def test_non_ascii_path_is_mined(git_repo_factory):
    corpus, result = _one_edit(git_repo_factory, "Café.java", "class Café {\n    int a;\n}\n".encode(),
                               "class Café {\n    int a;\n    int b;\n}\n".encode())
    assert corpus.primary_type_of_file == {"Café.java": "Café"}
    outcomes = {o.focal.qualified_name: (o.chf, o.chs) for o in aggregate_stability(result)}
    assert outcomes == {"Café": (1, 1)}


def test_a_class_declared_in_two_files_is_refused_once_and_mined_along_the_first(git_repo_factory):
    """Only finalize refuses the second ``p.A``; its file has no primary type, so no lineage starts there."""
    repo = git_repo_factory()
    repo.write("p/A.java", "package p;\nclass A {\n    int a;\n}\n")
    repo.write("q/A.java", "package p;\nclass A {\n    int b;\n}\n")
    snapshot = repo.commit_all("snapshot", EPOCH)
    repo.write("p/A.java", "package p;\nclass A {\n    int a;\n    int c;\n}\n")
    repo.write("q/A.java", "package p;\nclass A {\n    int b;\n    int d;\n    int e;\n}\n")
    repo.commit_all("edit both", EPOCH + DAY)
    corpus = snapshot_corpus(repo, snapshot, "dup")
    assert [(d.file, d.message) for d in corpus.diagnostics] == [("q/A.java", "duplicate class p.A; keeping first")]
    assert corpus.primary_type_of_file == {"p/A.java": "p.A"}
    window = make_window(repo.path, snapshot, "main")
    result = mine_window(repo.path, window, corpus)
    assert_same_as_oracle(repo, window, corpus, result)
    assert [(q, lineage.timeline) for q, lineage in result.lineages.items()] == [("p.A", [("", "p/A.java")])]
    assert {o.focal.qualified_name: (o.chf, o.chs) for o in aggregate_stability(result)} == {"p.A": (1, 1)}


def test_carriage_returns_end_lines_for_analysis_and_mining(git_repo_factory):
    corpus, result = _one_edit(git_repo_factory, "Cr.java", b"class Cr {\r    int a;\r}\r",
                               b"class Cr {\r    int a;\r    int b;\r}\r")
    assert corpus.type_decl("Cr").loc == 3
    outcomes = {o.focal.qualified_name: (o.chf, o.chs) for o in aggregate_stability(result)}
    assert outcomes == {"Cr": (1, 1)}


def _random_history(git_repo_factory, seed: int, n_commits: int = 24):
    """A repository whose window mixes edits, renames, splits, merges, folds,
    deletions, additions and comment-only changes, up to two per commit.
    Every file starts with the same imports."""
    rng = random.Random(seed)
    imports = "".join(f"import java.util.Type{k};\n" for k in range(rng.randint(0, 6)))
    repo = git_repo_factory()
    names = itertools.count()
    values = itertools.count()
    files: dict[str, list[str]] = {}

    def new_path() -> str:
        return f"p{rng.randint(0, 1)}/C{next(names)}.java"

    def new_lines(n: int) -> list[str]:
        return [f"    int v{next(values)};" for _ in range(n)]

    def save() -> None:
        for old in repo.path.glob("p*/*.java"):
            old.unlink()
        for path, lines in files.items():
            body = "".join(f"{ln}\n" for ln in lines)
            repo.write(path, f"{imports}class {Path(path).stem} {{\n{body}}}\n")

    for _ in range(12):
        files[new_path()] = new_lines(rng.randint(4, 12))
    save()
    snapshot = repo.commit_all("snapshot", EPOCH)
    ops = ["edit", "edit", "edit", "rename", "split", "merge", "fold", "delete", "add", "comment"]
    for i in range(n_commits):
        for op in rng.sample(ops, rng.randint(1, 2)):
            if len(files) < 3:
                op = "add"
            path = rng.choice(sorted(files))
            lines = files[path]
            if op == "edit":
                del lines[rng.randrange(len(lines))]
                lines[rng.randrange(len(lines) + 1):0] = new_lines(rng.randint(1, 3))
            elif op == "comment":
                lines.insert(rng.randrange(len(lines) + 1), f"    // note {next(values)}")
            elif op == "add":
                files[new_path()] = new_lines(rng.randint(4, 12))
            else:
                del files[path]
                if op in ("rename", "split"):
                    cut = len(lines) // 2 if op == "split" else len(lines)
                    files[new_path()] = lines[:cut] + new_lines(rng.randint(0, 1))
                    if op == "split":
                        files[new_path()] = lines[cut:]
                elif op in ("merge", "fold"):
                    other = rng.choice(sorted(files))
                    files[other] = files[other] + lines
                    if op == "merge":
                        files[new_path()] = files.pop(other)
        save()
        repo.commit_all(f"change {i}", EPOCH + (i + 1) * DAY)
    return repo, snapshot


def assert_same_as_oracle(repo, window, corpus, result) -> None:
    expected = miner_oracle.mine_window(repo.path, window, corpus)
    assert result == expected


@pytest.mark.parametrize("seed", range(6))
def test_window_walk_matches_the_oracle(git_repo_factory, seed):
    if seed == 0:  # the criterion-6 fixture
        repo, snapshot = build_fixture_repo(git_repo_factory)
    else:
        repo, snapshot = _random_history(git_repo_factory, seed)
    corpus = snapshot_corpus(repo, snapshot, "mined")
    window = make_window(repo.path, snapshot, "main")
    result = mine_window(repo.path, window, corpus)
    assert result.system_churn > 0
    assert_same_as_oracle(repo, window, corpus, result)


def test_window_reads_take_a_fixed_number_of_git_processes(git_repo_factory, monkeypatch):
    histories = [build_fixture_repo(git_repo_factory), _random_history(git_repo_factory, 1, 40)]
    for repo, snapshot in histories:
        corpus = snapshot_corpus(repo, snapshot, "mined")
        window = make_window(repo.path, snapshot, "main")
        with monkeypatch.context() as patch:
            started = record_processes(patch)
            lexed = []
            real_lines = smellstab.mining.miner.logical_lines

            def counting_lines(text, *args):
                lexed.append(text)
                return real_lines(text, *args)

            patch.setattr(smellstab.mining.miner, "logical_lines", counting_lines)
            result = mine_window(repo.path, window, corpus)
        # one diff-tree for the window's changes, one cat-file for all its blobs
        assert [p.args[3] for p in started] == ["diff-tree", "cat-file"]
        assert len(result.commits) >= 10
        assert len(lexed) == len(set(lexed))  # each blob is lexed once


def test_window_logs_its_lexing_counts(git_repo_factory, caplog):
    repo, snapshot = build_fixture_repo(git_repo_factory)
    corpus = snapshot_corpus(repo, snapshot, "mined")
    window = make_window(repo.path, snapshot, "main")
    with caplog.at_level(logging.DEBUG, logger="smellstab.mining.miner"):
        result = mine_window(repo.path, window, corpus)
    [record] = [r for r in caplog.records if r.name == "smellstab.mining.miner"]
    commits, blobs, raw_lines, misses = record.args
    assert commits == len(result.commits) == 10 and blobs > 0
    assert 0 < misses < raw_lines  # a line met again in the window is not lexed again


def test_no_git_process_outlives_mine_window(git_repo_factory, monkeypatch):
    repo, snapshot = build_fixture_repo(git_repo_factory)
    corpus = snapshot_corpus(repo, snapshot, "mined")
    window = make_window(repo.path, snapshot, "main")
    started = record_processes(monkeypatch)
    mine_window(repo.path, window, corpus)
    assert len(started) == 2 and all(p.returncode is not None for p in started)

    real_lines, lexed = smellstab.mining.miner.logical_lines, []

    def failing_lines(text, *args):
        lexed.append(text)
        if len(lexed) == 4:  # mid-window, with the reader open
            raise RuntimeError("lexer failure")
        return real_lines(text, *args)

    started.clear()
    monkeypatch.setattr(smellstab.mining.miner, "logical_lines", failing_lines)
    with pytest.raises(RuntimeError, match="lexer failure"):
        mine_window(repo.path, window, corpus)
    assert [p.args[3] for p in started] == ["diff-tree", "cat-file"]
    assert all(p.returncode is not None for p in started)


def _blob_id(content: bytes) -> str:
    return hashlib.sha1(b"blob %d\0" % len(content) + content).hexdigest()


def test_one_read_larger_than_the_pipe_buffers(git_repo_factory):
    repo = git_repo_factory()
    large = b"".join(b"// line %d of a large file\r\n" % k for k in range(8000))
    assert len(large) > 200_000
    # the large blob first: its answer alone fills git's output pipe
    contents = [large] + [f"class B{k} {{ int v{k}; }}\n".encode() for k in range(2000)]
    stream = b"".join(b"blob\ndata %d\n%s\n" % (len(c), c) for c in contents)
    subprocess.run(["git", "-C", str(repo.path), "fast-import", "--quiet"], input=stream, check=True)
    ids = [_blob_id(c) for c in contents]
    assert sum(len(b) + 1 for b in ids) > 65536  # the ids alone overfill a pipe

    def read_all():
        with BlobReader(repo.path) as reader:
            return show_blob(reader, ids)

    texts = within(60, read_all)
    assert list(texts) == ids
    large_read = texts[ids[0]] == large.decode().replace("\r\n", "\n")
    assert large_read
    assert texts[ids[1]] == "class B0 { int v0; }\n"


def test_missing_and_non_blob_ids_are_absent(git_repo_factory):
    repo = git_repo_factory()
    repo.write("A.java", "class A {}\n")
    commit = repo.commit_all("one", EPOCH)
    blob = repo.git("rev-parse", f"{commit}:A.java").strip()
    tree = repo.git("rev-parse", f"{commit}^{{tree}}").strip()
    missing = "0123456789abcdef" * 2 + "01234567"
    with BlobReader(repo.path) as reader:
        texts = show_blob(reader, [missing, tree, commit, "A.java", f"{blob}\n{blob}", "", blob, missing])
        assert texts == {blob: "class A {}\n"}
        assert reader.read(tree) is None and reader.read(blob) == b"class A {}\n"
    with BlobReader(repo.path) as reader:
        assert show_blob(reader, []) == {}  # no ids, no process
        assert reader._proc is None


def test_reader_whose_git_exits_raises(git_repo_factory, tmp_path):
    repo = git_repo_factory()
    repo.write("A.java", "class A {}\n")
    commit = repo.commit_all("one", EPOCH)
    blob = repo.git("rev-parse", f"{commit}:A.java").strip()

    def from_no_repository():
        with BlobReader(tmp_path / "nowhere") as reader:
            show_blob(reader, [blob])

    with pytest.raises(GitError, match="exited early: .*nowhere"):
        within(30, from_no_repository)

    def from_killed_git():
        with BlobReader(repo.path) as reader:
            assert show_blob(reader, [blob]) == {blob: "class A {}\n"}
            proc = reader._proc
            proc.kill()
            proc.wait()
            try:
                show_blob(reader, [blob])
            finally:
                assert proc.stdout.closed and reader._proc is None

    with pytest.raises(GitError, match="exited early"):
        within(30, from_killed_git)


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


def test_unreadable_window_blob_is_a_diagnostic_and_reads_as_empty(git_repo_factory):
    repo = git_repo_factory()
    repo.write("A.java", "class A {\n    int a;\n}\n")
    snapshot = repo.commit_all("snapshot", EPOCH)
    repo.write("A.java", "class A {\n    int a;\n    int b;\n}\n")
    edit = repo.commit_all("edit", EPOCH + DAY)
    blob = repo.git("rev-parse", f"{edit}:A.java").strip()
    (repo.path / ".git" / "objects" / blob[:2] / blob[2:]).unlink()
    result = mine_window(repo.path, make_window(repo.path, snapshot, "main"),
                         snapshot_corpus(repo, snapshot, "gone"))
    assert [(d.file, d.message) for d in result.diagnostics] == [("A.java", f"unreadable blob {blob} in {edit[:12]}")]
    assert result.commits[0].files == [("M", "A.java", 0, 3)]  # the three readable lines count as deleted


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


def test_branch_named_like_a_top_level_path(git_repo_factory):
    repo = git_repo_factory(branch="main")
    repo.write("A.java", "class A {}\n")
    repo.write("main", "a file named like the branch\n")
    snapshot = repo.commit_all("snapshot", EPOCH)
    repo.write("A.java", "class A {\n    int a;\n}\n")
    head = repo.commit_all("edit", EPOCH + DAY)
    assert [e.commit for e in first_parent_chain(repo.path, "main")] == [head, snapshot]
    window = make_window(repo.path, snapshot, "main")
    assert [c.commit for c in window.commits] == [head]
