import importlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smellstab.cli
from smellstab.cli import main as cli_main
import smellstab.mining.gitio
import smellstab.mining.miner
import smellstab.pipeline
import smellstab.stats.suite
from smellstab.io_utils import read_csv, write_csv
from smellstab.manifest import filter_manifest, load_manifest
from smellstab.pipeline import (
    DATASET_HEADER,
    PipelineConfig,
    PipelineIntegrityError,
    export_dataset,
    run_pipeline,
    run_stats,
    stage_inputs,
)
from smellstab.smells import ThresholdConfig

from simulate import simulate_observation_rows
from testkit import EPOCH, GitRepo, record_processes

DAY = 86400

PROV1 = "public class Prov1 {\n" + "".join(
    f"    public int {c};\n" for c in "abcdef") + "}\n"
ENVY = (
    "public class Envy {\n"
    "    int crave(Prov1 p) { return p.a + p.b + p.c + p.d + p.e + p.f; }\n"
    "}\n"
)
ENVY_V1 = (
    "public class Envy {\n"
    "    int extra;\n"
    "    int crave(Prov1 p) { return p.a + p.b + p.c + p.d + p.e + p.f; }\n"
    "}\n"
)
QUIET_V0 = "public class Quiet {\n    int q;\n}\n"
QUIET_V1 = "public class Quiet {\n    int q;\n    int r;\n    int s;\n}\n"
SHIFT = "public class Shift {\n    int s;\n    void pull(Prov1 p) { s = p.a; }\n}\n"
ALPHA_V0 = "public class Alpha {\n    int a;\n}\n"
ALPHA_V1 = "public class Alpha {\n    int a;\n    int b;\n}\n"
BETA = "public class Beta {\n    int b;\n}\n"


@pytest.fixture(scope="module")
def fixture_projects(tmp_path_factory):
    base = tmp_path_factory.mktemp("repos")
    one = GitRepo(base / "one")
    one.write("Prov1.java", PROV1)
    one.write("Envy.java", ENVY)
    one.write("Quiet.java", QUIET_V0)
    one.write("Shift.java", SHIFT)
    snap_one = one.commit_all("snapshot", EPOCH)
    one.write("Quiet.java", QUIET_V1)
    one.commit_all("grow quiet", EPOCH + 5 * DAY)
    one.write("Envy.java", ENVY_V1)
    one.commit_all("extend envy", EPOCH + 9 * DAY)
    one.write("Quiet.java", QUIET_V1 + "// trailing\n")
    one.commit_all("outside window", EPOCH + 400 * DAY)

    two = GitRepo(base / "two")
    two.write("Alpha.java", ALPHA_V0)
    two.write("Beta.java", BETA)
    snap_two = two.commit_all("snapshot", EPOCH)
    two.write("Alpha.java", ALPHA_V1)
    two.commit_all("touch alpha", EPOCH + 3 * DAY)
    return {
        "one": (one, snap_one),
        "two": (two, snap_two),
    }


def _manifest_line(repo_id, repo: GitRepo, snapshot: str, **overrides):
    rec = {
        "repo": repo_id, "stars": 500, "forks": 200, "contributors": 25,
        "java_fraction": 0.95, "window_commits": 60, "education_flag": False,
        "clone_path": str(repo.path), "snapshot": snapshot, "branch": "main",
    }
    rec.update(overrides)
    return json.dumps(rec)


def _write_manifest(path: Path, fixture_projects, extra_lines=()) -> Path:
    one, snap_one = fixture_projects["one"]
    two, snap_two = fixture_projects["two"]
    lines = [
        _manifest_line("fix/one", one, snap_one),
        _manifest_line("fix/two", two, snap_two),
        *extra_lines,
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def _run(tmp_path, fixture_projects, name="out", extra_lines=()):
    manifest = _write_manifest(tmp_path / f"manifest_{name}.jsonl", fixture_projects, extra_lines)
    config = PipelineConfig(manifest=str(manifest), output_dir=str(tmp_path / name), seed=7)
    outcome = run_pipeline(config)
    return config, outcome


def test_end_to_end_dataset_and_results(tmp_path, fixture_projects):
    config, outcome = _run(tmp_path, fixture_projects)
    assert sorted(outcome.accepted) == ["fix/one", "fix/two"]
    header, rows = read_csv(Path(config.output_dir) / "dataset.csv")
    assert header == DATASET_HEADER
    by_class = {(r["project"], r["class"]): r for r in rows}
    assert len(by_class) == 6
    envy = by_class[("fix/one", "Envy")]
    assert envy["IsSmelly"] == "true"
    assert envy["#SmellFoc"] == "1"
    assert envy["VarSmellFoc"] == "1"
    assert envy["HasSmellEff"] == "true"
    assert envy["HasEffCoup"] == "true"
    assert envy["HasEffInt"] == "true"
    assert envy["#EffSmellInt"] == "1"
    assert envy["EffIntInten"] == "7"  # parameter edge + six field-use edges
    assert envy["#EffNei"] == "1"
    assert (envy["ChF"], envy["ChS"]) == ("1", "1")
    prov = by_class[("fix/one", "Prov1")]
    assert prov["IsSmelly"] == "true"  # Data Class
    assert prov["#EffNei"] == "0"
    shift = by_class[("fix/one", "Shift")]
    assert shift["IsSmelly"] == "false"
    assert shift["HasSmellEff"] == "true"
    quiet = by_class[("fix/one", "Quiet")]
    assert (quiet["ChF"], quiet["ChS"]) == ("1", "2")
    _, results = read_csv(Path(config.output_dir) / "results.csv")
    assert len(results) == 34
    assert all(r["accepted"] in ("true", "false") for r in results)
    activity_path = Path(config.output_dir) / "activity.csv"
    _, activity = read_csv(activity_path)
    commits_row = next(r for r in activity if r["measure"] == "window_commits")
    assert commits_row["min"] == "1" and commits_row["max"] == "2"

    analyze_dir = Path(config.output_dir) / "projects" / "fix__one" / "analyze"
    assert (analyze_dir / "corpus.json").exists()
    assert b"\r" not in (analyze_dir / "edges.csv").read_bytes()  # "\n" ends, as every CSV
    mh, mrows = read_csv(analyze_dir / "metrics_method.csv")
    assert mh[:5] == ["project", "method", "signature", "enclosing_class", "loc"]
    crave = next(r for r in mrows if r["method"] == "Envy.crave")
    assert crave["atfd_m"] == "6" and crave["fdp"] == "1"
    _, smell_rows = read_csv(analyze_dir / "smells.csv")
    listed = {(r["smell"], r["host"]) for r in smell_rows}
    assert listed == {("FE", "Envy.crave(Prov1)"), ("DC", "Prov1")}
    meta = json.loads((analyze_dir / "smells.csv.meta.json").read_text())
    assert meta["per_strategy_counts"]["FE"] == 1
    assert meta["config"]["thresholds"]["FEW"] == 5


def test_rerun_is_byte_identical(tmp_path, fixture_projects):
    config_a, _ = _run(tmp_path, fixture_projects, name="run_a")
    config_b, _ = _run(tmp_path, fixture_projects, name="run_b")
    for name in ("dataset.csv", "results.csv"):
        a = (Path(config_a.output_dir) / name).read_bytes()
        b = (Path(config_b.output_dir) / name).read_bytes()
        assert a == b, name


def test_cached_rerun_skips_and_matches(tmp_path, fixture_projects):
    config, _ = _run(tmp_path, fixture_projects, name="cached")
    first = (Path(config.output_dir) / "dataset.csv").read_bytes()
    stats = {name: (Path(config.output_dir) / name).read_bytes() for name in ("results.csv", "fits.json")}
    outcome = run_pipeline(config)  # second run over the same output dir
    assert not outcome.quarantined
    assert (Path(config.output_dir) / "dataset.csv").read_bytes() == first
    for name, before in stats.items():
        assert (Path(config.output_dir) / name).read_bytes() == before, name


def test_quarantine_isolates_broken_project(tmp_path, fixture_projects, caplog):
    broken = json.dumps({
        "repo": "fix/broken", "stars": 900, "forks": 200, "contributors": 25,
        "java_fraction": 0.95, "window_commits": 60, "education_flag": False,
        "clone_path": str(tmp_path / "nowhere"), "snapshot": "f" * 40, "branch": "main",
    })
    config, outcome = _run(tmp_path, fixture_projects, name="quar", extra_lines=[broken])
    assert set(outcome.quarantined) == {"fix/broken"}
    assert sorted(outcome.accepted) == ["fix/one", "fix/two"]
    _, rows = read_csv(Path(config.output_dir) / "dataset.csv")
    assert len(rows) == 6
    doc = json.loads((Path(config.output_dir) / "quarantine.json").read_text())
    assert doc["quarantined"] == outcome.quarantined
    why = doc["quarantined"]["fix/broken"]
    assert set(why) == {"stage", "type", "message"}
    assert why["stage"] == "analyze"
    assert why["type"] == "GitError" and why["message"]
    assert "Traceback" not in json.dumps(doc)
    logged = [r for r in caplog.records if r.getMessage() == "quarantined fix/broken in analyze"]
    assert len(logged) == 1 and logged[0].exc_info[0].__name__ == "GitError"


def test_no_author_identity_leaks_into_outputs(tmp_path, fixture_projects):
    config, _ = _run(tmp_path, fixture_projects, name="anon")
    needles = (b"Fixture Committer", b"fixture.committer")
    for path in sorted(Path(config.output_dir).rglob("*")):
        if path.is_file() and path.suffix in (".csv", ".json"):
            blob = path.read_bytes()
            for needle in needles:
                assert needle not in blob, path


def test_dataset_roundtrip_lossless(tmp_path, fixture_projects):
    config, _ = _run(tmp_path, fixture_projects, name="trip")
    src = Path(config.output_dir) / "dataset.csv"
    header, rows = read_csv(src)
    copy = Path(config.output_dir) / "dataset_copy.csv"
    write_csv(copy, header, [[r[c] for c in header] for r in rows])
    assert copy.read_bytes() == src.read_bytes()


def test_interrupted_write_keeps_previous_file(tmp_path):
    path = tmp_path / "dataset.csv"
    write_csv(path, ["a", "b"], [[1, 2]])
    before = path.read_bytes()

    def rows():
        yield [3, 4]
        raise RuntimeError("crash mid-write")

    with pytest.raises(RuntimeError, match="crash mid-write"):
        write_csv(path, ["a", "b"], rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.csv"]


def test_duplicate_key_is_fatal(tmp_path):
    config = PipelineConfig(output_dir=str(tmp_path / "dup"))
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    row = ["p", "C"] + ["0"] * (len(DATASET_HEADER) - 2)
    with pytest.raises(PipelineIntegrityError):
        export_dataset([row, list(row)], config)


def test_empty_project_header_only_dataset(tmp_path, git_repo_factory):
    repo = git_repo_factory()
    repo.write("README.md", "no java here\n")
    snap = repo.commit_all("snapshot", EPOCH)
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text(json.dumps({
        "repo": "fix/empty", "stars": 1, "forks": 200, "contributors": 25,
        "java_fraction": 0.95, "window_commits": 60, "education_flag": False,
        "clone_path": str(repo.path), "snapshot": snap, "branch": "main",
    }) + "\n")
    config = PipelineConfig(manifest=str(manifest), output_dir=str(tmp_path / "empty_out"))
    run_pipeline(config, stages=("analyze", "mine", "join"))
    content = (Path(config.output_dir) / "dataset.csv").read_text()
    assert content.splitlines() == [",".join(DATASET_HEADER)]


def test_cli_all_and_report(tmp_path, fixture_projects, capsys):
    manifest = _write_manifest(tmp_path / "cli_manifest.jsonl", fixture_projects)
    out_dir = tmp_path / "cli_out"
    cfg_path = tmp_path / "cli_config.json"
    cfg_path.write_text(json.dumps({
        "manifest": str(manifest), "output_dir": str(out_dir), "seed": 3,
    }))
    assert cli_main(["all", "--config", str(cfg_path)]) == 0
    assert cli_main(["report", "--config", str(cfg_path)]) == 0
    printed = capsys.readouterr().out
    assert "H1.1" in printed and "verdict" in printed
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "fits.json").exists()
    assert (out_dir / "quantile_residuals.csv").exists()


def test_parallel_workers_identical_output(tmp_path, fixture_projects):
    manifest = _write_manifest(tmp_path / "workers_manifest.jsonl", fixture_projects)
    serial = PipelineConfig(manifest=str(manifest), output_dir=str(tmp_path / "w1"), workers=1)
    run_pipeline(serial)
    parallel = PipelineConfig(manifest=str(manifest), output_dir=str(tmp_path / "w2"), workers=3)
    run_pipeline(parallel)
    a = (Path(serial.output_dir) / "dataset.csv").read_bytes()
    b = (Path(parallel.output_dir) / "dataset.csv").read_bytes()
    assert a == b


def test_config_echo_replays(tmp_path, fixture_projects):
    config, outcome = _run(tmp_path, fixture_projects, name="replay")
    echo_path = tmp_path / "echoed_config.json"
    meta = json.loads((Path(config.output_dir) / "dataset.csv.meta.json").read_text())
    echo_path.write_text(json.dumps(meta["config"]))
    replayed = PipelineConfig.from_file(echo_path)
    accepted, _ = filter_manifest(load_manifest(config.manifest), config.project_limit)
    assert [e.repo for e in accepted] == outcome.accepted
    for entry in accepted:
        assert stage_inputs(entry, replayed) == stage_inputs(entry, config)
    assert replayed.thresholds == config.thresholds


def test_unknown_config_key_is_rejected(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"window_day": 30, "path_exclude": ["gen/*"], "seed": 1}))
    with pytest.raises(ValueError, match="path_exclude, window_day"):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize("thresholds, named", [
    ({"WMC_V": 40}, "unknown threshold keys WMC_V"),
    ({"threshold_schema_version": 7}, "threshold_schema_version 7"),
    ({"FEW": "5"}, "threshold FEW must be a number"),
    ({"MANY": True}, "threshold MANY must be a number"),
])
def test_bad_threshold_config_names_the_key(tmp_path, thresholds, named):
    path = tmp_path / "thresholds.json"
    path.write_text(json.dumps({"thresholds": thresholds}))
    with pytest.raises(ValueError, match=named):
        PipelineConfig.from_file(path)


def test_threshold_echo_with_its_schema_version_loads(tmp_path):
    path = tmp_path / "echo.json"
    path.write_text(json.dumps({"thresholds": ThresholdConfig(FEW=4).echo()}))
    assert ThresholdConfig(FEW=4).echo()["threshold_schema_version"] == 1
    assert PipelineConfig.from_file(path).thresholds == ThresholdConfig(FEW=4)


def test_cli_stage_sequence(tmp_path, fixture_projects, capsys):
    manifest = _write_manifest(tmp_path / "seq_manifest.jsonl", fixture_projects)
    out_dir = tmp_path / "seq_out"
    cfg_path = tmp_path / "seq_config.json"
    cfg_path.write_text(json.dumps({"manifest": str(manifest), "output_dir": str(out_dir)}))
    for command in ("analyze", "mine", "join", "stats"):
        assert cli_main([command, "--config", str(cfg_path)]) == 0
    assert (out_dir / "dataset.csv").exists()
    assert (out_dir / "results.csv").exists()


def test_cli_defaults_to_one_blas_thread_unless_set(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    importlib.reload(smellstab.cli)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    importlib.reload(smellstab.cli)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_no_command_loads_scipy(tmp_path):
    """scipy is a test oracle only: neither the CLI's import nor a stats run loads any of it."""
    src = str(Path(smellstab.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rows = simulate_observation_rows(4, 30, seed=3)
    write_csv(out_dir / "dataset.csv", list(rows[0]), [list(r.values()) for r in rows])
    code = (
        "import sys, smellstab.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        f"assert smellstab.cli.main(['stats', '--output-dir', {str(out_dir)!r}]) == 0\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")
    assert (out_dir / "quantile_residuals.csv").exists()


def test_cli_filter(tmp_path, fixture_projects, capsys):
    manifest = _write_manifest(tmp_path / "filter_manifest.jsonl", fixture_projects)
    out_dir = tmp_path / "filter_out"
    assert cli_main([
        "filter", "--manifest", str(manifest), "--output-dir", str(out_dir),
    ]) == 0
    doc = json.loads((out_dir / "selection.json").read_text())
    assert doc["accepted"] == ["fix/one", "fix/two"]


def test_cli_analyze_keeps_a_project_with_files_cut_short(tmp_path, git_repo_factory):
    """A file that ends inside a class body is a parse failure, and a method body
    that ends inside an annotation's arguments is scanned up to there: neither
    quarantines the project."""
    repo = git_repo_factory()
    repo.write("Q.java", "public class Q {}\n")
    repo.write("A.java", "public class A {\n    void f() { new Q(); @A( }\n}\n")
    repo.write("Cut.java", "public class Cut {\n    int x;\n")
    snapshot = repo.commit_all("snapshot", EPOCH)
    manifest = tmp_path / "cut_manifest.jsonl"
    manifest.write_text(_manifest_line("fix/cut", repo, snapshot) + "\n")
    out_dir = tmp_path / "cut_out"
    assert cli_main(["analyze", "--manifest", str(manifest), "--output-dir", str(out_dir)]) == 0
    assert json.loads((out_dir / "quarantine.json").read_text()) == {"quarantined": {}}
    analyze_dir = out_dir / "projects" / "fix__cut" / "analyze"
    corpus = json.loads((analyze_dir / "corpus.json").read_text())
    assert corpus["diagnostics"] == [
        {"file": "Cut.java", "message": "parse failure: line 2: expected member declaration, got '<eof>'"}]
    _, edges = read_csv(analyze_dir / "edges.csv")
    assert ["create", "A.f()", "Q"] in [[e["relation"], e["source"], e["target"]] for e in edges]


# -- one parse per snapshot; stage keys from exactly the inputs a stage reads --

KEEP_V0 = "public class Keep {\n    int k;\n}\n"
KEEP_V1 = "public class Keep {\n    int k;\n    int l;\n}\n"
DROP = "public class B {\n    int b;\n}\n"
STAY_V0 = "public class Stay {\n    int s;\n}\n"
STAY_V1 = "public class Stay {\n    int s;\n    int t;\n}\n"


@pytest.fixture
def three_commits(git_repo_factory):
    """Snapshot with Keep, B and Stay; B.java is deleted, then Stay is edited."""
    repo = git_repo_factory()
    repo.write("Keep.java", KEEP_V0)
    repo.write("B.java", DROP)
    repo.write("Stay.java", STAY_V0)
    first = repo.commit_all("snapshot", EPOCH)
    repo.remove("B.java")
    repo.write("Keep.java", KEEP_V1)
    second = repo.commit_all("drop B", EPOCH + 5 * DAY)
    repo.write("Stay.java", STAY_V1)
    repo.commit_all("grow Stay", EPOCH + 9 * DAY)
    return repo, first, second


def _single_project(tmp_path, repo, snapshot, **config):
    manifest = tmp_path / "single.jsonl"
    manifest.write_text(_manifest_line("fix/three", repo, snapshot) + "\n")
    config = PipelineConfig(manifest=str(manifest), output_dir=str(tmp_path / "out"), **config)
    outcome = run_pipeline(config, stages=("analyze", "mine", "join"))
    assert not outcome.quarantined
    return config


def _classes(config, *names):
    base = Path(config.output_dir)
    project = base / "projects" / "fix__three"
    paths = {"observations.csv": project / "analyze" / "observations.csv",
             "outcomes.csv": project / "mine" / "outcomes.csv",
             "dataset.csv": base / "dataset.csv"}
    return {name: sorted(r["class"] for r in read_csv(paths[name])[1]) for name in names or paths}


def test_moved_snapshot_leaves_no_phantom_class(tmp_path, three_commits):
    repo, first, second = three_commits
    config = _single_project(tmp_path, repo, first)
    assert _classes(config)["observations.csv"] == ["B", "Keep", "Stay"]
    config = _single_project(tmp_path, repo, second)
    assert _classes(config) == {name: ["Keep", "Stay"]
                                for name in ("observations.csv", "outcomes.csv", "dataset.csv")}
    assert not (Path(config.output_dir) / "snapshots").exists()


def test_path_excludes_change_reruns_mine(tmp_path, three_commits):
    repo, first, _ = three_commits
    config = _single_project(tmp_path, repo, first)
    assert _classes(config, "outcomes.csv") == {"outcomes.csv": ["B", "Keep", "Stay"]}
    config = _single_project(tmp_path, repo, first, path_excludes=("B.java",))
    assert _classes(config) == {name: ["Keep", "Stay"]
                                for name in ("observations.csv", "outcomes.csv", "dataset.csv")}


def _outcomes(config):
    rows = read_csv(Path(config.output_dir) / "projects" / "fix__three" / "mine" / "outcomes.csv")[1]
    return {r["class"]: (int(r["ChF"]), int(r["ChS"])) for r in rows}


def test_new_branch_commit_reruns_mine(tmp_path, git_repo_factory):
    repo = git_repo_factory()
    repo.write("A.java", "public class A {\n    int a;\n}\n")
    repo.write("B.java", DROP)
    snapshot = repo.commit_all("snapshot", EPOCH)
    repo.write("A.java", "public class A {\n    int a;\n    int c;\n}\n")
    repo.commit_all("edit A", EPOCH + 5 * DAY)
    config = _single_project(tmp_path, repo, snapshot)
    assert _outcomes(config) == {"A": (1, 1), "B": (0, 0)}
    repo.write("B.java", DROP.replace("int b;", "int b;\n    int c;"))
    repo.commit_all("edit B", EPOCH + 9 * DAY)  # the clone was fetched again
    config = _single_project(tmp_path, repo, snapshot)
    assert _outcomes(config) == {"A": (1, 1), "B": (1, 1)}


def test_cached_project_takes_at_most_one_git_process(tmp_path, three_commits, monkeypatch):
    repo, first, _ = three_commits
    _single_project(tmp_path, repo, first)
    spawns = []
    real_run = smellstab.mining.gitio.subprocess.run

    def counting_run(argv, *args, **kwargs):
        spawns.append(argv)
        return real_run(argv, *args, **kwargs)

    monkeypatch.setattr(smellstab.mining.gitio.subprocess, "run", counting_run)
    _single_project(tmp_path, repo, first, seed=5)
    assert len(spawns) <= 1  # git rev-parse, where the branch's ref file cannot be read


def test_each_snapshot_is_ingested_at_most_once(tmp_path, three_commits, monkeypatch):
    repo, first, _ = three_commits
    calls = []
    real = smellstab.pipeline.ingest_corpus

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(smellstab.pipeline, "ingest_corpus", counting)
    config = _single_project(tmp_path, repo, first)
    assert len(calls) == 1
    mine_marker = Path(config.output_dir) / "projects" / "fix__three" / "mine" / "stage.json"
    marker_stat = mine_marker.stat()

    calls.clear()
    _single_project(tmp_path, repo, first, seed=11)
    assert calls == []

    _single_project(tmp_path, repo, first, thresholds=ThresholdConfig(FEW=4))
    assert len(calls) == 1
    after = mine_marker.stat()
    assert (after.st_ino, after.st_mtime_ns) == (marker_stat.st_ino, marker_stat.st_mtime_ns)


def test_stage_crash_leaves_no_valid_marker(tmp_path, three_commits, monkeypatch):
    repo, first, _ = three_commits
    config = _single_project(tmp_path, repo, first)
    marker = Path(config.output_dir) / "projects" / "fix__three" / "analyze" / "stage.json"
    assert marker.exists()

    def crash(*args, **kwargs):
        raise RuntimeError("crash mid-stage")

    monkeypatch.setattr(smellstab.pipeline, "extract_dependencies", crash)
    config.thresholds = ThresholdConfig(FEW=4)
    outcome = run_pipeline(config, stages=("analyze",))
    assert outcome.quarantined == {"fix/three": {
        "stage": "analyze", "type": "RuntimeError", "message": "crash mid-stage"}}
    assert not marker.exists()


GARBLED_MARKERS = [b"[]", b'"x"', b"null", b"\xff\xfe{"]


@pytest.mark.parametrize("garbled", GARBLED_MARKERS, ids=["list", "string", "null", "not-utf8"])
def test_garbled_stage_marker_is_a_miss(tmp_path, three_commits, garbled):
    repo, first, _ = three_commits
    config = _single_project(tmp_path, repo, first)
    project = Path(config.output_dir) / "projects" / "fix__three"
    before = {p: p.read_bytes() for p in sorted(project.rglob("*")) if p.is_file()}
    for stage in ("analyze", "mine"):
        (project / stage / "stage.json").write_bytes(garbled)
    _single_project(tmp_path, repo, first)  # asserts that nothing is quarantined
    assert {p: p.read_bytes() for p in sorted(project.rglob("*")) if p.is_file()} == before


def test_project_sidecars_echo_their_stage_inputs(tmp_path, three_commits):
    repo, first, _ = three_commits
    config = _single_project(tmp_path, repo, first, seed=3)
    entry = filter_manifest(load_manifest(config.manifest))[0][0]
    inputs = stage_inputs(entry, config)
    project = Path(config.output_dir) / "projects" / "fix__three"
    for stage, name in (("analyze", "observations.csv"), ("analyze", "smells.csv"),
                        ("mine", "outcomes.csv")):
        meta = json.loads((project / stage / f"{name}.meta.json").read_text())
        assert meta["config"] == inputs[stage]
    assert "seed" not in inputs["analyze"] and "seed" not in inputs["mine"]


def test_no_git_process_outlives_a_quarantined_mine(tmp_path, fixture_projects, monkeypatch):
    started = record_processes(monkeypatch)

    def failing_lines(text):
        raise RuntimeError("lexer failure")

    monkeypatch.setattr(smellstab.mining.miner, "logical_lines", failing_lines)
    config, outcome = _run(tmp_path, fixture_projects, name="quar_mine")
    assert sorted(outcome.quarantined) == ["fix/one", "fix/two"]
    doc = json.loads((Path(config.output_dir) / "quarantine.json").read_text())
    assert {why["stage"] for why in doc["quarantined"].values()} == {"mine"}
    readers = [p for p in started if p.args[3] == "cat-file"]
    assert len(readers) == 4  # per project: the snapshot's blobs, then the window's
    assert all(p.returncode is not None for p in started)


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_code_change_invalidates_every_stage(tmp_path, fixture_projects, monkeypatch):
    config, _ = _run(tmp_path, fixture_projects, name="digest")
    calls = []
    _counting(monkeypatch, smellstab.pipeline, "ingest_corpus", calls)
    _counting(monkeypatch, smellstab.pipeline, "mine_window", calls)
    _counting(monkeypatch, smellstab.stats.suite, "fit_negbin_random_intercept", calls)
    run_pipeline(config)
    assert calls == []
    monkeypatch.setattr(smellstab.pipeline, "code_digest", lambda: "0" * 64)
    run_pipeline(config)
    assert set(calls) == {"ingest_corpus", "mine_window", "fit_negbin_random_intercept"}


# -- the stats stage's fit cache ---------------------------------------------------

STATS_OUTPUTS = ("results.csv", "results.csv.meta.json", "fits.json",
                 "quantile_residuals.csv", "quantile_residuals.csv.meta.json")


@pytest.fixture
def stats_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    rows = simulate_observation_rows(6, 40, seed=41)
    write_csv(out / "dataset.csv", list(rows[0]), [list(r.values()) for r in rows])
    return out


@pytest.fixture
def fits(monkeypatch):
    calls = []
    _counting(monkeypatch, smellstab.stats.suite, "fit_negbin_random_intercept", calls)
    return calls


def _stats(out, seed):
    run_stats(PipelineConfig(output_dir=str(out), seed=seed))
    return {name: (out / name).read_bytes() for name in STATS_OUTPUTS}


def _edit_one_cell(out):
    header, rows = read_csv(out / "dataset.csv")
    rows[0]["ChF"] = str(int(rows[0]["ChF"]) + 1)
    write_csv(out / "dataset.csv", header, [[r[c] for c in header] for r in rows])


def test_warm_stats_rerun_writes_what_a_cold_run_writes(stats_out, fits, caplog):
    caplog.set_level(logging.INFO, logger="smellstab.pipeline")
    cold = _stats(stats_out, seed=5)
    assert len(fits) > 34  # the 34 models and the null models
    fitted = len(fits)
    other = _stats(stats_out, seed=6)
    assert other["results.csv"] == cold["results.csv"]
    assert other["quantile_residuals.csv"] != cold["quantile_residuals.csv"]
    assert _stats(stats_out, seed=5) == cold
    assert len(fits) == fitted
    key = json.loads((stats_out / "stats" / "stage.json").read_text())["key"][:12]
    said = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stats: ")]
    assert said == [f"stats: fitting the suite (key {key})",
                    f"stats: reusing the cached fits (key {key})",
                    f"stats: reusing the cached fits (key {key})"]
    for blob in cold.values():
        assert b"stats: " not in blob and key.encode() not in blob


def test_changed_dataset_cell_refits(stats_out, fits):
    cold = _stats(stats_out, seed=5)
    fitted = len(fits)
    _edit_one_cell(stats_out)
    changed = _stats(stats_out, seed=5)
    assert len(fits) == 2 * fitted
    assert changed["results.csv"] != cold["results.csv"]


def test_stats_crash_leaves_no_valid_marker(stats_out, monkeypatch):
    _stats(stats_out, seed=5)
    marker = stats_out / "stats" / "stage.json"
    assert marker.exists()
    real = smellstab.stats.suite.fit_negbin_random_intercept
    calls = []

    def crash_on_fifth(design):
        calls.append(design)
        if len(calls) == 5:
            raise RuntimeError("crash mid-suite")
        return real(design)

    monkeypatch.setattr(smellstab.stats.suite, "fit_negbin_random_intercept", crash_on_fifth)
    _edit_one_cell(stats_out)
    with pytest.raises(RuntimeError, match="crash mid-suite"):
        run_stats(PipelineConfig(output_dir=str(stats_out), seed=5))
    assert not marker.exists()


@pytest.mark.parametrize("garbled", GARBLED_MARKERS, ids=["list", "string", "null", "not-utf8"])
def test_garbled_stats_marker_refits(stats_out, fits, garbled):
    cold = _stats(stats_out, seed=5)
    fitted = len(fits)
    marker = stats_out / "stats" / "stage.json"
    valid = marker.read_bytes()
    marker.write_bytes(garbled)
    assert _stats(stats_out, seed=5) == cold
    assert len(fits) == 2 * fitted
    assert marker.read_bytes() == valid


@pytest.mark.parametrize("damage", ["delete", "truncate"])
@pytest.mark.parametrize("name", ["suite.json", "suite.npz"])
def test_unreadable_stats_cache_refits(stats_out, fits, caplog, name, damage):
    cold = _stats(stats_out, seed=5)
    fitted = len(fits)
    path = stats_out / "stats" / name
    if damage == "delete":
        path.unlink()
    else:
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert _stats(stats_out, seed=5) == cold
    assert len(fits) == 2 * fitted
    assert [r.levelname for r in caplog.records if "stats cache" in r.getMessage()] == ["WARNING"]
    assert _stats(stats_out, seed=5) == cold  # the rewritten cache is read again
    assert len(fits) == 2 * fitted
