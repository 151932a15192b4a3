import contextlib
import dataclasses
import functools
import importlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import smellstab.cli
import smellstab.metrics
from smellstab.cli import main as cli_main
import smellstab.mining.gitio
import smellstab.mining.miner
import smellstab.pipeline
import smellstab.stats.suite
from smellstab.corpus import ingest_corpus
from smellstab.graph import extract_dependencies
from smellstab.io_utils import read_csv, write_csv
from smellstab.manifest import ProjectManifestEntry, filter_manifest, load_manifest
from smellstab.metrics import ClassMetrics, MethodMetrics
from smellstab.pipeline import (
    DATASET_HEADER,
    PipelineConfig,
    PipelineIntegrityError,
    analyze_project,
    export_dataset,
    metric_tables,
    run_pipeline,
    run_stats,
    stage_inputs,
)
from smellstab.smells import ThresholdConfig, detect_smells_with_diagnostics
from smellstab.stats import run_hypothesis_suite
from smellstab.stats.suite import RESULTS_HEADER

import stats_oracle
from simulate import simulate_observation_rows
from javafix import SMELL_FIXTURES
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
        for stage in ("analyze", "mine"):
            assert stage_inputs(stage, entry, replayed) == stage_inputs(stage, entry, config)
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


@pytest.mark.parametrize("doc, named", [
    ({"thresholds": {"FEW": 5.5}}, "threshold FEW must be a whole number, got 5.5"),
    ({"thresholds": {"NOM_AVG": 7.0}}, "threshold NOM_AVG must be a whole number, got 7.0"),
    ([], "config is not a JSON object"),
    ({"thresholds": "x"}, "thresholds must be a JSON object, got 'x'"),
    ({"thresholds": None}, "thresholds must be a JSON object, got None"),
    ({"thresholds": {"AMW_AVG": float("nan")}}, "threshold AMW_AVG must be a finite number, got nan"),
    ({"rename_threshold": float("inf")}, "rename_threshold must be a finite number, got inf"),
    ({"split_threshold": float("-inf")}, "split_threshold must be a finite number, got -inf"),
    ({"path_excludes": "gen/*"}, "path_excludes must be a list of strings, got 'gen/*'"),
    ({"include_deleted": "false"}, "include_deleted must be true or false, got 'false'"),
    ({"window_days": "365"}, "window_days must be a number, got '365'"),
    ({"seed": "3"}, "seed must be a number, got '3'"),
    ({"workers": 1.5}, "workers must be a whole number, got 1.5"),
    ({"project_limit": True}, "project_limit must be a number, got True"),
    ({"manifest": 5}, "manifest must be a string, got 5"),
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"rename_threshold": 1.5}, "rename_threshold must be between 0 and 1, got 1.5"),
    ({"split_threshold": -0.1}, "split_threshold must be between 0 and 1, got -0.1"),
    ({"window_days": -30}, "window_days must be at least 1, got -30"),
    ({"window_days": 0}, "window_days must be at least 1, got 0"),
    ({"project_limit": -1}, "project_limit must be non-negative, got -1"),
    ({"workers": -4}, "workers must be at least 1, got -4"),
    ({"workers": 0}, "workers must be at least 1, got 0"),
], ids=["fractional-FEW", "fractional-NOM_AVG", "list", "string-thresholds", "null-thresholds",
        "nan-AMW_AVG", "infinite-rename", "minus-infinite-split", "string-path_excludes",
        "string-include_deleted", "string-window_days", "string-seed", "fractional-workers",
        "bool-project_limit", "int-manifest", "negative-seed", "rename-above-1", "negative-split",
        "negative-window_days", "zero-window_days", "negative-project_limit", "negative-workers",
        "zero-workers"])
def test_malformed_config_is_refused_naming_the_key(tmp_path, doc, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(named)):
        PipelineConfig.from_file(path)


def test_settings_at_the_ends_of_their_ranges_load(tmp_path):
    path = tmp_path / "config.json"
    edges = {"rename_threshold": 0, "split_threshold": 1.0, "window_days": 1,
             "project_limit": 0, "workers": 1, "seed": 0}
    path.write_text(json.dumps(edges))
    echo = PipelineConfig.from_file(path).echo()
    assert {name: echo[name] for name in edges} == edges


def test_whole_number_given_for_a_fractional_threshold_loads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"thresholds": {"AMW_AVG": 3, "FEW": 4}}))
    assert PipelineConfig.from_file(path).thresholds == ThresholdConfig(AMW_AVG=3, FEW=4)


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


def test_report_prints_each_number_with_its_exponent(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    row = dict.fromkeys(RESULTS_HEADER, "nan")
    row.update(hypothesis="H1.1", dv="ChF", beta="1.2345678e-05", p_raw="3.3333333e-07",
               p_bh="2.0000001e-06", converged="true", accepted="true")
    unfitted = dict(row, hypothesis="H1.2", beta="nan", p_raw="nan", p_bh="nan",
                    converged="false", accepted="false")
    write_csv(out_dir / "results.csv", RESULTS_HEADER,
              [[r[c] for c in RESULTS_HEADER] for r in (row, unfitted)])
    assert cli_main(["report", "--output-dir", str(out_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["H1.1", "ChF", "1.235e-05", "3.333e-07", "2e-06", "accepted"]
    assert lines[2].split() == ["H1.2", "ChF", "nan", "nan", "nan", "inconclusive"]
    assert len(lines[1]) == len(lines[0]) - len("verdict") + len("accepted")


def test_report_without_results_says_to_run_stats(tmp_path, capsys):
    assert cli_main(["report", "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "no results.csv yet; run `smellstab stats` first\n"


def test_report_lists_the_quarantined_projects(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    write_csv(out_dir / "results.csv", RESULTS_HEADER, [])
    why = {"stage": "mine", "type": "GitError", "message": "gone"}
    (out_dir / "quarantine.json").write_text(json.dumps({"quarantined": {"b/late": why, "a/early": why}}))
    assert cli_main(["report", "--output-dir", str(out_dir)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "quarantined projects: ['a/early', 'b/late']"


def test_duplicate_outcome_row_quarantines_its_project_in_join(tmp_path, fixture_projects, capsys):
    manifest = _write_manifest(tmp_path / "dup_manifest.jsonl", fixture_projects)
    out_dir = tmp_path / "dup_out"
    args = ["join", "--manifest", str(manifest), "--output-dir", str(out_dir)]
    assert cli_main(args) == 0
    outcomes = out_dir / "projects" / "fix__one" / "mine" / "outcomes.csv"
    first_row = outcomes.read_text().splitlines()[1]
    with open(outcomes, "a", newline="") as fh:
        fh.write(first_row + "\r\n")
    capsys.readouterr()
    assert cli_main(args) == 0  # the mine marker still holds: only join reads the file again
    printed = capsys.readouterr()
    message = "duplicate outcome key ('fix/one', 'Envy')"  # Envy sorts first of fix/one's classes
    why = {"stage": "join", "type": "PipelineIntegrityError", "message": message}
    assert json.loads((out_dir / "quarantine.json").read_text()) == {"quarantined": {"fix/one": why}}
    assert f"quarantined fix/one in join: PipelineIntegrityError: {message}\n" in printed.err
    assert printed.out.endswith("for 1 projects\n")
    _, rows = read_csv(out_dir / "dataset.csv")
    assert {r["project"] for r in rows} == {"fix/two"}


def test_negative_seed_on_the_command_line_changes_nothing(stats_out, capsys):
    _stats(stats_out, seed=5)
    before = {p: p.read_bytes() for p in stats_out.rglob("*") if p.is_file()}
    with pytest.raises(SystemExit) as exited:
        cli_main(["stats", "--output-dir", str(stats_out), "--seed", "-1"])
    assert exited.value.code == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in stats_out.rglob("*") if p.is_file()} == before


def test_stats_without_a_dataset_says_to_join_first(tmp_path, capsys):
    assert cli_main(["stats", "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "no dataset.csv yet; run `smellstab join` first\n"


def test_missing_config_file_is_a_one_line_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exited:
        cli_main(["stats", "--config", str(missing)])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err
    assert err.splitlines()[-1].startswith("smellstab: error: ")


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


SAME_ERASURE = (
    "package p;\nimport java.util.List;\npublic class A {\n    int f;\n"
    "    void g(Prov1 p, List<String> xs) { if (p.a > 0) { f = p.a + p.b + p.c + p.d + p.e + p.f; } }\n"
    "    void g(Prov1 p, List<Integer> xs) { f = p.a + p.b + p.c + p.d + p.e + p.f; }\n}\n"
)


def test_same_erasure_overload_is_dropped_keeping_the_first(tmp_path, git_repo_factory):
    """javac rejects two overloads with one erasure; analyze keeps the first, as it keeps the first duplicate type."""
    repo = git_repo_factory()
    repo.write("p/A.java", SAME_ERASURE)
    repo.write("p/Prov1.java", "package p;\n" + PROV1)
    manifest = tmp_path / "erasure.jsonl"
    manifest.write_text(_manifest_line("fix/erasure", repo, repo.commit_all("snapshot", EPOCH)) + "\n")
    out_dir = tmp_path / "out"
    assert cli_main(["analyze", "--manifest", str(manifest), "--output-dir", str(out_dir)]) == 0
    analyze_dir = out_dir / "projects" / "fix__erasure" / "analyze"
    methods = [(r["method"], r["signature"], r["cyclo"]) for r in read_csv(analyze_dir / "metrics_method.csv")[1]]
    assert methods == [("p.A.g", "Prov1,List", "2")]
    a = next(r for r in read_csv(analyze_dir / "metrics_class.csv")[1] if r["class"] == "p.A")
    assert (a["wmc"], a["nom"]) == ("2", "1")
    smells = [tuple(r.values()) for r in read_csv(analyze_dir / "smells.csv")[1]]
    assert ("FE", "method", "p.A.g(Prov1,List)", "p.A") in smells
    assert len(smells) == len(set(smells))
    assert json.loads((analyze_dir / "corpus.json").read_text())["diagnostics"] == [
        {"file": "p/A.java", "message": "duplicate method p.A.g(Prov1,List); keeping first"}]


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


ANALYZE_OUTPUTS = ["corpus.json", "edges.csv", "metrics_method.csv", "metrics_method.csv.meta.json",
                   "metrics_class.csv", "metrics_class.csv.meta.json", "smells.csv",
                   "smells.csv.meta.json", "observations.csv", "observations.csv.meta.json"]
STAGE_OUTPUTS = [("analyze", name) for name in ANALYZE_OUTPUTS] + [
    ("mine", "outcomes.csv"), ("mine", "outcomes.csv.meta.json")]


def _tree(root: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_stage_outputs_are_the_listed_files(tmp_path, three_commits):
    repo, first, _ = three_commits
    config = _single_project(tmp_path, repo, first)
    project = Path(config.output_dir) / "projects" / "fix__three"
    written = [(p.parent.name, p.name) for p in project.rglob("*") if p.is_file()]
    assert sorted(written) == sorted(STAGE_OUTPUTS + [("analyze", "stage.json"), ("mine", "stage.json")])


@pytest.mark.parametrize("stage, name", STAGE_OUTPUTS, ids=[f"{s}/{n}" for s, n in STAGE_OUTPUTS])
def test_deleted_stage_output_is_a_miss(tmp_path, three_commits, monkeypatch, caplog, stage, name):
    """A stage output gone from under a valid marker is recomputed, not a quarantine for good."""
    repo, first, _ = three_commits
    config = _single_project(tmp_path, repo, first)
    out = Path(config.output_dir)
    before = _tree(out)
    stage_dir = out / "projects" / "fix__three" / stage
    (stage_dir / name).unlink()
    calls = []
    _counting(monkeypatch, smellstab.pipeline, "extract_dependencies", calls)
    _counting(monkeypatch, smellstab.pipeline, "mine_window", calls)
    caplog.set_level(logging.WARNING)
    _single_project(tmp_path, repo, first)  # asserts that nothing is quarantined
    warned = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warned) == 1
    assert warned[0].startswith(f"{stage} cache in {stage_dir} unreadable (FileNotFoundError: ")
    assert calls == [{"analyze": "extract_dependencies", "mine": "mine_window"}[stage]]
    assert _tree(out) == before


# The README's table of what invalidates each per-project stage, field by field.
INVALIDATES = {
    "thresholds": {"analyze"},
    "window_days": {"mine"}, "rename_threshold": {"mine"}, "split_threshold": {"mine"},
    "include_deleted": {"mine"}, "branch": {"mine"},
    "snapshot": {"analyze", "mine"}, "path_excludes": {"analyze", "mine"},
    "seed": set(), "workers": set(), "project_limit": set(), "output_dir": set(), "manifest": set(),
}
CHANGED = {
    "thresholds": ThresholdConfig(FEW=4), "window_days": 30, "rename_threshold": 0.7,
    "split_threshold": 0.4, "include_deleted": False, "branch": "side", "path_excludes": ("gen/*",),
    "seed": 9, "workers": 3, "project_limit": 5, "output_dir": "elsewhere", "manifest": "other.jsonl",
}


@pytest.mark.parametrize("field", sorted(INVALIDATES))
def test_readme_invalidation_table_matches_stage_inputs(tmp_path, three_commits, field):
    repo, first, second = three_commits
    repo.git("branch", "side")
    manifest = tmp_path / "single.jsonl"
    manifest.write_text(_manifest_line("fix/three", repo, first) + "\n")
    config = PipelineConfig(manifest=str(manifest), output_dir=str(tmp_path / "out"))
    entry = filter_manifest(load_manifest(config.manifest))[0][0]
    changed_entry, changed_config = entry, config
    if field == "snapshot":
        changed_entry = dataclasses.replace(entry, snapshot=second)
    elif field == "branch":
        changed_entry = dataclasses.replace(entry, branch=CHANGED[field])
    else:
        changed_config = dataclasses.replace(config, **{field: CHANGED[field]})
    stale = {stage for stage in ("analyze", "mine")
             if stage_inputs(stage, changed_entry, changed_config) != stage_inputs(stage, entry, config)}
    assert stale == INVALIDATES[field]


def test_project_sidecars_echo_their_stage_inputs(tmp_path, three_commits):
    repo, first, _ = three_commits
    config = _single_project(tmp_path, repo, first, seed=3)
    entry = filter_manifest(load_manifest(config.manifest))[0][0]
    inputs = {stage: stage_inputs(stage, entry, config) for stage in ("analyze", "mine")}
    project = Path(config.output_dir) / "projects" / "fix__three"
    for stage, name in (("analyze", "observations.csv"), ("analyze", "smells.csv"),
                        ("mine", "outcomes.csv")):
        meta = json.loads((project / stage / f"{name}.meta.json").read_text())
        assert meta["config"] == inputs[stage]
    assert "seed" not in inputs["analyze"] and "seed" not in inputs["mine"]


def test_no_git_process_outlives_a_quarantined_mine(tmp_path, fixture_projects, monkeypatch):
    started = record_processes(monkeypatch)

    def failing_lines(text, *args):
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


def test_code_digest_is_computed_once_under_thread_workers(tmp_path, fixture_projects, monkeypatch):
    """Each worker's first stage key asks for the digest at once.  A slow
    first computation lets a second thread past ``functools.cache`` unless the
    digest is ready before the pool starts."""
    computed = []

    def slow_digest():
        computed.append(1)
        time.sleep(0.2)
        return real()

    real = smellstab.pipeline.code_digest.__wrapped__
    monkeypatch.setattr(smellstab.pipeline, "code_digest", functools.cache(slow_digest))
    manifest = _write_manifest(tmp_path / "manifest.jsonl", fixture_projects)
    config = PipelineConfig(manifest=str(manifest), output_dir=str(tmp_path / "out"), workers=2)
    assert len(run_pipeline(config, stages=("analyze",)).accepted) == 2
    assert len(computed) == 1


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

    def crash_on_fifth(design, *args):
        calls.append(design)
        if len(calls) == 5:
            raise RuntimeError("crash mid-suite")
        return real(design, *args)

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
@pytest.mark.parametrize("name", ["suite.json", "suite.bin"])
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


def test_cold_stats_run_removes_the_old_zip_store(stats_out):
    stage_dir = stats_out / "stats"
    stage_dir.mkdir()
    (stage_dir / "suite.npz").write_bytes(b"PK\x05\x06" + bytes(18))  # an empty zip, as older versions wrote
    _stats(stats_out, seed=5)
    assert sorted(p.name for p in stage_dir.iterdir()) == ["stage.json", "suite.bin", "suite.json"]


def _first_converged_model(out) -> int:
    models = json.loads((out / "stats" / "suite.json").read_text())["models"]
    return next(i for i, m in enumerate(models) if m.get("fit", {}).get("converged"))


@pytest.mark.parametrize("members", [("cdf_lower",), ("cdf_pmf",), ("cdf_lower", "cdf_pmf")],
                         ids=["lower", "pmf", "both"])
@pytest.mark.parametrize("damage", ["delete", "shorten"])
def test_incomplete_cached_bounds_refit(stats_out, fits, caplog, damage, members):
    """``suite.bin`` is left whole, so only the index entries of the bounds are at fault."""
    cold = _stats(stats_out, seed=5)
    fitted = len(fits)
    path = stats_out / "stats" / "suite.json"
    doc = json.loads(path.read_text())
    i = _first_converged_model(stats_out)
    for member in members:
        if damage == "delete":
            del doc["arrays"][f"{i}.{member}"]
        else:
            doc["arrays"][f"{i}.{member}"][1][0] -= 1  # one row short of the sample
    path.write_text(json.dumps(doc))
    assert _stats(stats_out, seed=5) == cold
    assert len(fits) == 2 * fitted
    assert [r.levelname for r in caplog.records if "stats cache" in r.getMessage()] == ["WARNING"]
    assert _stats(stats_out, seed=5) == cold  # the rewritten cache is read again
    assert len(fits) == 2 * fitted


def _first_bounds(suite, k: int) -> np.ndarray:
    """Item ``k`` of the first converged model's ``(label, source rows, lower, pmf)``."""
    with contextlib.closing(smellstab.stats.suite._cdf_bounds(suite)) as bounds:
        return next(bounds)[k]


@pytest.mark.parametrize("array_of", [functools.partial(_first_bounds, k=2), functools.partial(_first_bounds, k=1)],
                         ids=["bound", "rows"])
def test_flipped_byte_in_stats_cache_refits(stats_out, fits, caplog, array_of):
    """One flipped byte inside a stored array is a miss, found before any output is rewritten."""
    rows = simulate_observation_rows(10, 80, seed=41)  # bounds of 800 rows: more than one 4 KiB read
    write_csv(stats_out / "dataset.csv", list(rows[0]), [list(r.values()) for r in rows])
    cold = _stats(stats_out, seed=5)
    fitted = len(fits)
    suite = smellstab.stats.suite.load_suite(stats_out / "stats")
    needle = array_of(suite).tobytes()
    data = bytearray(suite.store.read_bytes())
    assert data.count(needle) == 1
    data[data.index(needle) + len(needle) - 1] ^= 0xFF  # the array's last byte
    suite.store.write_bytes(data)
    assert _stats(stats_out, seed=5) == cold
    assert len(fits) == 2 * fitted
    assert [r.levelname for r in caplog.records if "stats cache" in r.getMessage()] == ["WARNING"]
    assert _stats(stats_out, seed=5) == cold  # the rewritten cache is read again
    assert len(fits) == 2 * fitted


@pytest.mark.parametrize("edit", ["p_raw", "beta", "swapped_bounds"])
def test_edited_stats_cache_entry_refits(stats_out, fits, caplog, edit):
    """An edited number in ``suite.json`` is a miss, not a value in an output."""
    cold = _stats(stats_out, seed=5)
    fitted = len(fits)
    path = stats_out / "stats" / "suite.json"
    doc = json.loads(path.read_text())
    model = doc["models"][0]
    if edit == "p_raw":
        model["p_raw"], model["status"] = 0.5, "accepted"
    elif edit == "beta":
        model["fit"]["coefficients"][model["iv"]]["beta"] += 1.0
    else:  # both entries stay plain arrays of one value per row, inside the file
        i = _first_converged_model(stats_out)
        lower, pmf = doc["arrays"][f"{i}.cdf_lower"], doc["arrays"][f"{i}.cdf_pmf"]
        lower[2], pmf[2] = pmf[2], lower[2]
    path.write_text(json.dumps(doc))
    assert _stats(stats_out, seed=5) == cold
    assert len(fits) == 2 * fitted
    assert [r.levelname for r in caplog.records if "stats cache" in r.getMessage()] == ["WARNING"]


@pytest.mark.parametrize("smelly", [False, True], ids=["both_populations", "no_non_smelly"])
def test_stats_cache_stores_rows_per_population_and_bounds_per_converged_model(stats_out, smelly):
    if smelly:
        header, rows = read_csv(stats_out / "dataset.csv")
        write_csv(stats_out / "dataset.csv", header,
                  [[r[c] if c != "IsSmelly" else "true" for c in header] for r in rows])
    _stats(stats_out, seed=5)
    doc = json.loads((stats_out / "stats" / "suite.json").read_text())
    models = doc["models"]
    populations = {m["population"] for m in models if "fit" in m}
    converged = [i for i, m in enumerate(models) if "fit" in m and m["fit"]["converged"]]
    assert populations == ({"all"} if smelly else {"all", "non_smelly"})
    assert sorted(doc["arrays"]) == sorted([f"{p}.row_index" for p in populations]
                                           + [f"{i}.{b}" for i in converged for b in ("cdf_lower", "cdf_pmf")])


_opened: list[str] | None = None  # the names of the files opened while a test records them


def _note_open(event: str, args: tuple) -> None:
    if event == "open" and _opened is not None and isinstance(args[0], (str, bytes, os.PathLike)):
        _opened.append(os.path.basename(os.fsdecode(args[0])))


@functools.cache
def _install_open_hook() -> None:
    sys.addaudithook(_note_open)  # an audit hook stays for the process; it is idle outside _recording_opens


@contextlib.contextmanager
def _recording_opens():
    """The names of the files opened inside the block, by ``open``, ``io.open``, ``os.open`` or numpy."""
    global _opened
    _install_open_hook()
    _opened = []
    try:
        yield _opened
    finally:
        _opened = None


def test_cached_rerun_opens_the_store_twice_whatever_the_model_count(stats_out):
    """Once to check and load the fits, once to stream the bounds: never once per model."""
    header, rows = read_csv(stats_out / "dataset.csv")
    smelly = stats_out.parent / "smelly"
    smelly.mkdir()
    write_csv(smelly / "dataset.csv", header, [[r[c] if c != "IsSmelly" else "true" for c in header] for r in rows])
    converged, opens = [], []
    for out in (stats_out, smelly):  # every non-smelly population of the second is empty: fewer models
        _stats(out, seed=5)
        with _recording_opens() as opened:
            _stats(out, seed=6)
        doc = json.loads((out / "fits.json").read_text())["fits"]
        converged.append(sum(f["fit"]["converged"] for f in doc.values() if "fit" in f))
        opens.append(opened.count("suite.bin"))
    assert converged[0] > converged[1] > 0
    assert opens == [2, 2]


def test_cache_hit_computes_no_bounds_and_fits_nothing(stats_out, fits, monkeypatch):
    bounds = []
    _counting(monkeypatch, smellstab.stats.suite, "count_cdf_bounds", bounds)
    _stats(stats_out, seed=5)
    doc = json.loads((stats_out / "fits.json").read_text())["fits"]
    assert len(bounds) == sum(f["fit"]["converged"] for f in doc.values() if "fit" in f) > 0
    fitted = len(fits)
    bounds.clear()
    _stats(stats_out, seed=6)
    assert bounds == [] and len(fits) == fitted


@pytest.mark.parametrize("before", ["nothing", "an_older_cache"])
def test_crash_mid_suite_leaves_nothing_that_looks_complete(stats_out, fits, monkeypatch, before):
    """The 10th GLMM fit raises while ``suite.bin`` is half written: the temp file goes, no marker stays."""
    stage_dir = stats_out / "stats"
    if before == "an_older_cache":
        _stats(stats_out, seed=5)
        _edit_one_cell(stats_out)
    clean = stats_out.parent / "clean"
    clean.mkdir()
    shutil.copyfile(stats_out / "dataset.csv", clean / "dataset.csv")
    counting = smellstab.stats.suite.fit_negbin_random_intercept
    calls, at_crash = [], []

    def failing_tenth(*args, **kwargs):
        calls.append(1)
        if len(calls) == 10:
            at_crash.extend((p.name, p.stat().st_size) for p in stage_dir.iterdir())
            raise RuntimeError("fit failed")
        return counting(*args, **kwargs)

    monkeypatch.setattr(smellstab.stats.suite, "fit_negbin_random_intercept", failing_tenth)
    with pytest.raises(RuntimeError, match="fit failed"):
        _stats(stats_out, seed=5)
    monkeypatch.setattr(smellstab.stats.suite, "fit_negbin_random_intercept", counting)
    [(temp, size)] = [(name, size) for name, size in at_crash if name.endswith(".tmp")]
    assert temp.startswith(".suite.bin.") and size > 0  # the first models were stored as they ended
    left = sorted(p.name for p in stage_dir.iterdir())
    assert left == ([] if before == "nothing" else ["suite.bin", "suite.json"])  # no temp file, no stage.json
    before = len(fits)
    rerun = _stats(stats_out, seed=5)
    after_rerun = len(fits)
    cold = _stats(clean, seed=5)
    assert rerun == {name: b.replace(bytes(clean), bytes(stats_out)) for name, b in cold.items()}  # bar the echo
    assert after_rerun - before == len(fits) - after_rerun > 0  # the rerun fitted all that a clean cold run fits


def test_cold_stats_run_holds_one_model_in_memory(tmp_path, monkeypatch):
    """No fitted means outlive their model, and the run's traced peak stays below what the row dicts cost."""
    rows = simulate_observation_rows(10, 100, seed=41)
    write_csv(tmp_path / "dataset.csv", list(rows[0]), [list(r.values()) for r in rows])
    del rows
    exported = []
    real = smellstab.pipeline.export_results_csv
    monkeypatch.setattr(smellstab.pipeline, "export_results_csv",
                        lambda suite, path: real(exported.append(suite) or suite, path))
    tracemalloc.start()
    try:
        run_stats(PipelineConfig(output_dir=str(tmp_path), seed=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [suite] = exported
    assert sum(r.converged for r in suite.results) >= 30
    assert all(r.fit.mu_hat.size == 0 for r in suite.results if r.fit is not None)
    # 1,000 rows peak at 1.07-1.13 MB (Python 3.11, numpy 2.4); 2.06 MB with the row dicts and every fit's means held
    assert peak < 1.4e6


def test_residuals_equal_the_oracle_cold_and_warm(stats_out):
    """The residual file, drawn from the cached bounds, against the draw from the fitted means."""
    fitted = run_hypothesis_suite(read_csv(stats_out / "dataset.csv")[1])
    oracle = stats_out.parent / "oracle.csv"
    for first, second in ((5, 6), (6, 5)):
        shutil.rmtree(stats_out / "stats", ignore_errors=True)
        for seed in (first, second):  # cold, then warm
            stats_oracle.export_quantile_residuals(fitted, oracle, seed=seed)
            assert _stats(stats_out, seed=seed)["quantile_residuals.csv"] == oracle.read_bytes()


# -- the smell strategies read the metric table that analyze writes ------------

@pytest.mark.parametrize("smell", sorted(SMELL_FIXTURES))
def test_analyze_computes_each_metric_once(tmp_path, monkeypatch, smell):
    """One metric call per row of the two metric CSVs, counted through every module that holds the function."""
    calls = {"compute_method_metrics": 0, "compute_class_metrics": 0}
    for name in calls:
        real = getattr(smellstab.metrics, name)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "smellstab"]:
            if getattr(module, name, None) is real:
                def counting(*args, _name=name, _real=real, **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
    entry = ProjectManifestEntry(repo="fix/smells", stars=500, forks=200, contributors=25, java_fraction=0.95,
                                 window_commits=60, education_flag=False, clone_path="", snapshot="s0",
                                 branch="main")
    for i, build in enumerate(SMELL_FIXTURES[smell]):
        corpus = ingest_corpus(build()[0], entry.snapshot, project=entry.repo)
        calls.update(dict.fromkeys(calls, 0))
        analyze_project(entry, PipelineConfig(output_dir=str(tmp_path / str(i))), lambda: corpus)
        out = tmp_path / str(i) / "projects" / "fix__smells" / "analyze"
        assert calls == {"compute_method_metrics": len(read_csv(out / "metrics_method.csv")[1]),
                         "compute_class_metrics": len(read_csv(out / "metrics_class.csv")[1])}
        assert calls["compute_method_metrics"] > 0


def _metric_rows(path: Path, cls, key_columns: tuple[str, ...], ids: dict) -> dict:
    """A metric CSV's rows as ``cls`` values keyed by artifact, each field parsed as its declared type."""
    parse = {"int": int, "float": float}
    return {ids[tuple(r[c] for c in key_columns)]: cls(**{f.name: parse[f.type](r[f.name])
                                                         for f in dataclasses.fields(cls)})
            for r in read_csv(path)[1]}


def test_smells_csv_is_the_strategies_over_the_metric_csvs(tmp_path, git_repo_factory):
    """Read the two metric CSVs back and run the ten strategies on them: they give smells.csv again."""
    lines, files_of = [], {}
    for smell, (build, _near) in sorted(SMELL_FIXTURES.items()):
        repo = git_repo_factory()
        files_of[f"fix/{smell}"] = files = build()[0]
        for rel, text in files.items():
            repo.write(rel, text)
        lines.append(_manifest_line(f"fix/{smell}", repo, repo.commit_all("snapshot", EPOCH)))
    manifest = tmp_path / "smells.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    assert cli_main(["analyze", "--manifest", str(manifest), "--output-dir", str(out_dir)]) == 0
    for repo_id, files in files_of.items():
        out = out_dir / "projects" / repo_id.replace("/", "__") / "analyze"
        corpus = ingest_corpus(files, "s", project=repo_id)
        method_metrics = _metric_rows(out / "metrics_method.csv", MethodMetrics, ("method", "signature"),
                                      {(m.id.qualified_name, m.id.signature): m.id for _, m in corpus.iter_methods()})
        class_metrics = _metric_rows(out / "metrics_class.csv", ClassMetrics, ("class",),
                                     {(t.id.qualified_name,): t.id for t in corpus.types})
        assert (method_metrics, class_metrics) == metric_tables(corpus, extract_dependencies(corpus)[1])
        smells, diagnostics = detect_smells_with_diagnostics(corpus, method_metrics, class_metrics)
        assert smells
        assert [[s.smell.value, s.smell.level, str(s.host), s.enclosing.qualified_name] for s in smells] \
            == [list(r.values()) for r in read_csv(out / "smells.csv")[1]]
        meta = json.loads((out / "smells.csv.meta.json").read_text())
        assert [f"{d.file}: {d.message}" for d in diagnostics] == meta["diagnostics"]
