"""Byte-identity gate: analyze, mine and join write the recorded bytes.

A fixed input (the ``javafix`` smell fixtures in two scripted git
histories) runs through analyze, mine and join, and every file the run
writes must have the sha256 recorded in ``output_digests.json``.  The
``stage.json`` markers are left out: their key holds the code digest.  Paths
are relative to the working directory, so the echoed ``manifest``,
``output_dir`` and ``clone_path`` do not depend on where the run happens.
The stats outputs depend on numpy and BLAS rounding; the tolerance oracles
of the stats tests check them instead.

A change that alters output bytes on purpose regenerates the manifest in
the same commit, and says in CHANGES.md which files changed and why::

    PYTHONPATH=src:tests python tests/test_output_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from javafix import SMELL_FIXTURES
from smellstab.pipeline import PipelineConfig, run_pipeline
from testkit import EPOCH, GitRepo

MANIFEST = Path(__file__).with_name("output_digests.json")
DAY = 86400


def _fixture_files(*smells: str) -> dict[str, str]:
    files: dict[str, str] = {}
    for smell in smells:
        files.update(SMELL_FIXTURES[smell][0]()[0])
    return files


def _scripted_repos() -> list[tuple[str, GitRepo, str]]:
    """(repo id, repository, snapshot) of each project, built in the working directory."""
    a = GitRepo(Path("repos/a"))
    for rel, text in _fixture_files("GC", "FE", "DC", "RB", "TB").items():
        a.write(rel, text + "\n")
    snap_a = a.commit_all("snapshot", EPOCH)
    a.write("Envy.java", a.path.joinpath("Envy.java").read_text().replace("{", "{\n    int extra;", 1))
    a.commit_all("grow envy", EPOCH + 3 * DAY)
    a.write("sub/Rebel.java", a.path.joinpath("Rebel.java").read_text())
    a.remove("Rebel.java")
    a.write("Holder.java", a.path.joinpath("Holder.java").read_text() + "// reviewed\n")
    a.commit_all("move rebel", EPOCH + 20 * DAY)
    a.remove("Elder.java")
    a.commit_all("drop elder", EPOCH + 30 * DAY)
    # mining reads logical lines: a javadoc edit is no churn, code after its closing "*/" is
    a.write("Holder.java", "/**\n * Holds data.\n * int shadow = 1;\n */\n" + a.path.joinpath("Holder.java").read_text())
    a.commit_all("document holder", EPOCH + 32 * DAY)
    a.write("Holder.java", a.path.joinpath("Holder.java").read_text().replace("int shadow = 1;", "int shadow = 2; {\n * }", 1))
    a.commit_all("edit the javadoc", EPOCH + 34 * DAY)
    a.write("Holder.java", a.path.joinpath("Holder.java").read_text().replace(" */\n", " */ @Deprecated\n", 1))
    a.commit_all("annotate after the javadoc", EPOCH + 36 * DAY)
    a.write("Texts.java", 'public class Texts {\n    String s = """\n        body { int x; }\n        /* kept\n'
                          '        """ + Texts.class;\n    int after;\n}\n')
    a.commit_all("add a text block", EPOCH + 38 * DAY)
    a.write("God.java", "// later\n" + a.path.joinpath("God.java").read_text())
    a.commit_all("outside window", EPOCH + 400 * DAY)

    b = GitRepo(Path("repos/b"))
    for rel, text in _fixture_files("BM", "SS", "DiCo", "BC").items():
        b.write(rel, text + "\n")
    snap_b = b.commit_all("snapshot", EPOCH)
    b.write("Target.java", b.path.joinpath("Target.java").read_text().replace("{", "{\n    int hits;", 1))
    # Fresh.java holds a third of Target's logical lines, so Target's lineage ends as a split
    b.write("Fresh.java", "public class Fresh {\n    int f;\n}\n")
    b.commit_all("touch target", EPOCH + 7 * DAY)
    b.write("Mass.java", b.path.joinpath("Mass.java").read_text().replace("{", "{\n    int more;", 1))
    b.commit_all("grow mass", EPOCH + 12 * DAY)
    return [("fix/a", a, snap_a), ("fix/b", b, snap_b)]


def run_outputs() -> dict[str, bytes]:
    """Build the input in the working directory, run analyze, mine and join, return the outputs."""
    lines = []
    for repo_id, repo, snapshot in _scripted_repos():
        lines.append(json.dumps({
            "repo": repo_id, "stars": 500, "forks": 200, "contributors": 25,
            "java_fraction": 0.95, "window_commits": 60, "education_flag": False,
            "clone_path": str(repo.path), "snapshot": snapshot, "branch": "main",
        }))
    Path("manifest.jsonl").write_text("\n".join(lines) + "\n")
    outcome = run_pipeline(PipelineConfig(manifest="manifest.jsonl", output_dir="out"),
                           stages=("analyze", "mine", "join"))
    assert not outcome.quarantined, outcome.quarantined
    out = Path("out")
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "stage.json"}


def _line_digests(data: bytes) -> str:
    return " ".join(hashlib.sha256(line).hexdigest()[:8] for line in data.split(b"\n"))


def manifest_of(outputs: dict[str, bytes]) -> dict:
    """Each file's sha256, and a short digest of each of its lines to name the first that differs."""
    return {name: {"sha256": hashlib.sha256(data).hexdigest(), "lines": _line_digests(data)}
            for name, data in outputs.items()}


def test_analyze_mine_join_write_the_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = run_outputs()
    expected = json.loads(MANIFEST.read_text())
    problems = [f"{name}: missing" for name in sorted(expected.keys() - outputs.keys())]
    problems += [f"{name}: not in the manifest" for name in sorted(outputs.keys() - expected.keys())]
    for name in sorted(expected.keys() & outputs.keys()):
        data = outputs[name]
        if hashlib.sha256(data).hexdigest() == expected[name]["sha256"]:
            continue
        want = expected[name]["lines"].split(" ")
        got = data.split(b"\n")
        at = next((i for i, (w, g) in enumerate(zip(want, _line_digests(data).split(" "))) if w != g),
                  min(len(want), len(got)))
        line = got[at].decode(errors="replace") if at < len(got) else "<end of file>"
        problems.append(f"{name}: first differing line {at + 1}: {line!r}")
    assert not problems, "outputs differ from output_digests.json:\n" + "\n".join(problems)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)
        try:
            doc = manifest_of(run_outputs())
        finally:
            os.chdir(here)
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} digests to {MANIFEST}", file=sys.stderr)
