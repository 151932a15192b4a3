import json

import pytest

from smellstab.manifest import ProjectManifestEntry, Rejection, filter_manifest, load_manifest


def _record(repo="org/proj", stars=500, forks=200, contributors=30, java_fraction=0.95,
            window_commits=120, education_flag=False, **extra):
    rec = {
        "repo": repo, "stars": stars, "forks": forks, "contributors": contributors,
        "java_fraction": java_fraction, "window_commits": window_commits,
        "education_flag": education_flag, "clone_path": f"/tmp/{repo}",
        "snapshot": "a" * 40, "branch": "main",
    }
    rec.update(extra)
    return rec


def test_entry_accepted_when_all_ics_pass():
    accepted, rejections = filter_manifest([_record()])
    assert len(accepted) == 1 and not rejections


@pytest.mark.parametrize("field,value,reason", [
    ("forks", 99, "IC1"),
    ("forks", 100, "IC1"),
    ("contributors", 19, "IC2"),
    ("window_commits", 49, "IC3"),
    ("java_fraction", 0.8, "IC4"),
    ("education_flag", True, "IC5"),
])
def test_each_ic_rejects(field, value, reason):
    accepted, rejections = filter_manifest([_record(**{field: value})])
    assert not accepted
    assert rejections[0].reason == reason


def test_incomplete_record_rejected():
    rec = _record()
    del rec["contributors"]
    accepted, rejections = filter_manifest([rec])
    assert not accepted
    assert rejections[0].reason == "incomplete"


@pytest.mark.parametrize("field,value", [
    ("education_flag", "false"),
    ("education_flag", 0),
    ("stars", 2.9),
    ("stars", True),
    ("forks", None),
    ("stars", -1),
    ("contributors", "25"),
    ("java_fraction", 1.5),
    ("java_fraction", float("nan")),
    ("clone_path", 7),
    ("url", None),
])
def test_wrongly_typed_field_is_malformed_not_coerced(field, value):
    good = _record(repo="org/good")
    accepted, rejections = filter_manifest([_record(**{field: value}), good])
    assert [e.repo for e in accepted] == ["org/good"]
    assert rejections == [Rejection("org/proj", "malformed")]


@pytest.mark.parametrize("line", ['["org/proj", 500]', '"org/proj"', "17", "null", '{"repo": "a/b", "stars": 5'])
def test_line_that_is_not_a_json_object_is_malformed(tmp_path, line):
    path = tmp_path / "manifest.jsonl"
    path.write_text(line + "\n" + json.dumps(_record(repo="org/good")) + "\n")
    accepted, rejections = filter_manifest(load_manifest(path))
    assert [e.repo for e in accepted] == ["org/good"]
    assert rejections == [Rejection("<unknown>", "malformed")]


def test_ranking_and_truncation():
    records = [_record(repo=f"org/p{k:03d}", stars=1000 + k) for k in range(120)]
    accepted, _ = filter_manifest(records, limit=100)
    assert len(accepted) == 100
    stars = [e.stars for e in accepted]
    assert stars == sorted(stars, reverse=True)
    assert min(stars) == 1000 + 20  # the 20 lowest-starred qualifying entries dropped


def test_star_ties_broken_by_repo_id():
    records = [
        _record(repo="org/bbb", stars=100),
        _record(repo="org/aaa", stars=100),
        _record(repo="org/ccc", stars=200),
    ]
    accepted, _ = filter_manifest(records, limit=2)
    assert [e.repo for e in accepted] == ["org/ccc", "org/aaa"]


def test_invalid_numeric_fields():
    with pytest.raises(ValueError):
        ProjectManifestEntry(
            repo="x", stars=-1, forks=0, contributors=0, java_fraction=0.5,
            window_commits=0, education_flag=False, clone_path="", snapshot="", branch="",
        )


def test_load_manifest_jsonl(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(json.dumps(_record(repo=f"org/p{k}")) for k in range(3)) + "\n")
    records = load_manifest(path)
    assert len(records) == 3
    assert records[0]["repo"] == "org/p0"
