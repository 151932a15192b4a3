"""The checkers must report each kind of wrong output they exist to catch."""

import random

import check

LEDGER = [
    {"project": "bench/p", "class": f"p.C{i}", "kind": "normal", "lineage_status": "tracked",
     "ChF": str(i % 3), "ChS": str(2 * (i % 3)), "EffNei": str(i % 4),
     "IsSmelly": "false", "HasSmellEff": "true" if i % 2 else "false"}
    for i in range(6)
] + [{"project": "bench/p", "class": "p.Split", "kind": "normal", "lineage_status": "excluded_split",
      "ChF": "0", "ChS": "0", "EffNei": "1", "IsSmelly": "false", "HasSmellEff": "false"}]


def _dataset_from(ledger):
    rows = []
    for t in ledger:
        if t["lineage_status"] in check.EXCLUDED:
            continue
        rows.append({"project": t["project"], "class": t["class"], "lineage_status": t["lineage_status"],
                     "ChF": t["ChF"], "ChS": t["ChS"], "#EffNei": t["EffNei"],
                     "IsSmelly": t["IsSmelly"], "HasSmellEff": t["HasSmellEff"]})
    return rows


def _verdict(dataset, quarantined=()):
    v = check.Verdict()
    check.check_dataset(dataset, LEDGER, set(quarantined), v)
    return v


def test_matching_dataset_passes():
    v = _verdict(_dataset_from(LEDGER))
    assert (v.attempted, v.failed, v.correct) == (7, 0, True)


def test_chf_off_by_one_is_reported():
    rows = _dataset_from(LEDGER)
    rows[2]["ChF"] = str(int(rows[2]["ChF"]) + 1)
    v = _verdict(rows)
    assert v.failed == 1 and "ChF=" in v.failures[0]


def test_dropped_class_is_reported():
    rows = _dataset_from(LEDGER)
    del rows[4]
    v = _verdict(rows)
    assert v.failed == 1 and "missing" in v.failures[0]


def test_excluded_class_present_and_unknown_row_are_reported():
    rows = _dataset_from(LEDGER)
    rows.append(dict(rows[0], **{"class": "p.Split"}))
    rows.append(dict(rows[0], **{"class": "p.Ghost"}))
    v = _verdict(rows)
    assert v.failed == 1 and not v.correct


def test_quarantined_project_fails_every_class():
    v = _verdict(_dataset_from(LEDGER), quarantined=["bench/p"])
    assert v.failed == v.attempted == 7


def _results(seed=0):
    rng = random.Random(seed)
    rows = []
    for h in check.HYPOTHESES:
        for dv in ("ChF", "ChS"):
            rows.append({"hypothesis": h, "dv": dv, "p_raw": repr(rng.random() ** 3),
                         "converged": "true", "accepted": "false", "beta": "0.1", "se": "0.05"})
    for fam in check.FAMILY_SIZES:
        members = [r for r in rows if check.FAMILY_OF[r["hypothesis"].split(".")[0]] == fam]
        for r, adj in zip(members, check.bh_reference([float(r["p_raw"]) for r in members])):
            r["p_bh"] = repr(adj)
    return rows


def test_bh_reference_matches_hand_computed_family():
    # ranks 1, 3, 2, 4; rank 2 (0.03 * 4 / 2 = 0.06) takes the smaller rank-3 value
    assert check.bh_reference([0.01, 0.04, 0.03, 0.20]) == [0.04, 0.04 * 4 / 3, 0.04 * 4 / 3, 0.2]


def test_results_with_true_bh_pass():
    v = check.Verdict()
    check.check_results(_results(), v)
    assert v.correct


def test_swapped_p_bh_is_reported():
    rows = _results(1)
    a, b = rows[0], rows[2]  # H1.1:ChF and H1.2:ChF, same family
    assert a["p_bh"] != b["p_bh"]
    a["p_bh"], b["p_bh"] = b["p_bh"], a["p_bh"]
    v = check.Verdict()
    check.check_results(rows, v)
    assert not v.correct and len(v.problems) == 2


def test_missing_model_row_is_reported():
    v = check.Verdict()
    check.check_results(_results()[:-1], v)
    assert not v.correct


def test_suite_counts_unconverged_fits_and_checks_planted_effects():
    rows = _results(2)
    rows[1]["converged"] = "false"
    by = {f"{r['hypothesis']}:{r['dv']}": r for r in rows}
    by["H1.1:ChF"].update(beta="0.9", se="0.05", accepted="true")
    v = check.Verdict()
    check.check_suite(rows, {"H1.1:ChF": {"iv": "IsSmelly", "beta": 0.4}}, v)
    assert (v.attempted, v.failed) == (34, 1)
    assert any("far from planted" in p for p in v.problems)
