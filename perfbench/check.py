"""Output checks against truth computed apart from the program.

Nothing here imports smellstab: the ledger comes from the generators, and the
Benjamini-Hochberg adjustment is recomputed from the raw p-values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

EXCLUDED = ("excluded_split", "excluded_merge")
# research-question family of each hypothesis, from the paper's design
FAMILY_OF = {"H1": "RQ1", "H2": "RQ2", "H3": "RQ3", "H4": "RQ4"}
FAMILY_SIZES = {"RQ1": 6, "RQ2": 12, "RQ3": 4, "RQ4": 12}
HYPOTHESES = ["H1.1", "H1.2", "H1.3", "H2.1", "H2.2", "H2.3", "H2.4", "H2.5", "H2.6",
              "H3.1", "H3.2", "H4.1", "H4.2", "H4.3", "H4.4", "H4.5", "H4.6"]
SE_WINDOW = 4.0  # planted coefficient must lie within this many standard errors


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # any entry makes the run incorrect
    failures: list[str] = field(default_factory=list)  # operations that failed

    @property
    def correct(self) -> bool:
        return not self.problems


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_dataset(dataset: list[dict[str, str]], ledger: list[dict[str, str]],
                  quarantined: set[str], verdict: Verdict) -> None:
    """One operation per ledger class; missing or disagreeing rows fail it."""
    rows = {(r["project"], r["class"]): r for r in dataset}
    if len(rows) != len(dataset):
        verdict.problems.append("duplicate (project, class) rows in dataset.csv")
    expected = {(r["project"], r["class"]) for r in ledger}
    for key in sorted(set(rows) - expected):
        verdict.problems.append(f"dataset row for a class the ledger does not know: {key}")
    for truth in ledger:
        verdict.attempted += 1
        key = (truth["project"], truth["class"])
        got = rows.get(key)
        why = ""
        if truth["project"] in quarantined:
            why = "project quarantined"
        elif truth["lineage_status"] in EXCLUDED:
            if got is not None:
                why = f"expected {truth['lineage_status']}, found a row"
        elif got is None:
            why = f"missing (expected {truth['lineage_status']})"
        else:
            diffs = [f"{col}={got[col]} want {truth[want]}" for col, want in (
                ("lineage_status", "lineage_status"), ("ChF", "ChF"), ("ChS", "ChS"),
                ("#EffNei", "EffNei"), ("IsSmelly", "IsSmelly"), ("HasSmellEff", "HasSmellEff"),
            ) if got[col] != truth[want]]
            why = ", ".join(diffs)
        if why:
            verdict.failed += 1
            verdict.failures.append(f"{key[1]} ({truth['kind']}): {why}")


def bh_reference(p_values: list[float]) -> list[float]:
    """Benjamini-Hochberg step-up adjustment, in input order."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: (p_values[i], i))
    adjusted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        running = min(running, p_values[i] * m / rank)
        adjusted[i] = min(running, 1.0)
    return adjusted


def check_results(results: list[dict[str, str]], verdict: Verdict) -> None:
    """34 rows, one per hypothesis and outcome, with per-family BH."""
    labels = [(r["hypothesis"], r["dv"]) for r in results]
    want = [(h, dv) for h in HYPOTHESES for dv in ("ChF", "ChS")]
    if sorted(labels) != sorted(want):
        verdict.problems.append(f"results.csv has {len(results)} rows, not the 34 models")
        return
    families: dict[str, list[dict[str, str]]] = {}
    for r in results:
        families.setdefault(FAMILY_OF[r["hypothesis"].split(".")[0]], []).append(r)
    for fam, members in sorted(families.items()):
        if len(members) != FAMILY_SIZES[fam]:
            verdict.problems.append(f"{fam} has {len(members)} models, not {FAMILY_SIZES[fam]}")
            continue
        ref = bh_reference([float(r["p_raw"]) for r in members])
        for r, adj in zip(members, ref):
            got = float(r["p_bh"])
            if not math.isclose(got, adj, rel_tol=1e-9, abs_tol=1e-15):
                verdict.problems.append(
                    f"{r['hypothesis']}:{r['dv']} p_bh {got!r} != BH {adj!r} within {fam}")


def check_suite(results: list[dict[str, str]], planted: dict, verdict: Verdict) -> None:
    """Each of the 34 fits is one operation; a fit not converged fails it."""
    check_results(results, verdict)
    by_label = {f"{r['hypothesis']}:{r['dv']}": r for r in results}
    for label in sorted(by_label):
        r = by_label[label]
        verdict.attempted += 1
        if r["converged"] != "true":
            verdict.failed += 1
            verdict.failures.append(f"{label}: fit not converged")
            continue
        if label in planted:
            beta, se = float(r["beta"]), float(r["se"])
            truth = planted[label]["beta"]
            if not (se > 0 and abs(beta - truth) <= SE_WINDOW * se):
                verdict.problems.append(f"{label}: beta {beta:.4f} (se {se:.4f}) far from planted {truth}")
            if r["accepted"] != "true":
                verdict.problems.append(f"{label}: planted effect not accepted (p_bh {r['p_bh']})")


def read_quarantine(out: Path) -> set[str]:
    path = out / "quarantine.json"
    if not path.exists():
        return set()
    return set(json.loads(path.read_text()).get("quarantined", {}))
