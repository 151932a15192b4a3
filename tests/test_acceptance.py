"""Verification gate: one test per acceptance criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from smellstab.corpus import ingest_corpus
from smellstab.graph import efferent_neighbors
from smellstab.io_utils import read_csv
from smellstab.mining.gitio import archive_snapshot
from smellstab.mining.miner import (
    DELETED,
    EXCLUDED_MERGE,
    EXCLUDED_SPLIT,
    TRACKED,
    aggregate_stability,
    make_window,
    mine_window,
)
from smellstab.model import ArtifactId, ArtifactKind, RelationKind
from smellstab.neighborhood import build_observation, efferent_interactions
from smellstab.pipeline import PipelineConfig, run_pipeline
from smellstab.smells import SmellInstance, SmellType
from smellstab.stats.design import DesignMatrix
from smellstab.stats.glm import dispersion_statistic, fit_poisson
from smellstab.stats.glmm import fit_negbin_random_intercept
from smellstab.stats.inference import bh_adjust, effect_sizes, fit_quality, predict_mu
from smellstab.stats.suite import run_hypothesis_suite

import test_mining as mining_fix
from testkit import EPOCH, build_analyzed, detect
from javafix import FIG1_FILES, FIG2_CASE_A_FILES, FIG2_CASE_B_FILES, SMELL_FIXTURES, TEN_RELATIONS_FILES
from simulate import nb2_draw, simulate_nb_glmm_design, simulate_observation_rows
from synth import oracle_interactions, synth_corpus
from test_stats_inference import _bh_oracle


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.time() - t0
    if budget is not None and elapsed >= budget:
        print(f"FAIL criterion {number}: {description} (took {elapsed:.1f}s, budget {budget}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget}s budget: {elapsed:.1f}s")
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def _fig2_smells(corpus):
    cs1_host = ArtifactId(corpus.project, "C1.cs1", ArtifactKind.METHOD)
    cs2 = corpus.type_decl("CS2").id
    return [
        SmellInstance(SmellType.FE, cs1_host, corpus.enclosing_class(cs1_host)),
        SmellInstance(SmellType.GC, cs2, cs2),
    ]


def test_criterion_1_figure2_semantics():
    with criterion(1, "Figure-2 coupling/interaction semantics", budget=1.0):
        corpus_a, graph_a, _ = build_analyzed(FIG2_CASE_A_FILES)
        obs_a = build_observation(corpus_a.type_decl("C1").id, corpus_a, graph_a, _fig2_smells(corpus_a))
        assert obs_a.has_eff_coup is True
        assert obs_a.has_eff_int is False
        corpus_b, graph_b, _ = build_analyzed(FIG2_CASE_B_FILES)
        obs_b = build_observation(corpus_b.type_decl("C1").id, corpus_b, graph_b, _fig2_smells(corpus_b))
        assert obs_b.has_eff_coup is True
        assert obs_b.has_eff_int is True
        assert obs_b.n_eff_smell_int == 1
        assert obs_b.eff_int_inten == 1


def test_criterion_2_figure1_semantics():
    with criterion(2, "Figure-1 efferent neighbor count"):
        corpus, graph, _ = build_analyzed(FIG1_FILES)
        neighbors = efferent_neighbors(graph, corpus, corpus.type_decl("C").id)
        assert {n.qualified_name for n in neighbors} == {"N1", "N2"}
        assert len(neighbors) == 2


def test_criterion_3_interaction_oracle():
    with criterion(3, "exhaustive interaction oracle on 50 random corpora", budget=30.0):
        for seed in range(50):
            corpus, graph, smells = synth_corpus(seed)
            for decl in corpus.top_level_classes():
                n_oracle, inten_oracle, neighbors = oracle_interactions(
                    corpus, graph, smells, decl.id)
                has_int, n__, inten, _ = efferent_interactions(
                    decl.id, graph, corpus, smells, neighbors)
                assert n__ == n_oracle
                assert inten == inten_oracle
                assert has_int == (n_oracle > 0)


def test_criterion_4_smell_strategies():
    with criterion(4, "10 trigger + 10 near-miss smell fixtures"):
        for name, (build, near) in sorted(SMELL_FIXTURES.items()):
            files, expected = build()
            corpus, _, facts = build_analyzed(files)
            got = {(s.smell.value, s.host.qualified_name)
                   for s in detect(corpus, facts)[0]}
            assert got == expected, name
            near_files, _ = near()
            corpus, _, facts = build_analyzed(near_files)
            assert detect(corpus, facts)[0] == [], name


def test_criterion_5_dependency_coverage():
    with criterion(5, "all-ten-relations fixture exact edge set"):
        corpus, graph, _ = build_analyzed(TEN_RELATIONS_FILES)
        ten = corpus.type_decl("Ten").id
        run = ArtifactId("fix", "Ten.run", ArtifactKind.METHOD, "Par")

        def a(q, k, s=""):
            return ArtifactId("fix", q, k, s)

        actual = {
            (e.relation, e.source, e.target, e.site_count)
            for e in graph.edges
            if not e.external and corpus.enclosing_class(e.source) == ten
        }
        expected = {
            (RelationKind.EXTEND, ten, a("Base", ArtifactKind.CLASS), 1),
            (RelationKind.IMPLEMENT, ten, a("Iface", ArtifactKind.INTERFACE), 1),
            (RelationKind.CONTAIN, ten, run, 1),
            (RelationKind.PARAMETER, run, a("Par", ArtifactKind.CLASS), 1),
            (RelationKind.THROWS, run, a("Exc", ArtifactKind.CLASS), 1),
            (RelationKind.RETURN, run, a("Ret", ArtifactKind.CLASS), 1),
            (RelationKind.USE, run, a("Use", ArtifactKind.CLASS), 1),
            (RelationKind.CREATE, run, a("Cre", ArtifactKind.CLASS), 1),
            (RelationKind.CALL, run, a("Par.go", ArtifactKind.METHOD, "Object"), 1),
            (RelationKind.CAST, run, a("Cas", ArtifactKind.CLASS), 1),
        }
        assert actual == expected


def test_criterion_6_mining_protocol(git_repo_factory):
    with criterion(6, "scripted mining fixture: renames/split/merge/whitespace/merge-commit",
                   budget=10.0):
        repo, snapshot = mining_fix.build_fixture_repo(git_repo_factory)
        corpus = ingest_corpus(archive_snapshot(repo.path, snapshot), snapshot, project="mined")
        window = make_window(repo.path, snapshot, "main")
        result = mine_window(repo.path, window, corpus)
        assert sum(1 for c in result.commits if c.parent_count == 2) == 1
        status = {q: lin.status for q, lin in result.lineages.items()}
        assert status["Renamed"] == TRACKED
        assert status["Split"] == EXCLUDED_SPLIT
        assert status["MergeA"] == EXCLUDED_MERGE and status["MergeB"] == EXCLUDED_MERGE
        assert status["Gone"] == DELETED
        outcomes = {o.focal.qualified_name: o for o in aggregate_stability(result)}
        assert (outcomes["Alpha"].chf, outcomes["Alpha"].chs) == (2, 8)
        assert (outcomes["Renamed"].chf, outcomes["Renamed"].chs) == (1, 3)
        assert (outcomes["Quiet"].chf, outcomes["Quiet"].chs) == (0, 0)
        assert (outcomes["Wspace"].chf, outcomes["Wspace"].chs) == (0, 0)
        assert (outcomes["Gone"].chf, outcomes["Gone"].chs) == (2, 4)
        assert "Split" not in outcomes and "MergeA" not in outcomes


def test_criterion_7_nb_glmm_recovery():
    with criterion(7, "NB-GLMM simulation recovery (20x200, beta [0.5,-0.3])", budget=60.0):
        design, _ = simulate_nb_glmm_design(20, 200, [0.5, -0.3], 0.25, 1.5, seed=1234)
        fit = fit_negbin_random_intercept(design)
        assert fit.converged
        for b, truth, s in zip(fit.beta[1:], [0.5, -0.3], fit.se[1:]):
            assert abs(b - truth) < 3 * s
        assert 0.1 <= fit.sigma2 <= 0.5


def test_criterion_8_dispersion_check():
    with criterion(8, "Pearson dispersion: equidispersed ~1, NB-generated >1.5"):
        rng = np.random.default_rng(2024)
        n = 5000
        x = rng.normal(size=n)
        X = np.column_stack([np.ones(n), x])

        def design_for(y):
            return DesignMatrix(
                y=y.astype(float), X=X, names=["Intercept", "x1"],
                groups=np.zeros(n, dtype=np.int64), n_groups=1,
                project_labels=["p"], row_index=np.arange(n, dtype=np.int64),
            )

        mu = np.exp(1.0 + 0.3 * x)
        d_eq = design_for(rng.poisson(mu))
        ratio_eq = dispersion_statistic(fit_poisson(d_eq), d_eq)
        assert 0.9 <= ratio_eq <= 1.1
        d_over = design_for(nb2_draw(rng, mu, theta=1.0))
        ratio_over = dispersion_statistic(fit_poisson(d_over), d_over)
        assert ratio_over > 1.5


def test_criterion_9_bh_correctness():
    with criterion(9, "BH step-up vs oracle on 1000 random families"):
        rng = np.random.default_rng(31337)
        sizes = [4, 6, 12]
        for i in range(1000):
            m = sizes[i % 3]
            ps = rng.uniform(size=m)
            adjusted = bh_adjust(ps)
            oracle = _bh_oracle(list(ps))
            np.testing.assert_allclose(adjusted, oracle, atol=1e-12, rtol=0)
            # monotonicity: raising one raw p never lowers any adjusted p
            j = int(rng.integers(0, m))
            raised = ps.copy()
            raised[j] = min(1.0, raised[j] + float(rng.uniform(0, 0.3)))
            after = bh_adjust(raised)
            assert np.all(after >= adjusted - 1e-12)


def test_criterion_10_effect_size_identities():
    with criterion(10, "IRR/AME/McFadden identities"):
        design, _ = simulate_nb_glmm_design(6, 80, [0.5, -0.2], 0.15, 2.0, seed=42)
        fit = fit_negbin_random_intercept(design)
        assert fit.converged
        k = fit.coef("x1")
        irr, ame = effect_sizes(fit, design, "x1")
        assert irr == math.exp(fit.beta[k])  # exact
        h = 1e-5
        Xp, Xm = design.X.copy(), design.X.copy()
        Xp[:, k] += h
        Xm[:, k] -= h
        fd = float(np.mean(predict_mu(fit, design, Xp))
                   - np.mean(predict_mu(fit, design, Xm))) / (2 * h)
        assert abs(ame - fd) / abs(fd) < 1e-6
        assert fit_quality(fit.ll, fit.ll)[1] == 0.0  # null vs null


def test_criterion_11_false_positive_control():
    with criterion(11, "Monte-Carlo false-positive control (200 noise datasets)",
                   budget=600.0):
        n_datasets = 200
        acceptances: dict[str, int] = {}
        for seed in range(n_datasets):
            rows = simulate_observation_rows(8, 50, seed=10_000 + seed)
            suite = run_hypothesis_suite(rows)
            for r in suite.results:
                acceptances[r.spec.label] = acceptances.get(r.spec.label, 0) + int(r.accepted)
        worst = max(acceptances.values()) / n_datasets
        assert worst <= 0.07, f"worst per-hypothesis acceptance rate {worst:.3f}"
        planted = simulate_observation_rows(
            10, 80, seed=777, iv_effects={"#SmellFoc": 0.9})
        suite = run_hypothesis_suite(planted)
        assert next(r for r in suite.results if r.spec.label == "H1.2:ChF").status == "accepted"


def test_criterion_12_end_to_end_determinism(tmp_path, git_repo_factory):
    with criterion(12, "two pipeline runs produce byte-identical CSVs"):
        repo = git_repo_factory()
        repo.write("Prov1.java", "public class Prov1 {\n"
                   + "".join(f"    public int {c};\n" for c in "abcdef") + "}\n")
        repo.write("Envy.java", (
            "public class Envy {\n"
            "    int crave(Prov1 p) { return p.a + p.b + p.c + p.d + p.e + p.f; }\n"
            "}\n"
        ))
        repo.write("Quiet.java", "public class Quiet {\n    int q;\n}\n")
        snapshot = repo.commit_all("snapshot", EPOCH)
        repo.write("Quiet.java", "public class Quiet {\n    int q;\n    int r;\n}\n")
        repo.commit_all("edit", EPOCH + 5 * 86400)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps({
            "repo": "fix/det", "stars": 10, "forks": 200, "contributors": 25,
            "java_fraction": 0.95, "window_commits": 60, "education_flag": False,
            "clone_path": str(repo.path), "snapshot": snapshot, "branch": "main",
        }) + "\n")
        outputs = []
        for run in ("one", "two"):
            config = PipelineConfig(manifest=str(manifest),
                                    output_dir=str(tmp_path / run), seed=5)
            with pytest.warns(UserWarning, match="single project: falling back"):
                run_pipeline(config)
            outputs.append({
                name: (Path(config.output_dir) / name).read_bytes()
                for name in ("dataset.csv", "results.csv")
            })
        assert outputs[0]["dataset.csv"] == outputs[1]["dataset.csv"]
        assert outputs[0]["results.csv"] == outputs[1]["results.csv"]
        header, rows = read_csv(tmp_path / "one" / "dataset.csv")
        assert len(rows) == 3
