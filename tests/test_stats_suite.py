import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smellstab.stats import ALPHA, all_model_specs, run_hypothesis_suite
from smellstab.stats.design import FAMILY_SIZES, prepare_design, DesignError
from smellstab.stats.simulate import simulate_observation_rows
from smellstab.stats.suite import ACCEPTED, INCONCLUSIVE, REJECTED, export_fits_json, results_rows

from fit_oracle import oracle_fits


def test_thirty_specs_with_family_sizes():
    specs = all_model_specs()
    assert len(specs) == 34
    for rq, size in FAMILY_SIZES.items():
        assert sum(1 for s in specs if s.rq == rq) == size
    assert {s.dv for s in specs} == {"ChF", "ChS"}
    assert all(s.direction == +1 for s in specs)


def test_prepare_design_log_transforms_and_population():
    rows = simulate_observation_rows(3, 40, seed=1)
    spec = next(s for s in all_model_specs() if s.hypothesis == "H1.2" and s.dv == "ChF")
    design = prepare_design(rows, spec)
    assert design.names == ["Intercept", "#SmellFoc", "ClSize", "#EffNei"]
    raw = [float(r["#SmellFoc"]) for r in rows]
    np.testing.assert_allclose(design.X[:, 1], np.log1p(raw))
    assert np.all(design.X[design.X[:, 1] == 0.0, 1] == 0.0)  # log1p(0) = 0

    h24 = next(s for s in all_model_specs() if s.hypothesis == "H2.4" and s.dv == "ChF")
    d24 = prepare_design(rows, h24)
    kept = [rows[i] for i in d24.row_index]
    assert all(r["IsSmelly"] == "false" for r in kept)


def test_prepare_design_h32_controls():
    rows = simulate_observation_rows(3, 30, seed=2)
    spec = next(s for s in all_model_specs() if s.hypothesis == "H3.2" and s.dv == "ChS")
    design = prepare_design(rows, spec)
    assert design.names == ["Intercept", "HasEffCoup", "ClSize", "#EffNei", "IsSmelly", "HasSmellEff"]


def test_prepare_design_empty_population_errors():
    rows = simulate_observation_rows(2, 10, seed=3)
    for r in rows:
        r["IsSmelly"] = "true"
    spec = next(s for s in all_model_specs() if s.population == "non_smelly")
    with pytest.raises(DesignError):
        prepare_design(rows, spec)


def test_binary_iv_passes_untransformed():
    rows = simulate_observation_rows(3, 30, seed=4)
    spec = next(s for s in all_model_specs() if s.iv == "IsSmelly" and s.dv == "ChF")
    design = prepare_design(rows, spec)
    assert set(np.unique(design.X[:, 1])) <= {0.0, 1.0}


def _verdict_rule(beta, p_bh, converged, direction=+1):
    if not converged:
        return INCONCLUSIVE
    in_dir = beta > 0 if direction > 0 else beta < 0
    return ACCEPTED if (in_dir and p_bh < ALPHA) else REJECTED


@settings(max_examples=300, deadline=None)
@given(
    beta=st.floats(min_value=-3, max_value=3, allow_nan=False),
    p=st.floats(min_value=0, max_value=1, allow_nan=False),
    converged=st.booleans(),
)
def test_verdict_rule_pure_function(beta, p, converged):
    v = _verdict_rule(beta, p, converged)
    if v == ACCEPTED:
        assert converged and beta > 0 and p < ALPHA
    if not converged:
        assert v == INCONCLUSIVE


def test_bh_family_of_four_all_p_004():
    from smellstab.stats import bh_adjust

    adjusted = bh_adjust([0.04, 0.04, 0.04, 0.04])
    np.testing.assert_allclose(adjusted, [0.04] * 4, atol=1e-15)
    assert all(a < ALPHA for a in adjusted)


def test_planted_signal_accepted():
    rows = simulate_observation_rows(
        10, 80, seed=77, iv_effects={"#SmellFoc": 0.9, "#SmellFoc:ChS": 0.9})
    suite = run_hypothesis_suite(rows)
    res = suite.by_label("H1.2:ChF")
    assert res.status == ACCEPTED
    assert res.fit.beta[res.fit.coef("#SmellFoc")] > 0
    assert res.p_bh < ALPHA


def test_suite_reports_both_p_values_and_effect_sizes():
    rows = simulate_observation_rows(8, 60, seed=11)
    suite = run_hypothesis_suite(rows)
    assert len(suite.results) == 34
    assert len(suite.verdicts) == 34
    for r in suite.results:
        assert 0.0 <= r.p_raw <= 1.0
        assert r.p_bh >= r.p_raw - 1e-12
        if r.status != INCONCLUSIVE:
            beta = r.fit.beta[r.fit.coef(r.spec.iv)]
            assert r.irr == pytest.approx(np.exp(beta))
    table = results_rows(suite)
    assert len(table) == 34
    assert all(len(row) == 15 for row in table)


def test_degenerate_population_is_inconclusive_not_crash():
    rows = simulate_observation_rows(4, 30, seed=21)
    for r in rows:
        r["IsSmelly"] = "true"  # non-smelly population empty
    suite = run_hypothesis_suite(rows)
    for label in ("H2.4:ChF", "H2.5:ChF", "H2.6:ChS"):
        res = suite.by_label(label)
        assert res.status == INCONCLUSIVE
        assert not res.accepted
    families = {}
    for r in suite.results:
        families.setdefault(r.spec.rq, []).append(r.p_raw)
    assert {k: len(v) for k, v in families.items()} == FAMILY_SIZES


def test_newton_matches_the_oracle_on_all_34_models():
    rows = simulate_observation_rows(10, 60, seed=12)
    suite = run_hypothesis_suite(rows)
    with oracle_fits():
        ref = run_hypothesis_suite(rows)
    assert [r.status for r in suite.results] == [r.status for r in ref.results]
    assert sum(r.converged for r in ref.results) >= 30
    for r, o in zip(suite.results, ref.results):
        assert abs(r.p_bh - o.p_bh) <= 1e-6, r.spec.label
        if o.converged:
            assert np.max(np.abs(r.fit.beta - o.fit.beta) / o.fit.se) <= 1e-6, r.spec.label


def test_fits_json_records_fit_diagnostics(tmp_path):
    rows = simulate_observation_rows(6, 40, seed=5)
    suite = run_hypothesis_suite(rows)
    export_fits_json(suite, tmp_path / "fits.json")
    doc = json.loads((tmp_path / "fits.json").read_text())
    for label, entry in doc["fits"].items():
        fit = suite.by_label(label).fit
        assert {k: entry["fit"][k] for k in ("iterations", "evaluations", "grad_norm", "pinned")} == {
            "iterations": fit.iterations, "evaluations": fit.evaluations,
            "grad_norm": fit.grad_norm, "pinned": fit.pinned,
        }
        assert entry["fit"]["evaluations"] >= entry["fit"]["iterations"] >= 1
