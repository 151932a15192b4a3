import csv
import io
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulate import simulate_observation_rows
from smellstab.io_utils import parse_csv, read_csv, write_csv
from smellstab.pipeline import PipelineConfig, run_stats
from smellstab.stats import ALPHA, BINARY, all_model_specs, run_hypothesis_suite
from smellstab.stats.design import FAMILY_SIZES, DesignError, column_table, prepare_design, spec_columns
from smellstab.stats.fitbase import FitResult
from smellstab.stats.glm import fit_negbin_glm
from smellstab.stats.suite import (
    ACCEPTED, INCONCLUSIVE, REJECTED, HypothesisResult, export_fits_json, export_quantile_residuals,
    export_results_csv, load_suite, results_rows,
)

import stats_oracle
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
    design = prepare_design(column_table(rows), spec)
    assert design.names == ["Intercept", "#SmellFoc", "ClSize", "#EffNei"]
    raw = [float(r["#SmellFoc"]) for r in rows]
    np.testing.assert_allclose(design.X[:, 1], np.log1p(raw))
    assert np.all(design.X[design.X[:, 1] == 0.0, 1] == 0.0)  # log1p(0) = 0

    h24 = next(s for s in all_model_specs() if s.hypothesis == "H2.4" and s.dv == "ChF")
    d24 = prepare_design(column_table(rows), h24)
    kept = [rows[i] for i in d24.row_index]
    assert all(r["IsSmelly"] == "false" for r in kept)


def test_prepare_design_h32_controls():
    rows = simulate_observation_rows(3, 30, seed=2)
    spec = next(s for s in all_model_specs() if s.hypothesis == "H3.2" and s.dv == "ChS")
    design = prepare_design(column_table(rows), spec)
    assert design.names == ["Intercept", "HasEffCoup", "ClSize", "#EffNei", "IsSmelly", "HasSmellEff"]


def test_prepare_design_empty_population_errors():
    rows = simulate_observation_rows(2, 10, seed=3)
    for r in rows:
        r["IsSmelly"] = "true"
    spec = next(s for s in all_model_specs() if s.population == "non_smelly")
    with pytest.raises(DesignError):
        prepare_design(column_table(rows), spec)


def test_binary_iv_passes_untransformed():
    rows = simulate_observation_rows(3, 30, seed=4)
    spec = next(s for s in all_model_specs() if s.iv == "IsSmelly" and s.dv == "ChF")
    design = prepare_design(column_table(rows), spec)
    assert set(np.unique(design.X[:, 1])) <= {0.0, 1.0}


def _verdict_rule(beta, p_bh, converged, direction=+1):
    if not converged:
        return INCONCLUSIVE
    in_dir = beta > 0 if direction > 0 else beta < 0
    return ACCEPTED if (in_dir and p_bh < ALPHA) else REJECTED


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
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
    res = next(r for r in suite.results if r.spec.label == "H1.2:ChF")
    assert res.status == ACCEPTED
    assert res.fit.beta[res.fit.coef("#SmellFoc")] > 0
    assert res.p_bh < ALPHA


def test_suite_reports_both_p_values_and_effect_sizes():
    rows = simulate_observation_rows(8, 60, seed=11)
    suite = run_hypothesis_suite(rows)
    assert len(suite.results) == 34
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
    results = {r.spec.label: r for r in suite.results}
    for label in ("H2.4:ChF", "H2.5:ChF", "H2.6:ChS"):
        res = results[label]
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
    fits = {r.spec.label: r.fit for r in suite.results}
    for label, entry in doc["fits"].items():
        fit = fits[label]
        assert {k: entry["fit"][k] for k in ("iterations", "evaluations", "grad_norm", "pinned")} == {
            "iterations": fit.iterations, "evaluations": fit.evaluations,
            "grad_norm": fit.grad_norm, "pinned": fit.pinned,
        }
        assert entry["fit"]["evaluations"] >= entry["fit"]["iterations"] >= 1


# -- the column table against the row-dict oracle ---------------------------------

def _assert_same_design(new, old):
    for attr in ("y", "X", "groups", "row_index"):
        a, b = getattr(new, attr), getattr(old, attr)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), attr
    assert new.names == old.names
    assert new.n_groups == old.n_groups
    assert new.project_labels == old.project_labels


def _assert_designs_match_oracle(rows):
    table = column_table(rows)
    for spec in all_model_specs():
        try:
            old = stats_oracle.prepare_design(rows, spec)
        except DesignError as exc:
            with pytest.raises(DesignError, match=f"^{re.escape(str(exc))}$"):
                prepare_design(table, spec)
            continue
        _assert_same_design(prepare_design(table, spec), old)


def _csv_roundtrip(rows, tmp_path):
    header = list(rows[0])
    write_csv(tmp_path / "dataset.csv", header, [[r[c] for c in header] for r in rows])
    return read_csv(tmp_path / "dataset.csv")[1]


def test_designs_match_the_oracle_on_synth_suite_data(tmp_path):
    rows = simulate_observation_rows(7, 45, seed=31)
    _assert_designs_match_oracle(rows)
    _assert_designs_match_oracle(_csv_roundtrip(rows, tmp_path))


def test_designs_match_the_oracle_on_python_bools_and_ints():
    rows = simulate_observation_rows(5, 30, seed=32)
    for r in rows:
        for col in BINARY:
            r[col] = r[col] == "true"
        r["ChF"], r["ChS"] = int(r["ChF"]), float(r["ChS"])
    assert any(r["IsSmelly"] is True for r in rows)
    _assert_designs_match_oracle(rows)


def test_designs_match_the_oracle_on_flag_spellings():
    rows = simulate_observation_rows(5, 30, seed=33)
    spellings = ["True", "TRUE", "1", "true", "yes", "0", "False", "1.0", ""]
    for i, r in enumerate(rows):
        for j, col in enumerate(sorted(BINARY)):
            if r[col] == "true" or (i + j) % 3 == 0:
                r[col] = spellings[(i + j) % len(spellings)]
    _assert_designs_match_oracle(rows)
    table = column_table(rows)
    for spelling, want in (("True", 1.0), ("TRUE", 1.0), ("1", 1.0), ("1.0", 0.0), ("yes", 0.0)):
        rows[0]["IsSmelly"] = spelling
        assert column_table(rows[:1]).columns["IsSmelly"][0] == want, spelling
    assert set(np.unique(table.columns["IsSmelly"])) == {0.0, 1.0}


def test_non_smelly_codes_are_renumbered_like_the_oracle():
    rows = simulate_observation_rows(4, 25, seed=34)
    for r in rows:
        if r["project"] in ("proj000", "proj002"):
            r["IsSmelly"] = "true"  # two projects with no non-smelly class
    _assert_designs_match_oracle(rows)
    h25 = next(s for s in all_model_specs() if s.label == "H2.5:ChS")
    design = prepare_design(column_table(rows), h25)
    assert design.project_labels == ["proj001", "proj003"]
    assert design.n_groups == 2 and set(design.groups.tolist()) == {0, 1}


def test_residual_file_matches_the_oracle_writer(tmp_path):
    rows = simulate_observation_rows(6, 40, seed=35)
    suite = run_hypothesis_suite(rows)
    assert sum(r.converged for r in suite.results) >= 30
    export_quantile_residuals(suite, tmp_path / "new.csv", seed=4)
    stats_oracle.export_quantile_residuals(suite, tmp_path / "old.csv", seed=4)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\n") == 1 + sum(r.row_index.size for r in suite.results if r.converged)


# -- the table read lazily from the dataset's bytes --------------------------------

class _OneShot:
    """Rows that may be iterated once, counting the rows taken."""

    def __init__(self, rows):
        self.rows, self.taken, self.iterated = rows, 0, False

    def __iter__(self):
        assert not self.iterated, "the rows were iterated twice"
        self.iterated = True
        for row in self.rows:
            self.taken += 1
            yield row


def _dataset_bytes(header, rows, newline="\n"):
    text = io.StringIO(newline="")
    csv.writer(text, lineterminator=newline).writerows([header, *([r[c] for c in header] for r in rows)])
    return text.getvalue().encode()


def test_streamed_table_gives_the_oracle_and_list_designs():
    rows = simulate_observation_rows(5, 30, seed=43)
    for k, r in enumerate(rows):
        r["class"] = f"org.p.C{k}<K, V>"  # quoted: it holds a comma
        r["project"] = r["project"].replace("proj", "org,proj")
        r["unread"] = "n/a"  # a column no model reads
    header = list(reversed(list(rows[0])))  # the columns in another order
    data = _dataset_bytes(header, rows, newline="\r\n")
    assert data.count(b"\r\n") == len(rows) + 1 and b'"org,proj000"' in data

    streamed = _OneShot(parse_csv(data, "dataset.csv")[1])
    table = column_table(streamed)
    assert (streamed.iterated, streamed.taken) == (True, len(rows))
    listed = list(parse_csv(data, "dataset.csv")[1])
    assert listed == [{c: str(v) for c, v in r.items()} for r in rows]
    from_list = column_table(listed)
    assert table.projects == from_list.projects == sorted({r["project"] for r in rows})
    for spec in all_model_specs():
        design = prepare_design(table, spec)
        _assert_same_design(design, prepare_design(from_list, spec))
        _assert_same_design(design, stats_oracle.prepare_design(rows, spec))


def test_parse_csv_decodes_as_open_does(tmp_path):
    data = b'a,b\r\n"x\r\ny",1\r\n\r\nz,"2,3"\n'
    (tmp_path / "f.csv").write_bytes(data)
    with open(tmp_path / "f.csv", newline="") as fh:
        want = list(csv.DictReader(fh))
    header, rows = parse_csv(data, "f.csv")
    assert header == ["a", "b"]
    assert list(rows) == want == [{"a": "x\r\ny", "b": "1"}, {"a": "z", "b": "2,3"}]


@pytest.mark.parametrize("edit", ["extra_field", "last_two_dropped"])
def test_a_row_with_another_field_count_is_refused(tmp_path, edit):
    rows = simulate_observation_rows(3, 20, seed=44)
    header = list(rows[0])
    lines = [[r[c] for c in header] for r in rows]
    if edit == "extra_field":
        lines[0].insert(header.index("EffIntInten") + 1, "7")
    else:
        del lines[0][-2:]
    write_csv(tmp_path / "dataset.csv", header, lines)
    message = (f"dataset.csv, line 2: expected {len(header)} fields as in the header, "
               f"found {len(lines[0])}")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_csv(tmp_path / "dataset.csv")
    with pytest.raises(ValueError, match=re.escape(message)):
        run_stats(PipelineConfig(output_dir=str(tmp_path)))
    assert not (tmp_path / "results.csv").exists()


def test_an_empty_flag_cell_reads_zero(tmp_path):
    rows = simulate_observation_rows(3, 20, seed=45)
    smelly = next(i for i, r in enumerate(rows) if r["IsSmelly"] == "true")
    rows[smelly]["IsSmelly"] = ""
    table = column_table(parse_csv(_dataset_bytes(list(rows[0]), rows), "dataset.csv")[1])
    assert table.columns["IsSmelly"][smelly] == 0.0


# -- error paths of the column table ----------------------------------------------

def test_empty_non_smelly_population_note_in_fits_json(tmp_path):
    rows = simulate_observation_rows(4, 30, seed=36)
    for r in rows:
        r["IsSmelly"] = "TRUE"
    suite = run_hypothesis_suite(rows)
    export_fits_json(suite, tmp_path / "fits.json")
    fits = json.loads((tmp_path / "fits.json").read_text())["fits"]
    for spec in all_model_specs():
        if spec.population != "non_smelly":
            continue
        with pytest.raises(DesignError) as old:
            stats_oracle.prepare_design(rows, spec)
        assert fits[spec.label]["note"] == str(old.value) == (
            f"{spec.label}: empty population 'non_smelly'")
        assert "fit" not in fits[spec.label]


@pytest.mark.parametrize("dv, value", [("ChF", -1), ("ChS", "2.5"), ("ChF", 0.5)])
def test_negative_or_fractional_response_raises(dv, value):
    rows = simulate_observation_rows(3, 20, seed=37)
    rows[7][dv] = value
    rows[7]["IsSmelly"] = "false"  # in both populations
    table = column_table(rows)
    for spec in all_model_specs():
        if spec.dv != dv:
            continue
        with pytest.raises(DesignError, match="must be non-negative integers"):
            prepare_design(table, spec)
        with pytest.raises(DesignError, match="must be non-negative integers"):
            stats_oracle.prepare_design(rows, spec)


@pytest.mark.parametrize("col", ["ClSize", "#SmellEff", "ChS"])
def test_non_numeric_cell_raises_instead_of_nan(col):
    rows = simulate_observation_rows(3, 20, seed=38)
    rows[5][col] = "n/a"
    with pytest.raises(ValueError, match="n/a"):
        column_table(rows)
    with pytest.raises(ValueError, match="n/a"):
        run_hypothesis_suite(rows)
    spec = next(s for s in all_model_specs() if col in (s.dv, s.iv, *s.cvs))
    with pytest.raises(ValueError, match="n/a"):
        stats_oracle.prepare_design(rows, spec)


class _Unconvertible:
    def __float__(self):
        raise AssertionError("converted a column no model reads")

    __str__ = __float__


def test_columns_no_spec_reads_are_never_converted():
    rows = simulate_observation_rows(3, 20, seed=39)
    for r in rows:
        r["class"] = r["lineage_status"] = _Unconvertible()
    table = column_table(rows)
    assert set(table.columns) == set(spec_columns())
    assert {"class", "lineage_status", "project"}.isdisjoint(table.columns)
    assert len(table.columns) == 14


# -- the residual file is replaced atomically -------------------------------------

def test_failed_residual_export_keeps_the_previous_file(tmp_path, monkeypatch):
    import smellstab.stats.suite as suite_mod

    rows = simulate_observation_rows(6, 40, seed=40)
    suite = run_hypothesis_suite(rows)
    path = tmp_path / "quantile_residuals.csv"
    export_quantile_residuals(suite, path, seed=1)
    before = path.read_bytes()

    real = suite_mod.randomized_quantile_residuals
    calls = []

    def fail_on_fifth(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("residuals failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(suite_mod, "randomized_quantile_residuals", fail_on_fifth)
    with pytest.raises(RuntimeError, match="residuals failed"):
        export_quantile_residuals(suite, path, seed=2)
    assert len(calls) == 5
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["quantile_residuals.csv"]


# -- the stats stage's cache round trip -------------------------------------------

def _export_all(suite, directory, seed):
    directory.mkdir()
    export_results_csv(suite, directory / "results.csv")
    export_fits_json(suite, directory / "fits.json", seed=seed)
    export_quantile_residuals(suite, directory / "quantile_residuals.csv", seed=seed)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _planting_a_glm_fit(monkeypatch):
    """Make the GLMM fit of H1.2:ChF, the first design with ``#SmellFoc`` as its IV, an NB GLM fit."""
    import smellstab.stats.suite as suite_mod

    real = suite_mod.fit_negbin_random_intercept

    def planting(design, *args):
        if design.names[1:2] == ["#SmellFoc"] and not planted:
            planted.append(design.names)
            return fit_negbin_glm(design)
        return real(design, *args)

    planted = []
    monkeypatch.setattr(suite_mod, "fit_negbin_random_intercept", planting)
    return planted


def test_saved_suite_exports_the_same_bytes(tmp_path, monkeypatch):
    rows = simulate_observation_rows(4, 30, seed=21)
    for r in rows:
        r["IsSmelly"] = "true"  # the non-smelly population is empty: no design
    planted = _planting_a_glm_fit(monkeypatch)
    suite = run_hypothesis_suite(rows)
    glm = next(r for r in suite.results if r.spec.label == "H1.2:ChF").fit
    assert glm.converged and glm.sigma2 is None and glm.u_hat is None
    assert any(r.fit is not None and not r.fit.converged for r in suite.results)
    assert any(r.fit is None and "empty population" in r.note for r in suite.results)
    assert any(np.isnan(r.null_ll) for r in suite.results)

    planted.clear()
    (tmp_path / "cache").mkdir()
    stored = run_hypothesis_suite(rows, tmp_path / "cache")
    assert next(r for r in stored.results if r.spec.label == "H1.2:ChF").fit.u_hat is None
    loaded = load_suite(tmp_path / "cache")
    fitted = _export_all(suite, tmp_path / "fitted", seed=9)
    assert _export_all(stored, tmp_path / "stored", seed=9) == fitted
    assert _export_all(loaded, tmp_path / "loaded", seed=9) == fitted


def test_saved_suite_bytes_are_deterministic(tmp_path):
    """Equal suites give equal files."""
    rows = simulate_observation_rows(6, 40, seed=42)
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        run_hypothesis_suite(rows, tmp_path / name)
    for name in ("suite.bin", "suite.json"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def _edit_entry(directory, name, field, value):
    """Set field ``field`` (0 dtype, 1 shape, 2 offset) of the entry ``name`` in the index of ``suite.bin``."""
    doc = json.loads((directory / "suite.json").read_text())
    doc["arrays"][name][field] = value
    (directory / "suite.json").write_text(json.dumps(doc))


def test_load_suite_unpickles_nothing(tmp_path, monkeypatch):
    run_hypothesis_suite(simulate_observation_rows(6, 40, seed=42), tmp_path)
    _edit_entry(tmp_path, "all.row_index", 0, "|O")
    unpickled = []
    for name in ("load", "loads"):
        monkeypatch.setattr(pickle, name, lambda *args, **kwargs: unpickled.append(args))
    with pytest.raises(ValueError, match="all.row_index is not a plain numeric array"):
        load_suite(tmp_path)
    assert unpickled == []


@pytest.mark.parametrize("where", ["past_end", "before_start"])
def test_load_suite_refuses_an_entry_outside_the_file(tmp_path, where):
    run_hypothesis_suite(simulate_observation_rows(6, 40, seed=42), tmp_path)
    doc = json.loads((tmp_path / "suite.json").read_text())
    dtype, shape, _ = doc["arrays"]["all.row_index"]
    nbytes = np.dtype(dtype).itemsize * int(np.prod(shape))
    _edit_entry(tmp_path, "all.row_index", 2, doc["bytes"] - nbytes + 1 if where == "past_end" else -1)
    with pytest.raises(ValueError, match="all.row_index is not a plain numeric array inside the file"):
        load_suite(tmp_path)


def test_load_suite_builds_no_fit_and_reads_no_array(tmp_path, monkeypatch):
    """A cache hit checks the index and the checksum; the exports read the rows and bounds from disk."""
    stored = run_hypothesis_suite(simulate_observation_rows(6, 40, seed=42), tmp_path)
    built = []
    for cls in (FitResult, HypothesisResult):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, **kwargs: built.append(type(self)))
    for name in ("fromfile", "frombuffer", "load", "memmap"):
        monkeypatch.setattr(np, name, lambda *args, _name=name, **kwargs: built.append(_name))
    loaded = load_suite(tmp_path)
    assert built == []
    assert loaded.results is None
    assert json.dumps(loaded.entries, sort_keys=True) == json.dumps(stored.entries, sort_keys=True)
