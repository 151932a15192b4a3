import pytest

from smellstab.pipeline import metric_tables
from smellstab.smells import SmellType, ThresholdConfig, ThresholdConfigError

from javafix import SMELL_FIXTURES, gc_fixture
from testkit import detect


def _detected(analyzed):
    corpus, _, facts = analyzed
    instances = detect(corpus, facts)[0]
    return {(s.smell.value, s.host.qualified_name) for s in instances}


def test_clean_class_yields_nothing(analyzed_factory):
    analyzed = analyzed_factory({
        "Tidy.java": (
            "class Tidy {\n"
            "  private int state;\n"
            "  public int read() { return state + 1; }\n"
            "  public void bump() { state = state + 1; }\n"
            "}"
        ),
    })
    assert _detected(analyzed) == set()


@pytest.mark.parametrize("smell", sorted(SMELL_FIXTURES))
def test_trigger_fixture_detects_exactly_target(smell, analyzed_factory):
    build, _near = SMELL_FIXTURES[smell]
    files, expected = build()
    assert _detected(analyzed_factory(files)) == expected


@pytest.mark.parametrize("smell", sorted(SMELL_FIXTURES))
def test_near_miss_fixture_detects_nothing(smell, analyzed_factory):
    _build, near = SMELL_FIXTURES[smell]
    files, expected = near()
    assert expected == set()
    assert _detected(analyzed_factory(files)) == set()


def test_host_kind_matches_level(analyzed_factory):
    for smell, (build, _near) in SMELL_FIXTURES.items():
        corpus, _, facts = analyzed_factory(build()[0])
        for inst in detect(corpus, facts)[0]:
            if inst.smell.level == "method":
                assert inst.host.kind.value in ("method", "constructor")
            else:
                assert inst.host.kind.value == "class"
            assert inst.enclosing == corpus.enclosing_class(inst.host)


def test_bc_implies_bm_in_same_class(analyzed_factory):
    build, _ = SMELL_FIXTURES["BC"]
    corpus, _, facts = analyzed_factory(build()[0])
    instances = detect(corpus, facts)[0]
    bc_hosts = {i.enclosing for i in instances if i.smell == SmellType.BC}
    bm_hosts = {i.enclosing for i in instances if i.smell == SmellType.BM}
    assert bc_hosts and bc_hosts <= bm_hosts


def test_threshold_monotonicity(analyzed_factory):
    # raising a lower-bound threshold never increases the count
    files, _ = gc_fixture()
    corpus, _, facts = analyzed_factory(files)
    base = len([s for s in detect(corpus, facts)[0] if s.smell == SmellType.GC])
    for stricter in (ThresholdConfig(WMC_VH=60), ThresholdConfig(FEW=8)):
        raised = len([
            s for s in detect(corpus, facts, stricter)[0] if s.smell == SmellType.GC
        ])
        assert raised <= base


def test_rb_tb_skipped_for_external_supertype(analyzed_factory):
    corpus, _, facts = analyzed_factory({
        "Orphan.java": "class Orphan extends com.vendor.Widget { void m() {} }",
    })
    instances, diags = detect(corpus, facts)
    assert not any(i.smell in (SmellType.RB, SmellType.TB) for i in instances)
    assert any("unresolvable supertype" in d.message for d in diags)


def test_interfaces_host_no_smells(analyzed_factory):
    corpus, _, facts = analyzed_factory({
        "Api.java": "interface Api { default int m(Data d) { return d.a + d.b + d.c; } }",
        "Data.java": "class Data { int a; int b; int c; }",
    })
    assert detect(corpus, facts)[0] == []


def test_detection_is_sorted_and_deterministic(analyzed_factory):
    build, _ = SMELL_FIXTURES["BC"]
    corpus, _, facts = analyzed_factory(build()[0])
    a = detect(corpus, facts)[0]
    b = detect(corpus, facts)[0]
    assert a == b
    keys = [(s.smell.value, s.host.qualified_name, s.host.signature) for s in a]
    assert keys == sorted(keys)


def test_config_rejects_unknown_and_invalid():
    with pytest.raises(ThresholdConfigError):
        ThresholdConfig(FEW=-1)
    with pytest.raises(ThresholdConfigError):
        ThresholdConfig(HALF=1.5)


def _independent_strategy_oracle(corpus, method_metrics, class_metrics, cfg):
    """Re-evaluate the boolean formulas directly over raw metric values.

    Written against the formula text, independent of smells.py internals.
    """
    found = set()
    per_class_bm = {}
    for t, m in corpus.iter_methods():
        if m.is_constructor or m.body is None:
            continue
        encl = corpus.enclosing_class(m.id)
        if corpus.type_decl(encl.qualified_name).is_interface:
            continue
        v = method_metrics[m.id]
        if v.atfd_m > cfg.FEW_ATFD and v.laa < 1 / 3 and v.fdp <= cfg.FEW_FDP:
            found.add(("FE", m.id.qualified_name))
        if (v.loc > cfg.LOC_HIGH and v.loc and v.cyclo / v.loc >= cfg.CYCLO_RATIO
                and v.max_nesting >= cfg.NEST_SEV and v.noav > cfg.NOAV_MANY):
            found.add(("BM", m.id.qualified_name))
            per_class_bm[encl] = per_class_bm.get(encl, 0) + 1
        if v.cint > cfg.MEMCAP and v.cdisp >= 0.5 and v.max_nesting > 1:
            found.add(("DiCo", m.id.qualified_name))
        if ((v.cint > cfg.MEMCAP and v.cdisp < 0.5) or (v.cint > cfg.FEW and v.cdisp < 0.25)) \
                and v.max_nesting > 1:
            found.add(("IC", m.id.qualified_name))
        if v.cm > cfg.CM_HIGH and v.cc > cfg.CC_MANY:
            found.add(("SS", m.id.qualified_name))
    for decl in corpus.top_level_classes():
        c = class_metrics[decl.id]
        name = decl.id.qualified_name
        if c.atfd_c > cfg.FEW and c.wmc >= cfg.WMC_VH and c.tcc < 1 / 3:
            found.add(("GC", name))
        if c.woc < 1 / 3 and ((c.nopa + c.noam > cfg.FEW and c.wmc < cfg.WMC_H)
                              or (c.nopa + c.noam > cfg.MANY and c.wmc < cfg.WMC_VH)):
            found.add(("DC", name))
        n_bm = per_class_bm.get(decl.id, 0)
        if c.tcc < 0.5 and ((n_bm >= 2 and c.loc >= cfg.BC_LOC_VH and c.wmc >= cfg.WMC_VH)
                            or (n_bm == 1 and c.loc >= 2 * cfg.BC_LOC_VH and c.wmc >= 2 * cfg.WMC_VH)):
            found.add(("BC", name))
        has_parent = decl.superclass is not None and not decl.superclass.is_external
        if has_parent:
            refuses = (c.nprotm > cfg.FEW and c.bur < 1 / 3) or c.bovr < 1 / 3
            complexity = (c.amw > cfg.AMW_AVG or c.wmc > cfg.WMC_AVG) and c.nom > cfg.NOM_AVG
            if refuses and complexity:
                found.add(("RB", name))
            if (c.nas >= cfg.NOM_AVG and c.pnas >= 2 / 3
                    and (c.amw > cfg.AMW_AVG or c.wmc >= cfg.WMC_H) and c.nom >= cfg.NOM_AVG):
                found.add(("TB", name))
    return found


@pytest.mark.parametrize("smell", sorted(SMELL_FIXTURES))
def test_strategy_oracle_equivalence(smell, analyzed_factory):
    cfg = ThresholdConfig()
    for build in SMELL_FIXTURES[smell]:
        corpus, _, facts = analyzed_factory(build()[0])
        detected = {(s.smell.value, s.host.qualified_name) for s in detect(corpus, facts, cfg)[0]}
        assert detected == _independent_strategy_oracle(corpus, *metric_tables(corpus, facts), cfg)
