from smellstab.graph import DependencyEdge, DependencyGraph, efferent_neighbors
from smellstab.model import ArtifactId, ArtifactKind, RelationKind
from smellstab.neighborhood import (
    build_all_observations,
    build_observation,
    efferent_coupling_flag,
    efferent_interactions,
    efferent_smell_stats,
    focal_smell_stats,
    smell_footprint,
)
from smellstab.smells import SmellInstance, SmellType

from javafix import FIG2_CASE_A_FILES, FIG2_CASE_B_FILES
from synth import oracle_interactions, synth_corpus


def _mk_instance(corpus, smell, host_qname, kind=ArtifactKind.METHOD, sig=""):
    host = ArtifactId(corpus.project, host_qname, kind, sig)
    return SmellInstance(smell, host, corpus.enclosing_class(host))


def test_method_footprint_is_singleton(analyzed_factory):
    corpus, graph, _ = analyzed_factory(FIG2_CASE_A_FILES)
    inst = _mk_instance(corpus, SmellType.FE, "C1.cs1")
    assert smell_footprint(corpus, inst) == frozenset({inst.host})


def test_class_footprint_covers_members(analyzed_factory):
    corpus, graph, _ = analyzed_factory(FIG2_CASE_A_FILES)
    cs2 = corpus.type_decl("CS2").id
    inst = SmellInstance(SmellType.GC, cs2, cs2)
    names = {a.qualified_name for a in smell_footprint(corpus, inst)}
    assert names == {"CS2", "CS2.m2"}


def test_class_footprint_includes_nested_members(analyzed_factory):
    corpus, _, _ = analyzed_factory({
        "Outer.java": "class Outer { int f; class In { void g() {} } }",
    })
    outer = corpus.type_decl("Outer").id
    inst = SmellInstance(SmellType.GC, outer, outer)
    names = {a.qualified_name for a in smell_footprint(corpus, inst)}
    assert names == {"Outer", "Outer.f", "Outer.In", "Outer.In.g"}


def test_focal_smell_stats():
    focal = ArtifactId("p", "F", ArtifactKind.CLASS)
    other = ArtifactId("p", "O", ArtifactKind.CLASS)
    m1 = ArtifactId("p", "F.m1", ArtifactKind.METHOD)
    m2 = ArtifactId("p", "F.m2", ArtifactKind.METHOD)
    assert focal_smell_stats(focal, []) == (False, 0, 0)
    smells = [
        SmellInstance(SmellType.FE, m1, focal),
        SmellInstance(SmellType.FE, m2, focal),
        SmellInstance(SmellType.GC, focal, focal),
        SmellInstance(SmellType.FE, ArtifactId("p", "O.m", ArtifactKind.METHOD), other),
    ]
    assert focal_smell_stats(focal, smells) == (True, 3, 2)
    only_fe = [s for s in smells if s.smell == SmellType.FE and s.enclosing == focal]
    assert focal_smell_stats(focal, only_fe) == (True, 2, 1)


def test_efferent_smell_stats_union_variety():
    focal = ArtifactId("p", "F", ArtifactKind.CLASS)
    n1 = ArtifactId("p", "N1", ArtifactKind.CLASS)
    n2 = ArtifactId("p", "N2", ArtifactKind.CLASS)
    smells = [
        SmellInstance(SmellType.GC, n1, n1),
        SmellInstance(SmellType.FE, ArtifactId("p", "N2.a", ArtifactKind.METHOD), n2),
        SmellInstance(SmellType.FE, ArtifactId("p", "N2.b", ArtifactKind.METHOD), n2),
    ]
    assert efferent_smell_stats(focal, {n1, n2}, smells) == (True, 3, 2)
    assert efferent_smell_stats(focal, set(), smells) == (False, 0, 0)
    same_type = [
        SmellInstance(SmellType.GC, n1, n1),
        SmellInstance(SmellType.GC, n2, n2),
    ]
    assert efferent_smell_stats(focal, {n1, n2}, same_type) == (True, 2, 1)


def test_coupling_flag_truth_table():
    assert efferent_coupling_flag(True, True) is True
    assert efferent_coupling_flag(True, False) is False
    assert efferent_coupling_flag(False, True) is False
    assert efferent_coupling_flag(False, False) is False


def _fig2_smells(corpus):
    cs1 = _mk_instance(corpus, SmellType.FE, "C1.cs1")
    cs2_decl = corpus.type_decl("CS2").id
    cs2 = SmellInstance(SmellType.GC, cs2_decl, cs2_decl)
    return [cs1, cs2]


def test_fig2_case_a_coupled_not_interacting(analyzed_factory):
    corpus, graph, _ = analyzed_factory(FIG2_CASE_A_FILES)
    smells = _fig2_smells(corpus)
    obs = build_observation(corpus.type_decl("C1").id, corpus, graph, smells)
    assert obs.has_eff_coup is True
    assert obs.has_eff_int is False
    assert obs.n_eff_smell_int == 0 and obs.eff_int_inten == 0


def test_fig2_case_b_interacting(analyzed_factory):
    corpus, graph, _ = analyzed_factory(FIG2_CASE_B_FILES)
    smells = _fig2_smells(corpus)
    obs = build_observation(corpus.type_decl("C1").id, corpus, graph, smells)
    assert obs.has_eff_coup is True
    assert obs.has_eff_int is True
    assert obs.n_eff_smell_int == 1
    assert obs.eff_int_inten == 1


def test_intensity_sums_sites_across_edge_kinds(analyzed_factory):
    # one pair connected by 2 call sites + 1 cast site -> (true, 1, 3)
    corpus, graph, _ = analyzed_factory({
        "C1.java": (
            "class C1 { CS2 s;\n"
            "  void cs1() { s.m2(); s.m2(); Object o = (CS2) null; }\n"
            "}"
        ),
        "CS2.java": "class CS2 { void m2() { int z = 0; z = z + 1; } }",
    })
    cs1 = _mk_instance(corpus, SmellType.FE, "C1.cs1")
    cs2_decl = corpus.type_decl("CS2").id
    smells = [cs1, SmellInstance(SmellType.GC, cs2_decl, cs2_decl)]
    has_int, n_int, inten, pairs = efferent_interactions(
        corpus.type_decl("C1").id, graph, corpus, smells)
    assert (has_int, n_int, inten) == (True, 1, 3)
    assert len(pairs) == 1


def test_build_observation_clean_isolated_class(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "Iso.java": "class Iso {\n" + "    int a;\n" * 1 + "    void m() { a = 1; }\n" * 1 + "}",
    })
    obs = build_observation(corpus.type_decl("Iso").id, corpus, graph, [])
    assert obs.is_smelly is False and obs.n_smell_foc == 0
    assert obs.has_smell_eff is False and obs.has_eff_coup is False
    assert obs.has_eff_int is False and obs.eff_int_inten == 0
    assert obs.cl_size == corpus.type_decl("Iso").loc
    assert obs.n_eff_nei == 0


def test_coupling_without_interaction_when_footprints_disconnected(analyzed_factory):
    corpus, graph, _ = analyzed_factory(FIG2_CASE_A_FILES)
    smells = _fig2_smells(corpus)
    has_int, n_int, inten, _ = efferent_interactions(corpus.type_decl("C1").id, graph, corpus, smells)
    assert (has_int, n_int, inten) == (False, 0, 0)
    obs = build_observation(corpus.type_decl("C1").id, corpus, graph, smells)
    assert obs.has_eff_coup and not obs.has_eff_int


def test_invariant_chain_over_synthetic_corpora():
    for seed in range(25):
        corpus, graph, smells = synth_corpus(seed)
        n_classes = len(corpus.top_level_classes())
        for obs in build_all_observations(corpus, graph, smells):
            if obs.has_eff_int:
                assert obs.has_eff_coup
            if obs.has_eff_coup:
                assert obs.is_smelly and obs.has_smell_eff
            assert (obs.eff_int_inten >= 1) == obs.has_eff_int
            assert obs.var_smell_foc <= obs.n_smell_foc
            assert obs.var_smell_eff <= obs.n_smell_eff
            assert obs.n_eff_nei <= n_classes - 1


def test_exhaustive_oracle_equivalence():
    for seed in range(50):
        corpus, graph, smells = synth_corpus(seed)
        rows = {o.focal: o for o in build_all_observations(corpus, graph, smells)}
        for decl in corpus.top_level_classes():
            n_oracle, inten_oracle, neighbors_oracle = oracle_interactions(
                corpus, graph, smells, decl.id)
            assert efferent_neighbors(graph, corpus, decl.id) == neighbors_oracle
            expected = (n_oracle > 0, n_oracle, inten_oracle)
            given = efferent_interactions(decl.id, graph, corpus, smells, neighbors_oracle)
            derived = efferent_interactions(decl.id, graph, corpus, smells)
            assert given[:3] == expected
            assert derived[:3] == expected
            assert given[3] == derived[3]
            row = rows[decl.id]
            assert row.n_eff_nei == len(neighbors_oracle)
            assert (row.has_eff_int, row.n_eff_smell_int, row.eff_int_inten) == expected


class _NoWalk(list):
    def __iter__(self):
        raise AssertionError("the whole edge list was walked")


def test_observations_read_only_the_focal_out_edges():
    # after finalize() every efferent quantity must come from by_source
    for seed in range(25):
        corpus, graph, smells = synth_corpus(seed)
        expected = build_all_observations(corpus, graph, smells)
        graph.edges = _NoWalk(graph.edges)
        assert build_all_observations(corpus, graph, smells) == expected


def test_removing_neighbor_smells_zeroes_everything():
    corpus, graph, smells = synth_corpus(7)
    for decl in corpus.top_level_classes():
        focal = decl.id
        kept = [s for s in smells if s.enclosing == focal]
        obs = build_observation(focal, corpus, graph, kept)
        assert obs.n_smell_eff == 0
        assert obs.has_eff_coup is False
        assert obs.has_eff_int is False
        assert obs.n_eff_smell_int == 0 and obs.eff_int_inten == 0


def test_adding_edge_between_footprints_monotone():
    corpus, graph, smells = synth_corpus(11)
    classes = corpus.top_level_classes()
    focal_decl = classes[0]
    focal = focal_decl.id
    target_decl = next((t for t in classes[1:]), None)
    assert target_decl is not None
    # force a smelly focal method and a class-level smelly neighbor
    fm = focal_decl.methods[0]
    smells = sorted(set(smells) | {
        SmellInstance(SmellType.FE, fm.id, focal),
        SmellInstance(SmellType.GC, target_decl.id, target_decl.id),
    })
    before = efferent_interactions(focal, graph, corpus, smells)
    new_edge = DependencyEdge(RelationKind.CALL, fm.id, target_decl.methods[0].id, 2)
    bigger = DependencyGraph(edges=list(graph.edges))
    if new_edge not in bigger.edges:
        bigger.edges.append(new_edge)
    bigger.finalize()
    after = efferent_interactions(focal, graph=bigger, corpus=corpus, smells=smells)
    assert after[2] >= before[2]
    assert after[1] >= before[1]


def test_build_all_observations_sorted_and_valid():
    corpus, graph, smells = synth_corpus(3)
    rows = build_all_observations(corpus, graph, smells)
    names = [o.focal.qualified_name for o in rows]
    assert names == sorted(names)
    for obs in rows:
        obs.validate()
