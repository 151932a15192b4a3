import dataclasses
import gc
import pickle
import random
from unittest import mock

import pytest

from smellstab.bodyscan import NO_BODY_FACTS, BodyFacts
from smellstab.corpus import ingest_corpus
from smellstab.graph import DependencyGraph, DomainError, efferent_neighbors, extract_dependencies
from smellstab.model import ArtifactId, ArtifactKind, RelationKind, external_artifact
from smellstab.resolve import Resolver

from javafix import FIG1_FILES, FIG2_CASE_A_FILES, FIG2_CASE_B_FILES, SMELL_FIXTURES, TEN_RELATIONS_FILES
from synth import synth_corpus
from test_corpus import _generated
from test_frontend_oracle import _synth_java


def _aid(qname, kind, sig=""):
    return ArtifactId("fix", qname, kind, sig)


def test_fig1_edges_and_neighbors(analyzed_factory):
    corpus, graph, _ = analyzed_factory(FIG1_FILES)
    edge_keys = {(e.relation, str(e.source), str(e.target)) for e in graph.edges if not e.external}
    assert (RelationKind.USE, "C.f", "N1") in edge_keys
    assert (RelationKind.PARAMETER, "C.m(N2)", "N2") in edge_keys
    C = corpus.type_decl("C").id
    neighbors = efferent_neighbors(graph, corpus, C)
    assert {n.qualified_name for n in neighbors} == {"N1", "N2"}
    assert len(neighbors) == 2


def test_empty_class_has_only_implicit_external_extend(analyzed_factory):
    corpus, graph, _ = analyzed_factory({"Lone.java": "class Lone {}"})
    lone = corpus.type_decl("Lone").id
    edges = [e for e in graph.edges if corpus.enclosing_class(e.source) == lone]
    assert len(edges) == 1
    e = edges[0]
    assert e.relation == RelationKind.EXTEND
    assert e.external
    assert e.target.qualified_name == "java.lang.Object"
    assert efferent_neighbors(graph, corpus, lone) == set()


def test_all_ten_relations_exact_edge_set(analyzed_factory):
    corpus, graph, _ = analyzed_factory(TEN_RELATIONS_FILES)
    ten = corpus.type_decl("Ten").id
    run = _aid("Ten.run", ArtifactKind.METHOD, "Par")
    actual = {
        (e.relation, e.source, e.target, e.site_count)
        for e in graph.edges
        if not e.external and corpus.enclosing_class(e.source) == ten
    }
    expected = {
        (RelationKind.EXTEND, ten, _aid("Base", ArtifactKind.CLASS), 1),
        (RelationKind.IMPLEMENT, ten, _aid("Iface", ArtifactKind.INTERFACE), 1),
        (RelationKind.CONTAIN, ten, run, 1),
        (RelationKind.PARAMETER, run, _aid("Par", ArtifactKind.CLASS), 1),
        (RelationKind.THROWS, run, _aid("Exc", ArtifactKind.CLASS), 1),
        (RelationKind.RETURN, run, _aid("Ret", ArtifactKind.CLASS), 1),
        (RelationKind.USE, run, _aid("Use", ArtifactKind.CLASS), 1),
        (RelationKind.CREATE, run, _aid("Cre", ArtifactKind.CLASS), 1),
        (RelationKind.CALL, run, _aid("Par.go", ArtifactKind.METHOD, "Object"), 1),
        (RelationKind.CAST, run, _aid("Cas", ArtifactKind.CLASS), 1),
    }
    assert actual == expected
    assert len(actual) == 10
    assert {e[0] for e in actual} == set(RelationKind)


def test_self_calls_do_not_create_neighbors(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "Solo.java": "class Solo { void a() { b(); } void b() { a(); } }",
    })
    assert efferent_neighbors(graph, corpus, corpus.type_decl("Solo").id) == set()


def test_neighbor_set_semantics_not_edge_count(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "Caller.java": "class Caller { void m(Helper h) { h.a(); h.b(); h.c(); } }",
        "Helper.java": "class Helper { void a() {} void b() {} void c() {} }",
    })
    neighbors = efferent_neighbors(graph, corpus, corpus.type_decl("Caller").id)
    assert {n.qualified_name for n in neighbors} == {"Helper"}


def test_site_count_accumulates(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "Caller.java": "class Caller { void m(Helper h) { h.a(); h.a(); h.a(); } }",
        "Helper.java": "class Helper { void a() {} }",
    })
    call_edges = [e for e in graph.edges if e.relation == RelationKind.CALL and not e.external]
    assert len(call_edges) == 1
    assert call_edges[0].site_count == 3


def test_call_resolution_via_field_and_local(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "User.java": (
            "class User { Helper field;\n"
            "  void viaField() { field.a(); }\n"
            "  void viaLocal() { Helper h = new Helper(); h.a(); }\n"
            "  void viaChain(Box b) { b.helper.a(); }\n"
            "}"
        ),
        "Helper.java": "class Helper { void a() {} }",
        "Box.java": "class Box { Helper helper; }",
    })
    calls = {str(e.source) for e in graph.edges
             if e.relation == RelationKind.CALL and e.target.qualified_name == "Helper.a"}
    assert calls == {"User.viaField()", "User.viaLocal()", "User.viaChain(Box)"}


def test_contain_edges_form_forest(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "Outer.java": "class Outer { int f; void m() {} class In { int g; } }",
    })
    contains = [e for e in graph.edges if e.relation == RelationKind.CONTAIN]
    targets = [e.target for e in contains]
    assert len(targets) == len(set(targets))  # one container per artifact
    by_target = {e.target: e.source for e in contains}
    outer = corpus.type_decl("Outer").id
    inner = corpus.type_decl("Outer.In").id
    assert by_target[inner] == outer
    g_field = corpus.type_decl("Outer.In").fields[0].id
    assert by_target[g_field] == inner


def test_interface_counts_as_neighbor(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "Impl.java": "class Impl implements Api { public void go() {} }",
        "Api.java": "interface Api { void go(); }",
    })
    neighbors = efferent_neighbors(graph, corpus, corpus.type_decl("Impl").id)
    assert {n.qualified_name for n in neighbors} == {"Api"}


def test_focal_must_be_top_level_class(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "I.java": "interface I {}",
        "C.java": "class C { int f; class N {} }",
    })
    c = corpus.type_decl("C")
    assert efferent_neighbors(graph, corpus, c.id) == set()
    for not_top_class in (corpus.type_decl("I").id, _aid("I", ArtifactKind.CLASS), corpus.type_decl("C.N").id,
                          c.fields[0].id, external_artifact("C"), _aid("Nope", ArtifactKind.CLASS)):
        with pytest.raises(DomainError, match="not a top-level class of this corpus"):
            efferent_neighbors(graph, corpus, not_top_class)


def test_determinism_identical_edge_multiset(analyzed_factory):
    files = {
        "A.java": "class A { B b; void m() { b.go(); b.go(); } }",
        "B.java": "class B { void go() {} }",
    }
    _, g1, _ = analyzed_factory(files)
    _, g2, _ = analyzed_factory(files)
    assert [(e.relation, str(e.source), str(e.target), e.site_count) for e in g1.edges] == [
        (e.relation, str(e.source), str(e.target), e.site_count) for e in g2.edges
    ]


def test_no_missed_call_sites_vs_source_scan(analyzed_factory):
    # brute-force re-scan of the fixture text: every `.hit(` is a call site
    from javafix import ss_fixture

    files, _ = ss_fixture()
    corpus, graph, _ = analyzed_factory(files)
    expected_sites = sum(src.count(".hit(") for src in files.values())
    hit = corpus.type_decl("Target").methods[0].id
    call_sites = sum(e.site_count for e in graph.edges
                     if e.relation == RelationKind.CALL and e.target == hit)
    assert call_sites == expected_sites == 11


def test_external_targets_are_tagged(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "A.java": "import java.util.List; class A { List items; void m() { System.out.println(1); } }",
    })
    externals = {e.target.qualified_name for e in graph.edges if e.external}
    assert "java.util.List" in externals
    assert efferent_neighbors(graph, corpus, corpus.type_decl("A").id) == set()


def test_generic_type_arguments_become_use_edges(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "A.java": "import java.util.List; class A { List<Item> items; }",
        "Item.java": "class Item {}",
    })
    uses = {(str(e.source), e.target.qualified_name)
            for e in graph.edges if e.relation == RelationKind.USE}
    assert ("A.items", "Item") in uses
    assert ("A.items", "java.util.List") in uses
    neighbors = efferent_neighbors(graph, corpus, corpus.type_decl("A").id)
    assert {n.qualified_name for n in neighbors} == {"Item"}


def test_type_name_resolution_order(analyzed_factory):
    # single-type import > the package, this file's own types included > on-demand import
    corpus, graph, _ = analyzed_factory({
        "p/A.java": "package p; import q.*; class A { Helper h; Other o; } class Helper {}",
        "p/Local.java": "package p; class Local {}",
        "p/B.java": "package p; import q.Local; import q.*; class B { Local l; }",
        "q/Helper.java": "package q; public class Helper {}",
        "q/Other.java": "package q; public class Other {}",
        "q/Local.java": "package q; public class Local {}",
        "D.java": "import q.*; class D { Helper h; Other o; } class Helper {}",
    })
    uses = {str(e.source): e.target.qualified_name
            for e in graph.edges if e.relation == RelationKind.USE}
    assert uses["p.A.h"] == "p.Helper"
    assert uses["p.A.o"] == "q.Other"
    assert uses["p.B.l"] == "q.Local"
    assert uses["D.h"] == "Helper"
    assert uses["D.o"] == "q.Other"


def test_a_package_name_is_no_enclosing_type(analyzed_factory):
    """A default-package class ``p`` does not enclose ``p.B``, so B's bare ``x`` is not ``p.x``."""
    corpus, graph, _ = analyzed_factory({
        "p.java": "class p { static int x; }",
        "p/B.java": "package p; public class B { int f() { return x; } }",
    })
    b = corpus.type_decl("p.B")
    assert [t.id for t in Resolver(corpus).scope_chain(b)] == [b.id]
    assert [e for e in graph.edges if corpus.enclosing_class(e.source) == b.id
            and e.target.qualified_name in ("p", "p.x")] == []
    assert efferent_neighbors(graph, corpus, b.id) == set()


def test_finalize_orders_edges_as_the_dataclass_order(analyzed_factory):
    _, analyzed, _ = analyzed_factory(TEN_RELATIONS_FILES)  # internal and external targets
    graphs = [analyzed] + [synth_corpus(seed)[1] for seed in range(50)]
    for seed, graph in enumerate(graphs):
        rng = random.Random(seed)
        edges = list(graph.edges)
        # hand-built graphs may repeat a (relation, source, target) with another count
        edges += [dataclasses.replace(e, site_count=e.site_count + 1)
                  for e in rng.sample(edges, len(edges) // 4)]
        rng.shuffle(edges)
        shuffled = DependencyGraph(edges=list(edges))
        shuffled.finalize()
        assert shuffled.edges == sorted(edges)


def test_memoised_type_names_agree_with_unmemoised():
    corpora = [FIG1_FILES, FIG2_CASE_A_FILES, FIG2_CASE_B_FILES, TEN_RELATIONS_FILES]
    for fixture, near_miss in SMELL_FIXTURES.values():
        corpora += [fixture()[0], near_miss()[0]]
    corpora += [_synth_java(seed) for seed in range(50)]
    # one name, a method's type variable in one scope and a class in the next
    corpora.append({"T.java": "class T {}\n",
                    "G.java": "class G { <T> T pick(T a) { T b = a; return b; } T plain() { return new T(); } }\n"})
    for files in corpora:
        corpus = ingest_corpus(files, "s0", project="fix")
        with mock.patch.object(Resolver, "_resolve_type_name", autospec=True,
                               side_effect=Resolver._resolve_type_name) as spy:
            memoised = extract_dependencies(corpus)
        with mock.patch.object(Resolver, "resolve_type_name", Resolver._resolve_type_name):
            unmemoised = extract_dependencies(corpus)
        assert memoised[0].edges == unmemoised[0].edges
        assert memoised[1] == unmemoised[1]
        # each distinct question once, and the memo warmed in the reverse order gives the same answers
        keys = [(raw, scope.id.qualified_name, extra) for _, raw, scope, extra in (c.args for c in spy.call_args_list)]
        assert len(keys) == len(set(keys))
        resolver = Resolver(corpus)
        for _, raw, scope, extra in reversed([c.args for c in spy.call_args_list]):
            assert resolver.resolve_type_name(raw, scope, extra) == Resolver(corpus)._resolve_type_name(raw, scope, extra)


ANON_HOST = "class B { static B make() { return null; } static int go() { return 0; } static void run() {} }"


def _calls_to_b(analyzed_factory, body: str) -> set[str]:
    _, graph, _ = analyzed_factory({"A.java": f"class A {{ void m() {{ {body} }} }}", "B.java": ANON_HOST})
    return {e.target.qualified_name for e in graph.edges
            if e.relation == RelationKind.CALL and str(e.source) == "A.m()"}


def test_anonymous_class_initializer_block_and_field_initializer_are_scanned(analyzed_factory):
    body = "new Object() { { B.make(); } int v = B.go(); void r() { B.run(); } };"
    assert _calls_to_b(analyzed_factory, body) == {"B.make", "B.go", "B.run"}


def test_anonymous_class_method_with_a_throws_clause_is_scanned(analyzed_factory):
    body = "new Runnable() { public void run() throws Exception { B.run(); } };"
    assert _calls_to_b(analyzed_factory, body) == {"B.run"}


def test_anonymous_class_members_of_every_shape_are_scanned(analyzed_factory):
    body = (
        "Object o = new Object() {"
        "  @Override public String toString() { return null; }"
        "  int[] xs = { B.go() }, ys;"
        "  <T> T pick(T a) throws RuntimeException, Error { B.make(); return a; }"
        "  class Inner { int w = B.go(); void q() { B.run(); } }"
        "};"
    )
    assert _calls_to_b(analyzed_factory, body) == {"B.go", "B.make", "B.run"}


def _internal_edges_from(graph, source: str) -> set[tuple[RelationKind, str, int]]:
    return {(e.relation, str(e.target), e.site_count)
            for e in graph.edges if str(e.source) == source and not e.external}


def test_each_declarator_of_a_local_statement_is_typed(analyzed_factory):
    _, graph, _ = analyzed_factory({
        "A.java": "class A { void m() { B one[] = null, two = new B(); two.run(); } }",
        "B.java": "class B { void run() {} }",
    })
    assert _internal_edges_from(graph, "A.m()") == {
        (RelationKind.USE, "B", 1), (RelationKind.CREATE, "B", 1), (RelationKind.CALL, "B.run()", 1)}


def test_super_constructor_call_edges(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "Base.java": "class Base { Base(int n) {} }",
        "Sub.java": "class Sub extends Base { Sub() { super(1); } }",
        "T.java": "class T extends Thread { T() { super(\"t\"); } }",
    })
    assert _internal_edges_from(graph, "Sub.<init>()") == {(RelationKind.CALL, "Base.<init>(int)", 1)}
    t_calls = [e for e in graph.edges if str(e.source) == "T.<init>()"]
    assert [(e.relation, str(e.target), e.target.kind, e.external) for e in t_calls] == [
        (RelationKind.CALL, "Thread.<init>()", ArtifactKind.CONSTRUCTOR, True)]


def test_generic_creation_and_return_type_arguments_are_use_edges(analyzed_factory):
    _, graph, _ = analyzed_factory({
        "A.java": ("import java.util.List; class A {\n"
                   "  Object make() { return new Box<Item>(); }\n"
                   "  List<Item> items() { return null; }\n"
                   "}"),
        "Box.java": "class Box<T> {}",
        "Item.java": "class Item {}",
    })
    assert _internal_edges_from(graph, "A.make()") == {(RelationKind.CREATE, "Box", 1), (RelationKind.USE, "Item", 1)}
    assert _internal_edges_from(graph, "A.items()") == {(RelationKind.USE, "Item", 1)}
    returns = {str(e.target) for e in graph.edges if e.relation == RelationKind.RETURN}
    assert returns == {"Object", "java.util.List"}  # an unimported simple name stays as written


def test_qualified_nested_type_through_an_imported_head(analyzed_factory):
    _, graph, _ = analyzed_factory({
        "p/Outer.java": "package p; public class Outer { public static class Inner {} }",
        "q/User.java": "package q; import p.Outer; class User { Outer.Inner in; Outer.Missing gone; }",
    })
    uses = {str(e.source): (str(e.target), e.external) for e in graph.edges if e.relation == RelationKind.USE}
    assert uses["q.User.in"] == ("p.Outer.Inner", False)
    assert uses["q.User.gone"] == ("Outer.Missing", True)  # no such nested type: external as written


def test_three_level_hierarchy_calls_resolve_to_the_grandparent(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "A.java": "class A { void pa() {} }",
        "B.java": "class B extends A {}",
        "C.java": "class C extends B { void m() { pa(); } }",
    })
    assert _internal_edges_from(graph, "C.m()") == {(RelationKind.CALL, "A.pa()", 1)}
    assert efferent_neighbors(graph, corpus, corpus.type_decl("C").id) == {
        corpus.type_decl("A").id, corpus.type_decl("B").id}


@pytest.mark.parametrize("args, target", [
    ("", "A.g()"),
    ("x", "A.g(int)"),
    ("x, x", "A.g(int,int)"),
    ("x,", "A.g(int,int)"),  # a trailing comma opens a second, empty argument
])
def test_argument_count_picks_the_overload(analyzed_factory, args, target):
    _, graph, _ = analyzed_factory({"A.java": (
        f"class A {{ void g() {{}} void g(int p) {{}} void g(int p, int q) {{}} void m(int x) {{ g({args}); }} }}")})
    assert _internal_edges_from(graph, "A.m(int)") == {(RelationKind.CALL, target, 1)}


# -- memory shape: a few objects per declaration, and values that cross processes ------


def _generated_graph():
    corpus = ingest_corpus(_generated(200, 1), "s0", project="p")
    declarations = sum(1 + len(t.fields) + len(t.methods) + len(t.constructors)
                       for top in corpus.types for t in top.own_and_nested())
    gc.collect()
    before = len(gc.get_objects())
    graph, facts = extract_dependencies(corpus)
    gc.collect()
    return corpus, graph, facts, declarations, len(gc.get_objects()) - before


def test_graph_and_facts_hold_few_tracked_objects_per_declaration():
    """About 6.5 tracked objects per declaration (its edges, the edge lists
    by source, the body facts and their non-empty sets) were measured on these
    200 classes; the bound of 8 leaves room for a field or two more.  Six
    private sets per member body, or its site tuples kept past the edges, come
    to almost 10 here."""
    _, graph, facts, declarations, grown = _generated_graph()
    assert declarations == 2200 and len(graph.edges) > 3 * declarations and len(facts) == 800
    assert grown <= 8 * declarations


def test_body_facts_share_one_empty_set_and_keep_no_sites():
    _, _, facts, _, _ = _generated_graph()
    names = [f.name for f in dataclasses.fields(BodyFacts) if f.name not in ("cyclo", "max_nesting")]
    assert len(names) == 6
    held = [getattr(f, name) for f in facts.values() for name in names]
    assert all(type(s) is frozenset for s in held)
    empty = [s for s in held if not s]
    assert empty and all(s is NO_BODY_FACTS.internal_calls for s in empty)
    assert not any(hasattr(f, "sites") or hasattr(f, "__dict__") for f in facts.values())


def test_value_types_survive_a_pickle_round_trip():
    corpus, graph, facts, _, _ = _generated_graph()
    method = corpus.declaration(next(mid for mid, f in facts.items() if f.own_fields and f.internal_calls))
    values = [method.id, graph.edges[0], facts[method.id], NO_BODY_FACTS]
    for value in values:
        back = pickle.loads(pickle.dumps(value))
        assert back == value and hash(back) == hash(value) and not hasattr(back, "__dict__")
    bodiless = dataclasses.replace(method, body=None)
    back = pickle.loads(pickle.dumps(bodiless))
    assert back == bodiless and not hasattr(back, "__dict__")
