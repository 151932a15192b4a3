"""Realistic-Java robustness: the parser and scanner must digest common
modern constructs without diagnostics and still resolve the edges that
matter."""

from array import array

from javafix import SMELL_FIXTURES, TEN_RELATIONS_FILES
from smellstab.graph import efferent_neighbors, extract_dependencies
from smellstab.lexer import TokenSpan
from smellstab.model import RelationKind
from testkit import detect, within

TORTURE = {
    "pkg/Service.java": """
package pkg;

import java.util.List;
import java.util.Map;
import java.util.function.Supplier;
import static java.util.Objects.requireNonNull;

public class Service<T extends Comparable<T>> implements Handler {
    private static final Map<String, Integer> CACHE = Map.of();
    protected List<Repo> repos;
    private int hits;

    public Service(List<Repo> repos) throws IllegalStateException {
        this.repos = requireNonNull(repos);
    }

    @Override
    public int handle(String name, int... extras) {
        int total = 0;
        for (Repo r : repos) {
            total += r.count();
        }
        for (int i = 0; i < extras.length; i++) {
            if (extras[i] > 0) {
                total += extras[i] > 1 ? extras[i] : 1;
            }
        }
        try (AutoCloseable scope = open()) {
            Runnable task = () -> { hits++; };
            Supplier<Repo> maker = Repo::new;
            task.run();
            total += maker.get().count();
        } catch (Exception e) {
            throw new IllegalStateException(name, e);
        }
        switch (total % 3) {
            case 0 -> total++;
            case 1 -> { total--; }
            default -> total = 0;
        }
        Object boxed = (Repo) null;
        if (boxed instanceof Repo typed) {
            total += typed.count();
        }
        String label = total > 10 ? "big" : "small";
        return total + label.length();
    }

    AutoCloseable open() { return null; }

    enum Mode { FAST, SLOW;
    }

    static class Inner extends Base {
        void spin() {
            new Thread(new Runnable() {
                public void run() {
                    Repo local = new Repo();
                    local.count();
                }
            }).start();
        }
    }
}
""",
    "pkg/Repo.java": """
package pkg;

public class Repo {
    private int size;

    public Repo() { size = 0; }

    public int count() { return size; }
}
""",
    "pkg/Handler.java": "package pkg;\npublic interface Handler { int handle(String name, int... extras); }\n",
    "pkg/Base.java": "package pkg;\npublic class Base { protected int depth; }\n",
}


def test_torture_file_parses_clean(analyzed_factory):
    corpus, graph, facts = analyzed_factory(TORTURE)
    assert corpus.diagnostics == []
    names = {t.id.qualified_name for t in corpus.types}
    assert names == {"pkg.Service", "pkg.Repo", "pkg.Handler", "pkg.Base"}
    service = corpus.type_decl("pkg.Service")
    nested = {t.id.qualified_name for t in service.all_nested()}
    assert nested == {"pkg.Service.Mode", "pkg.Service.Inner"}


def test_torture_edges_resolved(analyzed_factory):
    corpus, graph, _ = analyzed_factory(TORTURE)
    edges = {(e.relation, str(e.source), str(e.target)) for e in graph.edges if not e.external}
    assert (RelationKind.IMPLEMENT, "pkg.Service", "pkg.Handler") in edges
    assert (RelationKind.EXTEND, "pkg.Service.Inner", "pkg.Base") in edges
    # calls through enhanced-for receiver, method reference, and anonymous body
    assert (RelationKind.CALL, "pkg.Service.handle(String,int[])", "pkg.Repo.count()") in edges
    assert (RelationKind.CAST, "pkg.Service.handle(String,int[])", "pkg.Repo") in edges
    assert (RelationKind.USE, "pkg.Service.repos", "pkg.Repo") in edges
    creates = {t for r, s, t in edges if r == RelationKind.CREATE}
    assert "pkg.Repo" in creates


def test_torture_metrics_and_detection_run(analyzed_factory):
    corpus, _, facts = analyzed_factory(TORTURE)
    from smellstab.metrics import build_metrics_context, compute_class_metrics

    ctx = build_metrics_context(corpus, facts)
    for decl in corpus.top_level_classes():
        metrics = compute_class_metrics(ctx, decl.id)
        assert metrics.wmc >= 0
        assert 0.0 <= metrics.tcc <= 1.0
        assert 0.0 <= metrics.woc <= 1.0
    assert detect(corpus, facts)[0] == []


def test_torture_method_facts(analyzed_factory):
    corpus, graph, facts = analyzed_factory(TORTURE)
    service = corpus.type_decl("pkg.Service")
    handle = next(m for m in service.methods if m.id.simple_name == "handle")
    f = facts[handle.id]
    # branches: 2 fors + nested if + ternary + catch + 2 case labels + instanceof-if + ternary
    assert f.cyclo >= 8
    assert f.max_nesting == 2  # the ternary-if inside the counted for
    assert any(mid.qualified_name == "pkg.Repo.count" for mid in f.internal_calls)


def _internal_edges(graph) -> set:
    return {(e.relation, str(e.source), str(e.target)) for e in graph.edges if not e.external}


def test_compact_record_constructor_takes_the_components(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "P.java": "record P(int x, Q q) {\n    P {\n        if (x < 0) throw new IllegalArgumentException();\n"
                  "        q.touch();\n    }\n    int twice() { return x * 2; }\n}\n",
        "Q.java": "class Q { void touch() {} }\n",
    })
    assert corpus.diagnostics == []
    p = corpus.type_decl("P")
    assert [c.params for c in p.constructors] == [(("int", "x"), ("Q", "q"))]
    assert [m.id.simple_name for m in p.methods] == ["twice"]
    assert (RelationKind.CALL, "P.<init>(int,Q)", "Q.touch()") in _internal_edges(graph)


def test_annotation_element_defaults_are_skipped(corpus_factory):
    corpus = corpus_factory({
        "A.java": "@interface A {\n    int value() default 5;\n    String[] names() default {\"a\", \"b\"};\n"
                  "    Class<?> kind() default Object.class;\n    int plain();\n}\n",
    })
    assert corpus.diagnostics == []
    a = corpus.type_decl("A")
    assert [(m.id.simple_name, m.is_abstract, m.body) for m in a.methods] == [
        ("value", True, None), ("names", True, None), ("kind", True, None), ("plain", True, None)]


def test_explicit_method_type_arguments_keep_the_receiver(analyzed_factory):
    corpus, graph, _ = analyzed_factory({
        "U.java": "class U { static <T> U make() { return null; } }\n",
        "V.java": "class V {\n    void run() { U.<W>make(); }\n    static V make() { return null; }\n}\n",
        "W.java": "class W {}\n",
    })
    edges = _internal_edges(graph)
    assert (RelationKind.CALL, "V.run()", "U.make()") in edges
    assert (RelationKind.CALL, "V.run()", "V.make()") not in edges
    assert (RelationKind.USE, "V.run()", "W") in edges
    neighbors = {n.qualified_name for n in efferent_neighbors(graph, corpus, corpus.type_decl("V").id)}
    assert neighbors == {"U", "W"}


def test_local_with_a_qualified_annotation_uses_its_type(analyzed_factory):
    _, graph, facts = analyzed_factory({
        "R.java": "class R { void f() { @java.lang.SuppressWarnings(\"x\") Q q = null; q.go(); } }\n",
        "Q.java": "class Q { void go() {} }\n",
    })
    edges = _internal_edges(graph)
    assert (RelationKind.USE, "R.f()", "Q") in edges
    assert (RelationKind.CALL, "R.f()", "Q.go()") in edges


def test_stray_delimiters_end_a_scan(analyzed_factory):
    """An argument list, an array initializer or a try's resources cut short by
    a stray delimiter ends there, and the scan goes on."""
    bodies = ["f(a; b); new Q();", "int[] v = {a; b}; new Q();", "try (Q r = a ] b) { new Q(); }"]
    for body in bodies:
        files = {"A.java": f"class A {{ void m() {{ {body} }} void f(int x) {{}} }}\n", "Q.java": "class Q {}\n"}
        _, graph, _ = within(30, lambda: analyzed_factory(files))
        assert (RelationKind.CREATE, "A.m()", "Q") in _internal_edges(graph)


def test_a_file_cut_short_is_a_parse_failure(corpus_factory):
    corpus = corpus_factory({
        "A.java": "class A { int x;", "M.java": "class M { int x; Q", "P.java": "public", "Q.java": "class Q {}\n",
    })
    assert [(d.file, d.message) for d in corpus.diagnostics] == [
        ("A.java", "parse failure: line 1: expected member declaration, got '<eof>'"),
        ("M.java", "parse failure: line 1: expected member name, got '<eof>'"),
        ("P.java", "parse failure: line 1: expected type declaration, got '<eof>'"),
    ]
    assert [t.id.qualified_name for t in corpus.types] == ["Q"]


def test_a_body_scan_stops_at_its_window_end(analyzed_factory):
    """An annotation, a ``for`` header or a local type body that a body or a
    parenthesised run cuts short ends there; the scan keeps what it found."""
    cut_short = ["@A(", "@A.", "@", "for", "List<@A( x", "f(x -> { class L { ] ] ) } };"]
    for tail in cut_short:
        files = {"A.java": f"class A {{ void m() {{ new Q(); {tail} }} }}\n", "Q.java": "class Q {}\n"}
        corpus, graph, _ = analyzed_factory(files)
        assert corpus.diagnostics == [], tail
        assert (RelationKind.CREATE, "A.m()", "Q") in _internal_edges(graph), tail


INIT_BLOCKS = """
package pkg;
class Init {
    static int n = new Base() { int k() { return (int) 1.5; } }.depth, m = new Repo().count();
    static { new Repo().count(); }
    { for (Repo r : new Repo[] { null }) { r.count(); } }
}
"""


class _IndexOnly(tuple):
    """A value column that may be read by index and length only."""

    def __iter__(self):
        raise AssertionError("a body scan iterated a token column")

    def __getitem__(self, key):
        if isinstance(key, slice):
            raise AssertionError("a body scan sliced a token column")
        return tuple.__getitem__(self, key)


class _IndexOnlyLines(array):
    """A line column that may be read by index and length only."""

    def __iter__(self):
        raise AssertionError("a body scan iterated a line column")

    def __getitem__(self, key):
        if isinstance(key, slice):
            raise AssertionError("a body scan sliced a line column")
        return array.__getitem__(self, key)


def test_body_scans_read_token_runs_by_index_only(corpus_factory):
    files = dict(TORTURE, **{"pkg/Init.java": INIT_BLOCKS})
    for fixture, _ in SMELL_FIXTURES.values():
        files.update(fixture()[0])
    files.update(TEN_RELATIONS_FILES)
    corpus = corpus_factory(files)
    expected = extract_dependencies(corpus)
    guarded: dict[int, tuple] = {}  # one guarded pair of columns per file

    def index_only(span):
        if span is None:
            return None
        if id(span.values) not in guarded:
            guarded[id(span.values)] = (_IndexOnly(span.values), _IndexOnlyLines("I", span.lines))
        return TokenSpan(*guarded[id(span.values)], span.start, span.end)

    for top in corpus.types:
        for t in top.own_and_nested():
            for m in t.methods + t.constructors:
                m.body = index_only(m.body)
            for f in t.fields:
                f.initializer = index_only(f.initializer)
            t.initializers = [index_only(block) for block in t.initializers]
    graph, facts = extract_dependencies(corpus)
    assert graph.edges == expected[0].edges
    assert facts == expected[1]
