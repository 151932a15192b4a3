import gc

import pytest

from smellstab.corpus import ingest_corpus
from smellstab.io_utils import write_json
from smellstab.lexer import tokenize
from smellstab.model import ArtifactKind, CorpusLookupError

from testkit import build_corpus


def test_empty_snapshot_yields_empty_corpus():
    assert ingest_corpus({}, "s0", project="p").types == []


def test_files_are_read_in_directory_walk_order():
    # "a-b/..." sorts before "a/..." as a string, after it by path component
    corpus = build_corpus({"a-b/X.java": "class X {}", "a/X.java": "class X { int f; }"})
    assert [t.file for t in corpus.types] == ["a/X.java"]
    assert corpus.diagnostics[0].file == "a-b/X.java"


def test_class_and_interface():
    corpus = build_corpus({
        "A.java": "public class A { int f; }",
        "B.java": "public interface B { void m(); }",
    })
    names = {t.id.qualified_name: t for t in corpus.types}
    assert set(names) == {"A", "B"}
    assert not names["A"].is_interface
    assert names["B"].is_interface
    assert names["B"].methods[0].is_abstract


def test_nested_class_back_references_top_level():
    corpus = build_corpus({
        "Outer.java": "class Outer { class Inner { void m() {} } }",
    })
    assert len(corpus.types) == 1
    outer = corpus.types[0]
    inner = outer.nested_types[0]
    assert inner.id.qualified_name == "Outer.Inner"
    assert inner.parent == outer.id
    assert corpus.enclosing_class(inner.id) == outer.id


def test_parse_failure_is_diagnostic_not_fatal():
    corpus = build_corpus({
        "Good.java": "class Good {}",
        "Bad.java": "class Bad { this is not java ;;;",
    })
    assert [t.id.qualified_name for t in corpus.types] == ["Good"]
    assert any("Bad.java" in d.file for d in corpus.diagnostics)


def test_packages_and_qualified_names():
    corpus = build_corpus({
        "a/X.java": "package a; public class X { int f; void m(int k) {} }",
    })
    t = corpus.types[0]
    assert t.id.qualified_name == "a.X"
    assert t.fields[0].id.qualified_name == "a.X.f"
    m = t.methods[0]
    assert m.id.qualified_name == "a.X.m"
    assert m.id.signature == "int"


def test_enclosing_class_rules():
    corpus = build_corpus({
        "Outer.java": "class Outer { void top() {} class Inner { void m() {} } }",
    })
    outer = corpus.types[0]
    inner = outer.nested_types[0]
    top_method = outer.methods[0]
    inner_method = inner.methods[0]
    assert corpus.enclosing_class(outer.id) == outer.id
    assert corpus.enclosing_class(top_method.id) == outer.id
    assert corpus.enclosing_class(inner.id) == outer.id
    assert corpus.enclosing_class(inner_method.id) == outer.id
    # idempotence
    assert corpus.enclosing_class(corpus.enclosing_class(inner_method.id)) == outer.id


def test_enclosing_class_unknown_artifact():
    corpus = build_corpus({"A.java": "class A {}"})
    from smellstab.model import ArtifactId

    with pytest.raises(CorpusLookupError):
        corpus.enclosing_class(ArtifactId("fix", "Nope", ArtifactKind.CLASS))


def test_reingest_is_byte_identical(tmp_path):
    files = {
        "a/X.java": "package a; class X { int f; void m() { f = f + 1; } }",
        "a/Y.java": "package a; interface Y { int K = 1; }",
    }
    for name in ("c1.json", "c2.json"):
        write_json(tmp_path / name, build_corpus(files).json_doc(), end="")
    assert (tmp_path / "c1.json").read_bytes() == (tmp_path / "c2.json").read_bytes()


def test_referential_closure():
    corpus = build_corpus({
        "Outer.java": "class Outer { int f; Outer() {} void m() {} class In { void g() {} } }",
    })
    for top in corpus.types:
        for aid in top.member_artifacts():
            assert corpus.enclosing_class(aid) == top.id


def test_loc_accounting():
    corpus = build_corpus({
        "A.java": "class A {\n  // comment\n  int f;\n\n  void m() {\n    int x = 1;\n  }\n}\n",
    })
    t = corpus.types[0]
    # lines with tokens: class A {, int f;, void m() {, int x = 1;, }, } -> 6
    assert t.loc == 6
    assert t.methods[0].loc == 1  # body interior only
    assert t.loc >= max(m.loc for m in t.methods)


def test_accessor_classification():
    corpus = build_corpus({
        "A.java": (
            "class A { int f; int g;\n"
            "  int getF() { return f; }\n"
            "  int getThis() { return this.f; }\n"
            "  void setF(int v) { f = v; }\n"
            "  void setThis(int v) { this.f = v; }\n"
            "  int notAccessor() { return f + 1; }\n"
            "  void alsoNot(int v) { f = v + 1; }\n"
            "}"
        ),
    })
    t = corpus.types[0]
    by_name = {m.id.simple_name: m for m in t.methods}
    assert by_name["getF"].is_accessor and by_name["getF"].accessor_field == "f"
    assert by_name["getThis"].is_accessor
    assert by_name["setF"].is_accessor and by_name["setF"].accessor_field == "f"
    assert by_name["setThis"].is_accessor
    assert not by_name["notAccessor"].is_accessor
    assert not by_name["alsoNot"].is_accessor


def test_override_detection():
    corpus = build_corpus({
        "Base.java": "class Base { void a() {} void b(int x) {} }",
        "Sub.java": "class Sub extends Base { void a() {} void b() {} void c() {} }",
    })
    sub = next(t for t in corpus.types if t.id.simple_name == "Sub")
    flags = {m.id.simple_name: m.is_override for m in sub.methods}
    assert flags == {"a": True, "b": False, "c": False}  # b has different arity


def test_second_field_or_constructor_of_an_identity_is_dropped_keeping_the_first():
    corpus = build_corpus({"p/A.java": "package p; class A { int f; String f; A(int a) {} A(int b) {} }"})
    a = corpus.type_decl("p.A")
    assert [f.type_name for f in a.fields] == ["int"]
    assert [c.params for c in a.constructors] == [(("int", "a"),)]
    assert [(d.file, d.message) for d in corpus.diagnostics] == [
        ("p/A.java", "duplicate field p.A.f; keeping first"),
        ("p/A.java", "duplicate constructor p.A.<init>(int); keeping first")]


def test_second_nested_type_of_a_name_is_dropped_keeping_the_first_body():
    corpus = build_corpus({"p/A.java": (
        "package p; class A { class B { void first() {} } class B { void second() {} } interface B {} }")})
    a = corpus.type_decl("p.A")
    assert a.nested_types == [corpus.type_decl("p.A.B")]
    assert [m.id.simple_name for m in corpus.type_decl("p.A.B").methods] == ["first"]
    assert [(d.file, d.message) for d in corpus.diagnostics] == [
        ("p/A.java", "duplicate class p.A.B; keeping first"),
        ("p/A.java", "duplicate interface p.A.B; keeping first")]
    assert [str(m.id) for _, m in corpus.iter_methods()] == ["p.A.B.first()"]


def test_top_level_type_keeps_its_name_against_a_nested_one():
    corpus = build_corpus({"p/A.java": "package p; class A { class B { void nested() {} } }",
                           "p/A/B.java": "package p.A; class B { void top() {} }"})
    assert [t.id.qualified_name for t in corpus.types] == ["p.A", "p.A.B"]
    assert corpus.type_decl("p.A").nested_types == []
    assert [m.id.simple_name for m in corpus.type_decl("p.A.B").methods] == ["top"]
    assert [(d.file, d.message) for d in corpus.diagnostics] == [("p/A.java", "duplicate class p.A.B; keeping first")]


def test_primary_type_of_file():
    corpus = build_corpus({
        "Main.java": "public class Main {}\nclass Side {}",
    })
    assert corpus.primary_type_of_file["Main.java"] == "Main"


# -- memory shape: the corpus holds objects per declaration, none per token --------------


def _generated(n_classes: int, statements: int) -> dict[str, str]:
    """``n_classes`` classes with the same declarations, whose bodies hold ``statements`` statement pairs."""
    files = {}
    for i in range(n_classes):
        nxt = f"C{(i + 1) % n_classes}"
        body = " ".join(f"x += new {nxt}().get(a, {k}) * (int) y; if (x > {k}) {{ y = {nxt}.Z; }}"
                        for k in range(statements))
        files[f"p/C{i}.java"] = (
            f"package p;\nimport java.util.List;\nclass C{i} {{\n"
            f"    int x; double y = {nxt}.Z + 1;\n    static final int Z = 1;\n    List<String> names;\n"
            f"    {{ x = {nxt}.Z; }}\n    C{i}(int a) {{ {body} }}\n"
            f"    int get(int a, int b) {{ {body} return x; }}\n    void put(int a) {{ {body} }}\n"
            f"    static class Inner {{ int k; void go() {{ {body} }} }}\n}}\n"
        )
    return files


def _tracked_growth(files: dict[str, str]) -> tuple[int, object]:
    """GC-tracked objects that ``ingest_corpus(files)`` leaves alive, and the corpus."""
    gc.collect()
    before = len(gc.get_objects())
    corpus = ingest_corpus(files, "s0", project="p")
    gc.collect()
    return len(gc.get_objects()) - before, corpus


def test_tracked_objects_grow_with_declarations_not_tokens():
    """About 4 tracked objects per declaration (its decl, its id, a body span, a
    list or two) were measured on these 200 classes; the bound of 8 leaves room
    for a field or two more per declaration.  One object per token would pass
    it nowhere: a declaration here carries at least 20 tokens.  Bodies four
    times as long must leave the count as it is."""
    short = _generated(200, 1)
    grown, corpus = _tracked_growth(short)
    declarations = sum(1 + len(t.fields) + len(t.methods) + len(t.constructors)
                       for top in corpus.types for t in top.own_and_nested())
    tokens = sum(len(tokenize(text)) for text in short.values())
    assert declarations == 2200 and tokens > 20 * declarations
    assert grown <= 8 * declarations
    del corpus
    grown_long, corpus = _tracked_growth(_generated(200, 4))
    assert abs(grown_long - grown) <= 100


def test_spans_share_their_files_columns():
    files = _generated(3, 2)
    corpus = ingest_corpus(files, "s0", project="p")
    for top in corpus.types:
        spans = []
        for t in top.own_and_nested():
            spans += [m.body for m in t.methods + t.constructors]
            spans += [f.initializer for f in t.fields if f.initializer is not None]
            spans += t.initializers
        assert len(spans) == 7
        values, lines = spans[0].values, spans[0].lines
        assert all(s.values is values and s.lines is lines for s in spans)
        assert len(values) == len(tokenize(files[top.file]))


def test_enum_constants_with_annotations_arguments_and_bodies_are_fields():
    corpus = build_corpus({"Color.java": (
        "enum Color {\n"
        "  @Deprecated RED(1), @SuppressWarnings(\"x\") GREEN(2) { int extra() { return 0; } },\n"
        "  BLUE;\n"
        "  private final int code;\n"
        "  Color() { this(0); }\n"
        "  Color(int code) { this.code = code; }\n"
        "}")})
    color = corpus.type_decl("Color")
    constant = ("public", "Color", True, True)
    assert [(f.id.simple_name, f.visibility, f.type_name, f.is_static, f.is_final) for f in color.fields] == [
        ("RED", *constant), ("GREEN", *constant), ("BLUE", *constant), ("code", "private", "int", False, True)]
    assert color.methods == []  # a constant's body is opaque
    assert [str(c.id) for c in color.constructors] == ["Color.<init>()", "Color.<init>(int)"]


@pytest.mark.parametrize("text, constants, methods", [
    ("enum E { A, B }", ["A", "B"], []),  # the last constant ends at the closing brace
    ("enum E { A, B, }", ["A", "B"], []),  # a trailing comma
    ("enum E { ; void f() {} }", [], ["f"]),  # no constants, then members
    ("enum E { @Deprecated ; void f() {} }", [], ["f"]),  # an annotation before the ';' is skipped
])
def test_enum_constant_lists_end_every_way(text, constants, methods):
    e = build_corpus({"E.java": text}).type_decl("E")
    assert [f.id.simple_name for f in e.fields] == constants
    assert [m.id.simple_name for m in e.methods] == methods
