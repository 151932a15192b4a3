import pytest

from smellstab.corpus import ingest_corpus
from smellstab.model import ArtifactKind, CorpusLookupError

from conftest import build_corpus


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
    assert inner.enclosing == outer.id


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


def test_reingest_is_byte_identical():
    files = {
        "a/X.java": "package a; class X { int f; void m() { f = f + 1; } }",
        "a/Y.java": "package a; interface Y { int K = 1; }",
    }
    c1 = build_corpus(files)
    c2 = build_corpus(files)
    assert c1.to_json() == c2.to_json()


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


def test_primary_type_of_file():
    corpus = build_corpus({
        "Main.java": "public class Main {}\nclass Side {}",
    })
    assert corpus.primary_type_of_file["Main.java"] == "Main"
