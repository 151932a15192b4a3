import pytest

from smellstab.metrics import build_metrics_context, compute_class_metrics, compute_method_metrics
from smellstab.model import DomainError


def _method_id(corpus, type_name, method_name):
    decl = corpus.type_decl(type_name)
    for t in decl.own_and_nested():
        for m in t.methods:
            if m.id.simple_name == method_name:
                return m.id
    raise KeyError(method_name)


def _ctx(analyzed):
    corpus, _, facts = analyzed
    return corpus, build_metrics_context(corpus, facts)


def test_empty_body_degenerate_metrics(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({"A.java": "class A { void m() {} }"}))
    mm = compute_method_metrics(ctx, _method_id(corpus, "A", "m"))
    assert (mm.loc, mm.cyclo, mm.max_nesting, mm.noav) == (0, 1, 0, 0)
    assert mm.laa == 1.0 and mm.cdisp == 0.0


def test_abstract_method_all_zero(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({"A.java": "abstract class A { abstract void m(); }"}))
    mm = compute_method_metrics(ctx, _method_id(corpus, "A", "m"))
    assert (mm.loc, mm.cyclo, mm.noav, mm.cint) == (0, 0, 0, 0)


def test_cint_and_cdisp(analyzed_factory):
    # 8 distinct called methods across 4 provider classes -> cint 8, cdisp 0.5
    files = {
        "Caller.java": (
            "class Caller { void m(P1 a, P2 b, P3 c, P4 d) {"
            " a.m1(); a.m2(); b.m3(); b.m4(); c.m5(); c.m6(); d.m7(); d.m8(); } }"
        ),
    }
    for k in range(1, 5):
        files[f"P{k}.java"] = f"class P{k} {{ void m{2 * k - 1}() {{}} void m{2 * k}() {{}} }}"
    corpus, ctx = _ctx(analyzed_factory(files))
    mm = compute_method_metrics(ctx, _method_id(corpus, "Caller", "m"))
    assert mm.cint == 8
    assert mm.cdisp == pytest.approx(0.5)


def test_own_class_calls_do_not_count_toward_cint(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "A.java": "class A { void m() { helper(); } void helper() {} }",
    }))
    mm = compute_method_metrics(ctx, _method_id(corpus, "A", "m"))
    assert mm.cint == 0


def test_foreign_data_access(analyzed_factory):
    # 3 foreign fields, 0 own -> atfd 3, laa 0, fdp = 1 provider
    corpus, ctx = _ctx(analyzed_factory({
        "Reader.java": "class Reader { int sum(Data d) { return d.a + d.b + d.c; } }",
        "Data.java": "class Data { int a; int b; int c; }",
    }))
    mm = compute_method_metrics(ctx, _method_id(corpus, "Reader", "sum"))
    assert mm.atfd_m == 3
    assert mm.laa == 0.0
    assert mm.fdp == 1


def test_accessor_mediated_foreign_access(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "Reader.java": "class Reader { int peek(Data d) { return d.getA(); } }",
        "Data.java": "class Data { int a; int getA() { return a; } }",
    }))
    mm = compute_method_metrics(ctx, _method_id(corpus, "Reader", "peek"))
    assert mm.atfd_m == 1  # backing field through the accessor


def test_own_fields_are_local(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "A.java": "class A { int f; int g; int m() { return f + g; } }",
    }))
    mm = compute_method_metrics(ctx, _method_id(corpus, "A", "m"))
    assert mm.atfd_m == 0
    assert mm.laa == 1.0
    assert mm.noav == 2


def test_inherited_internal_fields_are_own(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "Base.java": "class Base { protected int h; }",
        "Sub.java": "class Sub extends Base { int m() { return h; } }",
    }))
    mm = compute_method_metrics(ctx, _method_id(corpus, "Sub", "m"))
    assert mm.atfd_m == 0
    assert mm.laa == 1.0


def test_cm_cc_callers(analyzed_factory):
    files = {
        "T.java": "class T { void hit() {} }",
        "C1.java": "class C1 { void a(T t) { t.hit(); } void b(T t) { t.hit(); } }",
        "C2.java": "class C2 { void c(T t) { t.hit(); } }",
    }
    corpus, ctx = _ctx(analyzed_factory(files))
    mm = compute_method_metrics(ctx, _method_id(corpus, "T", "hit"))
    assert mm.cm == 3
    assert mm.cc == 2
    assert mm.cc <= mm.cm


def test_class_metrics_empty_class(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({"A.java": "class A { int f; }"}))
    cm = compute_class_metrics(ctx, corpus.type_decl("A").id)
    assert (cm.wmc, cm.tcc, cm.amw, cm.nom) == (0, 0.0, 0.0, 0)


def test_tcc_single_connected_pair(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "A.java": "class A { int f; void m1() { f = 1; } void m2() { f = 2; } }",
    }))
    cm = compute_class_metrics(ctx, corpus.type_decl("A").id)
    assert cm.tcc == 1.0


def test_tcc_disjoint_fields(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "A.java": "class A { int f; int g; void m1() { f = 1; } void m2() { g = 2; } }",
    }))
    cm = compute_class_metrics(ctx, corpus.type_decl("A").id)
    assert cm.tcc == 0.0


def test_bovr_half(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "Base.java": "class Base { void a() {} void b() {} void c() {} void d() {} }",
        "Sub.java": "class Sub extends Base { void a() {} void b() {} void own() {} }",
    }))
    cm = compute_class_metrics(ctx, corpus.type_decl("Sub").id)
    assert cm.bovr == pytest.approx(0.5)  # 2 of 4 inherited overridden
    assert cm.nas == 0  # `own` is package-private, not a new public service
    assert cm.nprotm == 0


def test_bur_and_nprotm(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "Base.java": "class Base { protected int h1; protected int h2; protected int h3; }",
        "Sub.java": "class Sub extends Base { void m() { h1 = h1 + 1; } }",
    }))
    cm = compute_class_metrics(ctx, corpus.type_decl("Sub").id)
    assert cm.nprotm == 3
    assert cm.bur == pytest.approx(1 / 3)


def test_wmc_sums_method_cyclo(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "A.java": (
            "class A {\n"
            "  void m1(int x) { if (x > 0) { x++; } }\n"  # cyclo 2
            "  void m2(int x) { if (x > 0) { x++; } if (x > 1) { x++; } }\n"  # cyclo 3
            "}"
        ),
    }))
    cm = compute_class_metrics(ctx, corpus.type_decl("A").id)
    assert cm.wmc == 5
    assert cm.nom == 2
    assert cm.amw == pytest.approx(2.5)


@pytest.mark.parametrize("inner, cyclo", [
    ("class L { void run() { if (f > 1) f--; } }", 1),  # a local class body is skipped
    ("Runnable r = new Runnable() { public void run() { if (f > 1) f--; } };", 2),
    ("Runnable r = () -> { if (f > 1) f--; };", 2),
])
def test_branch_in_an_anonymous_body_or_lambda_counts_and_in_a_local_class_not(analyzed_factory, inner, cyclo):
    corpus, ctx = _ctx(analyzed_factory({"A.java": f"class A {{ int f; void c() {{ {inner} }} }}"}))
    assert compute_method_metrics(ctx, _method_id(corpus, "A", "c")).cyclo == cyclo


def test_nested_type_members_aggregate(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "Outer.java": "class Outer { class In { void m(int x) { if (x > 0) { x++; } } } }",
    }))
    cm = compute_class_metrics(ctx, corpus.type_decl("Outer").id)
    assert cm.wmc == 2
    assert cm.nom == 1


def test_interface_rejected(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({"I.java": "interface I {}"}))
    with pytest.raises(DomainError):
        compute_class_metrics(ctx, corpus.type_decl("I").id)


def test_woc_nopa_noam(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "A.java": (
            "class A { public int open; private int hidden; public static final int K = 1;\n"
            "  public int getHidden() { return hidden; }\n"
            "  public void work() { hidden = hidden + 1; }\n"
            "}"
        ),
    }))
    cm = compute_class_metrics(ctx, corpus.type_decl("A").id)
    assert cm.nopa == 1  # constants excluded
    assert cm.noam == 1
    assert cm.woc == pytest.approx(1 / 3)  # 1 functional / (2 public methods + 1 attr)


@pytest.mark.parametrize("body, cyclo, nesting", [
    # an else-if chain stays at its if's level; an if inside an else block nests
    ("if (x > 0) x++; else if (x < 0) x--; else x = 0;", 3, 1),
    ("if (x > 0) x++; else { if (x < 0) x--; }", 3, 2),
    # a do loop branches once, its condition's && once more
    ("do { x--; } while (x > 0 && x != 5);", 3, 1),
    # synchronized, finally and default branch nowhere but nest their statements
    ("synchronized (this) { x++; }", 1, 1),
    ("try { x++; } finally { if (x > 9) x = 9; }", 2, 2),
    ("try { x++; } catch (RuntimeException e) { x--; } finally { x = 0; }", 2, 1),
    ("switch (x) { case 1: x++; break; case 2: case 3: x--; break; default: x = 0; }", 4, 1),
    # one local statement of three declarators, two with brackets after the name
    ("int a[] = {1, 2}, b = x > 0 ? 1 : 2, c[][] = {{x}};", 2, 0),
])
def test_cyclo_and_nesting_of_each_statement_form(analyzed_factory, body, cyclo, nesting):
    corpus, ctx = _ctx(analyzed_factory({"A.java": f"class A {{ void m(int x) {{ {body} }} }}"}))
    mm = compute_method_metrics(ctx, _method_id(corpus, "A", "m"))
    assert (mm.cyclo, mm.max_nesting) == (cyclo, nesting)


def test_protected_members_of_every_internal_ancestor(analyzed_factory):
    corpus, ctx = _ctx(analyzed_factory({
        "A.java": "class A { protected int a; protected void pa() {} }",
        "B.java": "class B extends A { protected void pb() {} }",
        "C.java": "class C extends B { void m() { a = 1; pb(); } }",
    }))
    c = compute_class_metrics(ctx, corpus.type_decl("C").id)
    assert c.nprotm == 3  # a and pa from the grandparent, pb from the parent
    assert c.bur == pytest.approx(2 / 3)  # a and pb used
    assert c.bovr == 0.0  # pa and pb inherited, neither overridden
    b = compute_class_metrics(ctx, corpus.type_decl("B").id)
    assert (b.nprotm, b.bur) == (2, 0.0)
