"""The Java front end against the one it replaced.

``parser_oracle`` and ``bodyscan_oracle`` are the parser and body scanner
from before one bounded cursor walked every bracket run, and they run on
``lexer_oracle``'s one ``Token`` per token.  An adapter hands the corpus
each oracle token run as a span over columns of its own and gives the
oracle scanner the run back.  On the same files both front ends must give
the same ``corpus.json``, parse-failure diagnostics, captured token runs,
edges and body facts, or fail in the same way.  Three divergences are
allowed, all faults of the oracle: a file that ends where a member or a
type declaration should start makes it raise ``AttributeError``, where the
new front end records a parse failure for the file; a body scan that
meets its window's end inside an annotation, a local type body or a ``for``
header makes it raise ``JavaSyntaxError``, where the new one stops there;
and in an anonymous class body it scans only the brace blocks that follow
a ``)``, where the new one scans every member body, initializer block and
field initializer.  Where the edges or body facts differ, the new front end
with the oracle's anonymous-body rule (``_anonymous_body_before``) must
give the oracle's outcome exactly.
No input here holds one of the constructs the new front end added: compact
record constructors, annotation element defaults, explicit method type
arguments (``a.<T>m()``) and qualified annotations on locals.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from array import array
from contextlib import ExitStack
from types import SimpleNamespace
from unittest import mock

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import bodyscan_oracle
import parser_oracle
from javafix import FIG1_FILES, FIG2_CASE_A_FILES, FIG2_CASE_B_FILES, SMELL_FIXTURES, TEN_RELATIONS_FILES
from smellstab import bodyscan
from smellstab import corpus as corpus_module
from smellstab import graph as graph_module
from smellstab.cli import main as cli_main
from smellstab.corpus import ingest_corpus
from smellstab.graph import extract_dependencies
from smellstab.lexer import TokenSpan, tokenize
from smellstab.model import ArtifactKind
from synth import synth_corpus
from test_parser_torture import TORTURE
from testkit import EPOCH, GitRepo


class _OracleSpan(TokenSpan):
    """An oracle token run as a span over columns of its own, keeping the run for ``bodyscan_oracle``."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: tuple):
        super().__init__(tuple(t.value for t in tokens), array("I", (t.line for t in tokens)), 0, len(tokens))
        self.tokens = tokens


def _oracle_parse(text: str):
    """``parser_oracle``'s compilation unit, each token run held as the corpus reads it."""
    unit = parser_oracle.parse_compilation_unit(text)
    todo = list(unit.types)
    while todo:
        raw = todo.pop()
        todo += raw.nested
        for m in raw.methods + raw.constructors:
            if m.body is not None:
                m.body = _OracleSpan(m.body)
        for f in raw.fields:
            f.initializer = _OracleSpan(f.initializer) if f.initializer else None
        raw.initializers = [_OracleSpan(run) for run in raw.initializers]
    return unit


def _fed(facts, sink):
    """The oracle scan's facts, once each of its sites has gone to ``sink`` in the order it met them."""
    for relation, target in facts.sites:
        sink(relation, target)
    return facts


def _oracle_scan_member_body(resolver, scope, member, sink):
    body = None if member.body is None else member.body.tokens
    return _fed(bodyscan_oracle.scan_member_body(resolver, scope, dataclasses.replace(member, body=body)), sink)


def _oracle_scan_initializer(resolver, scope, span, sink):
    _fed(bodyscan_oracle.scan_initializer(resolver, scope, span.tokens), sink)


def _oracle_scan_expression(resolver, scope, span, sink):
    _fed(bodyscan_oracle.scan_expression(resolver, scope, span.tokens), sink)


def _oracle_front_end(stack: ExitStack) -> None:
    """Route ingest and the body scans through the oracles until ``stack`` closes."""
    oracle_parser = SimpleNamespace(parse_compilation_unit=_oracle_parse,
                                    JavaSyntaxError=parser_oracle.JavaSyntaxError)
    stack.enter_context(mock.patch.object(corpus_module, "jp", oracle_parser))
    stack.enter_context(mock.patch.object(graph_module, "scan_member_body", _oracle_scan_member_body))
    stack.enter_context(mock.patch.object(graph_module, "scan_initializer", _oracle_scan_initializer))
    stack.enter_context(mock.patch.object(graph_module, "scan_expression", _oracle_scan_expression))


def _run(span: TokenSpan | None):
    if span is None:
        return None
    return span.values[span.start : span.end], list(span.lines[span.start : span.end])


def _token_runs(corpus) -> list:
    runs = []
    for top in corpus.types:
        for t in top.own_and_nested():
            runs.append([_run(m.body) for m in t.methods + t.constructors])
            runs.append([_run(f.initializer or None) for f in t.fields])  # '= ;' reads as none
            runs.append([_run(block) for block in t.initializers])
    return runs


class _OracleHang(BaseException):
    """The oracle ran past its step budget: it never ends on these files."""


def _budgeted(peek, steps: int):
    count = itertools.count()

    def counted(self, ahead: int = 0):
        if next(count) > steps:
            raise _OracleHang
        return peek(self, ahead)

    return counted


def _recording(adds: list):
    """``_EdgeAccumulator.add`` that first appends each call's relation, source and target to ``adds``."""
    add = graph_module._EdgeAccumulator.add

    def recorded(self, relation, source, target):
        adds.append((relation, source, target))
        add(self, relation, source, target)

    return recorded


def _outcome(files: dict[str, str], oracle: bool) -> list:
    """Everything the front end hands on, or the exception that stopped it.

    Past the edges come every site in the order the edge counts took it, and
    each member's body facts, field by field.
    """
    adds: list = []
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(graph_module._EdgeAccumulator, "add", _recording(adds)))
        if oracle:
            # the oracle loops forever on a stray delimiter in an argument
            # list, an array initializer or a try's resources: f(a; b)
            budget = _budgeted(parser_oracle._Cursor.peek, 200_000)
            stack.enter_context(mock.patch.object(parser_oracle._Cursor, "peek", budget))
            _oracle_front_end(stack)
        try:
            corpus = ingest_corpus(files, "s0", project="fix")
        except Exception as exc:
            return ["ingest", type(exc).__name__, str(exc)]
        out = [json.dumps(corpus.json_doc(), sort_keys=True), [(d.file, d.message) for d in corpus.diagnostics],
               _token_runs(corpus)]
        try:
            graph, facts = extract_dependencies(corpus)
        except Exception as exc:
            return out + ["graph", type(exc).__name__, str(exc)]
        names = [f.name for f in dataclasses.fields(bodyscan.BodyFacts)]
        return out + [graph.edges, (adds, {k: [getattr(v, n) for n in names] for k, v in facts.items()})]


def _agrees(files: dict[str, str]) -> list | None:
    """The new front end's outcome, once it equals the oracle's; None where the oracle never ends.

    Where the oracle raises ``AttributeError`` at ingest, the new front end
    must record the file as a parse failure at its end; where the oracle's
    body scan raises ``JavaSyntaxError``, the new one must finish the graph
    from the same corpus.  Where only the edges or body facts differ, the
    new front end must equal the oracle once it scans anonymous class
    bodies by the oracle's rule.
    """
    new = _outcome(files, oracle=False)
    try:
        old = _outcome(files, oracle=True)
    except _OracleHang:
        return None
    if old[:2] == ["ingest", "AttributeError"]:
        assert len(new) == 5, new
        assert any("parse failure" in message and "got '<eof>'" in message for _, message in new[1]), new[1]
    elif old[3:5] == ["graph", "JavaSyntaxError"]:
        assert new[:3] == old[:3] and len(new) == 5, new[3:]
    elif new != old:
        assert new[:3] == old[:3]
        with mock.patch.object(bodyscan._Scanner, "anonymous_body", _anonymous_body_before):
            assert _outcome(files, oracle=False) == old
    return new


def _anonymous_body_before(self, c):
    """The oracle's anonymous-body scan over the new cursor: the brace blocks that follow a ')'."""
    start = c.i + 1
    closed = c.skip_balanced("{", "}")
    body = c.window(start, c.i - 1 if closed else c.i)
    while not body.eof():
        if body.at("{") and body.i > start and body.vals[body.i - 1] == ")":
            block = body.i + 1
            body.skip_balanced("{", "}")
            self.scan_block(body.window(block, body.i - 1))
        else:
            body.i += 1


def test_torture_files_match_the_oracle():
    out = _agrees(TORTURE)
    assert out[1] == [] and len(out[3]) > 50


def test_javafix_fixtures_match_the_oracle():
    corpora = [FIG1_FILES, FIG2_CASE_A_FILES, FIG2_CASE_B_FILES, TEN_RELATIONS_FILES]
    for fixture, near_miss in SMELL_FIXTURES.values():
        corpora += [fixture()[0], near_miss()[0]]
    for files in corpora:
        assert _agrees(files)[1] == []


# -- the synthetic corpora, written out as Java ---------------------------------------


def _synth_java(seed: int) -> dict[str, str]:
    """Java source whose bodies reach each target of ``synth_corpus(seed)``'s edges.

    Each edge becomes a statement in its source's body (a method body, a
    field initializer or an initializer block), written in one of several
    shapes: plain, inside a ``for``, a lambda or an anonymous class, or
    behind a cast.
    """
    corpus, graph, _ = synth_corpus(seed)
    rng = random.Random(seed)
    sites: dict = {}
    for e in graph.edges:
        for _ in range(min(e.site_count, 2)):
            sites.setdefault(e.source, []).append(e.target)

    def reach(target) -> str:
        qname = target.qualified_name
        if target.kind == ArtifactKind.CLASS:
            return rng.choice([f"new {qname}()", f"(({qname}) o)", f"{qname}.class"])
        owner, member = qname.rsplit(".", 1)
        call = "()" if target.kind == ArtifactKind.METHOD else ""
        return rng.choice([f"new {owner}().{member}{call}", f"(({owner}) o).{member}{call}"])

    def statement(target) -> str:
        expr = reach(target)
        shape = rng.randrange(6)
        if shape == 0 and target.kind == ArtifactKind.CLASS:
            return f"{target.qualified_name} v{rng.randrange(9)} = null;"
        if shape == 1:
            return f"for (Object e : items) {{ x = {expr}; }}"
        if shape == 2:
            return f"Runnable r = () -> {expr};"
        if shape == 3:
            return f"new Object() {{ void z(int q) {{ y = {expr}; }} }};"
        if shape == 4:
            return f"if (x > 0 && y != null) {{ x = {expr}; }} else {{ y = null; }}"
        return f"x = {expr};"

    def body(source) -> str:
        return " ".join(statement(t) for t in sites.get(source, ()))

    def members(t, indent: str) -> list[str]:
        lines = []
        for f in t.fields:
            targets = sites.get(f.id, ())
            init = " + ".join(reach(x) for x in targets) if targets else str(rng.randrange(9))
            lines.append(f"{indent}int {f.id.simple_name} = {init};")
        for m in t.methods:
            lines.append(f"{indent}public void {m.id.simple_name}() {{ Object o = null; {body(m.id)} }}")
        if t.id in sites:
            lines.append(f"{indent}{{ Object o = null; {body(t.id)} }}")
        for nested in t.nested_types:
            lines.append(f"{indent}static class {nested.id.simple_name} {{")
            lines += members(nested, indent + "    ")
            lines.append(f"{indent}}}")
        return lines

    files = {}
    for t in corpus.types:
        name = t.id.simple_name
        head = [f"class {name} {{", "    java.util.List<Object> items; int x; Object y;"]
        files[f"{name}.java"] = "\n".join(head + members(t, "    ") + ["}", ""])
    return files


def test_synthetic_corpora_match_the_oracle():
    for seed in range(50):
        files = _synth_java(seed)
        out = _agrees(files)
        assert out[1] == [], (seed, out[1])
        assert sum(1 for e in out[3] if not e.external) > 0


# -- Java-like token soups ---------------------------------------------------------------

ATOMS = [
    "a", "b", "x", "A", "B", "In", "List", "String", "int", "var", "this", "super", "new", "null",
    "return", "if", "else", "for", "while", "do", "switch", "case", "try", "catch", "finally",
    "final", "class", "instanceof", "throw", "break", "make", "run", "extends", "void", "static",
    "true", "default", "yield",
    "(", ")", "[", "]", "{", "}", ";", ",", ".", ":", "?", "=", "==", "<", ">", "->", "::", "&&",
    "||", "+", "!", "...", "\n", "1", '"s"', "'c'",
    "new A() {", "new B(x) { void r() {", "(A) x", "(List<A>) y", "(int) 2", "(a, b) ->", "x ->",
    "(A q) -> {", "for (A e : xs)", "for (int i = 0; i < n; i++)", "for (", "@Ann", "@Ann(x)",
    "A.make()", "this.x", "super.run()", "b.n.g()", "A::make", "A<B> v =", "case 1 ->", "default:",
    "x instanceof A y", "new int[] {", "new A[2]", "A.class", "try (A r = a)", "catch (A | B e)",
    "void q() {", "int z;", "class L {", "label:", "a ? b : x",
]

TEMPLATE = """package p;
import java.util.List;
class A extends B {{
    B b; int x; List<A> xs;
    A(int x) {{ {0} }}
    int make(A a, int y) {{ {1} }}
    static int f = {2};
    {{ {3} }}
    class In {{ void r() {{ {0} }} }}
}}
"""

B_TEXT = "package p;\nclass B { int y; B n; int g() { return y; } void run() {} static A make() { return null; } }\n"

soup = st.lists(st.sampled_from(ATOMS), max_size=30).map(" ".join)


BRACES = {"{": 1, "}": -1}
BRACKETS = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}


def _balanced(text: str, nest: dict[str, int] = BRACES) -> str:
    """``text`` with openers before it and closers after it, so that its depth
    by ``nest`` never falls below 0 and ends at 0."""
    depth = low = 0
    for v in tokenize(text).values:
        depth += nest.get(v, 0)
        low = min(low, depth)
    opener, closer = (next(k for k, d in nest.items() if d == step) for step in (1, -1))
    return f"{opener} " * -low + text + f" {closer}" * (depth - low)


def _holds_a_new_construct(files: dict[str, str]) -> bool:
    for text in files.values():
        toks = list(tokenize(text).values) + ["", ""]
        for i, v in enumerate(toks[:-2]):
            nxt = toks[i + 1]
            if (v == "." and nxt == "<") or (v == ")" and nxt == "default") or v == "record":
                return True
            if v == "@" and (not nxt[:1].isalpha() or toks[i + 2] == "."):
                return True
    return False


def _class_a(parts: list[str], balanced: bool) -> str:
    """``TEMPLATE`` filled in; when ``balanced``, each body and the initializer is captured whole."""
    if balanced:
        parts = [_balanced(p) for p in parts]
        parts[2] = f"( {_balanced(parts[2], BRACKETS)} )"
    return TEMPLATE.format(*parts)


@st.composite
def soup_files(draw) -> dict[str, str]:
    parts = [draw(soup) for _ in range(4)]
    shape = draw(st.sampled_from(["balanced", "balanced", "members", "raw"]))
    if shape == "raw":
        text = draw(soup) + " class A { " + parts[0] + " } " + parts[1]
    else:
        text = _class_a(parts, shape == "balanced")
    if draw(st.integers(0, 3)) == 0:  # a truncated file
        text = text[: draw(st.integers(0, len(text)))]
    return {"p/A.java": text, "p/B.java": B_TEXT}


@settings(derandomize=True, database=None, max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(soup_files().filter(lambda files: not _holds_a_new_construct(files)))
def test_token_soups_match_the_oracle(files):
    assume(_agrees(files) is not None)


def test_pinned_soups_match_the_oracle():
    bodies = [
        "new A() { ( }", "( new A() { ] ) ;", "( new B(x) { void r() { a ) ;", "for ( a ] : b ) x ;",
        "for ( A e : xs ; ) { }", "for ( ; ; ) ;", "( a , b ) -> { ( } ;", "x = ( A ) ( b ) ;",
        "@Ann ( x ) A v = ( A ) null ;", "class L { ( } ( ;", "a ? b : ( x ) ;", "new A ( ) { ] ]",
        # an anonymous body and its member block, both unclosed where the parenthesised run ends
        "( new A() { void r() { q ] ] a b n ) ;",
        "x = ( b + q ) y ;",  # grouping, after the cast check gave up halfway
        "new A() { { B.make(); } int[] v = { A.make() }; void r() { b.g(); } } ;",
    ]
    for text in bodies:
        for balanced in (False, True):
            _agrees({"p/A.java": _class_a([text] * 4, balanced), "p/B.java": B_TEXT})


@settings(derandomize=True, database=None, max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(soup_files())
def test_body_scans_never_raise_on_soups(files):
    """Ingest turns any file it cannot parse into a diagnostic, and no body scan raises."""
    extract_dependencies(ingest_corpus(files, "s0", project="fix"))


# -- the analyze stage, end to end --------------------------------------------------------

ANALYZE_FILES = ("corpus.json", "edges.csv", "metrics_method.csv", "metrics_class.csv", "smells.csv",
                 "observations.csv")


def test_analyze_writes_the_same_bytes_as_the_oracle(tmp_path):
    files = dict(TORTURE)
    for fixture, _ in SMELL_FIXTURES.values():
        files.update(fixture()[0])
    files.update(TEN_RELATIONS_FILES)
    repo = GitRepo(tmp_path / "repo")
    for rel, text in files.items():
        repo.write(rel, text)
    snapshot = repo.commit_all("snapshot", EPOCH)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({
        "repo": "fix/all", "stars": 500, "forks": 200, "contributors": 25, "java_fraction": 0.95,
        "window_commits": 60, "education_flag": False, "clone_path": str(repo.path),
        "snapshot": snapshot, "branch": "main",
    }) + "\n")
    written = {}
    for side in ("new", "oracle"):
        out = tmp_path / side
        with ExitStack() as stack:
            if side == "oracle":
                _oracle_front_end(stack)
            assert cli_main(["analyze", "--manifest", str(manifest), "--output-dir", str(out)]) == 0
        analyze_dir = out / "projects" / "fix__all" / "analyze"
        written[side] = {name: (analyze_dir / name).read_bytes() for name in ANALYZE_FILES}
    assert written["new"] == written["oracle"]
    smells = {line.split(",")[0] for line in written["new"]["smells.csv"].decode().splitlines()[1:]}
    assert len(smells) >= 5, smells
