"""The Java parser as it was before one bounded cursor walked every bracket
run, kept as a test oracle for ``smellstab.parser``.

Each capture and bracket skip has its own depth loop here, and bodies are
copied token runs.  ``tests/test_frontend_oracle.py`` compares the corpus,
diagnostics, edges and body facts that the two front ends give.  This copy
knows none of the four constructs the new parser added: compact record
constructors, annotation element defaults, explicit method type arguments
and qualified annotations on locals.

Parses declarations fully (types, members, signatures) and captures method
bodies as raw token slices; expression-level analysis of bodies happens in
the body scanner.  Generic type arguments are collected as flat raw names,
erased for resolution.  The parser is deliberately tolerant: it targets the
declaration grammar needed for dependency and metric extraction, not full
language validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from lexer_oracle import Token, tokenize
from smellstab.lexer import JAVA_KEYWORDS, PRIMITIVE_TYPES

MODIFIER_WORDS = frozenset(
    """public protected private static abstract final native synchronized
    transient volatile strictfp default sealed""".split()
)


class JavaSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class TypeRef:
    name: str  # dotted raw name, generics erased, "" for none
    args: tuple[str, ...] = ()  # flattened raw names referenced in type arguments
    dims: int = 0


NO_TYPE = TypeRef("")


@dataclass
class RawField:
    name: str
    type_ref: TypeRef
    modifiers: frozenset[str]
    initializer: tuple[Token, ...]
    line: int


@dataclass
class RawMethod:
    name: str
    is_constructor: bool
    return_ref: TypeRef
    params: tuple[tuple[TypeRef, str], ...]
    throws: tuple[TypeRef, ...]
    modifiers: frozenset[str]
    type_params: tuple[str, ...]
    body: tuple[Token, ...] | None
    line: int


@dataclass
class RawType:
    name: str
    kind: str  # class | interface | enum | record | annotation
    modifiers: frozenset[str]
    type_params: tuple[str, ...]
    extends: tuple[TypeRef, ...]
    implements: tuple[TypeRef, ...]
    fields: list[RawField] = field(default_factory=list)
    methods: list[RawMethod] = field(default_factory=list)
    constructors: list[RawMethod] = field(default_factory=list)
    nested: list["RawType"] = field(default_factory=list)
    initializers: list[tuple[Token, ...]] = field(default_factory=list)
    line: int = 0
    loc: int = 0

    @property
    def is_interface(self) -> bool:
        return self.kind in ("interface", "annotation")


@dataclass
class CompilationUnit:
    package: str
    imports: dict[str, str]  # simple name -> qualified name (single-type imports)
    wildcard_imports: tuple[str, ...]  # package prefixes from on-demand imports
    types: list[RawType]


class _Cursor:
    __slots__ = ("toks", "i")

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self, ahead: int = 0) -> Token | None:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def at(self, value: str) -> bool:
        t = self.peek()
        return t is not None and t.value == value

    def at_word(self) -> bool:
        t = self.peek()
        return t is not None and t.kind == "word"

    def at_ident(self) -> bool:
        t = self.peek()
        return t is not None and t.kind == "word" and t.value not in JAVA_KEYWORDS

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise JavaSyntaxError("unexpected end of file", self.line())
        self.i += 1
        return t

    def expect(self, value: str) -> Token:
        t = self.peek()
        if t is None or t.value != value:
            got = t.value if t else "<eof>"
            raise JavaSyntaxError(f"expected {value!r}, got {got!r}", self.line())
        return self.next()

    def line(self) -> int:
        t = self.peek()
        if t is not None:
            return t.line
        return self.toks[-1].line if self.toks else 0

    def eof(self) -> bool:
        return self.i >= len(self.toks)

    def skip_balanced(self, open_sym: str, close_sym: str) -> int:
        """Skip past a balanced pair starting at the current token; return end index."""
        self.expect(open_sym)
        depth = 1
        while depth:
            t = self.next()
            if t.value == open_sym:
                depth += 1
            elif t.value == close_sym:
                depth -= 1
        return self.i


def _skip_annotation(c: _Cursor) -> None:
    c.expect("@")
    c.next()  # annotation name head
    while c.at("."):
        c.next()
        c.next()
    if c.at("("):
        c.skip_balanced("(", ")")


def _skip_modifiers(c: _Cursor) -> frozenset[str]:
    mods: set[str] = set()
    while True:
        t = c.peek()
        if t is None:
            break
        if t.value == "@" and not (c.peek(1) and c.peek(1).value == "interface"):
            _skip_annotation(c)
            continue
        if t.kind == "word" and t.value in MODIFIER_WORDS:
            mods.add(t.value)
            c.next()
            continue
        if t.kind == "word" and t.value == "non" and c.peek(1) and c.peek(1).value == "-":
            c.next(), c.next()
            if c.at_word():
                c.next()
            continue
        break
    return frozenset(mods)


def _parse_qualified_name(c: _Cursor) -> str:
    parts = [c.next().value]
    while c.at(".") and c.peek(1) and c.peek(1).kind == "word":
        c.next()
        parts.append(c.next().value)
    return ".".join(parts)


def _parse_type_args(c: _Cursor, collected: list[str]) -> bool:
    """Parse a ``<...>`` argument list, appending referenced raw names.

    Returns False (cursor restored) when the '<' turns out not to open a
    type-argument list, e.g. a comparison expression.
    """
    start = c.i
    c.expect("<")
    depth = 1
    names: list[str] = []
    while depth:
        t = c.peek()
        if t is None:
            c.i = start
            return False
        if t.value == "<":
            depth += 1
            c.next()
        elif t.value == ">":
            depth -= 1
            c.next()
        elif t.kind == "word":
            if t.value in ("extends", "super"):
                c.next()
            elif t.value in JAVA_KEYWORDS and t.value not in PRIMITIVE_TYPES and t.value != "var":
                c.i = start
                return False
            else:
                names.append(_parse_qualified_name(c))
        elif t.value in (",", "?", ".", "[", "]", "&", "@"):
            if t.value == "@":
                _skip_annotation(c)
            else:
                c.next()
        else:
            c.i = start
            return False
    collected.extend(n for n in names if n not in PRIMITIVE_TYPES)
    return True


def parse_type_ref(c: _Cursor) -> TypeRef | None:
    """Parse ``Name.Qualified<Args>[][]``; None (cursor restored) if not type-shaped."""
    start = c.i
    t = c.peek()
    if t is None or t.kind != "word":
        return None
    if t.value in JAVA_KEYWORDS and t.value not in PRIMITIVE_TYPES and t.value != "var":
        return None
    name = _parse_qualified_name(c)
    args: list[str] = []
    if c.at("<"):
        if not _parse_type_args(c, args):
            c.i = start
            return None
    dims = 0
    while c.at("[") and c.peek(1) and c.peek(1).value == "]":
        c.next(), c.next()
        dims += 1
    return TypeRef(name, tuple(args), dims)


def _capture_block(c: _Cursor) -> tuple[Token, ...]:
    """Capture the tokens strictly inside a balanced brace pair."""
    c.expect("{")
    depth = 1
    start = c.i
    while depth:
        t = c.next()
        if t.value == "{":
            depth += 1
        elif t.value == "}":
            depth -= 1
    return tuple(c.toks[start : c.i - 1])


def _capture_until(c: _Cursor, stops: tuple[str, ...]) -> tuple[Token, ...]:
    """Capture tokens until one of ``stops`` at bracket depth zero (stop not consumed)."""
    start = c.i
    depth = 0
    while True:
        t = c.peek()
        if t is None:
            break
        if depth == 0 and t.value in stops:
            break
        if t.value in ("(", "[", "{"):
            depth += 1
        elif t.value in (")", "]", "}"):
            if depth == 0:
                break
            depth -= 1
        c.next()
    return tuple(c.toks[start : c.i])


def _parse_params(c: _Cursor) -> tuple[tuple[TypeRef, str], ...]:
    c.expect("(")
    params: list[tuple[TypeRef, str]] = []
    while not c.at(")"):
        _skip_modifiers(c)
        ref = parse_type_ref(c)
        if ref is None:
            raise JavaSyntaxError("expected parameter type", c.line())
        if c.at("..."):
            c.next()
            ref = TypeRef(ref.name, ref.args, ref.dims + 1)
        if c.at_word() and c.peek().value == "this":  # receiver parameter
            c.next()
            name = "this"
        else:
            name = c.next().value
        while c.at("[") and c.peek(1) and c.peek(1).value == "]":
            c.next(), c.next()
        params.append((ref, name))
        if c.at(","):
            c.next()
    c.expect(")")
    return tuple(params)


def _parse_throws(c: _Cursor) -> tuple[TypeRef, ...]:
    if not c.at("throws"):
        return ()
    c.next()
    out = []
    while True:
        ref = parse_type_ref(c)
        if ref is None:
            raise JavaSyntaxError("expected exception type", c.line())
        out.append(ref)
        if c.at(","):
            c.next()
        else:
            break
    return tuple(out)


def _parse_type_params(c: _Cursor) -> tuple[str, ...]:
    """Parse a ``<T extends X, U>`` declaration list, returning the variable names."""
    if not c.at("<"):
        return ()
    c.next()
    names: list[str] = []
    depth = 1
    expect_name = True
    while depth:
        t = c.next()
        if t.value == "<":
            depth += 1
        elif t.value == ">":
            depth -= 1
        elif t.kind == "word" and expect_name and depth == 1:
            names.append(t.value)
            expect_name = False
        elif t.value == "," and depth == 1:
            expect_name = True
    return tuple(names)


def _loc_of(toks: list[Token], start: int, end: int) -> int:
    return len({t.line for t in toks[start:end]})


def parse_compilation_unit(text: str) -> CompilationUnit:
    c = _Cursor(tokenize(text))
    package = ""
    imports: dict[str, str] = {}
    wildcards: list[str] = []
    while not c.eof() and (c.at("@") and not (c.peek(1) and c.peek(1).value == "interface")):
        _skip_annotation(c)  # package annotations
    if c.at("package"):
        c.next()
        package = _parse_qualified_name(c)
        c.expect(";")
    while c.at("import"):
        c.next()
        if c.at("static"):
            c.next()
        name = _parse_qualified_name(c)
        if c.at(".") and c.peek(1) and c.peek(1).value == "*":
            c.next(), c.next()
            wildcards.append(name)
        else:
            imports.setdefault(name.rsplit(".", 1)[-1], name)
        c.expect(";")
    types: list[RawType] = []
    while not c.eof():
        if c.at(";"):
            c.next()
            continue
        start = c.i
        mods = _skip_modifiers(c)
        types.append(_parse_type_decl(c, mods, start))
    return CompilationUnit(package, imports, tuple(wildcards), types)


def _at_type_keyword(c: _Cursor) -> str | None:
    t = c.peek()
    if t is None:
        return None
    if t.value in ("class", "interface", "enum"):
        return t.value
    if t.value == "record" and c.peek(1) and c.peek(1).kind == "word" and c.peek(2) and c.peek(2).value == "(":
        return "record"
    if t.value == "@" and c.peek(1) and c.peek(1).value == "interface":
        return "annotation"
    return None


def _parse_type_decl(c: _Cursor, mods: frozenset[str], start_idx: int) -> RawType:
    kind = _at_type_keyword(c)
    if kind is None:
        raise JavaSyntaxError(f"expected type declaration, got {c.peek().value!r}", c.line())
    if kind == "annotation":
        c.next()
    c.next()
    name_tok = c.next()
    type_params = _parse_type_params(c)
    record_components: tuple[tuple[TypeRef, str], ...] = ()
    if kind == "record":
        record_components = _parse_params(c)
    extends: list[TypeRef] = []
    implements: list[TypeRef] = []
    while True:
        if c.at("extends"):
            c.next()
            while True:
                ref = parse_type_ref(c)
                if ref is None:
                    raise JavaSyntaxError("expected supertype", c.line())
                extends.append(ref)
                if c.at(","):
                    c.next()
                else:
                    break
        elif c.at("implements"):
            c.next()
            while True:
                ref = parse_type_ref(c)
                if ref is None:
                    raise JavaSyntaxError("expected interface", c.line())
                implements.append(ref)
                if c.at(","):
                    c.next()
                else:
                    break
        elif c.at("permits"):
            c.next()
            while parse_type_ref(c) is not None and c.at(","):
                c.next()
        else:
            break
    rt = RawType(
        name=name_tok.value,
        kind=kind,
        modifiers=mods,
        type_params=type_params,
        extends=tuple(extends),
        implements=tuple(implements),
        line=name_tok.line,
    )
    for ref, pname in record_components:
        rt.fields.append(RawField(pname, ref, frozenset({"private", "final"}), (), name_tok.line))
    c.expect("{")
    if kind == "enum":
        _parse_enum_constants(c, rt)
    while not c.at("}"):
        _parse_member(c, rt)
    c.expect("}")
    rt.loc = _loc_of(c.toks, start_idx, c.i)
    return rt


def _parse_enum_constants(c: _Cursor, rt: RawType) -> None:
    while True:
        while c.at("@"):
            _skip_annotation(c)
        if c.at(";"):
            c.next()
            return
        if c.at("}"):
            return
        name = c.next()
        rt.fields.append(
            RawField(name.value, TypeRef(rt.name), frozenset({"public", "static", "final"}), (), name.line)
        )
        if c.at("("):
            c.skip_balanced("(", ")")
        if c.at("{"):  # constant with a body: opaque
            c.skip_balanced("{", "}")
        if c.at(","):
            c.next()
            continue
        if c.at(";"):
            c.next()
            return
        if c.at("}"):
            return


def _parse_member(c: _Cursor, rt: RawType) -> None:
    if c.at(";"):
        c.next()
        return
    start = c.i
    mods = _skip_modifiers(c)
    if _at_type_keyword(c):
        rt.nested.append(_parse_type_decl(c, mods, start))
        return
    if c.at("{"):
        rt.initializers.append(_capture_block(c))
        return
    type_params = _parse_type_params(c)
    # constructor: simple name equal to the type's, directly followed by '('
    t = c.peek()
    if t is not None and t.kind == "word" and t.value == rt.name and c.peek(1) and c.peek(1).value == "(":
        name = c.next()
        params = _parse_params(c)
        throws = _parse_throws(c)
        body = _capture_block(c) if c.at("{") else (c.expect(";") and None)
        rt.constructors.append(
            RawMethod(rt.name, True, NO_TYPE, params, throws, mods, type_params, body, name.line)
        )
        return
    ref = parse_type_ref(c)
    if ref is None:
        raise JavaSyntaxError(f"expected member declaration, got {c.peek().value!r}", c.line())
    if not c.at_word():
        raise JavaSyntaxError(f"expected member name, got {c.peek().value!r}", c.line())
    name = c.next()
    if c.at("("):
        params = _parse_params(c)
        throws = _parse_throws(c)
        if c.at("{"):
            body = _capture_block(c)
        else:
            c.expect(";")
            body = None
        rt.methods.append(
            RawMethod(name.value, False, ref, params, throws, mods, type_params, body, name.line)
        )
        return
    # field declarator list
    while True:
        dims = ref.dims
        while c.at("[") and c.peek(1) and c.peek(1).value == "]":
            c.next(), c.next()
            dims += 1
        init: tuple[Token, ...] = ()
        if c.at("="):
            c.next()
            init = _capture_until(c, (",", ";"))
        rt.fields.append(RawField(name.value, TypeRef(ref.name, ref.args, dims), mods, init, name.line))
        if c.at(","):
            c.next()
            name = c.next()
            continue
        c.expect(";")
        break
