"""Structural parser for Java compilation units.

Parses declarations fully (types, members, signatures) and captures method
bodies as ``TokenSpan`` windows over the file's token columns;
expression-level analysis of bodies happens in the body scanner.  Generic
type arguments are collected as flat raw names, erased for resolution.  The parser is deliberately tolerant: it targets the
declaration grammar needed for dependency and metric extraction, not full
language validation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .lexer import JAVA_KEYWORDS, KIND_BY_FIRST_CHAR, PRIMITIVE_TYPES, TokenSpan, tokenize

MODIFIER_WORDS = frozenset(
    """public protected private static abstract final native synchronized
    transient volatile strictfp default sealed""".split()
)


class JavaSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(slots=True)
class TypeRef:
    name: str  # dotted raw name, generics erased, "" for none
    args: tuple[str, ...] = ()  # flattened raw names referenced in type arguments
    dims: int = 0


NO_TYPE = TypeRef("")


@dataclass(slots=True)
class RawField:
    name: str
    type_ref: TypeRef
    modifiers: frozenset[str]
    initializer: TokenSpan | None


@dataclass(slots=True)
class RawMethod:
    name: str
    is_constructor: bool
    return_ref: TypeRef
    params: tuple[tuple[TypeRef, str], ...]
    throws: tuple[TypeRef, ...]
    modifiers: frozenset[str]
    type_params: tuple[str, ...]
    body: TokenSpan | None


@dataclass(slots=True)
class RawType:
    name: str
    kind: str  # class | interface | enum | record | annotation
    type_params: tuple[str, ...]
    extends: tuple[TypeRef, ...]
    implements: tuple[TypeRef, ...]
    fields: list[RawField] = field(default_factory=list)
    methods: list[RawMethod] = field(default_factory=list)
    constructors: list[RawMethod] = field(default_factory=list)
    nested: list["RawType"] = field(default_factory=list)
    initializers: list[TokenSpan] = field(default_factory=list)
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


# how each bracket moves the depth of an all-kinds walk
_NEST = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}
# a field initializer ends at a ',' or ';' at depth 0, or at an unmatched closer
_INIT_STOPS = (",", ";", ")", "]", "}")


class _Cursor:
    """A position in the window ``vals[start:end]`` of one file's columns; nothing at or past ``end`` is read.

    At the window's end, a strict cursor (the parser's) raises where a step
    needs a token; a lenient one (a body scan's) stops there instead.
    """

    __slots__ = ("vals", "lines", "i", "end", "strict")

    def __init__(self, vals: tuple[str, ...], lines: array, start: int, end: int, strict: bool = True):
        self.vals = vals
        self.lines = lines
        self.i = start
        self.end = end
        self.strict = strict

    @classmethod
    def over(cls, span: TokenSpan, strict: bool = True) -> "_Cursor":
        return cls(span.values, span.lines, span.start, span.end, strict)

    def window(self, start: int, end: int) -> "_Cursor":
        """A cursor of the same strictness over ``start:end`` of the same columns."""
        return _Cursor(self.vals, self.lines, start, end, self.strict)

    def peek(self, ahead: int = 0) -> str | None:
        j = self.i + ahead
        return self.vals[j] if j < self.end else None

    def at(self, value: str, ahead: int = 0) -> bool:
        j = self.i + ahead
        return j < self.end and self.vals[j] == value

    def at_word(self, ahead: int = 0) -> bool:
        j = self.i + ahead
        return j < self.end and KIND_BY_FIRST_CHAR[self.vals[j][0]] == "word"

    def at_ident(self) -> bool:
        if self.i >= self.end:
            return False
        v = self.vals[self.i]
        return KIND_BY_FIRST_CHAR[v[0]] == "word" and v not in JAVA_KEYWORDS

    def got(self) -> str:
        """The current token's value for an error message; ``<eof>`` at the window's end."""
        return self.vals[self.i] if self.i < self.end else "<eof>"

    def next(self) -> str:
        """The current token's value, stepping past it.  A lenient cursor at its end returns "" and stays."""
        i = self.i
        if i >= self.end:
            if not self.strict:
                return ""
            raise JavaSyntaxError("unexpected end of file", self.line())
        self.i = i + 1
        return self.vals[i]

    def expect(self, value: str) -> None:
        if not self.at(value):
            raise JavaSyntaxError(f"expected {value!r}, got {self.got()!r}", self.line())
        self.i += 1

    def line(self) -> int:
        """The current token's line; at the window's end, its last token's."""
        j = self.i if self.i < self.end else self.end - 1
        return self.lines[j] if j >= 0 else 0

    def eof(self) -> bool:
        return self.i >= self.end

    def skip_to(self, stops: tuple[str, ...]) -> None:
        """Advance to the first token in ``stops`` at bracket depth 0, or to the window's end.

        Each of ``( [ {`` adds one to the depth and each closer takes one
        away; an unmatched closer takes it below 0, where no stop counts.
        Put the closers in ``stops`` to stop at an unmatched one instead.
        """
        vals, i, end = self.vals, self.i, self.end
        depth = 0
        while i < end:
            v = vals[i]
            if not depth and v in stops:
                break
            depth += _NEST.get(v, 0)
            i += 1
        self.i = i

    def skip_balanced(self, open_sym: str, close_sym: str) -> bool:
        """Skip past the ``open_sym``/``close_sym`` pair at the cursor, counting only those two.

        Returns whether the closer was found.  At the window's end without
        it, a strict cursor raises and a lenient one stops there.
        """
        self.expect(open_sym)
        vals, i, end = self.vals, self.i, self.end
        depth = 1
        while i < end:
            v = vals[i]
            i += 1
            if v == open_sym:
                depth += 1
            elif v == close_sym:
                depth -= 1
                if not depth:
                    self.i = i
                    return True
        self.i = end
        if self.strict:
            raise JavaSyntaxError("unexpected end of file", self.line())
        return False


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
    while not c.eof():
        v = c.vals[c.i]
        if v == "@" and not c.at("interface", 1):
            _skip_annotation(c)
        elif v in MODIFIER_WORDS:
            mods.add(v)
            c.next()
        elif v == "non" and c.at("-", 1):
            c.next(), c.next()
            if c.at_word():
                c.next()
        else:
            break
    return frozenset(mods)


def _parse_qualified_name(c: _Cursor) -> str:
    parts = [c.next()]
    while c.at(".") and c.at_word(1):
        c.next()
        parts.append(c.next())
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
        v = c.peek()
        if v is None:
            c.i = start
            return False
        if v == "<":
            depth += 1
            c.next()
        elif v == ">":
            depth -= 1
            c.next()
        elif KIND_BY_FIRST_CHAR[v[0]] == "word":
            if v in ("extends", "super"):
                c.next()
            elif v in JAVA_KEYWORDS and v not in PRIMITIVE_TYPES and v != "var":
                c.i = start
                return False
            else:
                names.append(_parse_qualified_name(c))
        elif v in (",", "?", ".", "[", "]", "&", "@"):
            if v == "@":
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
    if not c.at_word():
        return None
    v = c.vals[start]
    if v in JAVA_KEYWORDS and v not in PRIMITIVE_TYPES and v != "var":
        return None
    name = _parse_qualified_name(c)
    args: list[str] = []
    if c.at("<"):
        if not _parse_type_args(c, args):
            c.i = start
            return None
    dims = 0
    while c.at("[") and c.at("]", 1):
        c.next(), c.next()
        dims += 1
    return TypeRef(name, tuple(args), dims)


def _capture_block(c: _Cursor) -> TokenSpan:
    """The span strictly inside the brace pair at the cursor, which moves past it."""
    start = c.i + 1
    c.skip_balanced("{", "}")
    return TokenSpan(c.vals, c.lines, start, c.i - 1)


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
        name = c.next()  # or "this" for a receiver parameter
        while c.at("[") and c.at("]", 1):
            c.next(), c.next()
        params.append((ref, name))
        if c.at(","):
            c.next()
    c.expect(")")
    return tuple(params)


def _parse_type_list(c: _Cursor, what: str) -> list[TypeRef]:
    """Parse ``Type, Type, ...``: a throws, extends or implements list."""
    out = []
    while True:
        ref = parse_type_ref(c)
        if ref is None:
            raise JavaSyntaxError(f"expected {what}", c.line())
        out.append(ref)
        if not c.at(","):
            return out
        c.next()


def _parse_type_params(c: _Cursor) -> tuple[str, ...]:
    """Parse a ``<T extends X, U>`` declaration list, returning the variable names."""
    if not c.at("<"):
        return ()
    c.next()
    names: list[str] = []
    depth = 1
    expect_name = True
    while depth:
        v = c.next()
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
        elif KIND_BY_FIRST_CHAR[v[0]] == "word" and expect_name and depth == 1:
            names.append(v)
            expect_name = False
        elif v == "," and depth == 1:
            expect_name = True
    return tuple(names)


def parse_compilation_unit(text: str) -> CompilationUnit:
    c = _Cursor.over(tokenize(text))
    package = ""
    imports: dict[str, str] = {}
    wildcards: list[str] = []
    while c.at("@") and not c.at("interface", 1):
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
        if c.at(".") and c.at("*", 1):
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
        _skip_modifiers(c)
        types.append(_parse_type_decl(c, start))
    return CompilationUnit(package, imports, tuple(wildcards), types)


def _at_type_keyword(c: _Cursor) -> str | None:
    v = c.peek()
    if v in ("class", "interface", "enum"):
        return v
    if c.at("record") and c.at_word(1) and c.at("(", 2):
        return "record"
    if c.at("@") and c.at("interface", 1):
        return "annotation"
    return None


def _parse_type_decl(c: _Cursor, start_idx: int) -> RawType:
    kind = _at_type_keyword(c)
    if kind is None:
        raise JavaSyntaxError(f"expected type declaration, got {c.got()!r}", c.line())
    if kind == "annotation":
        c.next()
    c.next()
    name = c.next()
    type_params = _parse_type_params(c)
    record_components: tuple[tuple[TypeRef, str], ...] = ()
    if kind == "record":
        record_components = _parse_params(c)
    extends: list[TypeRef] = []
    implements: list[TypeRef] = []
    while True:
        if c.at("extends"):
            c.next()
            extends += _parse_type_list(c, "supertype")
        elif c.at("implements"):
            c.next()
            implements += _parse_type_list(c, "interface")
        elif c.at("permits"):
            c.next()
            while parse_type_ref(c) is not None and c.at(","):
                c.next()
        else:
            break
    rt = RawType(
        name=name,
        kind=kind,
        type_params=type_params,
        extends=tuple(extends),
        implements=tuple(implements),
    )
    for ref, pname in record_components:
        rt.fields.append(RawField(pname, ref, frozenset({"private", "final"}), None))
    c.expect("{")
    if kind == "enum":
        _parse_enum_constants(c, rt)
    while not c.at("}"):
        _parse_member(c, rt, record_components)
    c.expect("}")
    rt.loc = TokenSpan(c.vals, c.lines, start_idx, c.i).line_count()
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
        rt.fields.append(RawField(name, TypeRef(rt.name), frozenset({"public", "static", "final"}), None))
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


def _parse_member(c: _Cursor, rt: RawType, components: tuple[tuple[TypeRef, str], ...]) -> None:
    if c.at(";"):
        c.next()
        return
    start = c.i
    mods = _skip_modifiers(c)
    if _at_type_keyword(c):
        rt.nested.append(_parse_type_decl(c, start))
        return
    if c.at("{"):
        rt.initializers.append(_capture_block(c))
        return
    type_params = _parse_type_params(c)
    # a constructor: the type's simple name, then its parameter list or, in
    # a record's compact form, the record's components and no list
    if c.at_word() and c.at(rt.name) and (c.at("(", 1) or (rt.kind == "record" and c.at("{", 1))):
        c.next()
        params = _parse_params(c) if c.at("(") else components
        throws, body = _parse_method_rest(c)
        rt.constructors.append(RawMethod(rt.name, True, NO_TYPE, params, throws, mods, type_params, body))
        return
    ref = parse_type_ref(c)
    if ref is None:
        raise JavaSyntaxError(f"expected member declaration, got {c.got()!r}", c.line())
    if not c.at_word():
        raise JavaSyntaxError(f"expected member name, got {c.got()!r}", c.line())
    name = c.next()
    if c.at("("):
        params = _parse_params(c)
        throws, body = _parse_method_rest(c)
        rt.methods.append(RawMethod(name, False, ref, params, throws, mods, type_params, body))
        return
    # field declarator list
    while True:
        dims = ref.dims
        while c.at("[") and c.at("]", 1):
            c.next(), c.next()
            dims += 1
        init = None
        if c.at("="):
            c.next()
            start = c.i
            c.skip_to(_INIT_STOPS)
            init = TokenSpan(c.vals, c.lines, start, c.i)
        rt.fields.append(RawField(name, TypeRef(ref.name, ref.args, dims), mods, init))
        if c.at(","):
            c.next()
            name = c.next()
            continue
        c.expect(";")
        break


def _parse_method_rest(c: _Cursor) -> tuple[tuple[TypeRef, ...], TokenSpan | None]:
    """The throws list and the body after a parameter list; no body is None."""
    throws: tuple[TypeRef, ...] = ()
    if c.at("throws"):
        c.next()
        throws = tuple(_parse_type_list(c, "exception type"))
    if c.at("{"):
        return throws, _capture_block(c)
    if c.at("default"):  # an annotation element's default value
        c.skip_to((";",))
    c.expect(";")
    return throws, None
