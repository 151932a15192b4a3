"""Method-body analysis: resolved accesses, calls, creations, casts.

One scan per member body produces everything downstream consumers need:
dependency sites, sent to the graph's edge counts as the scan meets them,
and the raw ingredients of the method metric suite (cyclomatic count,
nesting, accessed variables, foreign-data accesses, called methods), kept
as ``BodyFacts``.  The scanner is a pragmatic statement-level recursive
descent; expressions are walked as receiver chains rather than parsed into
precedence trees, which is sufficient for call/create/cast/use extraction.
Every scan reads the file's token columns through a lenient ``_Cursor``:
the body, initializer or field initializer span the parser captured, and
each sub-scan (a ``for`` header, a parenthesised run, an anonymous class
body) is a window over it.  No token run is copied, and a bracket run or
annotation that the window cuts short ends at the window's end, so a scan
never raises.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .lexer import KIND_BY_FIRST_CHAR, PRIMITIVE_TYPES, TokenSpan, kind_of
from .model import ArtifactId, ArtifactKind, FieldDecl, MethodDecl, RelationKind, TypeDecl, external_artifact
from .parser import NO_TYPE, TypeRef, _Cursor, _parse_type_args, _skip_annotation, parse_type_ref
from .resolve import Resolver

_STATEMENT_KEYWORDS = {
    "if", "for", "while", "do", "switch", "try", "return", "throw", "break",
    "continue", "synchronized", "assert", "yield", "class", "interface", "enum",
}


_NONE: frozenset = frozenset()

# where a scan sends each dependency site it meets: (relation, target)
SiteSink = Callable[[RelationKind, ArtifactId], None]


@dataclass(frozen=True, slots=True)
class BodyFacts:
    """What the metric suite reads of one member body.  Each empty set is the one shared ``frozenset()``."""

    cyclo: int = 1
    max_nesting: int = 0
    accessed_vars: frozenset[str] = _NONE  # distinct variable identities
    own_fields: frozenset[ArtifactId] = _NONE
    foreign_fields: frozenset[ArtifactId] = _NONE  # direct + accessor-mediated
    direct_own_fields: frozenset[ArtifactId] = _NONE  # declared on own family
    base_protected_used: frozenset[ArtifactId] = _NONE
    internal_calls: frozenset[ArtifactId] = _NONE


NO_BODY_FACTS = BodyFacts(cyclo=0)  # an abstract or bodiless member's facts, shared by all of them


def _frozen(s: set) -> frozenset:
    return frozenset(s) if s else _NONE


def _skip_local_modifiers(c: _Cursor) -> None:
    """Step over each ``final`` and whole annotation before a local's or a catch parameter's type."""
    while c.at("final") or c.at("@"):
        if c.at("@"):
            _skip_annotation(c)
        else:
            c.next()


class _Scanner:
    def __init__(self, resolver: Resolver, scope: TypeDecl, type_params: frozenset[str], sink: SiteSink):
        self.r = resolver
        self.scope = scope
        self.own_top = resolver.top_level_of(scope.id.qualified_name)
        self.type_params = type_params
        self.sink = sink
        self.cyclo = 1
        self.max_nesting = 0
        self.accessed_vars: set[str] = set()
        self.own_fields: set[ArtifactId] = set()
        self.foreign_fields: set[ArtifactId] = set()
        self.direct_own_fields: set[ArtifactId] = set()
        self.base_protected_used: set[ArtifactId] = set()
        self.internal_calls: set[ArtifactId] = set()
        self.scopes: list[dict[str, str]] = [{}]  # name -> raw declared type ("" unknown)
        self.protected_base = resolver.protected_base_members(scope)

    def facts(self) -> BodyFacts:
        return BodyFacts(self.cyclo, self.max_nesting, _frozen(self.accessed_vars), _frozen(self.own_fields),
                         _frozen(self.foreign_fields), _frozen(self.direct_own_fields),
                         _frozen(self.base_protected_used), _frozen(self.internal_calls))

    # -- bookkeeping ----------------------------------------------------------

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, raw_type: str) -> None:
        self.scopes[-1][name] = raw_type

    def local_type(self, name: str) -> str | None:
        for frame in reversed(self.scopes):
            if name in frame:
                return frame[name]
        return None

    def site(self, kind: RelationKind, target: ArtifactId | None) -> None:
        if target is not None:
            self.sink(kind, target)

    def resolve_type(self, raw: str) -> ArtifactId | None:
        return self.r.resolve_type_name(raw, self.scope, self.type_params)

    def use_type(self, relation: RelationKind, ref: TypeRef) -> None:
        """Record a named type as a ``relation`` site (USE, CREATE or CAST), and each of its type arguments as a USE."""
        self.site(relation, self.resolve_type(ref.name))
        for arg in ref.args:
            self.site(RelationKind.USE, self.resolve_type(arg))

    def record_call(self, mdecl: MethodDecl) -> None:
        self.internal_calls.add(mdecl.id)
        self.site(RelationKind.CALL, mdecl.id)
        if mdecl.id in self.protected_base:
            self.base_protected_used.add(mdecl.id)
        declaring = mdecl.declaring_type.qualified_name
        if mdecl.is_accessor and mdecl.accessor_field and not self.r.is_own_type(self.scope, declaring):
            backing = self.r.field_lookup(self.r.corpus.type_decl(declaring), mdecl.accessor_field)
            if backing is not None:
                self.foreign_fields.add(backing.id)

    # -- statements -----------------------------------------------------------

    def scan_block(self, c: _Cursor) -> None:
        """Scan the statements of a whole window in a scope of its own."""
        self.push()
        while not c.eof():
            self.statement(c, 0)
        self.pop()

    def statement(self, c: _Cursor, depth: int) -> None:
        self.max_nesting = max(self.max_nesting, depth)
        v = c.peek()
        if v is None:
            return
        if v == ";":
            c.next()
            return
        if v == "{":
            self.block(c, depth)
            return
        if v == "if":
            self.if_statement(c, depth)
            return
        if v == "for":
            self.for_statement(c, depth)
            return
        if v == "while":
            c.next()
            self.cyclo += 1
            self.paren_expr(c)
            self.statement(c, depth + 1)
            return
        if v == "do":
            c.next()
            self.cyclo += 1
            self.statement(c, depth + 1)
            if c.at("while"):
                c.next()
                self.paren_expr(c)
            if c.at(";"):
                c.next()
            return
        if v == "switch":
            self.switch_statement(c, depth)
            return
        if v == "try":
            self.try_statement(c, depth)
            return
        if v in ("return", "throw", "yield", "assert"):
            c.next()
            self.expr(c, (";",))
            if c.at(";"):
                c.next()
            return
        if v in ("break", "continue"):
            c.next()
            if c.at_ident():
                c.next()
            if c.at(";"):
                c.next()
            return
        if v == "synchronized":
            c.next()
            if c.at("("):
                self.paren_expr(c)
            self.statement(c, depth + 1)
            return
        if v in ("class", "interface", "enum") or (v == "final" and c.at("class", 1)):
            # local type declaration: opaque
            while not c.eof() and not c.at("{"):
                c.next()
            if c.at("{"):
                c.skip_balanced("{", "}")
            return
        if c.at_word() and v not in _STATEMENT_KEYWORDS and c.at(":", 1) and not c.at(":", 2):
            c.next(), c.next()  # label
            self.statement(c, depth)
            return
        if self.try_local_decl(c):
            return
        before = c.i
        self.expr(c, (";",))
        if c.at(";"):
            c.next()
        elif c.i == before and not c.eof():
            c.next()  # force progress on stray delimiters

    def block(self, c: _Cursor, depth: int) -> None:
        c.expect("{")
        self.push()
        while not c.eof() and not c.at("}"):
            self.statement(c, depth)
        if c.at("}"):
            c.next()
        self.pop()

    def if_statement(self, c: _Cursor, depth: int) -> None:
        c.expect("if")
        self.cyclo += 1
        self.paren_expr(c)
        self.statement(c, depth + 1)
        if c.at("else"):
            c.next()
            if c.at("if"):
                self.if_statement(c, depth)  # else-if chain stays at this level
            else:
                self.statement(c, depth + 1)

    def for_statement(self, c: _Cursor, depth: int) -> None:
        c.expect("for")
        self.cyclo += 1
        self.push()
        if c.at("("):  # a 'for' with no header, as at the window's end, has only its statement
            c.next()
            start = c.i
            c.skip_to((")",))
            self.scan_for_header(c.window(start, c.i))
            if c.at(")"):
                c.next()
        self.statement(c, depth + 1)
        self.pop()

    def scan_for_header(self, hc: _Cursor) -> None:
        start = hc.i
        hc.skip_to((":", ";"))
        if hc.at(":"):
            hc.next()
            hc.skip_to((";",))
            if hc.eof():  # enhanced for: a ':' and no ';' at depth 0
                hc.i = start
                if not self.try_local_decl(hc, stops=(":",)):
                    self.expr(hc, (":",))
                if hc.at(":"):
                    hc.next()
                self.expr(hc, ())
                return
        hc.i = start
        if not self.try_local_decl(hc, stops=(";",)):
            self.expr(hc, (";",))
        if hc.at(";"):
            hc.next()
        self.expr(hc, (";",))
        if hc.at(";"):
            hc.next()
        self.expr(hc, ())

    def switch_statement(self, c: _Cursor, depth: int) -> None:
        c.expect("switch")
        self.paren_expr(c)
        if not c.at("{"):
            return
        c.next()
        self.push()
        while not c.eof() and not c.at("}"):
            if c.at("case"):
                c.next()
                self.cyclo += 1
                self.expr(c, (":", "->"))
            elif c.at("default"):
                c.next()
            else:
                self.statement(c, depth + 1)
                continue
            if c.at(":"):
                c.next()
            elif c.at("->"):
                c.next()
                self.statement(c, depth + 1)
        if c.at("}"):
            c.next()
        self.pop()

    def try_statement(self, c: _Cursor, depth: int) -> None:
        c.expect("try")
        self.push()
        if c.at("("):
            c.next()
            while not c.eof() and not c.at(")"):
                before = c.i
                if not self.try_local_decl(c, stops=(";", ")")):
                    self.expr(c, (";", ")"))
                if c.at(";"):
                    c.next()
                elif c.i == before:
                    break  # a stray delimiter such as ']'
            if c.at(")"):
                c.next()
        if c.at("{"):
            self.block(c, depth + 1)
        self.pop()
        while c.at("catch"):
            c.next()
            self.cyclo += 1
            self.push()
            if c.at("("):
                c.next()
                _skip_local_modifiers(c)
                names: list[str] = []
                while True:
                    ref = parse_type_ref(c)
                    if ref is None:
                        break
                    self.use_type(RelationKind.USE, ref)
                    names.append(ref.name)
                    if c.at("|"):
                        c.next()
                    else:
                        break
                if c.at_ident():
                    self.declare(c.next(), names[0] if names else "")
                if c.at(")"):
                    c.next()
            if c.at("{"):
                self.block(c, depth + 1)
            self.pop()
        if c.at("finally"):
            c.next()
            if c.at("{"):
                self.block(c, depth + 1)

    def try_local_decl(self, c: _Cursor, stops: tuple[str, ...] = (";",)) -> bool:
        """Attempt ``[final] Type name [= init][, name2 ...]``; False restores."""
        start = c.i
        _skip_local_modifiers(c)
        ref = parse_type_ref(c)
        if ref is None or not c.at_ident():
            c.i = start
            return False
        follower = c.peek(1)
        if (
            not (follower in ("=", ";", ",", ":", ")") or (follower == "[" and c.at("]", 2)))
            or (follower == "=" and c.at("=", 2))  # '= =' comparison, not a declaration
        ):
            c.i = start
            return False
        self.use_type(RelationKind.USE, ref)
        self.declare(c.next(), ref.name)
        while True:
            while c.at("[") and c.at("]", 1):
                c.next(), c.next()
            if c.at("="):
                c.next()
                self.expr(c, (",",) + stops)
            if c.at(","):
                c.next()
                if c.at_ident():
                    self.declare(c.next(), ref.name)
                continue
            break
        if c.at(";") and ";" in stops:
            c.next()
        return True

    # -- expressions ----------------------------------------------------------

    def paren_expr(self, c: _Cursor, open_sym: str = "(", close_sym: str = ")") -> None:
        if not c.at(open_sym):
            return
        c.next()
        self.expr(c, (close_sym,))
        if c.at(close_sym):
            c.next()

    def scan_list(self, c: _Cursor, open_sym: str, close_sym: str) -> int:
        """Scan a bracketed, comma-separated expression list, returning its entry count."""
        c.expect(open_sym)
        count = 0 if c.at(close_sym) else 1
        while not c.eof() and not c.at(close_sym):
            self.expr(c, (",", close_sym))
            if not c.at(","):
                break  # the closing bracket, the end, or a stray delimiter such as ';'
            c.next()
            count += 1
        if c.at(close_sym):
            c.next()
        return count

    def expr_run(self, c: _Cursor) -> None:
        """Scan a whole window as expressions, stepping over each delimiter that ends one."""
        while not c.eof():
            self.expr(c, ())
            if not c.eof():
                c.next()

    def expr(self, c: _Cursor, stops: tuple[str, ...]) -> None:
        """Scan an expression until a stop token at bracket depth zero."""
        ternary = 0
        vals = c.vals
        while c.i < c.end:
            v = vals[c.i]
            if v == ":" and ternary > 0 and ":" not in stops:
                ternary -= 1
                c.i += 1
                continue
            if v in stops:
                return
            if v in (")", "]", "}", ",", ";", ":"):
                return  # caller's delimiter
            if v == "new":
                self.new_expression(c)
                continue
            if v == "(":
                self.paren_or_cast_or_lambda(c)
                continue
            if v in ("null", "true", "false"):
                c.i += 1
                continue
            if v in ("&&", "||", "?"):
                self.cyclo += 1
                if v == "?":
                    ternary += 1
                c.i += 1
                continue
            if v == "instanceof":
                c.i += 1
                ref = parse_type_ref(c)
                if ref is not None:
                    self.use_type(RelationKind.USE, ref)
                    if c.at_ident():  # pattern variable
                        self.declare(c.next(), ref.name)
                continue
            if v == "switch":  # switch expression
                self.switch_statement(c, 0)
                continue
            if v == "{":
                self.scan_list(c, "{", "}")
                continue
            if v == "[":
                self.paren_expr(c, "[", "]")
                continue
            if KIND_BY_FIRST_CHAR[v[0]] == "word" and (v not in _STATEMENT_KEYWORDS or v in ("this", "super")):
                if v in ("this", "super") or c.at_ident():
                    self.chain(c)
                    continue
            c.i += 1

    def new_expression(self, c: _Cursor) -> None:
        c.expect("new")
        ref = parse_type_ref(c)
        if ref is None:
            return
        if not c.at("("):
            self.use_type(RelationKind.USE, ref)  # array creation: expr scans its [..] and {..}
            return
        self.use_type(RelationKind.CREATE, ref)
        self.scan_list(c, "(", ")")
        if c.at("{"):  # anonymous class body
            self.anonymous_body(c)

    def anonymous_body(self, c: _Cursor) -> None:
        """Scan an anonymous class body, member by member.

        Its work merges into this member's facts (nested/anonymous work is
        attributed to the enclosing top-level type anyway).  Only braces
        bound the body; an unclosed body runs to the window's end.
        """
        start = c.i + 1
        closed = c.skip_balanced("{", "}")
        self.push()
        self.class_members(c.window(start, c.i - 1 if closed else c.i))
        self.pop()

    def class_members(self, body: _Cursor) -> None:
        """Scan a class body's initializer blocks, member bodies and field initializers.

        Signatures are skipped: a member ends at ``;`` or at its body's
        ``{``, a field initializer starts at ``=``, and a nested type's body
        is a class body again.
        """
        nested_type = False
        while not body.eof():
            v = body.vals[body.i]
            if v == "{":
                block = body.i + 1
                closed = body.skip_balanced("{", "}")
                inner = body.window(block, body.i - 1 if closed else body.i)
                if nested_type:
                    self.class_members(inner)
                else:
                    self.scan_block(inner)
                nested_type = False
            elif v == "(":
                body.skip_balanced("(", ")")
            elif v == "=":
                body.i += 1
                self.expr(body, (",", ";"))
            else:
                if v in ("class", "interface", "enum", "record"):
                    nested_type = True
                elif v == ";":
                    nested_type = False
                body.i += 1

    def paren_or_cast_or_lambda(self, c: _Cursor) -> None:
        c.next()
        start = c.i
        c.skip_to((")",))
        inner = c.window(start, c.i)
        if c.at(")"):
            c.next()
        if c.at("->"):
            self.lambda_body(c, lambda: self.lambda_params(inner))
            return
        ref = self.as_cast_target(inner, c.peek())
        if ref is None:
            self.expr_run(inner)
        elif ref is not NO_TYPE:
            self.use_type(RelationKind.CAST, ref)

    def lambda_body(self, c: _Cursor, declare_params: Callable[[], None]) -> None:
        """Scan ``-> body`` in a scope of its own, where ``declare_params`` has declared the lambda's parameters."""
        c.next()  # the '->'
        self.push()
        declare_params()
        if c.at("{"):
            self.block(c, 0)
        else:
            self.expr(c, (",", ")", ";"))
        self.pop()

    def lambda_params(self, hc: _Cursor) -> None:
        while not hc.eof():
            ref = parse_type_ref(hc)
            if ref is not None and hc.at_ident():
                self.use_type(RelationKind.USE, ref)
                self.declare(hc.next(), ref.name)
            elif hc.at_ident():
                self.declare(hc.next(), "")
            else:
                hc.next()
            if hc.at(","):
                hc.next()

    def as_cast_target(self, inner: _Cursor, nxt: str | None) -> TypeRef | None:
        """The type of ``( inner )`` read as a cast, ``NO_TYPE`` for a primitive one; None when it reads as grouping."""
        if nxt is None or inner.eof():
            return None
        starts_operand = (
            nxt in ("(", "!", "~", "this", "super", "new", "null", "true", "false")
            or (kind_of(nxt) != "sym" and nxt not in _STATEMENT_KEYWORDS)
        )
        if not starts_operand:
            return None
        hc = inner.window(inner.i, inner.end)
        ref = parse_type_ref(hc)
        if ref is None or not hc.eof():
            return None
        if ref.name in PRIMITIVE_TYPES:
            return NO_TYPE  # primitive cast: consume, no artifact
        if "." not in ref.name and not ref.args and ref.dims == 0:
            if self.local_type(ref.name) is not None:
                return None  # (x) copy of a local, not a cast
            target = self.resolve_type(ref.name)
            if target is None or (target.is_external and not ref.name[:1].isupper()):
                return None  # no artifact, or a lowercase unknown simple name: grouping
        return ref

    # -- receiver chains ------------------------------------------------------

    def chain(self, c: _Cursor) -> None:
        """Scan ``head(.segment)*`` resolving calls and field accesses."""
        head = c.next()
        ctx_type: TypeDecl | None = None  # internal type of the current value/receiver
        ctx_external: str | None = None
        if head == "this":
            ctx_type = self.scope
            if c.at("("):
                argc = self.scan_list(c, "(", ")")
                target = self.r.constructor_lookup(self.scope, argc)
                if target is not None:
                    self.record_call(target)
                return
        elif head == "super":
            sup = self.scope.superclass
            if c.at("("):
                argc = self.scan_list(c, "(", ")")
                if sup is not None:
                    target = None if sup.is_external else self.r.constructor_lookup(
                        self.r.corpus.type_decl(sup.qualified_name), argc)
                    if target is not None:
                        self.record_call(target)
                    else:
                        self.site(RelationKind.CALL, external_artifact(
                            f"{sup.qualified_name}.<init>", ArtifactKind.CONSTRUCTOR))
                return
            if sup is not None and not sup.is_external:
                ctx_type = self.r.corpus.type_decl(sup.qualified_name)
            else:
                ctx_external = sup.qualified_name if sup is not None else "super"
        else:
            name = head
            if c.at("->"):  # single-parameter lambda
                self.lambda_body(c, lambda: self.declare(name, ""))
                return
            if c.at("("):
                argc = self.scan_list(c, "(", ")")
                ctx_type, ctx_external = self.call(self.r.find_visible_method(self.scope, name, argc), name)
            else:
                local = self.local_type(name)
                if local is not None:
                    self.accessed_vars.add(f"${name}")
                    ctx_type, ctx_external = self.type_context(local)
                else:
                    fdecl = self.r.find_visible_field(self.scope, name)
                    if fdecl is not None:
                        ctx_type, ctx_external = self.field_access(fdecl)
                    else:
                        resolved = self.resolve_type(name)
                        if resolved is not None and not resolved.is_external:
                            ctx_type = self.r.corpus.type_decl(resolved.qualified_name)
                        elif name[:1].isupper() and resolved is not None:
                            ctx_external = resolved.qualified_name
                        else:
                            # unknown bare name (static import?): count the access
                            self.accessed_vars.add(f"${name}")
                            ctx_external = ""
        while True:
            if c.at("::"):
                c.next()
                if c.at_word() or c.at("new"):
                    ref_name = c.next()
                    if ctx_type is not None:
                        if ref_name == "new":
                            self.site(RelationKind.CREATE, ctx_type.id)
                        else:
                            target = self.r.method_lookup(ctx_type, ref_name, -1) or self.r.method_lookup(
                                ctx_type, ref_name, 0)
                            if target is not None:
                                self.record_call(target)
                return
            if not c.at("."):
                return
            c.next()
            type_args: list[str] = []
            if c.at("<") and _parse_type_args(c, type_args):  # explicit type arguments: a.<T>m()
                for arg in type_args:
                    self.site(RelationKind.USE, self.resolve_type(arg))
            if not c.at_word():
                return
            seg = c.next()
            if seg == "class":
                if ctx_type is not None:
                    self.site(RelationKind.USE, ctx_type.id)
                return
            if seg == "this" or seg == "super":
                continue  # qualified this/super: keep context
            if c.at("("):
                argc = self.scan_list(c, "(", ")")
                if ctx_type is not None:
                    ctx_type, ctx_external = self.call(
                        self.r.method_lookup(ctx_type, seg, argc), f"{ctx_type.id.qualified_name}.{seg}")
                else:
                    base = f"{ctx_external}." if ctx_external else ""
                    self.site(RelationKind.CALL, external_artifact(f"{base}{seg}", ArtifactKind.METHOD))
                continue
            if ctx_type is not None:
                fdecl = self.r.field_lookup(ctx_type, seg)
                if fdecl is not None:
                    ctx_type, ctx_external = self.field_access(fdecl)
                    continue
                nested = self.r.nested_type_named(ctx_type, seg)
                if nested is not None:
                    ctx_type = nested
                    continue
                ctx_type, ctx_external = None, ""
            # external context: nothing to record for plain member hops

    def call(self, m: MethodDecl | None, external_name: str) -> tuple[TypeDecl | None, str | None]:
        """Record a call to ``m``, or to ``external_name`` where the lookup found none; the context of its result."""
        if m is None:
            self.site(RelationKind.CALL, external_artifact(external_name, ArtifactKind.METHOD))
            return None, ""
        self.record_call(m)
        return self.type_context(m.return_type, scope=self.r.declaring_type_of_member(m.id), tp=m.type_params)

    def field_access(self, f: FieldDecl) -> tuple[TypeDecl | None, str | None]:
        """Record an access to field ``f`` as a USE site and in the metric facts; its value's context."""
        declaring = f.declaring_type.qualified_name
        self.accessed_vars.add(f.id.qualified_name)
        self.site(RelationKind.USE, f.id)
        if self.r.is_own_type(self.scope, declaring):
            self.own_fields.add(f.id)
            if self.r.top_level_of(declaring) == self.own_top:
                self.direct_own_fields.add(f.id)
            if f.id in self.protected_base:
                self.base_protected_used.add(f.id)
        else:
            self.foreign_fields.add(f.id)
        return self.type_context(f.type_name, scope=self.r.declaring_type_of_member(f.id))

    def type_context(
        self, raw: str, scope: TypeDecl | None = None, tp: tuple[str, ...] = ()
    ) -> tuple[TypeDecl | None, str | None]:
        if not raw or raw.rstrip("[]") in PRIMITIVE_TYPES:
            return None, ""
        resolved = self.r.resolve_type_name(raw, scope if scope is not None else self.scope, frozenset(tp))
        if resolved is None:
            return None, ""
        if resolved.is_external:
            return None, resolved.qualified_name
        return self.r.corpus.type_decl(resolved.qualified_name), None


def scan_member_body(resolver: Resolver, scope: TypeDecl, member: MethodDecl, sink: SiteSink) -> BodyFacts:
    """Analyze a method/constructor body, sending its sites to ``sink``; bodiless members get ``NO_BODY_FACTS``."""
    if member.body is None:
        return NO_BODY_FACTS
    scanner = _Scanner(resolver, scope, frozenset(member.type_params), sink)
    for raw_type, name in member.params:
        scanner.declare(name, raw_type)
    scanner.scan_block(_Cursor.over(member.body, strict=False))
    return scanner.facts()


def scan_initializer(resolver: Resolver, scope: TypeDecl, span: TokenSpan, sink: SiteSink) -> None:
    """Send an initializer block's sites to ``sink``."""
    _Scanner(resolver, scope, frozenset(), sink).scan_block(_Cursor.over(span, strict=False))


def scan_expression(resolver: Resolver, scope: TypeDecl, span: TokenSpan, sink: SiteSink) -> None:
    """Send a bare initializer expression's (a field initializer's) sites to ``sink``."""
    _Scanner(resolver, scope, frozenset(), sink).expr_run(_Cursor.over(span, strict=False))
