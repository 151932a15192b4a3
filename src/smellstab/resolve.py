"""Name resolution against a corpus: types, fields, methods, ancestors.

Resolution is conservative and deterministic.  Generics are erased; type
variables resolve to nothing; names that cannot be pinned to an internal
artifact become external artifacts (JDK, third-party), which downstream
neighbor/interaction math excludes.
"""

from __future__ import annotations

from .lexer import PRIMITIVE_TYPES
from .model import (
    ArtifactId,
    FieldDecl,
    MethodDecl,
    SourceCorpus,
    TypeDecl,
    external_artifact,
)


_MISSING = object()


class Resolver:
    def __init__(self, corpus: SourceCorpus):
        self.corpus = corpus
        self._ancestor_cache: dict[str, list[TypeDecl]] = {}
        self._type_names: dict[tuple[str, str, frozenset[str]], ArtifactId | None] = {}

    # -- scope structure ------------------------------------------------------

    def scope_chain(self, t: TypeDecl) -> list[TypeDecl]:
        """``t`` and the types it is declared in, innermost first."""
        chain = [t]
        while t.parent is not None:
            t = self.corpus.declaration(t.parent)
            chain.append(t)
        return chain

    def internal_ancestors(self, t: TypeDecl) -> list[TypeDecl]:
        """Internal supertypes, superclass chain first, then interfaces (BFS)."""
        qn = t.id.qualified_name
        cached = self._ancestor_cache.get(qn)
        if cached is not None:
            return cached
        out: list[TypeDecl] = []
        seen = {qn}
        queue: list[ArtifactId] = []
        if t.superclass is not None and not t.superclass.is_external:
            queue.append(t.superclass)
        queue.extend(i for i in t.interfaces if not i.is_external)
        while queue:
            nxt = queue.pop(0)
            if nxt.qualified_name in seen or not self.corpus.has_type(nxt.qualified_name):
                continue
            seen.add(nxt.qualified_name)
            decl = self.corpus.type_decl(nxt.qualified_name)
            out.append(decl)
            if decl.superclass is not None and not decl.superclass.is_external:
                queue.append(decl.superclass)
            queue.extend(i for i in decl.interfaces if not i.is_external)
        self._ancestor_cache[qn] = out
        return out

    def top_level_of(self, qualified_name: str) -> str:
        t = self.corpus.type_decl(qualified_name)
        return qualified_name if t.parent is None else self.corpus.enclosing_class(t.id).qualified_name

    # -- type names -----------------------------------------------------------

    def resolve_type_name(
        self,
        raw: str,
        scope: TypeDecl,
        extra_type_params: frozenset[str] = frozenset(),
    ) -> ArtifactId | None:
        """Resolve a raw (erased) type name from inside ``scope``.

        Returns the internal artifact, an external artifact, or None when the
        name denotes no artifact at all (primitives, type variables, 'var').
        The answer depends only on the finalized corpus, so each resolver
        keeps it per (name, scope, extra type parameters).
        """
        key = (raw, scope.id.qualified_name, extra_type_params)
        answer = self._type_names.get(key, _MISSING)
        if answer is _MISSING:
            answer = self._type_names[key] = self._resolve_type_name(raw, scope, extra_type_params)
        return answer

    def _resolve_type_name(
        self, raw: str, scope: TypeDecl, extra_type_params: frozenset[str] = frozenset()
    ) -> ArtifactId | None:
        raw = raw.rstrip("[]")
        if not raw or raw in PRIMITIVE_TYPES or raw == "var":
            return None
        type_params = set(extra_type_params)
        for t in self.scope_chain(scope):
            type_params.update(t.type_params)
        if raw in type_params:
            return None
        corpus = self.corpus
        if "." in raw:
            if corpus.has_type(raw):
                return corpus.type_decl(raw).id
            head, rest = raw.split(".", 1)
            base = self.resolve_type_name(head, scope, extra_type_params)
            if base is not None and not base.is_external:
                qn = f"{base.qualified_name}.{rest}"
                if corpus.has_type(qn):
                    return corpus.type_decl(qn).id
            return external_artifact(raw)
        # simple name: lexical scope, single-type imports, the package (which
        # holds this file's own top-level types), then on-demand imports
        for t in self.scope_chain(scope):
            if t.id.simple_name == raw:
                return t.id
            for nested in t.nested_types:
                if nested.id.simple_name == raw:
                    return nested.id
        ctx = corpus.file_contexts.get(scope.file)
        if ctx is not None:
            imported = ctx.imports.get(raw)
            if imported is not None:
                if corpus.has_type(imported):
                    return corpus.type_decl(imported).id
                return external_artifact(imported)
            if ctx.package:
                qn = f"{ctx.package}.{raw}"
                if corpus.has_type(qn):
                    return corpus.type_decl(qn).id
            elif corpus.has_type(raw):
                return corpus.type_decl(raw).id
            for pkg in ctx.wildcard_imports:
                qn = f"{pkg}.{raw}"
                if corpus.has_type(qn):
                    return corpus.type_decl(qn).id
        return external_artifact(raw)

    # -- members --------------------------------------------------------------

    def field_lookup(self, t: TypeDecl, name: str) -> FieldDecl | None:
        """Field ``name`` declared on ``t`` or an internal ancestor."""
        for f in t.fields:
            if f.id.simple_name == name:
                return f
        for anc in self.internal_ancestors(t):
            for f in anc.fields:
                if f.id.simple_name == name and f.visibility != "private":
                    return f
        return None

    def find_visible_field(self, scope: TypeDecl, name: str) -> FieldDecl | None:
        """Field visible from code in ``scope`` (lexical chain + ancestors)."""
        for t in self.scope_chain(scope):
            found = self.field_lookup(t, name)
            if found is not None:
                return found
        return None

    def method_lookup(self, t: TypeDecl, name: str, argc: int) -> MethodDecl | None:
        """Method ``name`` on ``t`` or an internal ancestor, by arity."""
        candidates: list[MethodDecl] = []
        for holder in [t] + self.internal_ancestors(t):
            for m in holder.methods:
                if m.id.simple_name == name:
                    candidates.append(m)
            if any(m.id.simple_name == name and len(m.params) == argc for m in holder.methods):
                break  # nearest holder with an exact-arity match wins
        if not candidates:
            return None
        exact = [m for m in candidates if len(m.params) == argc]
        if exact:
            return exact[0]
        varargs = [m for m in candidates if m.params and argc >= len(m.params) - 1]
        pool = varargs if varargs else candidates
        return min(pool, key=lambda m: (len(m.params), m.id.signature))

    def find_visible_method(self, scope: TypeDecl, name: str, argc: int) -> MethodDecl | None:
        for t in self.scope_chain(scope):
            found = self.method_lookup(t, name, argc)
            if found is not None:
                return found
        return None

    def constructor_lookup(self, t: TypeDecl, argc: int) -> MethodDecl | None:
        exact = [c for c in t.constructors if len(c.params) == argc]
        if exact:
            return exact[0]
        return min(t.constructors, key=lambda m: (len(m.params), m.id.signature)) if t.constructors else None

    def nested_type_named(self, t: TypeDecl, name: str) -> TypeDecl | None:
        for holder in [t] + self.internal_ancestors(t):
            for nested in holder.nested_types:
                if nested.id.simple_name == name:
                    return nested
        return None

    def is_own_type(self, scope: TypeDecl, declaring_qname: str) -> bool:
        """True when ``declaring_qname`` counts as the scope's own class.

        Own = same top-level family, or an internal ancestor of any type on
        the lexical scope chain (inherited state is not foreign data).
        """
        own_top = self.top_level_of(scope.id.qualified_name)
        if self.top_level_of(declaring_qname) == own_top:
            return True
        for t in self.scope_chain(scope):
            for anc in self.internal_ancestors(t):
                if anc.id.qualified_name == declaring_qname:
                    return True
        return False

    def protected_base_members(self, t: TypeDecl) -> set[ArtifactId]:
        """Protected fields/methods inherited from internal ancestors."""
        out: set[ArtifactId] = set()
        for anc in self.internal_ancestors(t):
            for f in anc.fields:
                if f.visibility == "protected":
                    out.add(f.id)
            for m in anc.methods:
                if m.visibility == "protected":
                    out.add(m.id)
        return out

    def declaring_type_of_member(self, member: ArtifactId) -> TypeDecl:
        return self.corpus.type_decl(self.corpus.declaration(member).declaring_type.qualified_name)
