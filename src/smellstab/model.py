"""Resolved artifact model of one repository snapshot.

Artifacts come in five kinds (class, interface, field, constructor, method).
The unit of analysis is the top-level type: nested/inner/anonymous types and
their members are attributed to the enclosing top-level type.  Types that
cannot be resolved inside the corpus (JDK, third-party) are represented as
external artifacts with an empty project id -- kept, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

from .lexer import TokenSpan

EXTERNAL_PROJECT = ""


class ArtifactKind(str, Enum):
    CLASS = "class"
    INTERFACE = "interface"
    FIELD = "field"
    CONSTRUCTOR = "constructor"
    METHOD = "method"


class RelationKind(str, Enum):
    """The ten typed dependency relations extracted from source."""

    CALL = "call"
    CREATE = "create"
    CONTAIN = "contain"
    CAST = "cast"
    USE = "use"
    THROWS = "throws"
    RETURN = "return"
    PARAMETER = "parameter"
    EXTEND = "extend"
    IMPLEMENT = "implement"


@dataclass(frozen=True, order=True, slots=True)
class ArtifactId:
    project: str
    qualified_name: str
    kind: ArtifactKind
    signature: str = ""  # erased parameter types for methods/constructors

    @property
    def is_external(self) -> bool:
        return self.project == EXTERNAL_PROJECT

    @property
    def simple_name(self) -> str:
        return self.qualified_name.rsplit(".", 1)[-1]

    def __str__(self) -> str:
        sig = f"({self.signature})" if self.kind in (ArtifactKind.METHOD, ArtifactKind.CONSTRUCTOR) else ""
        return f"{self.qualified_name}{sig}"


def external_artifact(name: str, kind: ArtifactKind = ArtifactKind.CLASS, signature: str = "") -> ArtifactId:
    return ArtifactId(EXTERNAL_PROJECT, name, kind, signature)


@dataclass(slots=True)
class FieldDecl:
    id: ArtifactId
    declaring_type: ArtifactId
    visibility: str  # public | protected | private | package
    type_name: str  # raw (erased) declared type text
    type_args: tuple[str, ...] = ()
    is_static: bool = False
    is_final: bool = False
    initializer: Optional[TokenSpan] = None  # the tokens after '=', None without one


@dataclass(slots=True)
class MethodDecl:
    id: ArtifactId
    declaring_type: ArtifactId
    visibility: str
    type_params: tuple[str, ...] = ()
    is_abstract: bool = False
    is_static: bool = False
    is_constructor: bool = False
    is_override: bool = False  # resolved against internal ancestors
    is_accessor: bool = False  # single return-of-field or field-from-param assignment
    accessor_field: Optional[str] = None  # backing field name when is_accessor
    return_type: str = ""  # raw erased name, "" for constructors
    return_type_args: tuple[str, ...] = ()
    params: tuple[tuple[str, str], ...] = ()  # (erased type, name)
    param_type_args: tuple[str, ...] = ()
    throws: tuple[str, ...] = ()
    body: Optional[TokenSpan] = None  # tokens inside the braces, None if no body
    loc: int = 0  # logical lines strictly inside the body braces


@dataclass(slots=True)
class TypeDecl:
    id: ArtifactId
    is_interface: bool
    file: str
    package: str
    type_params: tuple[str, ...] = ()
    superclass: Optional[ArtifactId] = None  # None only before resolution / for interfaces
    interfaces: tuple[ArtifactId, ...] = ()
    superclass_name: str = ""  # raw reference as written ("" = none)
    interface_names: tuple[str, ...] = ()
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)
    constructors: list[MethodDecl] = field(default_factory=list)
    nested_types: list["TypeDecl"] = field(default_factory=list)
    initializers: list[TokenSpan] = field(default_factory=list)
    parent: Optional[ArtifactId] = None  # the type this one is declared directly in; None at top level
    loc: int = 0

    def all_nested(self) -> Iterator["TypeDecl"]:
        for t in self.nested_types:
            yield t
            yield from t.all_nested()

    def own_and_nested(self) -> Iterator["TypeDecl"]:
        yield self
        yield from self.all_nested()

    def member_artifacts(self) -> Iterator[ArtifactId]:
        """Every artifact attributed to this type, itself excluded."""
        for t in self.own_and_nested():
            if t is not self:
                yield t.id
            for f in t.fields:
                yield f.id
            for m in t.methods:
                yield m.id
            for c in t.constructors:
                yield c.id


Declaration = TypeDecl | FieldDecl | MethodDecl


@dataclass
class Diagnostic:
    file: str
    message: str


@dataclass
class FileContext:
    """Per-compilation-unit resolution context."""

    package: str
    imports: dict[str, str]
    wildcard_imports: tuple[str, ...]


class CorpusLookupError(KeyError):
    pass


class DomainError(ValueError):
    pass


@dataclass
class SourceCorpus:
    """Immutable (by convention) resolved snapshot model."""

    project: str
    snapshot_commit: str
    types: list[TypeDecl] = field(default_factory=list)  # top-level only, sorted by qname
    diagnostics: list[Diagnostic] = field(default_factory=list)
    file_contexts: dict[str, FileContext] = field(default_factory=dict)
    primary_type_of_file: dict[str, str] = field(default_factory=dict)
    _decl_by_qname: dict[str, TypeDecl] = field(default_factory=dict, repr=False)
    # every declaration's identity -> (the declaration, its top-level type)
    _decls: dict[ArtifactId, tuple[Declaration, ArtifactId]] = field(default_factory=dict, repr=False)

    def finalize(self) -> None:
        """Index every declaration once; call once after all types are attached.

        This is the only code that decides how types nest and which of two
        declarations is kept.  A declaration whose identity an earlier one
        holds is dropped with a diagnostic, keeping the first: of two
        top-level types, the one added first (the sort by name is stable);
        inside a type, the one declared first.  A type's identity is its
        qualified name, which a top-level type holds before any nested one;
        a member's is its ``ArtifactId``.
        """
        self.types.sort(key=lambda t: t.id.qualified_name)
        self._decl_by_qname.clear()
        self._decls.clear()
        for top in self.types:
            self._decl_by_qname.setdefault(top.id.qualified_name, top)
        self.types = [top for top in self.types if self._claim(top, None)]

    def _claim(self, decl: Declaration, owner: TypeDecl | None) -> bool:
        """Index ``decl``, declared directly in ``owner`` (None at top level), unless its identity is held."""
        aid = decl.id
        is_type = isinstance(decl, TypeDecl)
        held = (self._decl_by_qname.setdefault(aid.qualified_name, decl) is not decl) if is_type else aid in self._decls
        if held:
            file = (owner or decl).file
            self.diagnostics.append(Diagnostic(file, f"duplicate {aid.kind.value} {aid}; keeping first"))
            return False
        self._decls[aid] = (decl, aid if owner is None else self._decls[owner.id][1])
        if is_type:
            decl.parent = None if owner is None else owner.id
            decl.fields = [f for f in decl.fields if self._claim(f, decl)]
            decl.methods = [m for m in decl.methods if self._claim(m, decl)]
            decl.constructors = [c for c in decl.constructors if self._claim(c, decl)]
            decl.nested_types = [t for t in decl.nested_types if self._claim(t, decl)]
        return True

    def type_decl(self, qualified_name: str) -> TypeDecl:
        try:
            return self._decl_by_qname[qualified_name]
        except KeyError:
            raise CorpusLookupError(f"unknown type: {qualified_name}") from None

    def has_type(self, qualified_name: str) -> bool:
        return qualified_name in self._decl_by_qname

    def top_level_classes(self) -> list[TypeDecl]:
        return [t for t in self.types if not t.is_interface]

    def declaration(self, artifact: ArtifactId) -> Declaration:
        """The type, field, method or constructor declared as ``artifact``."""
        try:
            return self._decls[artifact][0]
        except KeyError:
            raise CorpusLookupError(f"unknown artifact: {artifact}") from None

    def enclosing_class(self, artifact: ArtifactId) -> ArtifactId:
        """Top-level type owning ``artifact``; identity for top-level types."""
        if artifact.is_external:
            return artifact
        try:
            return self._decls[artifact][1]
        except KeyError:
            raise CorpusLookupError(f"unknown artifact: {artifact}") from None

    def top_level_class(self, artifact: ArtifactId) -> TypeDecl:
        """The declaration of ``artifact``; DomainError unless it is a top-level class of this corpus."""
        decl, top = self._decls.get(artifact, (None, None))
        if top != artifact or artifact.kind != ArtifactKind.CLASS:
            raise DomainError(f"not a top-level class of this corpus: {artifact}")
        return decl

    def iter_methods(self) -> Iterator[tuple[TypeDecl, MethodDecl]]:
        """All methods and constructors of all (possibly nested) types."""
        for top in self.types:
            for t in top.own_and_nested():
                for m in t.methods:
                    yield t, m
                for c in t.constructors:
                    yield t, c

    # -- serialization (schema v1; deterministic byte-for-byte) --------------

    def json_doc(self) -> dict:
        """The document ``corpus.json`` holds, as ``io_utils.write_json`` writes it."""

        def type_obj(t: TypeDecl) -> dict:
            return {
                "qualified_name": t.id.qualified_name,
                "kind": t.id.kind.value,
                "is_interface": t.is_interface,
                "file": t.file,
                "package": t.package,
                "loc": t.loc,
                "superclass": t.superclass.qualified_name if t.superclass else None,
                "superclass_external": bool(t.superclass and t.superclass.is_external),
                "interfaces": [i.qualified_name for i in t.interfaces],
                "fields": [
                    {"name": f.id.simple_name, "type": f.type_name, "visibility": f.visibility,
                     "static": f.is_static, "final": f.is_final}
                    for f in t.fields
                ],
                "methods": [
                    {"name": m.id.simple_name, "signature": m.id.signature, "visibility": m.visibility,
                     "abstract": m.is_abstract, "override": m.is_override, "accessor": m.is_accessor,
                     "constructor": m.is_constructor, "loc": m.loc}
                    for m in list(t.methods) + list(t.constructors)
                ],
                "nested": [type_obj(n) for n in t.nested_types],
            }

        return {
            "schema_version": 1,
            "project": self.project,
            "snapshot_commit": self.snapshot_commit,
            "types": [type_obj(t) for t in self.types],
            "diagnostics": [{"file": d.file, "message": d.message} for d in sorted(
                self.diagnostics, key=lambda d: (d.file, d.message))],
        }
