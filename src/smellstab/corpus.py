"""Snapshot ingestion: the snapshot's ``.java`` texts -> resolved SourceCorpus.

Every parseable top-level type becomes a TypeDecl; single-file parse failures
are recorded as diagnostics, never fatal.  After all files are parsed the
type hierarchy is resolved (unresolvable supertypes become external
artifacts) and override/accessor flags are computed.
"""

from __future__ import annotations

from fnmatch import fnmatch
from pathlib import PurePosixPath

from . import parser as jp
from .lexer import TokenSpan
from .model import (
    ArtifactId,
    ArtifactKind,
    Diagnostic,
    FieldDecl,
    FileContext,
    MethodDecl,
    SourceCorpus,
    TypeDecl,
    external_artifact,
)
from .resolve import Resolver

JAVA_LANG_OBJECT = "java.lang.Object"


def _erased(ref: jp.TypeRef) -> str:
    return ref.name + "[]" * ref.dims


def _visibility(mods: frozenset[str], in_interface: bool) -> str:
    for v in ("public", "protected", "private"):
        if v in mods:
            return v
    return "public" if in_interface else "package"


def _member_loc(body: TokenSpan | None) -> int:
    return body.line_count() if body is not None else 0


def _build_method(raw: jp.RawMethod, type_id: ArtifactId, in_interface: bool) -> MethodDecl:
    signature = ",".join(_erased(p[0]) for p in raw.params)
    kind = ArtifactKind.CONSTRUCTOR if raw.is_constructor else ArtifactKind.METHOD
    name = "<init>" if raw.is_constructor else raw.name
    is_abstract = "abstract" in raw.modifiers or (
        in_interface and raw.body is None and not ({"default", "static"} & raw.modifiers)
    )
    param_args: list[str] = []
    for ref, _ in raw.params:
        param_args.extend(ref.args)
    return MethodDecl(
        id=ArtifactId(type_id.project, f"{type_id.qualified_name}.{name}", kind, signature),
        declaring_type=type_id,
        visibility=_visibility(raw.modifiers, in_interface),
        type_params=raw.type_params,
        is_abstract=is_abstract,
        is_static="static" in raw.modifiers,
        is_constructor=raw.is_constructor,
        return_type=raw.return_ref.name,
        return_type_args=raw.return_ref.args,
        params=tuple((_erased(p[0]), p[1]) for p in raw.params),
        param_type_args=tuple(param_args),
        throws=tuple(t.name for t in raw.throws),
        body=raw.body,
        loc=_member_loc(raw.body),
    )


def _build_type(raw: jp.RawType, project: str, parent_qname: str, file: str, package: str) -> TypeDecl:
    qname = f"{parent_qname}.{raw.name}" if parent_qname else raw.name
    kind = ArtifactKind.INTERFACE if raw.is_interface else ArtifactKind.CLASS
    tid = ArtifactId(project, qname, kind)
    decl = TypeDecl(
        id=tid,
        is_interface=raw.is_interface,
        file=file,
        package=package,
        type_params=raw.type_params,
        superclass_name=raw.extends[0].name if (raw.extends and not raw.is_interface) else "",
        interface_names=tuple(
            r.name for r in (raw.implements if not raw.is_interface else raw.extends)
        ),
        loc=raw.loc,
    )
    for f in raw.fields:
        decl.fields.append(
            FieldDecl(
                id=ArtifactId(project, f"{qname}.{f.name}", ArtifactKind.FIELD),
                declaring_type=tid,
                visibility=_visibility(f.modifiers, raw.is_interface),
                type_name=f.type_ref.name,
                type_args=f.type_ref.args,
                is_static="static" in f.modifiers or raw.is_interface,
                is_final="final" in f.modifiers or raw.is_interface,
                initializer=f.initializer,
            )
        )
    for m in raw.methods:
        decl.methods.append(_build_method(m, tid, raw.is_interface))
    for ctor in raw.constructors:
        decl.constructors.append(_build_method(ctor, tid, raw.is_interface))
    decl.initializers = list(raw.initializers)
    for nested in raw.nested:
        decl.nested_types.append(_build_type(nested, project, qname, file, package))
    return decl


def ingest_corpus(
    files: dict[str, str],
    snapshot: str,
    project: str,
    path_excludes: tuple[str, ...] = (),
) -> SourceCorpus:
    """Parse ``files`` (repository-relative path -> source text) into a resolved corpus.

    Files are read in path-component order, as a sorted directory walk
    yields them; that order fixes the corpus order and which of two
    same-named types is kept.
    """
    corpus = SourceCorpus(project=project, snapshot_commit=snapshot)
    declared: dict[str, list[TypeDecl]] = {}
    for rel in sorted(files, key=lambda r: PurePosixPath(r).parts):
        if any(fnmatch(rel, pattern) for pattern in path_excludes):
            continue
        try:
            unit = jp.parse_compilation_unit(files[rel])
        except (jp.JavaSyntaxError, RecursionError) as exc:
            corpus.diagnostics.append(Diagnostic(rel, f"parse failure: {exc}"))
            continue
        corpus.file_contexts[rel] = FileContext(unit.package, dict(unit.imports), unit.wildcard_imports)
        declared[rel] = [_build_type(raw, project, unit.package, rel, unit.package) for raw in unit.types]
        corpus.types.extend(declared[rel])
    corpus.finalize()
    for rel, decls in declared.items():
        kept = [t for t in decls if corpus.type_decl(t.id.qualified_name) is t]
        if kept:
            stem = PurePosixPath(rel).stem
            corpus.primary_type_of_file[rel] = next(
                (t for t in kept if t.id.simple_name == stem), kept[0]).id.qualified_name
    # One resolver serves both passes: the first resolves only type names,
    # which never read supertypes, so no ancestor is cached before they are set.
    resolver = Resolver(corpus)
    _resolve_hierarchy(corpus, resolver)
    _classify_members(corpus, resolver)
    return corpus


def _resolve_hierarchy(corpus: SourceCorpus, resolver: Resolver) -> None:
    for top in corpus.types:
        for t in top.own_and_nested():
            if not t.is_interface:
                if t.superclass_name:
                    sup = resolver.resolve_type_name(t.superclass_name, t)
                    t.superclass = sup if sup is not None else external_artifact(t.superclass_name)
                else:
                    t.superclass = external_artifact(JAVA_LANG_OBJECT)
            ifaces = []
            for raw in t.interface_names:
                ref = resolver.resolve_type_name(raw, t)
                ifaces.append(ref if ref is not None else external_artifact(raw))
            t.interfaces = tuple(ifaces)


def _classify_members(corpus: SourceCorpus, resolver: Resolver) -> None:
    for top in corpus.types:
        for t in top.own_and_nested():
            ancestor_sigs: set[tuple[str, int]] = set()
            for anc in resolver.internal_ancestors(t):
                for m in anc.methods:
                    if m.visibility != "private":
                        ancestor_sigs.add((m.id.simple_name, len(m.params)))
            field_names = {f.id.simple_name for f in t.fields}
            for anc in resolver.internal_ancestors(t):
                field_names.update(f.id.simple_name for f in anc.fields if f.visibility != "private")
            for m in t.methods:
                m.is_override = (m.id.simple_name, len(m.params)) in ancestor_sigs
                _classify_accessor(m, field_names)


def _classify_accessor(m: MethodDecl, field_names: set[str]) -> None:
    """Accessor iff the body is a single return-of-field or field-from-parameter assignment."""
    body = m.body
    if body is None or len(body) > 6:
        return
    vals = body.values[body.start : body.end]
    params = {name for _, name in m.params}
    if len(vals) == 3 and vals[0] == "return" and vals[2] == ";" and vals[1] in field_names:
        m.is_accessor, m.accessor_field = True, vals[1]
    elif (
        len(vals) == 5
        and vals[0] == "return"
        and vals[1] == "this"
        and vals[2] == "."
        and vals[4] == ";"
        and vals[3] in field_names
    ):
        m.is_accessor, m.accessor_field = True, vals[3]
    elif (
        len(vals) == 4
        and vals[1] == "="
        and vals[3] == ";"
        and vals[0] in field_names
        and vals[2] in params
    ):
        m.is_accessor, m.accessor_field = True, vals[0]
    elif (
        len(vals) == 6
        and vals[0] == "this"
        and vals[1] == "."
        and vals[3] == "="
        and vals[5] == ";"
        and vals[2] in field_names
        and vals[4] in params
    ):
        m.is_accessor, m.accessor_field = True, vals[2]
