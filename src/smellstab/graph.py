"""Typed static dependency graph and efferent-neighbor derivation.

Relation-to-site mapping (all kinds contribute uniformly, no weights):

* call      -- method/constructor invocation (body)
* create    -- object instantiation expression (body)
* contain   -- member and nested-type containment (declaration)
* cast      -- cast expression to a resolvable type (body)
* use       -- field read/write, local/field declaration types, and any type
               reference not covered by a more specific kind
* throws    -- declared thrown type
* return    -- declared return type
* parameter -- declared parameter type
* extend    -- superclass / superinterface extension (implicit root for
               classes without an explicit supertype)
* implement -- interface implementation

Body-level edges originate from the enclosing method/constructor;
declaration-level edges from the declaring member; extend/implement (and
initializer blocks) from the type itself.  Edges to artifacts outside the
corpus are kept but tagged external.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .bodyscan import BodyFacts, SiteSink, scan_expression, scan_initializer, scan_member_body
from .model import ArtifactId, MethodDecl, RelationKind, SourceCorpus, TypeDecl
from .resolve import Resolver


@dataclass(frozen=True, order=True, slots=True)
class DependencyEdge:
    relation: RelationKind
    source: ArtifactId
    target: ArtifactId
    site_count: int = 1

    @property
    def external(self) -> bool:
        return self.target.is_external


def _edge_order(e: DependencyEdge) -> tuple:
    """``sorted(edges)``'s order as one flat tuple, compared without the dataclass ``__lt__``."""
    s, t = e.source, e.target
    return (e.relation, s.project, s.qualified_name, s.kind, s.signature,
            t.project, t.qualified_name, t.kind, t.signature, e.site_count)


@dataclass
class DependencyGraph:
    edges: list[DependencyEdge] = field(default_factory=list)
    by_source: dict[ArtifactId, list[DependencyEdge]] = field(default_factory=dict)

    def finalize(self) -> None:
        self.edges.sort(key=_edge_order)
        self.by_source.clear()
        for e in self.edges:
            self.by_source.setdefault(e.source, []).append(e)

    def out_edges(self, decl: TypeDecl) -> Iterator[DependencyEdge]:
        """Edges leaving ``decl`` or any artifact attributed to it."""
        for source in (decl.id, *decl.member_artifacts()):
            yield from self.by_source.get(source, ())


class _EdgeAccumulator:
    def __init__(self) -> None:
        self.counts: dict[tuple[RelationKind, ArtifactId, ArtifactId], int] = {}

    def add(self, relation: RelationKind, source: ArtifactId, target: ArtifactId | None) -> None:
        if target is None:
            return
        key = (relation, source, target)
        self.counts[key] = self.counts.get(key, 0) + 1

    def sink(self, source: ArtifactId) -> SiteSink:
        """``add`` with ``source`` bound: where a body scan sends each site as it meets it."""
        return lambda relation, target: self.add(relation, source, target)

    def build(self) -> DependencyGraph:
        g = DependencyGraph(
            edges=[DependencyEdge(rel, src, tgt, n) for (rel, src, tgt), n in self.counts.items()]
        )
        g.finalize()
        return g


def extract_dependencies(
    corpus: SourceCorpus,
) -> tuple[DependencyGraph, dict[ArtifactId, BodyFacts]]:
    """Extract all edges plus per-member body facts for the metric suite."""
    resolver = Resolver(corpus)
    acc = _EdgeAccumulator()
    facts: dict[ArtifactId, BodyFacts] = {}
    for top in corpus.types:
        for t in top.own_and_nested():
            _type_edges(resolver, acc, t, facts)
    return acc.build(), facts


def _type_edges(
    resolver: Resolver,
    acc: _EdgeAccumulator,
    t: TypeDecl,
    facts: dict[ArtifactId, BodyFacts],
) -> None:
    tid = t.id
    if not t.is_interface and t.superclass is not None:
        acc.add(RelationKind.EXTEND, tid, t.superclass)
    for iface in t.interfaces:
        kind = RelationKind.EXTEND if t.is_interface else RelationKind.IMPLEMENT
        acc.add(kind, tid, iface)
    for nested in t.nested_types:
        acc.add(RelationKind.CONTAIN, tid, nested.id)
    for f in t.fields:
        acc.add(RelationKind.CONTAIN, tid, f.id)
        acc.add(RelationKind.USE, f.id, resolver.resolve_type_name(f.type_name, t))
        for arg in f.type_args:
            acc.add(RelationKind.USE, f.id, resolver.resolve_type_name(arg, t))
        if f.initializer:
            scan_expression(resolver, t, f.initializer, acc.sink(f.id))
    for m in list(t.methods) + list(t.constructors):
        acc.add(RelationKind.CONTAIN, tid, m.id)
        _member_edges(resolver, acc, t, m, facts)
    for init_tokens in t.initializers:
        scan_initializer(resolver, t, init_tokens, acc.sink(tid))


def _member_edges(
    resolver: Resolver,
    acc: _EdgeAccumulator,
    t: TypeDecl,
    m: MethodDecl,
    facts: dict[ArtifactId, BodyFacts],
) -> None:
    tp = frozenset(m.type_params)
    if not m.is_constructor and m.return_type:
        acc.add(RelationKind.RETURN, m.id, resolver.resolve_type_name(m.return_type, t, tp))
    for arg in m.return_type_args:
        acc.add(RelationKind.USE, m.id, resolver.resolve_type_name(arg, t, tp))
    for raw_type, _name in m.params:
        acc.add(RelationKind.PARAMETER, m.id, resolver.resolve_type_name(raw_type, t, tp))
    for arg in m.param_type_args:
        acc.add(RelationKind.USE, m.id, resolver.resolve_type_name(arg, t, tp))
    for thrown in m.throws:
        acc.add(RelationKind.THROWS, m.id, resolver.resolve_type_name(thrown, t, tp))
    facts[m.id] = scan_member_body(resolver, t, m, acc.sink(m.id))


def efferent_neighbors(
    graph: DependencyGraph, corpus: SourceCorpus, focal: ArtifactId
) -> set[ArtifactId]:
    """Distinct internal top-level types the focal class depends on.

    Set semantics: many edges into one neighbor count once.  The focal class
    itself and external artifacts are excluded; interfaces count when
    targeted.
    """
    decl = corpus.top_level_class(focal)
    out = {corpus.enclosing_class(e.target) for e in graph.out_edges(decl) if not e.external}
    out.discard(focal)
    return out
