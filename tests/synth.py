"""Randomized in-memory corpora for exhaustive-oracle checks."""

from __future__ import annotations

import random

from smellstab.graph import DependencyEdge, DependencyGraph
from smellstab.model import (
    ArtifactId,
    ArtifactKind,
    FieldDecl,
    MethodDecl,
    RelationKind,
    SourceCorpus,
    TypeDecl,
)
from smellstab.smells import SmellInstance, SmellType

METHOD_SMELLS = [SmellType.FE, SmellType.BM, SmellType.DICO, SmellType.IC, SmellType.SS]
CLASS_SMELLS = [SmellType.GC, SmellType.BC, SmellType.DC, SmellType.RB, SmellType.TB]

_EDGE_KINDS = [k for k in RelationKind if k != RelationKind.CONTAIN]


def synth_corpus(seed: int) -> tuple[SourceCorpus, DependencyGraph, list[SmellInstance]]:
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    corpus = SourceCorpus(project="syn", snapshot_commit="s")
    for i in range(n):
        cname = f"C{i}"
        tid = ArtifactId("syn", cname, ArtifactKind.CLASS)
        t = TypeDecl(id=tid, is_interface=False, file=f"{cname}.java", package="")
        t.loc = rng.randint(5, 120)
        for j in range(rng.randint(0, 3)):
            t.fields.append(FieldDecl(
                id=ArtifactId("syn", f"{cname}.f{j}", ArtifactKind.FIELD),
                declaring_type=tid, visibility="private", type_name="int"))
        for j in range(rng.randint(1, 4)):
            t.methods.append(MethodDecl(
                id=ArtifactId("syn", f"{cname}.m{j}", ArtifactKind.METHOD),
                declaring_type=tid, visibility="public"))
        if rng.random() < 0.35:
            nid = ArtifactId("syn", f"{cname}.Nest", ArtifactKind.CLASS)
            nested = TypeDecl(id=nid, is_interface=False, file=f"{cname}.java", package="")
            nested.methods.append(MethodDecl(
                id=ArtifactId("syn", f"{cname}.Nest.nm", ArtifactKind.METHOD),
                declaring_type=nid, visibility="public"))
            t.nested_types.append(nested)
        corpus.types.append(t)
    corpus.finalize()

    def artifacts_of(t: TypeDecl) -> list[ArtifactId]:
        return [t.id, *t.member_artifacts()]

    counts: dict[tuple, int] = {}
    tops = list(corpus.types)
    for _ in range(rng.randint(0, 5 * n)):
        src_t = rng.choice(tops)
        tgt_t = rng.choice(tops)
        src = rng.choice(artifacts_of(src_t))
        tgt = rng.choice(artifacts_of(tgt_t))
        rel = rng.choice(_EDGE_KINDS)
        key = (rel, src, tgt)
        counts[key] = counts.get(key, 0) + rng.randint(1, 3)
    for t in tops:  # structural containment edges: excluded from interactions
        for member in t.member_artifacts():
            if rng.random() < 0.4:
                counts[(RelationKind.CONTAIN, t.id, member)] = 1
    graph = DependencyGraph(edges=[DependencyEdge(r, s, tg, c) for (r, s, tg), c in counts.items()])
    graph.finalize()

    smells: list[SmellInstance] = []
    for t in tops:
        if rng.random() < 0.55:
            smells.append(SmellInstance(rng.choice(CLASS_SMELLS), t.id, t.id))
        for sub in t.own_and_nested():
            for m in sub.methods:
                if rng.random() < 0.3:
                    smells.append(SmellInstance(rng.choice(METHOD_SMELLS), m.id, t.id))
    unique = sorted(set(smells))
    return corpus, graph, unique


def oracle_interactions(corpus, graph, smells, focal):
    """Exhaustive (instance, instance, edge) triple enumeration.

    Independent of the analyzer: footprints and neighbor sets are recomputed
    inline from the corpus structure.
    """

    def footprint(inst):
        if inst.smell in METHOD_SMELLS:
            return {inst.host}
        decl = corpus.type_decl(inst.host.qualified_name)
        arts = {decl.id}
        stack = [decl]
        while stack:
            t = stack.pop()
            for f in t.fields:
                arts.add(f.id)
            for m in list(t.methods) + list(t.constructors):
                arts.add(m.id)
            for nested in t.nested_types:
                arts.add(nested.id)
                stack.append(nested)
        return arts

    neighbors = set()
    for e in graph.edges:
        if e.target.is_external:
            continue
        if corpus.enclosing_class(e.source) == focal:
            tgt = corpus.enclosing_class(e.target)
            if tgt != focal:
                neighbors.add(tgt)

    focal_instances = [s for s in smells if s.enclosing == focal]
    neigh_instances = [s for s in smells if s.enclosing in neighbors]
    pairs = set()
    edges_used = set()
    for cs1 in focal_instances:
        fp1 = footprint(cs1)
        for cs2 in neigh_instances:
            if cs1 == cs2:
                continue
            fp2 = footprint(cs2)
            for e in graph.edges:
                if e.relation == RelationKind.CONTAIN or e.target.is_external:
                    continue
                if e.source in fp1 and e.target in fp2:
                    pairs.add((cs1, cs2))
                    edges_used.add(e)
    intensity = sum(e.site_count for e in edges_used)
    return len(pairs), intensity, neighbors
