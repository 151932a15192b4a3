"""Per-class independent and control variables: smells in and around a class.

The load-bearing semantic rule: a method-level smell instance occupies just
its host method, while a class-level instance occupies the whole class --
the class artifact plus every member, transitively through nested types.
Two instances *interact* when a dependency edge leaves one footprint and
lands in the other; containment edges cannot cross class boundaries and are
excluded, extension/implementation edges count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DependencyGraph, efferent_neighbors
from .model import ArtifactId, RelationKind, SourceCorpus
from .smells import SmellInstance


@dataclass(frozen=True, slots=True)
class ClassObservation:
    project: str
    focal: ArtifactId
    is_smelly: bool
    n_smell_foc: int
    var_smell_foc: int
    has_smell_eff: bool
    n_smell_eff: int
    var_smell_eff: int
    has_eff_coup: bool
    has_eff_int: bool
    n_eff_smell_int: int
    eff_int_inten: int
    cl_size: int
    n_eff_nei: int

    def validate(self) -> None:
        assert self.is_smelly == (self.n_smell_foc > 0)
        assert self.has_smell_eff == (self.n_smell_eff > 0)
        assert self.has_eff_coup == (self.is_smelly and self.has_smell_eff)
        assert not self.has_eff_int or self.has_eff_coup
        assert (self.n_eff_smell_int > 0) == self.has_eff_int
        assert (self.eff_int_inten >= 1) == self.has_eff_int
        assert self.var_smell_foc <= self.n_smell_foc
        assert self.var_smell_eff <= self.n_smell_eff


OBSERVATION_HEADER = [
    "project", "class", "IsSmelly", "#SmellFoc", "VarSmellFoc", "HasSmellEff",
    "#SmellEff", "VarSmellEff", "HasEffCoup", "HasEffInt", "#EffSmellInt",
    "EffIntInten", "ClSize", "#EffNei",
]


def observation_row(o: ClassObservation) -> list:
    return [
        o.project, o.focal.qualified_name, o.is_smelly, o.n_smell_foc, o.var_smell_foc,
        o.has_smell_eff, o.n_smell_eff, o.var_smell_eff, o.has_eff_coup, o.has_eff_int,
        o.n_eff_smell_int, o.eff_int_inten, o.cl_size, o.n_eff_nei,
    ]


def smell_footprint(corpus: SourceCorpus, instance: SmellInstance) -> frozenset[ArtifactId]:
    """Method-level: the host method; class-level: the class plus all members."""
    if instance.smell.level == "method":
        return frozenset({instance.host})
    decl = corpus.type_decl(instance.host.qualified_name)
    return frozenset((decl.id, *decl.member_artifacts()))


def focal_smell_stats(
    focal: ArtifactId, smells: list[SmellInstance]
) -> tuple[bool, int, int]:
    mine = [s for s in smells if s.enclosing == focal]
    variety = len({s.smell for s in mine})
    return (len(mine) > 0, len(mine), variety)


def efferent_smell_stats(
    focal: ArtifactId,
    neighbors: set[ArtifactId],
    smells: list[SmellInstance],
) -> tuple[bool, int, int]:
    theirs = [s for s in smells if s.enclosing in neighbors]
    variety = len({s.smell for s in theirs})
    return (len(theirs) > 0, len(theirs), variety)


def efferent_coupling_flag(is_smelly: bool, has_smell_eff: bool) -> bool:
    return is_smelly and has_smell_eff


def efferent_interactions(
    focal: ArtifactId,
    graph: DependencyGraph,
    corpus: SourceCorpus,
    smells: list[SmellInstance],
    neighbors: set[ArtifactId] | None = None,
) -> tuple[bool, int, int, list[tuple[SmellInstance, SmellInstance]]]:
    """Interacting (focal instance, neighbor instance) pairs and intensity.

    A dependency edge is an interaction dependency when its source lies in a
    focal instance's footprint and its target in a neighbor instance's
    footprint.  Intensity sums site counts over *distinct* interaction edges:
    an edge shared by several pairs is still one dependency.  Every focal
    footprint lies inside the focal class, so only its out-edges are read.
    """
    if neighbors is None:
        neighbors = efferent_neighbors(graph, corpus, focal)
    focal_instances = [s for s in smells if s.enclosing == focal]
    neighbor_instances = [s for s in smells if s.enclosing in neighbors]
    if not focal_instances or not neighbor_instances:
        return (False, 0, 0, [])
    focal_fp = {id(s): smell_footprint(corpus, s) for s in focal_instances}
    neigh_fp = {id(s): smell_footprint(corpus, s) for s in neighbor_instances}
    pairs: list[tuple[SmellInstance, SmellInstance]] = []
    interaction_edges = set()
    for e in graph.out_edges(corpus.type_decl(focal.qualified_name)):
        if e.relation == RelationKind.CONTAIN or e.external:
            continue
        for cs1 in focal_instances:
            if e.source not in focal_fp[id(cs1)]:
                continue
            for cs2 in neighbor_instances:
                if cs1 == cs2:
                    continue
                if e.target in neigh_fp[id(cs2)]:
                    pairs.append((cs1, cs2))
                    interaction_edges.add(e)
    distinct_pairs = sorted({(p[0], p[1]) for p in pairs}, key=lambda p: (p[0], p[1]))
    intensity = sum(e.site_count for e in interaction_edges)
    return (len(distinct_pairs) > 0, len(distinct_pairs), intensity, distinct_pairs)


def build_observation(
    focal: ArtifactId,
    corpus: SourceCorpus,
    graph: DependencyGraph,
    smells: list[SmellInstance],
    neighbors: set[ArtifactId] | None = None,
) -> ClassObservation:
    decl = corpus.top_level_class(focal)
    if neighbors is None:
        neighbors = efferent_neighbors(graph, corpus, focal)
    is_smelly, n_foc, var_foc = focal_smell_stats(focal, smells)
    has_eff, n_eff, var_eff = efferent_smell_stats(focal, neighbors, smells)
    has_coup = efferent_coupling_flag(is_smelly, has_eff)
    has_int, n_int, inten, _pairs = efferent_interactions(focal, graph, corpus, smells, neighbors)
    obs = ClassObservation(
        project=corpus.project,
        focal=focal,
        is_smelly=is_smelly,
        n_smell_foc=n_foc,
        var_smell_foc=var_foc,
        has_smell_eff=has_eff,
        n_smell_eff=n_eff,
        var_smell_eff=var_eff,
        has_eff_coup=has_coup,
        has_eff_int=has_int,
        n_eff_smell_int=n_int,
        eff_int_inten=inten,
        cl_size=decl.loc,
        n_eff_nei=len(neighbors),
    )
    obs.validate()
    return obs


def build_all_observations(
    corpus: SourceCorpus,
    graph: DependencyGraph,
    smells: list[SmellInstance],
) -> list[ClassObservation]:
    """One observation per focal (top-level, non-interface) class.

    Each focal is handed only its own smell instances and its neighbors'.
    """
    by_class: dict[ArtifactId, list[SmellInstance]] = {}
    for s in smells:
        by_class.setdefault(s.enclosing, []).append(s)
    out = []
    for decl in corpus.top_level_classes():
        neighbors = efferent_neighbors(graph, corpus, decl.id)
        nearby = [s for c in (decl.id, *sorted(neighbors)) for s in by_class.get(c, ())]
        out.append(build_observation(decl.id, corpus, graph, nearby, neighbors))
    out.sort(key=lambda o: o.focal.qualified_name)
    return out
