"""Object-oriented metric suite over the corpus and body facts.

Analyze computes each value once per project (``pipeline.metric_tables``)
and writes it to ``metrics_method.csv`` or ``metrics_class.csv``; the smell
strategies read those same values.  Method metrics follow the
coupling/data-access tradition the detection strategies come from; class
metrics aggregate over the top-level type and everything nested inside it
(the analysis unit), except the inheritance metrics (bovr, nas, pnas), which
concern the type's own direct methods.  Foreign data means fields of *other
internal* top-level classes; external (JDK, third-party) accesses never
count, and internal-ancestor state is own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bodyscan import NO_BODY_FACTS, BodyFacts
from .model import ArtifactId, MethodDecl, SourceCorpus, TypeDecl
from .resolve import Resolver


@dataclass(frozen=True, slots=True)
class MethodMetrics:
    loc: int
    cyclo: int
    max_nesting: int
    noav: int
    atfd_m: int
    laa: float
    fdp: int
    cint: int
    cdisp: float
    cm: int
    cc: int


@dataclass(frozen=True, slots=True)
class ClassMetrics:
    loc: int
    wmc: int
    tcc: float
    atfd_c: int
    woc: float
    nopa: int
    noam: int
    nom: int
    amw: float
    nprotm: int
    bur: float
    bovr: float
    nas: int
    pnas: float


@dataclass
class MetricsContext:
    """Shared lookup state for metric computation over one corpus."""

    corpus: SourceCorpus
    facts: dict[ArtifactId, BodyFacts]
    resolver: Resolver = None  # type: ignore[assignment]
    _callers: dict[ArtifactId, set[ArtifactId]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.resolver is None:
            self.resolver = Resolver(self.corpus)
        for caller, f in self.facts.items():
            for target in f.internal_calls:
                self._callers.setdefault(target, set()).add(caller)

    def callers_of(self, mid: ArtifactId) -> set[ArtifactId]:
        return {c for c in self._callers.get(mid, set()) if c != mid}


def build_metrics_context(corpus: SourceCorpus, facts: dict[ArtifactId, BodyFacts]) -> MetricsContext:
    return MetricsContext(corpus, facts)


def compute_method_metrics(ctx: MetricsContext, method: ArtifactId) -> MethodMetrics:
    m = ctx.corpus.declaration(method)
    f = ctx.facts.get(method, NO_BODY_FACTS)
    if m.body is None:
        return MethodMetrics(0, 0, 0, 0, 0, 1.0, 0, 0, 0.0, 0, 0)
    top_of = ctx.corpus.enclosing_class
    own_top = top_of(method)
    n_own = len(f.own_fields)
    n_foreign = len(f.foreign_fields)
    laa = 1.0 if (n_own + n_foreign) == 0 else n_own / (n_own + n_foreign)
    fdp = len({top_of(fid) for fid in f.foreign_fields})
    outgoing = {mid for mid in f.internal_calls if top_of(mid) != own_top}
    cint = len(outgoing)
    providers = {top_of(mid) for mid in outgoing}
    cdisp = 0.0 if cint == 0 else len(providers) / cint
    callers = ctx.callers_of(method)
    cm = len(callers)
    cc = len({top_of(c) for c in callers})
    return MethodMetrics(
        loc=m.loc,
        cyclo=f.cyclo,
        max_nesting=f.max_nesting,
        noav=len(f.accessed_vars),
        atfd_m=n_foreign,
        laa=laa,
        fdp=fdp,
        cint=cint,
        cdisp=cdisp,
        cm=cm,
        cc=cc,
    )


def _attributed(decl: TypeDecl) -> tuple[list[MethodDecl], list[MethodDecl], list]:
    """(methods, constructors, fields) of the type and everything nested."""
    methods: list[MethodDecl] = []
    ctors: list[MethodDecl] = []
    fields: list = []
    for t in decl.own_and_nested():
        methods.extend(t.methods)
        ctors.extend(t.constructors)
        fields.extend(t.fields)
    return methods, ctors, fields


def compute_class_metrics(ctx: MetricsContext, cls: ArtifactId) -> ClassMetrics:
    decl = ctx.corpus.top_level_class(cls)
    methods, ctors, fields = _attributed(decl)
    cyclo_of = {m.id: ctx.facts.get(m.id, NO_BODY_FACTS).cyclo for m in methods}
    wmc = sum(cyclo_of.values())
    nom = len(methods)
    amw = wmc / nom if nom else 0.0

    eligible = [m for m in methods if m.body is not None]
    if len(eligible) < 2:
        tcc = 0.0
    else:
        connected = 0
        total = 0
        touched = [ctx.facts[m.id].direct_own_fields for m in eligible]
        for i in range(len(eligible)):
            for j in range(i + 1, len(eligible)):
                total += 1
                if touched[i] & touched[j]:
                    connected += 1
        tcc = connected / total if total else 0.0

    foreign: set[ArtifactId] = set()
    used_protected: set[ArtifactId] = set()
    for m in methods + ctors:
        f = ctx.facts.get(m.id)
        if f is not None:
            foreign |= f.foreign_fields
            used_protected |= f.base_protected_used
    atfd_c = len(foreign)

    nopa = sum(
        1 for fd in fields if fd.visibility == "public" and not (fd.is_static and fd.is_final)
    )
    accessors = [m for m in methods if m.is_accessor and m.visibility == "public"]
    noam = len(accessors)
    public_methods_all = [m for m in methods if m.visibility == "public"]
    functional = [m for m in public_methods_all if not m.is_accessor]
    denom = len(public_methods_all) + nopa
    woc = 1.0 if denom == 0 else len(functional) / denom

    nprot_available = ctx.resolver.protected_base_members(decl)
    nprotm = len(nprot_available)
    bur = 0.0 if nprotm == 0 else len(used_protected & nprot_available) / nprotm

    inherited: set[tuple[str, int]] = set()
    for anc in ctx.resolver.internal_ancestors(decl):
        for m in anc.methods:
            if m.visibility != "private" and not m.is_static:
                inherited.add((m.id.simple_name, len(m.params)))
    overriding = {
        (m.id.simple_name, len(m.params))
        for m in decl.methods
        if (m.id.simple_name, len(m.params)) in inherited
    }
    bovr = len(overriding) / len(inherited) if inherited else 0.0

    own_public = [m for m in decl.methods if m.visibility == "public"]
    nas = sum(1 for m in own_public if not m.is_override)
    pnas = nas / len(own_public) if own_public else 0.0

    return ClassMetrics(
        loc=decl.loc,
        wmc=wmc,
        tcc=tcc,
        atfd_c=atfd_c,
        woc=woc,
        nopa=nopa,
        noam=noam,
        nom=nom,
        amw=amw,
        nprotm=nprotm,
        bur=bur,
        bovr=bovr,
        nas=nas,
        pnas=pnas,
    )
