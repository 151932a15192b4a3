"""The ten detection strategies and their configurable thresholds.

The strategies are boolean formulas over one project's metric table, the
rows of ``metrics_method.csv`` and ``metrics_class.csv`` that analyze
computes once (``pipeline.metric_tables``).  Every constant is
configuration, not a claim: defaults mirror widely published
reimplementations of the classic strategies, the active config is echoed
into every result file, and the four calibration-sensitive strategies
(SS, BC, RB, TB) surface per-strategy counts for auditing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from enum import Enum

from .metrics import ClassMetrics, MethodMetrics
from .model import ArtifactId, Diagnostic, SourceCorpus

THRESHOLD_SCHEMA_VERSION = 1


class SmellType(str, Enum):
    FE = "FE"  # Feature Envy (method)
    BM = "BM"  # Brain Method (method)
    DICO = "DiCo"  # Dispersed Coupling (method)
    IC = "IC"  # Intensive Coupling (method)
    SS = "SS"  # Shotgun Surgery (method)
    GC = "GC"  # God Class (class)
    BC = "BC"  # Brain Class (class)
    DC = "DC"  # Data Class (class)
    RB = "RB"  # Refused Bequest (class)
    TB = "TB"  # Tradition Breaker (class)

    @property
    def level(self) -> str:
        return "method" if self in _METHOD_LEVEL else "class"


_METHOD_LEVEL = frozenset({SmellType.FE, SmellType.BM, SmellType.DICO, SmellType.IC, SmellType.SS})


@dataclass(frozen=True, order=True, slots=True)
class SmellInstance:
    smell: SmellType
    host: ArtifactId  # the method for method-level, the class for class-level
    enclosing: ArtifactId  # enclosing top-level class


class ThresholdConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ThresholdConfig:
    FEW: int = 5
    MANY: int = 10
    WMC_VH: int = 47
    WMC_H: int = 31
    WMC_AVG: int = 14
    AMW_AVG: float = 2.0
    NOM_AVG: int = 7
    LOC_HIGH: int = 65
    CYCLO_RATIO: float = 0.24
    NEST_SEV: int = 5
    NOAV_MANY: int = 8
    FEW_ATFD: int = 5
    FEW_FDP: int = 5
    MEMCAP: int = 7
    CM_HIGH: int = 10
    CC_MANY: int = 5
    BC_LOC_VH: int = 197
    ONE_THIRD: float = 1.0 / 3.0
    HALF: float = 0.5
    QUARTER: float = 0.25
    TWO_THIRDS: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if f.name in ("ONE_THIRD", "HALF", "QUARTER", "TWO_THIRDS", "CYCLO_RATIO"):
                if not 0.0 < value < 1.0:
                    raise ThresholdConfigError(f"{f.name} must lie in (0,1), got {value}")
            elif value <= 0:
                raise ThresholdConfigError(f"{f.name} must be positive, got {value}")

    def echo(self) -> dict:
        out = {"threshold_schema_version": THRESHOLD_SCHEMA_VERSION}
        for f in dc_fields(self):
            out[f.name] = getattr(self, f.name)
        return out


# -- the ten strategies --------------------------------------------------------


def is_god_class(c: ClassMetrics, t: ThresholdConfig) -> bool:
    return c.atfd_c > t.FEW and c.wmc >= t.WMC_VH and c.tcc < t.ONE_THIRD


def is_brain_method(m: MethodMetrics, t: ThresholdConfig) -> bool:
    return (
        m.loc > t.LOC_HIGH
        and m.loc > 0
        and m.cyclo / m.loc >= t.CYCLO_RATIO
        and m.max_nesting >= t.NEST_SEV
        and m.noav > t.NOAV_MANY
    )


def is_feature_envy(m: MethodMetrics, t: ThresholdConfig) -> bool:
    return m.atfd_m > t.FEW_ATFD and m.laa < t.ONE_THIRD and m.fdp <= t.FEW_FDP


def is_dispersed_coupling(m: MethodMetrics, t: ThresholdConfig) -> bool:
    return m.cint > t.MEMCAP and m.cdisp >= t.HALF and m.max_nesting > 1


def is_intensive_coupling(m: MethodMetrics, t: ThresholdConfig) -> bool:
    intense = (m.cint > t.MEMCAP and m.cdisp < t.HALF) or (m.cint > t.FEW and m.cdisp < t.QUARTER)
    return intense and m.max_nesting > 1


def is_shotgun_surgery(m: MethodMetrics, t: ThresholdConfig) -> bool:
    return m.cm > t.CM_HIGH and m.cc > t.CC_MANY


def is_data_class(c: ClassMetrics, t: ThresholdConfig) -> bool:
    offers_data = (c.nopa + c.noam > t.FEW and c.wmc < t.WMC_H) or (
        c.nopa + c.noam > t.MANY and c.wmc < t.WMC_VH
    )
    return c.woc < t.ONE_THIRD and offers_data


def is_brain_class(c: ClassMetrics, n_brain_methods: int, t: ThresholdConfig) -> bool:
    if c.tcc >= t.HALF:
        return False
    several = n_brain_methods >= 2 and c.loc >= t.BC_LOC_VH and c.wmc >= t.WMC_VH
    one_huge = n_brain_methods == 1 and c.loc >= 2 * t.BC_LOC_VH and c.wmc >= 2 * t.WMC_VH
    return several or one_huge


def is_refused_bequest(c: ClassMetrics, has_internal_parent: bool, t: ThresholdConfig) -> bool:
    if not has_internal_parent:
        return False
    refuses = (c.nprotm > t.FEW and c.bur < t.ONE_THIRD) or c.bovr < t.ONE_THIRD
    complex_enough = (c.amw > t.AMW_AVG or c.wmc > t.WMC_AVG) and c.nom > t.NOM_AVG
    return refuses and complex_enough


def is_tradition_breaker(c: ClassMetrics, has_internal_parent: bool, t: ThresholdConfig) -> bool:
    if not has_internal_parent:
        return False
    return (
        c.nas >= t.NOM_AVG
        and c.pnas >= t.TWO_THIRDS
        and (c.amw > t.AMW_AVG or c.wmc >= t.WMC_H)
        and c.nom >= t.NOM_AVG
    )


# -- detection over a project's metric table -----------------------------------


def detect_smells_with_diagnostics(
    corpus: SourceCorpus,
    method_metrics: dict[ArtifactId, MethodMetrics],
    class_metrics: dict[ArtifactId, ClassMetrics],
    thresholds: ThresholdConfig | None = None,
) -> tuple[list[SmellInstance], list[Diagnostic]]:
    """The ten strategies over the table of ``pipeline.metric_tables``.

    The corpus adds only what the rows do not hold: which members are
    constructors or bodyless (they host no smell) and each class's superclass.
    """
    t = thresholds if thresholds is not None else ThresholdConfig()
    instances: list[SmellInstance] = []
    diagnostics: list[Diagnostic] = []
    brain_methods_per_class: dict[ArtifactId, int] = {}

    for _, m in corpus.iter_methods():
        mm = method_metrics.get(m.id)
        if mm is None or m.is_constructor or m.body is None:
            continue  # interface members have no row
        enclosing = corpus.enclosing_class(m.id)
        if is_feature_envy(mm, t):
            instances.append(SmellInstance(SmellType.FE, m.id, enclosing))
        if is_brain_method(mm, t):
            instances.append(SmellInstance(SmellType.BM, m.id, enclosing))
            brain_methods_per_class[enclosing] = brain_methods_per_class.get(enclosing, 0) + 1
        if is_dispersed_coupling(mm, t):
            instances.append(SmellInstance(SmellType.DICO, m.id, enclosing))
        if is_intensive_coupling(mm, t):
            instances.append(SmellInstance(SmellType.IC, m.id, enclosing))
        if is_shotgun_surgery(mm, t):
            instances.append(SmellInstance(SmellType.SS, m.id, enclosing))

    for decl in corpus.top_level_classes():
        cm = class_metrics[decl.id]
        if is_god_class(cm, t):
            instances.append(SmellInstance(SmellType.GC, decl.id, decl.id))
        if is_data_class(cm, t):
            instances.append(SmellInstance(SmellType.DC, decl.id, decl.id))
        if is_brain_class(cm, brain_methods_per_class.get(decl.id, 0), t):
            instances.append(SmellInstance(SmellType.BC, decl.id, decl.id))
        has_parent = decl.superclass is not None and not decl.superclass.is_external
        if decl.superclass is not None and decl.superclass.is_external and decl.superclass_name:
            diagnostics.append(
                Diagnostic(decl.file, f"{decl.id.qualified_name}: unresolvable supertype "
                                      f"{decl.superclass_name}; RB/TB skipped")
            )
        if is_refused_bequest(cm, has_parent, t):
            instances.append(SmellInstance(SmellType.RB, decl.id, decl.id))
        if is_tradition_breaker(cm, has_parent, t):
            instances.append(SmellInstance(SmellType.TB, decl.id, decl.id))

    instances.sort(key=lambda s: (s.smell.value, s.host.qualified_name, s.host.signature))
    return instances, diagnostics


def per_strategy_counts(instances: list[SmellInstance]) -> dict[str, int]:
    counts = {s.value: 0 for s in SmellType}
    for inst in instances:
        counts[inst.smell.value] += 1
    return counts
