"""One-year window mining: lineages, per-class churn, stability outcomes.

The one-to-one mapping assumption governs everything here: renames/moves keep
a lineage tracked (same evolving class); split and merge refactorings break
the mapping and exclude the lineage; deletion keeps accumulated outcomes with
a flag.  All line accounting is logical (blank/comment lines removed before
diffing), so whitespace- or comment-only commits change nothing.
"""

from __future__ import annotations

import logging
import statistics
from collections import Counter
from dataclasses import dataclass, field
from difflib import SequenceMatcher
from pathlib import Path

from ..lexer import logical_lines
from ..model import ArtifactId, Diagnostic, SourceCorpus
from .gitio import BlobReader, ChainEntry, diff_commits, first_parent_chain, show_blob

DEFAULT_WINDOW_DAYS = 365
DEFAULT_RENAME_THRESHOLD = 0.6
DEFAULT_SPLIT_THRESHOLD = 0.3

TRACKED = "tracked"
EXCLUDED_SPLIT = "excluded_split"
EXCLUDED_MERGE = "excluded_merge"
DELETED = "deleted"

_log = logging.getLogger(__name__)


class MiningConfigError(RuntimeError):
    pass


@dataclass(frozen=True)
class ObservationWindow:
    snapshot: str
    start: int  # snapshot committer timestamp
    end: int  # start + window length
    branch: str
    commits: tuple[ChainEntry, ...]  # first-parent commits in (start, end], oldest first


def make_window(repo: str | Path, snapshot: str, branch: str, window_days: int = DEFAULT_WINDOW_DAYS) -> ObservationWindow:
    """The window after ``snapshot`` on ``branch`` and its commits, from one chain read."""
    chain = first_parent_chain(repo, branch)
    idx = next((i for i, e in enumerate(chain) if e.commit == snapshot), None)
    if idx is None:
        raise MiningConfigError(
            f"snapshot {snapshot} is not on the first-parent chain of branch {branch!r}"
        )
    start = chain[idx].timestamp
    end = start + window_days * 86400
    commits = tuple(e for e in reversed(chain[:idx]) if start < e.timestamp <= end)
    return ObservationWindow(snapshot, start, end, branch, commits)


@dataclass
class CommitRecord:
    id: str
    timestamp: int
    parent_count: int
    first_parent: str
    files: list[tuple[str, str, int, int]] = field(default_factory=list)  # status, path, added, deleted


@dataclass
class ClassLineage:
    focal: ArtifactId
    timeline: list[tuple[str, str]]  # (commit, path); "" = snapshot
    status: str = TRACKED


@dataclass(frozen=True)
class StabilityOutcome:
    focal: ArtifactId
    chf: int
    chs: int
    status: str


def enumerate_window_commits(window: ObservationWindow) -> list[CommitRecord]:
    """First-parent commits in (start, end], oldest first, merges included."""
    return [CommitRecord(e.commit, e.timestamp, len(e.parents), e.parents[0] if e.parents else "")
            for e in window.commits]


def _matched(sm: SequenceMatcher) -> int:
    return sum(block.size for block in sm.get_matching_blocks())


def _line_churn(sm: SequenceMatcher) -> tuple[int, int]:
    """(added, deleted): the lines of each side outside the matched blocks."""
    matched = _matched(sm)
    return len(sm.b) - matched, len(sm.a) - matched


def _gained_lines(sm: SequenceMatcher) -> list[str]:
    """Lines of the after side that are not carried over from the before side."""
    gained: list[str] = []
    end = 0
    for _i, j, size in sm.get_matching_blocks():
        gained += sm.b[end:j]
        end = j + size
    return gained


@dataclass
class MiningResult:
    window: ObservationWindow
    commits: list[CommitRecord]
    lineages: dict[str, ClassLineage]  # focal qualified name -> lineage
    churn_by_class: dict[str, list[tuple[str, int, int]]]  # qname -> [(commit, added, deleted)]
    system_churn: int
    diagnostics: list[Diagnostic] = field(default_factory=list)


def mine_window(
    repo: str | Path,
    window: ObservationWindow,
    corpus: SourceCorpus,
    rename_threshold: float = DEFAULT_RENAME_THRESHOLD,
    split_threshold: float = DEFAULT_SPLIT_THRESHOLD,
) -> MiningResult:
    """Walk the window once, maintaining lineages and attributing churn."""
    commits = enumerate_window_commits(window)
    lineages: dict[str, ClassLineage] = {}
    path_to_class: dict[str, str] = {}
    for rel, qname in corpus.primary_type_of_file.items():
        decl = corpus.type_decl(qname)
        if decl.is_interface:
            continue
        lineages[qname] = ClassLineage(decl.id, [("", rel)])
        path_to_class[rel] = qname
    churn_by_class: dict[str, list[tuple[str, int, int]]] = {q: [] for q in lineages}
    system_churn = 0
    diagnostics: list[Diagnostic] = []

    diffs = diff_commits(repo, [(rec.id, rec.first_parent) for rec in commits])
    lines_of_blob: dict[str, list[str]] = {}
    blob_at: dict[str, str] = {}  # path -> blob (all zeros once deleted), for paths seen changing
    holders: Counter[str] = Counter()  # blob -> paths in ``blob_at`` that hold it
    memo: dict[str, tuple[str | None, bool]] = {}  # the window's lexed lines, one entry per miss
    lexed = raw_lines = 0

    with BlobReader(repo) as reader:  # every blob of the window, one process
        for rec in commits:
            changes = [c for c in diffs.get(rec.id, []) if c.path.endswith(".java")]
            adds = sorted(c.path for c in changes if c.status == "A")
            dels = sorted(c.path for c in changes if c.status == "D")
            mods = sorted(c.path for c in changes if c.status == "M")
            before_blob = {c.path: c.old for c in changes if c.status in ("D", "M")}
            after_blob = {c.path: c.new for c in changes if c.status in ("A", "M")}
            unread = sorted((set(before_blob.values()) | set(after_blob.values())) - lines_of_blob.keys())
            texts = show_blob(reader, unread)
            for b in unread:
                if b in texts:
                    text = texts[b]
                    lines_of_blob[b] = logical_lines(text, memo)
                    lexed += 1
                    raw_lines += text.count("\n") + 1

            for path, blob in [*before_blob.items(), *after_blob.items()]:
                if blob not in lines_of_blob:
                    diagnostics.append(Diagnostic(path, f"unreadable blob {blob} in {rec.id[:12]}"))
            before_cache = {p: lines_of_blob.get(b, []) for p, b in before_blob.items()}
            after_cache = {p: lines_of_blob.get(b, []) for p, b in after_blob.items()}
            matchers: dict[tuple[str | None, str | None], SequenceMatcher] = {}

            def diff(old: str, new: str) -> SequenceMatcher:
                """``old``'s lines before the commit against ``new``'s after it; one per blob pair."""
                key = (before_blob.get(old), after_blob.get(new))
                if key not in matchers:
                    matchers[key] = SequenceMatcher(a=before_cache.get(old, []), b=after_cache.get(new, []),
                                                    autojunk=False)
                return matchers[key]

            for c in changes:
                add_n, del_n = _line_churn(diff(c.path, c.path))
                system_churn += add_n + del_n
                rec.files.append((c.status, c.path, add_n, del_n))

            # a blob's lines are dropped once no path this walk knows still holds it
            for c in changes:
                if c.path in blob_at:
                    holders[blob_at[c.path]] -= 1
                blob_at[c.path] = c.new
                holders[c.new] += 1
            for c in changes:
                if holders[c.old] <= 0:
                    del holders[c.old]
                    lines_of_blob.pop(c.old, None)

            tracked_dels = [p for p in dels if p in path_to_class]
            tracked_mods = [p for p in mods if p in path_to_class]

            # split: a tracked file's lines continue into >= 2 successor files
            split_now: set[str] = set()
            for p in tracked_dels + tracked_mods:
                before = before_cache[p]
                if not before:
                    continue
                successors = list(adds)
                if p in mods:
                    successors.append(p)
                continuing = 0
                for s in successors:
                    frac = _matched(diff(p, s)) / len(before)
                    if frac >= split_threshold:
                        continuing += 1
                if continuing >= 2:
                    split_now.add(p)

            # merge: >= 2 tracked sources each contribute >= threshold of one target;
            # another source reaches a modified target only through its new lines
            merge_now: set[str] = set()
            for target in adds + tracked_mods:
                after = after_cache[target]
                if not after:
                    continue
                gained = _gained_lines(diff(target, target)) if target in mods else None
                contributors = []
                for src in tracked_dels + tracked_mods:
                    if src in split_now:
                        continue
                    if gained is None or src == target:
                        sm = diff(src, target)
                    else:
                        sm = SequenceMatcher(a=before_cache[src], b=gained, autojunk=False)
                    frac = _matched(sm) / len(after)
                    if frac >= split_threshold:
                        contributors.append(src)
                if len(contributors) >= 2:
                    merge_now.update(contributors)

            for p in split_now:
                qname = path_to_class.pop(p)
                lineages[qname].status = EXCLUDED_SPLIT
            for p in merge_now - split_now:
                if p in path_to_class:
                    qname = path_to_class.pop(p)
                    lineages[qname].status = EXCLUDED_MERGE

            # renames: greedy best-match pairing of remaining deleted/added files
            remaining_dels = [p for p in tracked_dels if p in path_to_class]
            consumed_adds: set[str] = set()
            pairs = []
            for d in remaining_dels:
                before = before_cache[d]
                if not before:
                    continue
                for a in adds:
                    sim = _matched(diff(d, a)) / max(len(before), len(after_cache[a]), 1)
                    if sim >= rename_threshold:
                        pairs.append((-sim, d, a))
            pairs.sort()
            renamed: dict[str, str] = {}
            for _negsim, d, a in pairs:
                if d in renamed or a in consumed_adds:
                    continue
                renamed[d] = a
                consumed_adds.add(a)

            for d, a in sorted(renamed.items()):
                qname = path_to_class.pop(d)
                path_to_class[a] = qname
                lineages[qname].timeline.append((rec.id, a))
                add_n, del_n = _line_churn(diff(d, a))
                if add_n + del_n > 0:
                    churn_by_class[qname].append((rec.id, add_n, del_n))

            for d in remaining_dels:
                if d in renamed or d not in path_to_class:
                    continue
                qname = path_to_class.pop(d)
                lineages[qname].status = DELETED  # deleting commit adds no churn

            for p in tracked_mods:
                if p not in path_to_class:
                    continue
                qname = path_to_class[p]
                add_n, del_n = _line_churn(diff(p, p))
                if add_n + del_n > 0:
                    churn_by_class[qname].append((rec.id, add_n, del_n))

    _log.debug("mined %d commits: %d blobs lexed, %d raw lines, %d memo misses",
               len(commits), lexed, raw_lines, len(memo))
    return MiningResult(window, commits, lineages, churn_by_class, system_churn, diagnostics)


def aggregate_stability(result: MiningResult, include_deleted: bool = True) -> list[StabilityOutcome]:
    """ChF = touching commits, ChS = total logical added+deleted; excluded
    lineages produce no outcome row."""
    out = []
    for qname in sorted(result.lineages):
        lin = result.lineages[qname]
        if lin.status in (EXCLUDED_SPLIT, EXCLUDED_MERGE):
            continue
        if lin.status == DELETED and not include_deleted:
            continue
        events = result.churn_by_class.get(qname, [])
        chf = len(events)
        chs = sum(a + d for _, a, d in events)
        out.append(StabilityOutcome(lin.focal, chf, chs, lin.status))
    return out


ACTIVITY_HEADER = ["measure", "min", "max", "median", "mean", "sd"]


def activity_summary(per_project: list[dict]) -> list[list]:
    """Descriptive statistics of window activity across projects.

    ``per_project`` rows carry ``window_commits`` and ``system_churn``.
    Population standard deviation (a single project has sd 0).
    """
    rows = []
    for measure, key in (("window_commits", "window_commits"), ("system_churn", "system_churn")):
        values = [p[key] for p in per_project]
        if not values:
            continue
        rows.append([
            measure,
            min(values),
            max(values),
            statistics.median(values),
            statistics.fmean(values),
            statistics.pstdev(values),
        ])
    return rows
