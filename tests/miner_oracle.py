"""The window walk as it was before blobs were read through one process and
line matchers were shared: every blob batch is its own ``git cat-file
--batch`` run, and every comparison builds its own ``SequenceMatcher``.

``mine_window`` here is the test oracle for ``smellstab.mining.miner``: both
must give the same commits, lineages, churn and diagnostics.
"""

from __future__ import annotations

import subprocess
from collections import Counter
from collections.abc import Iterable
from difflib import SequenceMatcher
from pathlib import Path

from smellstab.lexer import logical_lines
from smellstab.mining.gitio import diff_commits
from smellstab.mining.miner import (
    DEFAULT_RENAME_THRESHOLD,
    DEFAULT_SPLIT_THRESHOLD,
    DELETED,
    EXCLUDED_MERGE,
    EXCLUDED_SPLIT,
    ClassLineage,
    MiningResult,
    ObservationWindow,
    enumerate_window_commits,
)
from smellstab.model import Diagnostic, SourceCorpus


def show_blob(repo: str | Path, blob_ids: Iterable[str]) -> dict[str, str]:
    """Decoded text of each readable blob, by id; one ``git cat-file --batch`` run."""
    ids = list(dict.fromkeys(blob_ids))
    if not ids:
        return {}
    out = subprocess.run(["git", "-C", str(repo), "cat-file", "--batch"], check=True,
                         input="".join(f"{b}\n" for b in ids).encode(), capture_output=True).stdout
    texts: dict[str, str] = {}
    pos = 0
    for blob in ids:
        eol = out.index(b"\n", pos)
        header = out[pos:eol].split(b" ")  # "<id> <type> <size>" or "<id> missing"
        pos = eol + 1
        if len(header) == 3:
            size = int(header[2])
            if header[1] == b"blob":  # UTF-8 with replacement, universal newlines
                text = out[pos:pos + size].decode("utf-8", errors="replace")
                texts[blob] = text.replace("\r\n", "\n").replace("\r", "\n")
            pos += size + 1
    return texts


def _matched(a: list[str], b: list[str]) -> int:
    sm = SequenceMatcher(a=a, b=b, autojunk=False)
    return sum(block.size for block in sm.get_matching_blocks())


def _line_churn(before: list[str], after: list[str]) -> tuple[int, int]:
    sm = SequenceMatcher(a=before, b=after, autojunk=False)
    added = deleted = 0
    for tag, i1, i2, j1, j2 in sm.get_opcodes():
        if tag in ("replace", "delete"):
            deleted += i2 - i1
        if tag in ("replace", "insert"):
            added += j2 - j1
    return added, deleted


def _gained_lines(before: list[str], after: list[str]) -> list[str]:
    """Lines of ``after`` that are not carried over from ``before``."""
    sm = SequenceMatcher(a=before, b=after, autojunk=False)
    return [line for tag, _i1, _i2, j1, j2 in sm.get_opcodes()
            if tag in ("replace", "insert") for line in after[j1:j2]]


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

    for rec in commits:
        changes = [c for c in diffs.get(rec.id, []) if c.path.endswith(".java")]
        adds = sorted(c.path for c in changes if c.status == "A")
        dels = sorted(c.path for c in changes if c.status == "D")
        mods = sorted(c.path for c in changes if c.status == "M")
        before_blob = {c.path: c.old for c in changes if c.status in ("D", "M")}
        after_blob = {c.path: c.new for c in changes if c.status in ("A", "M")}
        unread = sorted((set(before_blob.values()) | set(after_blob.values())) - lines_of_blob.keys())
        texts = show_blob(repo, unread)
        lines_of_blob.update((b, logical_lines(texts[b])) for b in unread if b in texts)

        for path, blob in [*before_blob.items(), *after_blob.items()]:
            if blob not in lines_of_blob:
                diagnostics.append(Diagnostic(path, f"unreadable blob {blob} in {rec.id[:12]}"))
        before_cache = {p: lines_of_blob.get(b, []) for p, b in before_blob.items()}
        after_cache = {p: lines_of_blob.get(b, []) for p, b in after_blob.items()}

        for c in changes:
            b = before_cache.get(c.path, [])
            a = after_cache.get(c.path, [])
            add_n, del_n = _line_churn(b, a)
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
                frac = _matched(before, after_cache[s]) / len(before)
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
            gained = _gained_lines(before_cache[target], after) if target in mods else after
            contributors = []
            for src in tracked_dels + tracked_mods:
                if src in split_now:
                    continue
                frac = _matched(before_cache[src], after if src == target else gained) / len(after)
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
                sim = _matched(before, after_cache[a]) / max(len(before), len(after_cache[a]), 1)
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
            add_n, del_n = _line_churn(before_cache[d], after_cache[a])
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
            add_n, del_n = _line_churn(before_cache[p], after_cache[p])
            if add_n + del_n > 0:
                churn_by_class[qname].append((rec.id, add_n, del_n))

    return MiningResult(window, commits, lineages, churn_by_class, system_churn, diagnostics)
