"""Thin wrappers over git plumbing.

Only structural data is read (hashes, committer timestamps, parent counts,
paths, blobs).  Author names and emails are never requested, so they cannot
leak into any export.  Blobs are named by id and read through one long-lived
``git cat-file --batch`` (a ``BlobReader``); analysis and mining decode them
the same way, so both see the same text.
"""

from __future__ import annotations

import os
import re
import subprocess
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path


class GitError(RuntimeError):
    pass


def _git(repo: str | Path, *args: str, stdin: bytes = b"") -> bytes:
    proc = subprocess.run(["git", "-C", str(repo), *args], input=stdin, capture_output=True)
    if proc.returncode != 0:
        raise GitError(f"git {' '.join(args)} failed: {proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


@dataclass(frozen=True, slots=True)
class ChainEntry:
    commit: str
    timestamp: int
    parents: tuple[str, ...]


# git's lookup order for a short ref name, as far as branches (gitrevisions(7))
_SHORT_NAME_RULES = ("{}", "refs/{}", "refs/tags/{}", "refs/heads/{}")
_BRANCH_NAME = re.compile(r"(?!.*(?:\.\.|//|\.lock$|[./]$))\w[\w./-]*", re.ASCII)
_OBJECT_ID = re.compile(r"[0-9a-f]{40}(?:[0-9a-f]{24})?")


def branch_head(repo: str | Path, branch: str) -> str:
    """Id of the commit ``branch`` points at.

    A branch stored as a loose or packed ref of an ordinary or bare repository
    is read from its file, with no process.  Anything else (a name a tag or
    another ref shadows, a symbolic ref, a linked worktree, the reftable
    format, a ``GIT_DIR`` in the environment) is resolved by ``git rev-parse``.
    """
    head = _read_branch_ref(Path(repo), branch)
    if head is None:
        head = _git(repo, "rev-parse", "--verify", f"{branch}^{{commit}}").decode().strip()
    return head


def _read_branch_ref(repo: Path, branch: str) -> str | None:
    git_dir = repo / ".git" if (repo / ".git").is_dir() else repo
    if (not _BRANCH_NAME.fullmatch(branch) or not (git_dir / "objects").is_dir()
            or (git_dir / "commondir").exists() or (git_dir / "reftable").exists()
            or any(v in os.environ for v in ("GIT_DIR", "GIT_COMMON_DIR", "GIT_NAMESPACE"))):
        return None
    try:
        packed = (git_dir / "packed-refs").read_text()
    except FileNotFoundError:
        packed = ""
    for rule in _SHORT_NAME_RULES:
        ref = rule.format(branch)
        loose = git_dir / ref
        if loose.is_file():
            value = loose.read_text().strip()
        else:  # packed lines are "<id> <ref>"
            at = packed.find(f" {ref}\n") if ref.startswith("refs/") else -1
            if at < 0:
                continue
            value = packed[packed.rfind("\n", 0, at) + 1:at]
        return value if rule.startswith("refs/heads/") and _OBJECT_ID.fullmatch(value) else None
    return None


def first_parent_chain(repo: str | Path, branch: str) -> list[ChainEntry]:
    """First-parent history of ``branch``, newest first."""
    # "--" ends the revisions: a top-level path named like the branch is no ambiguity
    out = _git(repo, "log", "--first-parent", "--format=%H %ct %P", branch, "--").decode()
    entries = []
    for line in out.splitlines():
        parts = line.split()
        if not parts:
            continue
        entries.append(ChainEntry(parts[0], int(parts[1]), tuple(parts[2:])))
    return entries


@dataclass(frozen=True, slots=True)
class FileChange:
    status: str  # git's one-letter status: A, D, M, T, ...
    path: str
    old: str  # blob id before the commit, all zeros when absent
    new: str  # blob id after the commit, all zeros when absent


def diff_commits(repo: str | Path, pairs: Iterable[tuple[str, str]]) -> dict[str, list[FileChange]]:
    """Changed files of each ``(commit, parent)`` pair, git's rename detection off.

    One ``git diff-tree --stdin`` serves all pairs; a commit whose diff is
    empty is absent from the result.
    """
    stdin = "".join(f"{commit} {parent}\n" for commit, parent in pairs).encode()
    out = _git(repo, "diff-tree", "--stdin", "-r", "-z", "--no-renames", "--no-abbrev", stdin=stdin)
    changes: dict[str, list[FileChange]] = {}
    fields = iter(out.split(b"\0"))
    current: list[FileChange] = []
    for f in fields:
        if f.startswith(b":"):  # ":<mode> <mode> <old> <new> <status>", then the path
            _old_mode, _new_mode, old, new, status = f[1:].decode().split(" ")
            path = next(fields).decode(errors="replace")
            current.append(FileChange(status[:1], path, old, new))
        elif f:
            current = changes.setdefault(f.decode(), [])
    return changes


class BlobReader:
    """One ``git cat-file --batch`` process for many blob reads.

    The process starts on the first read and lives until ``close``, which a
    ``with`` block calls on every exit.  Each read writes one id and reads the
    whole answer before the next id is written, so neither pipe can fill while
    the other side waits for it.
    """

    def __init__(self, repo: str | Path):
        self.repo = repo
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> BlobReader:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def read(self, oid: str) -> bytes | None:
        """Content of the blob ``oid``; None when git has no blob by that id.

        Only full object ids are asked for: any other name is None with no
        question to git, so no name can break the one-line protocol.
        """
        if not _OBJECT_ID.fullmatch(oid):
            return None
        if self._proc is None:
            self._proc = subprocess.Popen(["git", "-C", str(self.repo), "cat-file", "--batch"],
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                          stderr=subprocess.PIPE)
        proc = self._proc
        try:
            proc.stdin.write(f"{oid}\n".encode())
            proc.stdin.flush()
        except BrokenPipeError:
            raise self._exited() from None
        line = proc.stdout.readline()  # "<id> <type> <size>" or "<id> missing"
        if not line.endswith(b"\n"):
            raise self._exited()
        header = line.split()
        if len(header) != 3:
            return None
        size = int(header[2])
        content = proc.stdout.read(size)
        if len(content) != size or proc.stdout.read(1) != b"\n":
            raise self._exited()
        return content if header[1] == b"blob" else None

    def _exited(self) -> GitError:
        err = self.close().decode(errors="replace").strip()
        return GitError(f"git cat-file --batch exited early: {err}")

    def close(self) -> bytes:
        """End the process and wait for it; returns what it wrote to stderr."""
        proc, self._proc = self._proc, None
        if proc is None:
            return b""
        try:
            proc.stdin.close()  # git exits at the end of its input ...
        except BrokenPipeError:
            pass
        proc.stdout.close()  # ... or at its next write, when the answer is no longer read
        err = proc.stderr.read()
        proc.stderr.close()
        proc.wait()
        return err


def show_blob(reader: BlobReader, blob_ids: Iterable[str]) -> dict[str, str]:
    """Decoded text of each readable blob, by id, read through ``reader``.

    An id git cannot read as a blob is absent from the result.
    """
    texts: dict[str, str] = {}
    for blob in dict.fromkeys(blob_ids):
        content = reader.read(blob)
        if content is not None:  # UTF-8 with replacement, universal newlines
            text = content.decode("utf-8", errors="replace")
            texts[blob] = text.replace("\r\n", "\n").replace("\r", "\n")
    return texts


def archive_snapshot(repo: str | Path, commit: str) -> dict[str, str]:
    """Text of every regular ``.java`` file in the tree at ``commit``, by path."""
    blobs: dict[str, str] = {}
    for entry in _git(repo, "ls-tree", "-r", "-z", commit).split(b"\0"):
        if not entry:
            continue
        meta, _, raw_path = entry.partition(b"\t")
        mode, _type, blob = meta.split(b" ")
        path = raw_path.decode(errors="replace")
        if mode in (b"100644", b"100755") and path.endswith(".java"):
            blobs[path] = blob.decode()
    with BlobReader(repo) as reader:
        texts = show_blob(reader, blobs.values())
    for path, blob in blobs.items():
        if blob not in texts:
            raise GitError(f"unreadable blob {blob} for {path} at {commit}")
    return {path: texts[blob] for path, blob in blobs.items()}
