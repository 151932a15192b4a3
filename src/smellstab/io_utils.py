"""Deterministic CSV/JSON writers with config-echo sidecars.

Every writer replaces its target atomically: a crash mid-write leaves the
previous file intact, never a truncated one.  Each encodes onto the file as
it goes, row by row or JSON chunk by chunk, and never holds the whole text.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

CSV_SCHEMA_VERSION = 1


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


@contextmanager
def atomic_writer(path: str | Path, mode: str = "w"):
    """Handle on a temp file beside ``path``, moved over it on success.

    Text by default; ``mode="wb"`` gives a binary handle.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    with atomic_writer(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([format_value(v) for v in row])


def write_meta(path: str | Path, *, config_echo: dict, extra: dict | None = None) -> None:
    """Provenance sidecar for ``path``: schema version + config echo."""
    meta = {"csv_schema_version": CSV_SCHEMA_VERSION, "config": config_echo}
    if extra:
        meta.update(extra)
    write_json(str(path) + ".meta.json", meta)


def write_json(path: str | Path, doc: dict, end: str = "\n") -> None:
    """``doc`` as indented JSON with sorted keys, then ``end``, encoded straight onto the file."""
    with atomic_writer(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write(end)


def read_csv(path: str | Path) -> tuple[list[str], list[dict[str, str]]]:
    header, rows = parse_csv(Path(path).read_bytes(), str(path))
    return header, list(rows)


def parse_csv(data: bytes, name: str) -> tuple[list[str], Iterator[dict[str, str]]]:
    """Header and lazily read rows of a CSV file's bytes, decoded as ``open(..., newline="")`` decodes the file.

    Blank lines are skipped.  A row whose field count is not the header's
    raises a ValueError naming ``name``, its line, and both counts.
    """
    fh = io.TextIOWrapper(io.BytesIO(data), newline="")
    reader = csv.reader(fh)
    header = next(reader, [])

    def rows() -> Iterator[dict[str, str]]:
        with fh:
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"{name}, line {reader.line_num}: "
                                     f"expected {len(header)} fields as in the header, found {len(row)}")
                yield dict(zip(header, row))

    return header, rows()
