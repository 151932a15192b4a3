"""Deterministic CSV/JSON writers with config-echo sidecars.

Every writer replaces its target atomically: a crash mid-write leaves the
previous file intact, never a truncated one.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
from collections.abc import Iterable
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


def write_text(path: str | Path, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text)


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


def write_json(path: str | Path, doc: dict) -> None:
    write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def read_csv(path: str | Path) -> tuple[list[str], list[dict[str, str]]]:
    return parse_csv(Path(path).read_bytes())


def parse_csv(data: bytes) -> tuple[list[str], list[dict[str, str]]]:
    """Header and rows of a CSV file's bytes, decoded as ``open`` decodes the file."""
    with io.TextIOWrapper(io.BytesIO(data), newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)
