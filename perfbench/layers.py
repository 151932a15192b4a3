"""Per-layer timers and counters for the traced run.

Each layer's public function is wrapped where the program looks it up (the
importing module's global), so the program itself is not edited.  Times are
wall-clock busy time summed over calls; the traced command runs with
``workers`` = 1, so no thread's wait for the GIL is charged to a layer.  A
function a refactor renamed or removed, or a result whose counts can no
longer be read, is reported in ``absent`` and its metrics read 0; the run
does not fail.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, timer key).  A key may be fed by several lookups.
TIMED = [
    ("smellstab.parser", "tokenize", "tokenize"),
    ("smellstab.parser", "parse_compilation_unit", "parse"),
    ("smellstab.pipeline", "ingest_corpus", "ingest"),
    ("smellstab.pipeline", "extract_dependencies", "graph"),
    ("smellstab.pipeline", "build_metrics_context", "metrics"),
    ("smellstab.pipeline", "compute_method_metrics", "metrics"),
    ("smellstab.pipeline", "compute_class_metrics", "metrics"),
    ("smellstab.pipeline", "detect_smells_with_diagnostics", "smells"),
    ("smellstab.pipeline", "build_all_observations", "neighborhood"),
    ("smellstab.pipeline", "archive_snapshot", "archive"),
    ("smellstab.pipeline", "mine_window", "mine_window"),
    ("smellstab.mining.miner", "show_blob", "blob_read"),
    ("smellstab.mining.miner", "logical_lines", "logical_lines"),
    ("smellstab.pipeline", "analyze_project", "analyze"),
    ("smellstab.pipeline", "mine_project", "mine"),
    ("smellstab.pipeline", "join_project", "join"),
    ("smellstab.pipeline", "export_dataset", "join"),
    ("smellstab.pipeline", "run_stats", "stats"),
    ("smellstab.cli", "run_stats", "stats"),
    ("smellstab.pipeline", "read_csv", "io_read"),
    ("smellstab.cli", "read_csv", "io_read"),
    ("smellstab.pipeline", "write_csv", "io_write"),
    ("smellstab.pipeline", "write_json", "io_write"),
    ("smellstab.pipeline", "write_meta", "io_write"),
    ("smellstab.cli", "write_json", "io_write"),
    ("smellstab.stats.suite", "write_csv", "io_write"),
    ("smellstab.stats.suite", "write_json", "io_write"),
    ("smellstab.stats.suite", "prepare_design", "design"),
    ("smellstab.stats.suite", "null_design", "design"),
    ("smellstab.stats.suite", "fit_poisson", "poisson"),
    ("smellstab.stats.suite", "fit_negbin_random_intercept", "glmm"),
    ("smellstab.stats.glmm", "nb2_row_terms", "row_terms"),
    ("smellstab.stats.glmm", "inner_modes", "inner_modes"),
    ("smellstab.stats.fitbase", "numerical_hessian", "hessian"),
    ("smellstab.stats.suite", "one_sided_p", "inference"),
    ("smellstab.stats.suite", "effect_sizes", "inference"),
    ("smellstab.stats.suite", "fit_quality", "inference"),
    ("smellstab.stats.suite", "bh_adjust", "inference"),
    ("smellstab.stats.suite", "dispersion_statistic", "inference"),
    ("smellstab.stats.suite", "randomized_quantile_residuals", "inference"),
    ("smellstab.pipeline", "export_results_csv", "export"),
    ("smellstab.pipeline", "export_fits_json", "export"),
    ("smellstab.pipeline", "export_quantile_residuals", "export"),
]

class Recorder:
    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.distinct_texts: set[int] = set()
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------------

    def _after(self, key: str, args: tuple, result) -> None:
        """Counts taken from a call's arguments and result (lock held)."""
        if key == "tokenize":
            self.count["tokens"] += len(result)
        elif key == "logical_lines":
            self.distinct_texts.add(hash(args[0]))
        elif key == "ingest":
            self.count["files"] += len(result.file_contexts)
            self.count["types"] += len(result.types)
            self._local.ingested = getattr(self._local, "ingested", 0) + 1
        elif key == "graph":
            self.count["edges"] += len(result[0].edges)
        elif key == "smells":
            self.count["smell_instances"] += len(result[0])
        elif key == "neighborhood":
            self.count["observation_rows"] += len(result)
        elif key == "mine_window":
            self.count["commits"] += len(result.commits)

    def _wrap(self, key: str, fn):
        rec = self

        def timed(*args, **kwargs):
            if key == "analyze":
                rec._local.ingested = 0
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            with rec._lock:
                rec.busy[key] += dt
                rec.calls[key] += 1
                try:
                    rec._after(key, args, result)
                except (AttributeError, TypeError, IndexError):
                    # the layer's result changed shape: its counts are absent
                    if f"{key} counts" not in rec.absent:
                        rec.absent.append(f"{key} counts")
                if key == "analyze" and getattr(rec._local, "ingested", 0):
                    rec.count["reanalyzed"] += 1
            return result

        timed.__wrapped__ = fn
        return timed

    def _wrap_subprocess(self, module) -> None:
        """Count git processes started by the git I/O layer."""
        real = module.subprocess
        rec = self

        class Counting:
            def __getattr__(self, name):
                return getattr(real, name)

            @staticmethod
            def run(argv, *args, **kwargs):
                if argv and argv[0] == "git":
                    with rec._lock:
                        rec.count["git_spawns"] += 1
                return real.run(argv, *args, **kwargs)

        self._patches.append((module, "subprocess", real))
        module.subprocess = Counting()

    def install(self) -> "Recorder":
        for mod_name, attr, key in TIMED:
            try:
                module = importlib.import_module(mod_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(key, fn))
        try:
            self._wrap_subprocess(importlib.import_module("smellstab.mining.gitio"))
        except (ImportError, AttributeError):
            self.absent.append("smellstab.mining.gitio.subprocess")
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def wrapper_cost_s(self, repeats: int = 5, n: int = 20000) -> float:
        """Time the wrappers themselves added: wrapped calls x cost of one.

        The cost of one wrapped call is the best of ``repeats`` timings of
        ``n`` calls to a wrapped no-op, minus the same for the bare no-op.
        """
        def noop():
            return None

        probe = Recorder()
        wrapped = probe._wrap("probe", noop)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(n):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(n):
                noop()
            t2 = time.perf_counter()
            best = min(best, ((t1 - t0) - (t2 - t1)) / n)
        return max(best, 0.0) * (sum(self.calls.values()) + self.count["git_spawns"])

    # -- report -------------------------------------------------------------------

    def report(self, output_dir: str | Path) -> dict:
        b, n, c = self.busy, self.calls, self.count
        snap = Path(output_dir) / "snapshots"
        snap_bytes = sum(os.path.getsize(os.path.join(d, f))
                         for d, _, files in os.walk(snap) for f in files) if snap.exists() else 0
        values = {
            "lexer.ingest_s": b["tokenize"], "lexer.tokens": c["tokens"],
            "lexer.mine_s": b["logical_lines"], "lexer.mine_calls": n["logical_lines"],
            "lexer.mine_distinct": len(self.distinct_texts),
            "parser.s": b["parse"] - b["tokenize"],
            "corpus.ingest_s": b["ingest"], "corpus.files": c["files"], "corpus.types": c["types"],
            "graph.s": b["graph"], "graph.edges": c["edges"],
            "metrics.s": b["metrics"], "smells.s": b["smells"],
            "smells.instances": c["smell_instances"],
            "neighborhood.s": b["neighborhood"], "neighborhood.rows": c["observation_rows"],
            "gitio.archive_s": b["archive"], "gitio.spawns": c["git_spawns"],
            "gitio.snapshot_mb": snap_bytes / 1e6,
            "mining.s": b["mine_window"], "mining.commits": c["commits"],
            "mining.blob_reads": n["blob_read"],
            "mining.self_s": b["mine_window"] - b["blob_read"] - b["logical_lines"],
            "pipeline.analyze_s": b["analyze"], "pipeline.mine_s": b["mine"],
            "pipeline.join_s": b["join"], "pipeline.stats_s": b["stats"],
            "pipeline.reanalyzed": c["reanalyzed"],
            "io.read_s": b["io_read"], "io.write_s": b["io_write"],
            "stats.design_s": b["design"], "stats.poisson_s": b["poisson"],
            "stats.glmm_s": b["glmm"], "stats.glmm_fits": n["glmm"],
            "stats.objective_evals": n["row_terms"], "stats.row_terms_s": b["row_terms"],
            "stats.inner_modes_s": b["inner_modes"], "stats.hessian_s": b["hessian"],
            "stats.hessian_calls": n["hessian"], "stats.inference_s": b["inference"],
            "stats.export_s": b["export"], "trace.overhead_s": self.wrapper_cost_s(),
        }
        return {"values": values, "absent": self.absent}


def install() -> Recorder:
    return Recorder().install()
