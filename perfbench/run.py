#!/usr/bin/env python3
"""Benchmark smellstab end to end on generated inputs.

    python3 perfbench/run.py --workload all_mixed --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Inputs are generated once per
(workload, seed) under ``perfbench/.work/inputs`` and reused read-only.  A run
repeats whole rounds until ``--seconds`` of measuring is used up (at least one
round).  A round runs the workload's command in a fresh interpreter into an
empty output directory, checks every output against the generator's ledger,
and, for every workload, runs the command again over the warm output
directory with only the stats seed changed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` one untraced cold run is followed by a cold run and a rerun
with the layer wrappers of ``layers.py`` (and ``workers`` = 1), and the
per-layer metrics are reported instead.  Metric names and units come from
``BENCHMARK.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import inputs  # noqa: E402

COMMANDS = {"all_mixed": "all", "history_long": "join", "suite_paper": "stats"}
WORKERS = {"all_mixed": 2, "history_long": 2, "suite_paper": 1}
# Reruns per round; ``rerun_s`` is their median.  Back-to-back reruns of one
# history_long input took 0.83-1.53 CPU-s here, so that short rerun (about
# 1.3 s) is repeated seven times.
RERUNS = {"all_mixed": 2, "history_long": 7, "suite_paper": 1}
CHILD_TIMEOUT = 100  # one stuck command must not hold a run past three minutes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one BLAS thread: extra threads burn CPU beside ``workers`` without
    # shortening the suite on a small machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(work: Path, cli_args: list[str], trace: bool = False) -> dict:
    """One fresh interpreter; returns its timings (and layer report)."""
    result = work / "child.json"
    trace_path = work / "trace.json" if trace else ""
    for p in (result, work / "trace.json"):
        p.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(result), repr(t_spawn), str(trace_path), "--", *cli_args],
        env=child_env(), cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stderr.decode(errors="replace")[-4000:])
        raise SystemExit(f"smellstab {' '.join(cli_args[:1])} failed with exit code {proc.returncode}")
    doc = json.loads(result.read_text())
    if doc.get("exit_code", 0) != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-4000:])
        raise SystemExit(f"smellstab {cli_args[0]} returned {doc['exit_code']}")
    if trace:
        doc["trace"] = json.loads(Path(trace_path).read_text())
    return doc


def warm_inputs(root: Path) -> None:
    """Read every git object and input file once, outside the timed phases."""
    repos = root / "repos"
    if repos.exists():
        for repo in sorted(repos.iterdir()):
            subprocess.run(["git", "-C", str(repo), "cat-file", "--batch-all-objects", "--batch"],
                           stdout=subprocess.DEVNULL, check=True)
    for f in root.glob("*.csv"):
        f.read_bytes()


def write_config(work: Path, root: Path, out: Path, workers: int) -> Path:
    doc = {"output_dir": str(out), "workers": workers, "seed": 0}
    template = root / "manifest.template.jsonl"
    if template.exists():
        records = [json.loads(line) for line in template.read_text().splitlines() if line.strip()]
        for r in records:
            r["clone_path"] = str(root / r["clone_path"])
        manifest = work / "manifest.jsonl"
        manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        doc["manifest"] = str(manifest)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return cfg


def one_round(work: Path, root: Path, workload: str, seed: int, verdict: check.Verdict,
              trace: bool, workers: int, n_reruns: int) -> tuple[dict, list[dict]]:
    """Cold run into an empty directory, checks, then the seed-changed reruns."""
    out = work / "out"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir()
    if workload == "suite_paper":
        shutil.copyfile(root / "dataset.csv", out / "dataset.csv")
    cfg = write_config(work, root, out, workers)
    cmd = COMMANDS[workload]
    cold = run_child(work, [cmd, "--config", str(cfg)], trace)
    kept = "results.csv" if workload == "suite_paper" else "dataset.csv"
    first_bytes = (out / kept).read_bytes()
    if workload == "suite_paper":
        planted = json.loads((root / "planted.json").read_text())
        check.check_suite(check.read_rows(out / "results.csv"), planted, verdict)
    else:
        check.check_dataset(check.read_rows(out / "dataset.csv"), check.read_rows(root / "ledger.csv"),
                            check.read_quarantine(out), verdict)
        if workload == "all_mixed":
            check.check_results(check.read_rows(out / "results.csv"), verdict)
    reruns = []
    for k in range(n_reruns):
        reruns.append(run_child(work, [cmd, "--config", str(cfg), "--seed", str(seed + 1 + k)], trace))
        if (out / kept).read_bytes() != first_bytes:
            verdict.problems.append(f"{kept} differs between the cold run and the seed-changed rerun")
    return cold, reruns


def end_to_end_values(colds: list[dict], reruns: list[dict], setups: list[float]) -> dict[str, float]:
    """Medians over a run's cold commands, reruns and set-ups."""
    return {
        "cpu_s": statistics.median(d["cpu_s"] for d in colds),
        "rerun_s": statistics.median(d["cpu_s"] for d in reruns),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in colds),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "smellstab" / "cli.py").is_file():
        print(f"no smellstab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl, workers = args.workload, WORKERS[args.workload]

    work_root = BENCH / ".work"
    work = work_root / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        compileall.compile_dir(str(SRC), quiet=1)
        root = inputs.ensure_inputs(work_root / "inputs", wl, args.seed)
        warm_inputs(root)
        verdict = check.Verdict()
        colds, reruns, setups = [], [], []
        if args.trace:
            cold, _ = one_round(work, root, wl, args.seed, verdict, trace=False, workers=workers, n_reruns=0)
            tcold, (trerun,) = one_round(work, root, wl, args.seed, verdict, trace=True, workers=1, n_reruns=1)
            values = dict(tcold["trace"]["values"])
            values["pipeline.reanalyzed"] = trerun["trace"]["values"]["pipeline.reanalyzed"]
            values["setup.import_s"] = tcold["import_s"]
            values["cold.wall_s"] = cold["wall_s"]
            values["cold.steal_s"] = cold["steal_s"]
            absent = tcold["trace"]["absent"]
            if absent:
                print(f"absent layers (reported as 0): {', '.join(absent)}")
            print(f"untraced cold (workers {workers}): cpu {cold['cpu_s']:.3f} s, wall {cold['wall_s']:.3f} s; "
                  f"traced cold (workers 1): cpu {tcold['cpu_s']:.3f} s, wall {tcold['wall_s']:.3f} s")
            print(f"tracing overhead: {values['trace.overhead_s']:.4f} s of wrapper time, "
                  f"{100 * values['trace.overhead_s'] / cold['wall_s']:.2f} % of the untraced wall_s")
            colds, reruns, key = [cold, tcold], [trerun], "per_layer"
        else:
            t_begin = time.monotonic()
            last = 0.0
            while not colds or time.monotonic() - t_begin + last <= args.seconds:
                t_round = time.monotonic()
                cold, round_reruns = one_round(work, root, wl, args.seed, verdict, trace=False,
                                               workers=workers, n_reruns=RERUNS[wl])
                colds.append(cold)
                reruns += round_reruns
                last = time.monotonic() - t_round
            setups = [d["setup_s"] for d in colds + reruns]
            setups.append(run_child(work, ["--config", str(work / "config.json")])["setup_s"])
            values = end_to_end_values(colds, reruns, setups)
            print(f"rounds {len(colds)}, reruns {len(reruns)}, set-up samples {len(setups)}")
            key = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}
    for kind, runs in (("cold", colds), ("rerun", reruns)):
        for d in runs:
            print(f"{kind}: cpu {d['cpu_s']:.3f} s, wall {d['wall_s']:.3f} s, host steal "
                  f"{d['steal_s']:.2f} CPU-s, set-up wall {d['setup_wall_s']:.3f} s")
    for failure in verdict.failures[:20]:
        print(f"failed: {failure}")
    for problem in verdict.problems[:20]:
        print(f"incorrect: {problem}")
    for name, m in metrics.items():
        print(f"{wl} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{wl} operations attempted {verdict.attempted}, failed {verdict.failed}")
    print(json.dumps({"correct": verdict.correct, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
