"""Command-line interface.

Subcommands mirror the pipeline stages:

    smellstab filter  --config cfg.json          # manifest -> selection.json
    smellstab analyze --config cfg.json          # corpora, graphs, smells, IVs
    smellstab mine    --config cfg.json          # windows, lineages, ChF/ChS
    smellstab join    --config cfg.json          # dataset.csv + activity.csv
    smellstab stats   --config cfg.json          # results.csv, fits.json
    smellstab report  --config cfg.json          # verdict table to stdout
    smellstab all     --config cfg.json          # everything above, in order
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread unless the user says otherwise: extra threads burn CPU beside
# ``workers`` without shortening the stats suite.  Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .io_utils import read_csv, write_json
from .manifest import filter_manifest, load_manifest
from .pipeline import PipelineConfig, run_pipeline, run_stats, selection_doc


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    overrides = {"manifest": args.manifest, "output_dir": args.output_dir,
                 "workers": args.workers, "seed": args.seed}
    return PipelineConfig.from_file(args.config or None,
                                    **{k: v for k, v in overrides.items() if v not in ("", None)})


def cmd_filter(config: PipelineConfig) -> int:
    accepted, rejections = filter_manifest(load_manifest(config.manifest), config.project_limit)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "selection.json", selection_doc(config, accepted, rejections))
    print(f"accepted {len(accepted)} projects, rejected {len(rejections)}")
    for r in rejections:
        print(f"  rejected {r.repo}: {r.reason}")
    return 0


def _stage(config: PipelineConfig, stages: tuple[str, ...]) -> int:
    outcome = run_pipeline(config, stages=stages)
    if outcome.quarantined:
        for repo, why in outcome.quarantined.items():
            print(f"quarantined {repo} in {why['stage']}: {why['type']}: {why['message']}",
                  file=sys.stderr)
    print(f"completed {stages} for {len(outcome.accepted)} projects")
    return 0


def cmd_stats(config: PipelineConfig) -> int:
    if not (Path(config.output_dir) / "dataset.csv").exists():
        print("no dataset.csv yet; run `smellstab join` first", file=sys.stderr)
        return 1
    run_stats(config)
    print(f"wrote {Path(config.output_dir) / 'results.csv'}")
    return 0


def cmd_report(config: PipelineConfig) -> int:
    out = Path(config.output_dir)
    results_path = out / "results.csv"
    if not results_path.exists():
        print("no results.csv yet; run `smellstab stats` first", file=sys.stderr)
        return 1
    _, rows = read_csv(results_path)
    print(f"{'hypothesis':<12}{'dv':<6}{'beta':>10}{'p_raw':>10}{'p_bh':>10}  verdict")
    for r in rows:
        verdict = "accepted" if r["accepted"] == "true" else (
            "inconclusive" if r["converged"] != "true" else "rejected")
        numbers = "".join(f"{float(r[name]):>10.4g}" for name in ("beta", "p_raw", "p_bh"))
        print(f"{r['hypothesis']:<12}{r['dv']:<6}{numbers}  {verdict}")
    activity = out / "activity.csv"
    if activity.exists():
        print("\nactivity summary (across projects):")
        _, arows = read_csv(activity)
        for r in arows:
            print(f"  {r['measure']}: min={r['min']} max={r['max']} median={r['median']} "
                  f"mean={r['mean']} sd={r['sd']}")
    quarantine = out / "quarantine.json"
    if quarantine.exists():
        doc = json.loads(quarantine.read_text())
        if doc.get("quarantined"):
            print(f"\nquarantined projects: {sorted(doc['quarantined'])}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="smellstab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("filter", "analyze", "mine", "join", "stats", "report", "all"):
        p = sub.add_parser(name)
        p.add_argument("--config", default="", help="pipeline config JSON")
        p.add_argument("--manifest", default="", help="override manifest path")
        p.add_argument("--output-dir", default="", help="override output directory")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:  # a malformed setting or unreadable config: one line and exit 2
        parser.error(str(exc))
    if args.command == "filter":
        return cmd_filter(config)
    if args.command == "analyze":
        return _stage(config, ("analyze",))
    if args.command == "mine":
        return _stage(config, ("mine",))
    if args.command == "join":
        return _stage(config, ("analyze", "mine", "join"))
    if args.command == "stats":
        return cmd_stats(config)
    if args.command == "report":
        return cmd_report(config)
    if args.command == "all":
        return _stage(config, ("analyze", "mine", "join", "stats"))
    return 2


if __name__ == "__main__":
    sys.exit(main())
