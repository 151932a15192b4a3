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
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    if args.manifest:
        config.manifest = args.manifest
    if args.output_dir:
        config.output_dir = args.output_dir
    if args.workers is not None:
        config.workers = args.workers
    if args.seed is not None:
        config.seed = args.seed
    return config


def cmd_filter(args: argparse.Namespace) -> int:
    config = _load_config(args)
    accepted, rejections = filter_manifest(load_manifest(config.manifest), config.project_limit)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "selection.json", selection_doc(config, accepted, rejections))
    print(f"accepted {len(accepted)} projects, rejected {len(rejections)}")
    for r in rejections:
        print(f"  rejected {r.repo}: {r.reason}")
    return 0


def _stage(args: argparse.Namespace, stages: tuple[str, ...]) -> int:
    config = _load_config(args)
    outcome = run_pipeline(config, stages=stages)
    if outcome.quarantined:
        for repo, why in outcome.quarantined.items():
            print(f"quarantined {repo} in {why['stage']}: {why['type']}: {why['message']}",
                  file=sys.stderr)
    print(f"completed {stages} for {len(outcome.accepted)} projects")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    config = _load_config(args)
    run_stats(config)
    print(f"wrote {Path(config.output_dir) / 'results.csv'}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
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
        beta = r["beta"][:8]
        print(f"{r['hypothesis']:<12}{r['dv']:<6}{beta:>10}{r['p_raw'][:8]:>10}{r['p_bh'][:8]:>10}  {verdict}")
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
    if args.command == "filter":
        return cmd_filter(args)
    if args.command == "analyze":
        return _stage(args, ("analyze",))
    if args.command == "mine":
        return _stage(args, ("mine",))
    if args.command == "join":
        return _stage(args, ("analyze", "mine", "join"))
    if args.command == "stats":
        return cmd_stats(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "all":
        return _stage(args, ("analyze", "mine", "join", "stats"))
    return 2


if __name__ == "__main__":
    sys.exit(main())
