"""Run one smellstab CLI command in a fresh interpreter and time it.

    python3 child.py RESULT_JSON T_SPAWN TRACE_JSON -- <cli args...>

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started this
interpreter (the clock is system-wide on Linux).  Set-up ends once
``smellstab.cli`` is imported and the config and manifest are loaded; the
command itself then runs through ``smellstab.cli.main``.  With a non-empty
``TRACE_JSON`` the layer wrappers of ``layers.py`` are installed first and
their totals are written there.  Set-up only, without a command, when the
CLI arguments are just ``--config FILE``.

Times are CPU seconds (user + system) of this process and of every child it
waited for, which leaves out the time the virtual CPUs were stolen by the
host; wall-clock times and the host's steal are recorded beside them.
"""

import json
import resource
import sys
import time


def cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def steal_s() -> float:
    """Host steal summed over all CPUs, from /proc/stat (0 where absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / 100.0
    except (OSError, IndexError, ValueError):
        return 0.0


def main() -> int:
    result_path, t_spawn, trace_path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    c0 = cpu(resource.RUSAGE_SELF)
    import smellstab.cli as cli
    from smellstab.manifest import load_manifest
    from smellstab.pipeline import PipelineConfig

    import_s = cpu(resource.RUSAGE_SELF) - c0
    config = PipelineConfig.from_file(cli_args[cli_args.index("--config") + 1])
    if config.manifest:
        load_manifest(config.manifest)
    t_start = time.monotonic()
    self_start, children_start, steal_start = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_CHILDREN), steal_s()
    doc = {"setup_s": self_start, "setup_wall_s": t_start - t_spawn, "import_s": import_s}
    if len(cli_args) > 2:
        recorder = None
        if trace_path:
            import layers

            recorder = layers.install()
        code = cli.main(cli_args)
        doc["wall_s"] = time.monotonic() - t_start
        doc["cpu_s"] = (cpu(resource.RUSAGE_SELF) - self_start) + (cpu(resource.RUSAGE_CHILDREN) - children_start)
        doc["steal_s"] = steal_s() - steal_start
        doc["exit_code"] = code
        if recorder is not None:
            recorder.uninstall()
            with open(trace_path, "w") as fh:
                json.dump(recorder.report(config.output_dir), fh)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
