"""fracphase benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {slice-grid,thresholds,montecarlo} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; nothing is installed.
With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (``setup_s``, ``wall_s``, ``cmd_p50_ms``,
``cmd_tail_ms``, ``peak_rss_mib``), measured with tracing off.  With
``--trace 1`` it carries the per-layer metrics of a separate traced pass.
Every metric is also printed above that line by name and unit, with the
provenance of the run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("slice-grid", "thresholds", "montecarlo")
PROBES = 10  # fresh interpreters timed per run for setup_s and cli.import_s
DEADLINE_S = 170  # for the workload process; a run must end within 180 s

PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import fracphase.cli
took = time.perf_counter() - t
from fracphase.lattice import menger, sierpinski
menger(), sierpinski()
print(took)
"""


def probe_setup(n: int, warm: bool):
    """Time ``n`` fresh interpreters importing ``fracphase.cli``.

    With ``warm``, a first, untimed probe writes the bytecode cache so that
    every timed probe starts from the same state.  Returns (whole-process
    seconds, seconds spent in the import itself).  These stay raw: process
    start-up and imports did not follow the host's speed as measured by
    ``calib.burst_ns``, and scaling them widened their spread.
    """
    totals, imports = [], []
    for k in range(n + warm):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=60)
        if k or not warm:
            totals.append(time.perf_counter() - start)
            imports.append(float(out.stdout))
    return totals, imports


def unit_of(metric: str) -> str:
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("speedup_2w"):
        return "x"
    return "count"


def provenance(args, child) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "why": child["why"],
        "seed": args.seed,
        "seed_used": child["seed_used"],
        "workers": child["workers"],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "fracphase" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}/fracphase; run from a source checkout",
              file=sys.stderr)
        return 2
    # Half of the set-up probes run before the workload and half after it,
    # so that their median spans the run rather than one moment of it.
    started = time.perf_counter()
    totals, imports = probe_setup(PROBES // 2, warm=True)
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("bench: workload did not finish within the time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"bench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.splitlines()[-1])
    more_totals, more_imports = probe_setup(PROBES - PROBES // 2, warm=False)
    totals += more_totals
    imports += more_imports

    print(f"fracphase benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"provenance: {json.dumps(provenance(args, child))}")
    if not child["seed_used"]:
        print(f"seed: {args.workload} uses no randomness, so --seed {args.seed} is ignored")
    walls = child["pass_wall_s"]
    print(f"untraced passes: {child['passes']} ({', '.join(f'{w:.3f}' for w in walls)} s); "
          f"{len(child['commands'])} commands per pass")
    if args.trace == 0:
        # each command's median over passes: repeated passes time the same
        # inputs, so pooling them would put the median on a gap between two
        # commands' latencies and let outliers decide it
        latency = child["scaled_latency_ms" if child["scaled"] else "latency_ms"]
        typical = [statistics.median(c) for c in zip(*latency)]
        raw_typical = [statistics.median(c) for c in zip(*child["latency_ms"])]
        n = f"{len(walls)} passes"
        print("latencies: " + ("scaled to the reference speed" if child["scaled"]
                               else "raw (this workload is not scaled)"))
        metrics = {
            "setup_s": statistics.median(totals),
            "wall_s": statistics.median(sum(p) / 1e3 for p in latency),
            "cmd_p50_ms": statistics.median(typical),
            "cmd_tail_ms": max(typical),
            "peak_rss_mib": child["peak_rss_mib"],
        }
        notes = {
            "setup_s": f"median of {len(totals)} fresh interpreters; not scaled",
            "wall_s": f"median of {n}; raw {statistics.median(walls):.4f} s",
            "cmd_p50_ms": f"median over {len(typical)} commands of each one's median over {n}; "
                          f"raw {statistics.median(raw_typical):.3f} ms",
            "cmd_tail_ms": f"slowest of {len(typical)} commands, each its median over {n}; "
                           f"raw {max(raw_typical):.3f} ms",
            "peak_rss_mib": "this workload's process plus its largest child",
        }
        if args.workload == "thresholds":
            print(f"analyze_p50_ms = {metrics['cmd_p50_ms']!r} ms; analyze_tail_ms = "
                  f"{metrics['cmd_tail_ms']!r} ms: every command here is one analyze")
    else:
        traced = child["traced"]
        metrics = {"cli.import_s": statistics.median(imports), **traced["metrics"]}
        notes = {"cli.import_s": f"median of {len(imports)} fresh interpreters; not scaled"}
        if traced["missing_hooks"]:
            print(f"warning: not hooked (renamed?): {', '.join(traced['missing_hooks'])}")
        print(f"traced passes: {traced['traced_passes']}, {traced['traced_wall_ms']:.1f} ms; "
              f"spans in {traced['trace_file']}")
        print("self time by layer over the traced passes (ms, share of traced wall):")
        for layer, ms in sorted(traced["self_ms_by_layer"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:40s} {ms:12.3f} {100 * ms / traced['traced_wall_ms']:7.2f}%")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value!r} {unit_of(name)}{note}")
    attempted, failed = child["attempted"], child["failed"]
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted!r} "
          "(commands whose output failed a check, over commands run)")
    for problem in child["problems"]:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
