"""Run one workload's passes in a fresh process; print a JSON summary line.

``run.py`` starts this file as a child process, so that the peak resident
set it reports covers this process and its pool workers and nothing else.

Untraced passes run the unmodified package for about ``--seconds`` (always
at least one whole pass), with a speed burst from ``calib.py`` timed before
the first command and after each one.  With ``--trace 1`` the seconds are
split: half for untraced passes, then half for traced passes with spans
recorded around every hooked call, then the workload's traced-only commands.
Every output is checked after timing ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads as wl  # noqa: E402

OUTDIR = ROOT / ".bench_out"

# (metric, span name, measure): measure is "calls", "self_ms", "self_s", a
# count key, or "<key>/s" for that count per second of the span's self time.
LAYER_METRICS = [
    ("lattice.project.calls", "lattice.project", "calls"),
    ("lattice.project.self_ms", "lattice.project", "self_ms"),
    ("type_system.compute_type_system.calls", "type_system.compute_type_system", "calls"),
    ("type_system.compute_type_system.self_ms", "type_system.compute_type_system", "self_ms"),
    ("type_system.compute_type_system.types", "type_system.compute_type_system", "types"),
    ("spectral.spectral_radius.calls", "spectral.spectral_radius", "calls"),
    ("spectral.spectral_radius.self_ms", "spectral.spectral_radius", "self_ms"),
    ("spectral.spectral_radius.exact_hits", "spectral.spectral_radius", "exact_hits"),
    ("spectral.char_poly.self_ms", "spectral.char_poly", "self_ms"),
    ("spectral.dominates_rho.calls", "spectral.dominates_rho", "calls"),
    ("spectral.dominates_rho.self_ms", "spectral.dominates_rho", "self_ms"),
    ("phase.phase_report.self_ms", "phase.phase_report", "self_ms"),
    ("phase.positive_row_witness.self_ms", "phase.positive_row_witness", "self_ms"),
    ("phase.positive_row_witness.budget_hits", "phase.positive_row_witness", "budget_hits"),
    ("phase.positive_row_witness.witness_len", "phase.positive_row_witness", "witness_len"),
    ("serialize.phase_report_to_json.self_ms", "serialize.phase_report_to_json", "self_ms"),
    ("serialize.phase_report_to_csv.self_ms", "serialize.phase_report_to_csv", "self_ms"),
    ("serialize.svg_band_chart.self_ms", "serialize.svg_band_chart", "self_ms"),
    ("slices.verify_grid.self_s", "slices.verify_grid", "self_s"),
    ("slices.verify_grid.points", "slices.verify_grid", "points"),
    ("slices.verify_grid.points_per_s", "slices.verify_grid", "points/s"),
    ("simulate.sample_survival.self_ms", "simulate.sample_survival", "self_ms"),
    ("simulate.sample_survival.nodes_hashed", "simulate.sample_survival", "nodes_hashed"),
    ("simulate.sample_survival.nodes_per_s", "simulate.sample_survival", "nodes_hashed/s"),
    ("simulate.project_survival.self_ms", "simulate.project_survival", "self_ms"),
    ("simulate.project_survival.words", "simulate.project_survival", "words"),
    ("pressure.pressure_exact.self_ms", "pressure.pressure_exact", "self_ms"),
    ("pressure.pressure_exact.words_per_s", "pressure.pressure_exact", "words/s"),
    ("pressure.pressure_mc.self_ms", "pressure.pressure_mc", "self_ms"),
    ("pressure.pressure_mc.steps_per_s", "pressure.pressure_mc", "steps/s"),
    ("pressure.lyapunov.self_ms", "pressure.lyapunov", "self_ms"),
    ("pressure.lyapunov.steps_per_s", "pressure.lyapunov", "steps/s"),
]


@dataclass
class Pass:
    results: list  # (output, latency_ns) per command
    bursts: list  # calib.burst_ns() before the first command and after each one
    spans: range  # indices of this pass's spans in the recorder

    @property
    def wall_ns(self) -> int:
        return sum(lat for _, lat in self.results)

    def scaled_ms(self) -> list[float]:
        """Each command's latency at the reference speed, from its two bursts."""
        return [calib.scale(lat, b0, b1) / 1e6 for (_, lat), b0, b1
                in zip(self.results, self.bursts, self.bursts[1:])]


def import_package():
    """The package's modules by name (``fracphase.pressure`` the attribute is a function)."""
    names = ("cli", "lattice", "phase", "pressure", "slices", "spectral", "type_system")
    return types.SimpleNamespace(
        **{n: importlib.import_module(f"fracphase.{n}") for n in names})


def run_pass(commands, recorder=None) -> Pass:
    """Run each command once.  An untraced pass times a speed burst before
    the first command and after each one; a traced pass runs none."""
    first = len(recorder.spans) if recorder else 0
    results = []
    bursts = [] if recorder else [calib.burst_ns()]
    for cmd in commands:
        t0 = time.perf_counter_ns()
        if recorder is None:
            out = cmd.run()
        else:
            with recorder.command_span(cmd.root):
                out = cmd.run()
        results.append((out, time.perf_counter_ns() - t0))
        if recorder is None:
            bursts.append(calib.burst_ns())
    return Pass(results, bursts, range(first, len(recorder.spans) if recorder else 0))


def run_for(commands, seconds: float, recorder=None) -> list[Pass]:
    """Whole passes while the next one is expected to end within ``seconds``.

    At least one pass runs.  Stopping before a pass that would overrun keeps
    the run near ``seconds`` even when one pass takes most of it.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(commands, recorder))
        print(f"  pass {len(passes)}{' (traced)' if recorder else ''}: "
              f"{passes[-1].wall_ns / 1e9:.3f} s", file=sys.stderr, flush=True)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def check_outputs(commands, passes):
    """Check each command's first output; later outputs must repeat it exactly.

    Returns (attempted, failed, problems): one attempt per command per pass.
    """
    attempted = failed = 0
    problems = []
    for j, cmd in enumerate(commands):
        outputs = [p.results[j][0] for p in passes]
        try:
            issues = cmd.check(outputs[0])
        except Exception as exc:  # a malformed output must count as a failure
            issues = [f"check raised {exc!r}"]
        problems += [f"{cmd.label}: {issue}" for issue in issues]
        reference = cmd.stable(outputs[0])
        for out in outputs:
            attempted += 1
            same = cmd.stable(out) == reference
            failed += bool(issues) or not same
            if not same:
                problems.append(f"{cmd.label}: output differs between passes")
    return attempted, failed, problems


def layer_totals(recorder, selfs, indices):
    calls = Counter()
    self_ns = Counter()
    counts = defaultdict(Counter)
    for i in indices:
        s = recorder.spans[i]
        calls[s.name] += 1
        self_ns[s.name] += selfs[i]
        counts[s.name].update(s.counts)
    return calls, self_ns, counts


def pass_metrics(recorder, selfs, p: Pass) -> dict:
    calls, self_ns, counts = layer_totals(recorder, selfs, p.spans)
    out = {}
    for metric, name, measure in LAYER_METRICS:
        if measure == "calls":
            out[metric] = calls[name]
        elif measure == "self_ms":
            out[metric] = self_ns[name] / 1e6
        elif measure == "self_s":
            out[metric] = self_ns[name] / 1e9
        elif measure.endswith("/s"):
            secs = self_ns[name] / 1e9
            out[metric] = counts[name][measure[:-2]] / secs if secs else 0.0
        else:
            out[metric] = counts[name][measure]
    roots = [i for i in p.spans if recorder.spans[i].parent is None]
    out["cli.command.self_ms"] = sum(selfs[i] for i in roots) / 1e6
    covered = sum(recorder.spans[i].end - recorder.spans[i].start for i in roots)
    out["trace.uncovered_pct"] = 100 * (p.wall_ns - covered) / p.wall_ns
    return out


def traced_summary(workload, seed, untraced, traced, extra, recorder) -> dict:
    selfs = spanlib.self_times(recorder.spans)
    per_pass = [pass_metrics(recorder, selfs, p) for p in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    untraced_wall = statistics.median(p.wall_ns for p in untraced)
    traced_wall = statistics.median(p.wall_ns for p in traced)
    metrics["trace.overhead_pct"] = 100 * (traced_wall - untraced_wall) / untraced_wall
    speedup = 0.0
    if extra:
        _, extra_self, _ = layer_totals(recorder, selfs, extra.spans)
        if extra_self["slices.verify_grid"]:
            speedup = (metrics["slices.verify_grid.self_s"] * 1e9
                       / extra_self["slices.verify_grid"])
    metrics["slices.verify_grid.speedup_2w"] = speedup
    # where the traced wall time went, over all traced passes
    _, self_ns, _ = layer_totals(recorder, selfs, [i for p in traced for i in p.spans])
    table = {}
    for name in self_ns:
        layer = "cli.command" if name.startswith(("cli.", "api.")) else name
        table[layer] = table.get(layer, 0) + self_ns[name] / 1e6
    table["(uncovered)"] = sum(p.wall_ns for p in traced) / 1e6 - sum(table.values())
    trace_file = OUTDIR / f"trace-{workload.name}-seed{seed}.jsonl"
    pass_of = {i: k for k, p in enumerate(traced) for i in p.spans}
    recorder.write_jsonl(trace_file, lambda i: {"pass": pass_of.get(i, "extra")})
    return {"metrics": metrics, "traced_passes": len(traced),
            "traced_wall_ms": sum(p.wall_ns for p in traced) / 1e6,
            "self_ms_by_layer": table, "trace_file": str(trace_file.relative_to(ROOT))}


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    OUTDIR.mkdir(exist_ok=True)
    fp = import_package()
    workload = wl.WORKLOADS[args.workload](fp, args.seed, OUTDIR)
    for cmd in workload.warmup:
        cmd.run()
    # a traced run splits its seconds between the untraced and traced passes
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_for(workload.commands, seconds)
    traced, extra, summary = [], None, None
    if args.trace:
        recorder = spanlib.Recorder()
        with spanlib.hooked(recorder, wl.hooks(fp)) as missing:
            traced = run_for(workload.commands, seconds, recorder)
            if workload.traced_extra:
                extra = run_pass(workload.traced_extra, recorder)
        summary = traced_summary(workload, args.seed, untraced, traced, extra, recorder)
        summary["missing_hooks"] = missing
    peak = peak_rss_mib()
    attempted, failed, problems = check_outputs(workload.commands, untraced + traced)
    if extra:
        a, f, p = check_outputs(workload.traced_extra, [extra])
        attempted, failed, problems = attempted + a, failed + f, problems + p
    print(json.dumps({
        "workload": workload.name,
        "why": workload.why,
        "seed_used": workload.seed_used,
        "scaled": workload.scaled,
        "workers": [1, 2] if extra else [1],
        "commands": [c.label for c in workload.commands],
        "passes": len(untraced),
        "pass_wall_s": [p.wall_ns / 1e9 for p in untraced],
        "latency_ms": [[lat / 1e6 for _, lat in p.results] for p in untraced],
        "scaled_latency_ms": [p.scaled_ms() for p in untraced],
        "peak_rss_mib": peak,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "traced": summary,
    }))


if __name__ == "__main__":
    main()
