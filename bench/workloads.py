"""The three benchmark workloads: inputs made from the seed, commands, checks.

A workload is a list of commands that one pass runs in order.  Each command
calls into the package from outside, through ``fracphase.cli.cli`` in
process or through a public function where no CLI command exists, and has a
check that recomputes its output independently (see ``checks.py``).
Functions are looked up on their modules at call time so that the traced
pass sees every call.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import checks


@dataclass
class Command:
    root: str  # name of the command's top-level span
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]  # problems with the output of run()
    stable: Callable[[Any], Any] = lambda out: out  # part that must repeat exactly


@dataclass
class Workload:
    name: str
    why: str
    seed_used: bool
    commands: list[Command]
    warmup: list[Command]  # small commands run once before timing
    traced_extra: list[Command] = field(default_factory=list)
    scaled: bool = True  # report latencies scaled to the reference speed (calib.py)


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    error: str | None


def cli_command(fp, args, check, stable=None) -> Command:
    """Run ``fracphase <args>`` in process through the click group."""
    from click.testing import CliRunner

    runner = CliRunner()

    def run():
        res = runner.invoke(fp.cli.cli, args)
        return CliResult(res.exit_code, res.stdout,
                         repr(res.exception) if res.exit_code else None)

    def checked(out: CliResult):
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}: {out.error}"]
        return check(out.stdout)

    return Command(f"cli.{args[0]}", " ".join(args), run, checked,
                   stable or (lambda out: out))


# --- slice-grid --------------------------------------------------------------

GRID_STEP = Fraction(1, 500)
GRID_MIN = Fraction(62509, 1125000)
GRID_ARGMIN = (Fraction(1, 3), Fraction(1, 3), Fraction(83, 500))
GRID_POINTS = 27_972_500


def _verify_slice(fp, step: Fraction, threads: int, expect=None) -> Command:
    def check(stdout):
        out = json.loads(stdout)
        got_min = Fraction(out["min"])
        argmin = tuple(Fraction(x) for x in out["argmin"])
        problems = []
        if Fraction(out["step"]) != step or out["workers"] != threads:
            problems.append(f"step/workers echoed as {out['step']}/{out['workers']}")
        if out["point_count"] != checks.grid_point_count(step):
            problems.append(f"point_count {out['point_count']} != recomputed grid size")
        if expect is not None and (got_min, argmin, out["point_count"]) != expect:
            problems.append(f"min {got_min} at {argmin} over {out['point_count']} "
                            f"points, expected {expect}")
        if fp.slices.htilde(fp.slices.plane(*argmin)) != got_min:
            problems.append("htilde(argmin) recomputed exactly differs from min")
        certified = got_min > 0 and got_min**2 > 675 * step**2
        if out["certified"] is not certified:
            problems.append(f"certified is {out['certified']}, the inequality gives {certified}")
        return problems

    def stable(out):
        data = json.loads(out.stdout) if out.exit_code == 0 else {}
        data.pop("wall_time_float", None)
        return out.exit_code, data

    args = ["verify-slice", "--step", f"{step.numerator}/{step.denominator}",
            "--threads", str(threads)]
    return cli_command(fp, args, check, stable)


def slice_grid(fp, seed: int, outdir) -> Workload:
    expect = (GRID_MIN, GRID_ARGMIN, GRID_POINTS)
    return Workload(
        name="slice-grid",
        why="the paper's certified verify-slice at step 1/500 with a known answer; nearly "
            "all time is in slices, none in the other layers",
        seed_used=False,
        commands=[_verify_slice(fp, GRID_STEP, 1, expect)],
        warmup=[_verify_slice(fp, Fraction(1, 30), 1)],
        traced_extra=[_verify_slice(fp, GRID_STEP, 2, expect)],
        # one 20 s command: bursts at its two ends cannot follow the host's
        # speed during it, and scaling by them widened the spread
        scaled=False,
    )


# --- thresholds --------------------------------------------------------------

MENGER_N = range(3, 18, 2)
SIERPINSKI_N = (3, 5, 7, 9, 11)
BOX = 6


def direction_pool(d: int, n_tilde: int):
    """gcd-reduced directions in [-BOX, BOX]^d with |v|_1 = n_tilde, one per sign pair.

    For the menger sponge and the carpet every corner cell is kept, so the
    hull of a projection spans |v|_1 unit steps and ``n_tilde = |v|_1``.
    """
    pool = []
    for v in itertools.product(range(-BOX, BOX + 1), repeat=d):
        if sum(map(abs, v)) == n_tilde and math.gcd(*v) == 1 and next(x for x in v if x) > 0:
            pool.append(v)
    return pool


def draw_directions(seed: int):
    """Two menger directions per odd N in 3..17, one carpet direction per N."""
    rng = random.Random(f"thresholds/{seed}")
    drawn = []
    for N in MENGER_N:
        drawn += [("menger", v, N) for v in rng.sample(direction_pool(3, N), 2)]
    for N in SIERPINSKI_N:
        drawn.append(("sierpinski", rng.choice(direction_pool(2, N)), N))
    return drawn


def _analyze(fp, lattice, direction, n_tilde=None, scale=1, more=None) -> Command:
    """``analyze`` with JSON output; ``more(report)`` adds command-specific checks."""
    def check(stdout):
        rep = json.loads(stdout)
        problems = checks.check_report(rep, lattice, direction, scale, n_tilde)
        if problems:
            return problems
        problems += checks.check_spectral(rep["type_system"]["matrices"],
                                          fp.spectral.spectral_radius,
                                          _threshold(rep, "no-interval"))
        return problems + (more(rep) if more else [])

    args = ["analyze", lattice, "--dir", ",".join(map(str, direction))]
    if scale != 1:
        args += ["--scale", str(scale)]
    return cli_command(fp, args, check)


def _threshold(rep, name):
    return next(t for t in rep["thresholds"] if t["name"] == name)


def _axis_scale3(rep):
    """Acceptance values of ``analyze menger --dir 1,0,0 --scale 3``."""
    problems = []
    if rep["type_system"]["matrices"][1] != [[0, 8, 0], [0, 4, 0], [0, 8, 0]]:
        problems.append("menger 1,0,0 scale 3: A_1 differs from the acceptance value")
    no_int = _threshold(rep, "no-interval")
    if not math.isclose(no_int["value_float"], 0.25, abs_tol=1e-9):
        problems.append(f"menger 1,0,0 scale 3: no-interval {no_int} does not enclose 1/4")
    return problems


def _analyze_bands(fp, svg_path) -> Command:
    def check(stdout):
        with open(svg_path) as fh:
            return checks.check_band_outputs(stdout, fh.read())

    args = ["analyze", "sierpinski", "--dir", "1,-1", "--format", "csv", "--svg", str(svg_path)]
    return cli_command(fp, args, check)


def thresholds(fp, seed: int, outdir) -> Workload:
    readme = [
        _analyze(fp, "menger", (1, 1, 1), more=checks.check_menger_111),
        _analyze_bands(fp, outdir / "bands.svg"),
        _analyze(fp, "menger", (1, 0, 0), scale=3, more=_axis_scale3),
    ]
    drawn = [_analyze(fp, lat, v, N) for lat, v, N in draw_directions(seed)]
    return Workload(
        name="thresholds",
        why="analyze on 21 seeded directions stratified by n_tilde plus the README "
            "commands; time in type_system, spectral and phase",
        seed_used=True,
        commands=readme + drawn,
        warmup=[_analyze(fp, "sierpinski", (1, 2), 3)],
    )


# --- montecarlo --------------------------------------------------------------

SIM_P = Fraction(3, 10)
SIM_DEPTH = 4
SIM_REPLICAS = 50


def _simulate(fp, seed: int, replicas: int) -> Command:
    def check(stdout):
        rows = stdout.splitlines()
        if len(rows) != replicas + 1:
            return [f"simulate printed {len(rows) - 1} replicas, expected {replicas}"]
        return checks.check_simulate(stdout, "menger", (1, 1, 1), SIM_P, SIM_DEPTH, seed,
                                     range(replicas))

    args = ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", str(SIM_P),
            "--depth", str(SIM_DEPTH), "--replicas", str(replicas), "--seed", str(seed)]
    return cli_command(fp, args, check)


def _system(fp, direction):
    return fp.type_system.compute_type_system(fp.lattice.project(fp.lattice.menger(), direction))


def _menger_111_matrices(mats):
    if [list(map(list, A)) for A in mats] != checks.MENGER_111["matrices"]:
        return ["menger 1,1,1 matrices differ from the acceptance values"]
    return []


def _lyapunov(fp, direction, n: int, samples: int, seed: int) -> Command:
    def run():
        ts = _system(fp, direction)
        est = fp.pressure.lyapunov(ts, n=n, samples=samples, seed=seed)
        return ts.matrices, ts.nu, ts.M, est

    def check(out):
        mats, nu, M, est = out
        problems = checks.check_matrix_family(mats, list(nu), M)
        if direction == (1, 1, 1):
            problems += _menger_111_matrices(mats)
        return problems + checks.check_lyapunov(mats, M, est, n, samples, seed)

    label = f"lyapunov menger {','.join(map(str, direction))} n={n} samples={samples}"
    return Command("api.lyapunov", label, run, check)


def _pressure(fp, t, n: int, mode="exact", samples=10000, seed=0) -> Command:
    def check(stdout):
        ts = _system(fp, (1, 1, 1))
        problems = _menger_111_matrices(ts.matrices)
        if problems:
            return problems
        nu = [float(x) for x in ts.nu]
        problems = checks.check_pressure(json.loads(stdout), ts.matrices, nu, ts.M, t, n, mode,
                                         samples, seed)
        if mode == "exact" and t == 1:
            mass = fp.pressure.pressure(ts, 1, n).mass_sum
            if mass != ts.M**n:
                problems.append(f"exact pressure mass_sum {mass} != M^n = {ts.M**n}")
        return problems

    args = ["pressure", "--ifs", "menger", "--dir", "1,1,1", "--t", str(t), "--n", str(n)]
    if mode == "mc":
        args += ["--mode", "mc", "--samples", str(samples), "--seed", str(seed)]
    return cli_command(fp, args, check)


def montecarlo(fp, seed: int, outdir) -> Workload:
    rng = random.Random(f"montecarlo/{seed}")
    sim_seed, lyap_seed, mc_seed = (rng.randrange(2**32) for _ in range(3))
    return Workload(
        name="montecarlo",
        why="seeded tree simulator plus cocycle Lyapunov and exact/sampled pressure; time "
            "in simulate and pressure, reusing one type system",
        seed_used=True,
        commands=[
            _simulate(fp, sim_seed, SIM_REPLICAS),
            _lyapunov(fp, (1, 1, 1), 400, 250, lyap_seed),
            _lyapunov(fp, (1, 3, 7), 200, 100, lyap_seed),
            _pressure(fp, 0.5, 8),
            _pressure(fp, 0.5, 20, "mc", 5000, mc_seed),
            _pressure(fp, 1, 5),
        ],
        warmup=[_simulate(fp, sim_seed, 1), _lyapunov(fp, (1, 1, 1), 5, 5, lyap_seed),
                _pressure(fp, 0.5, 2), _pressure(fp, 0.5, 2, "mc", 5, mc_seed)],
    )


WORKLOADS = {"slice-grid": slice_grid, "thresholds": thresholds, "montecarlo": montecarlo}


def hooks(fp):
    """(module, attribute, span name, counts) for every layer the trace covers.

    Names are rebound where their callers look them up: the CLI's imported
    names, module globals used inside a layer, and the modules whose public
    functions the benchmark calls directly.
    """
    types = lambda a, k, ts: {"types": ts.N}  # noqa: E731
    witness = lambda a, k, r: {"budget_hits": int(r[1]),  # noqa: E731
                               "witness_len": len(r[0]) if r[0] is not None else 0}

    def pressure_name(a, k):
        return "pressure.pressure_exact" if k.get("mode", "exact") == "exact" else "pressure.pressure_mc"

    def pressure_counts(a, k, est):
        ts, n = a[0], a[2]
        if k.get("mode", "exact") == "exact":
            return {"words": ts.L**n}
        return {"steps": k["samples"] * n}

    def nodes(a, k, s):
        return {"nodes_hashed": s.M * sum(len(level) for level in s.levels[:-1])}

    return [
        (fp.cli, "project_lattice", "lattice.project", None),
        (fp.lattice, "project", "lattice.project", None),
        (fp.cli, "compute_type_system", "type_system.compute_type_system", types),
        (fp.type_system, "compute_type_system", "type_system.compute_type_system", types),
        (fp.cli, "phase_report", "phase.phase_report", None),
        (fp.phase, "positive_row_witness", "phase.positive_row_witness", witness),
        (fp.phase, "spectral_radius", "spectral.spectral_radius",
         lambda a, k, e: {"exact_hits": int(e.lower == e.upper)}),
        (fp.spectral, "char_poly", "spectral.char_poly", None),
        (fp.spectral, "dominates_rho", "spectral.dominates_rho", None),
        (fp.cli, "phase_report_to_json", "serialize.phase_report_to_json", None),
        (fp.cli, "phase_report_to_csv", "serialize.phase_report_to_csv", None),
        (fp.cli, "svg_band_chart", "serialize.svg_band_chart", None),
        (fp.slices, "verify_grid", "slices.verify_grid",
         lambda a, k, r: {"points": r.point_count}),
        (fp.cli, "sample_survival", "simulate.sample_survival", nodes),
        (fp.cli, "project_survival", "simulate.project_survival",
         lambda a, k, r: {"words": len(a[1].retained)}),
        (fp.cli, "pressure_fn", pressure_name, pressure_counts),
        (fp.pressure, "lyapunov", "pressure.lyapunov",
         lambda a, k, r: {"steps": k["n"] * k["samples"]}),
    ]
