"""Command-line interface.

Exit codes: 0 ok, 2 input error, 3 analysis ambiguity, 4 internal invariant
failure or any other unexpected exception.
"""

from __future__ import annotations

import json
import sys

import click

from .errors import AmbiguityError, InputError, InvariantError, check_int, check_rational
from .lattice import LatticeIFS, menger, project as project_lattice, sierpinski
from .line_ifs import LineIFS, scale as scale_ifs
from .phase import phase_report
from .pressure import pressure as pressure_fn
from .serialize import (
    frac_str,
    ifs_from_json,
    line_ifs_to_json,
    phase_report_to_csv,
    phase_report_to_json,
    svg_band_chart,
)
from .simulate import project_survival, sample_survival
from .type_system import compute_type_system

BUILTINS = {"menger": menger, "sierpinski": sierpinski}


def _load_ifs(source: str, direction: str | None, scale_factor: int | None) -> LineIFS:
    """Resolve a builtin name or JSON path (plus --dir/--scale) to a LineIFS."""
    if source in BUILTINS:
        obj = BUILTINS[source]()
    else:
        try:
            with open(source, encoding="utf-8") as fh:
                obj = ifs_from_json(json.load(fh))
        except OSError as exc:
            raise InputError(f"cannot read input: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep or long
            raise InputError(f"invalid JSON in {source}: {exc}") from exc
    if isinstance(obj, LatticeIFS):
        if direction is None:
            raise InputError("a lattice IFS needs --dir")
        try:
            vec = [int(x) for x in direction.split(",")]
        except ValueError as exc:
            raise InputError(f"--dir must be comma-separated integers, got {direction!r}") from exc
        obj = project_lattice(obj, vec)
    elif direction is not None:
        raise InputError("--dir only applies to lattice inputs")
    if scale_factor is not None:
        obj = scale_ifs(obj, scale_factor)
    return obj


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        click.echo(text, file=sys.stdout, nl=not text.endswith("\n"))


@click.group()
def cli() -> None:
    """Phase analysis and simulation for coin-tossing self-similar sets."""


@cli.command()
@click.argument("source")
@click.option("--dir", "direction", default=None, help="projection direction, e.g. 1,1,1")
@click.option("--scale", "scale_factor", type=int, default=None,
              help="analyze the scaled (conjugated) representation")
@click.option("--out", default=None, help="output path (default: stdout)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--svg", "svg_path", default=None, help="also write an SVG band chart")
def analyze(source, direction, scale_factor, out, fmt, svg_path) -> None:
    """Full pipeline: normalize -> type system -> phase report."""
    ifs = _load_ifs(source, direction, scale_factor)
    report_json = phase_report_to_json(phase_report(compute_type_system(ifs)))
    if svg_path:
        _write(svg_path, svg_band_chart(report_json))
    if fmt == "csv":
        _emit(phase_report_to_csv(report_json), out)
    else:
        _emit(json.dumps(report_json, indent=2), out)


@cli.command()
@click.argument("source")
@click.option("--dir", "direction", default=None, help="projection direction")
@click.option("--out", default=None)
def project(source, direction, out) -> None:
    """Project a lattice IFS to its line IFS and print the JSON form."""
    ifs = _load_ifs(source, direction, None)
    _emit(json.dumps(line_ifs_to_json(ifs), indent=2), out)


@cli.command()
@click.option("--ifs", "source", required=True)
@click.option("--dir", "direction", default=None)
@click.option("--p", "p", required=True)
@click.option("--depth", type=int, default=6)
@click.option("--replicas", type=int, default=100)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
def simulate(source, direction, p, depth, replicas, seed, out) -> None:
    """Run seeded replicas and emit per-replica statistics as CSV."""
    check_int(replicas, "--replicas", 1)
    ifs = _load_ifs(source, direction, None)
    pf = check_rational(p, "--p")
    rows = ["replica,retained_count,proj_measure,longest_run,extinct_level"]
    for r in range(replicas):
        s = sample_survival(ifs.M, pf, depth, seed + r)
        cov = project_survival(ifs, s)
        extinct = s.extinct_level
        rows.append(
            f"{r},{s.retained_count},{float(cov.measure)!r},"
            f"{cov.longest_run},{'' if extinct is None else extinct}"
        )
    _emit("\n".join(rows) + "\n", out)


@cli.command()
@click.option("--ifs", "source", required=True)
@click.option("--dir", "direction", default=None)
@click.option("--t", "t", type=float, required=True)
@click.option("--n", "n", type=int, required=True)
@click.option("--mode", type=click.Choice(["exact", "mc"]), default="exact")
@click.option("--samples", type=int, default=10000)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
def pressure(source, direction, t, n, mode, samples, seed, out) -> None:
    """Finite-depth pressure of the matrix cocycle."""
    ifs = _load_ifs(source, direction, None)
    ts = compute_type_system(ifs)
    est = pressure_fn(ts, t, n, mode=mode, samples=samples, seed=seed)
    payload = {
        "t": est.t,
        "n": est.n,
        "value_float": est.value,
        "method": est.method,
        "stderr_float": est.stderr,
    }
    _emit(json.dumps(payload, indent=2), out)


@cli.command("verify-slice")
@click.option("--step", default="1/500", help="grid step, a rational like 1/500")
@click.option("--threads", type=int, default=1)
@click.option("--out", default=None)
def verify_slice(step, threads, out) -> None:
    """Certify the plane-slice inequality on the grid region."""
    from .slices import verify_grid

    report = verify_grid(check_rational(step, "--step"), workers=threads)
    payload = {
        "step": frac_str(report.d_hat),
        "point_count": report.point_count,
        "min": frac_str(report.minimum),
        "argmin": [frac_str(x) for x in report.argmin],
        "certified": report.certified,
        "wall_time_float": report.wall_time,
        "workers": report.workers,
    }
    _emit(json.dumps(payload, indent=2), out)


def main() -> None:
    try:
        cli(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except click.Abort:
        sys.exit(1)
    except InputError as exc:
        click.echo(f"input error: {exc}", file=sys.stderr)
        sys.exit(2)
    except AmbiguityError as exc:
        click.echo(f"ambiguous analysis: {exc}", file=sys.stderr)
        sys.exit(3)
    except InvariantError as exc:
        click.echo(f"internal invariant failure: {exc}", file=sys.stderr)
        sys.exit(4)
    except Exception as exc:  # a bug: report it on one line, like an invariant
        click.echo(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(4)


if __name__ == "__main__":
    main()
