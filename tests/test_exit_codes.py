"""The exit-code contract under fuzzed input.

Every argv of every subcommand, every JSON file given to ``analyze``, and
every normal-form line IFS given to ``pressure`` exits with 0 (ok), 2 (input)
or 3 (ambiguity), and never prints a traceback: exit 4 (invariant) is a bug.
Depth, replicas, samples, n and the grid step are capped so that each
example runs well under a second; ``--threads`` stays at most 1 so that no
example starts a process pool.
"""

import contextlib
import io
import json
import sys

from hypothesis import event, given, settings
from hypothesis import strategies as st

from fracphase.cli import main

JUNK = st.sampled_from(["", "x", "1/0", "nan", "-", "1,", "0x10", "1e400", "--", "é"])
SOURCES = st.sampled_from(["menger", "sierpinski", "no-such-input.json"])


DIRECTIONS = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
    lambda v: ",".join(map(str, v))
)
SEEDS = st.sampled_from([-1, 0, 1, 2**63 + 5, 2**64 - 1, 2**64]).map(str)

# option -> values, per subcommand; the values are well formed but may be out
# of range, and one in ten is replaced by junk
OPTIONS = {
    "analyze": {
        "--dir": DIRECTIONS,
        "--scale": st.integers(-1, 4).map(str),
        "--format": st.sampled_from(["json", "csv", "xml"]),
    },
    "project": {"--dir": DIRECTIONS},
    "simulate": {
        "--ifs": SOURCES,
        "--dir": DIRECTIONS,
        "--p": st.fractions(-1, 2, max_denominator=12).map(str),
        "--depth": st.integers(-1, 3).map(str),
        "--replicas": st.integers(-1, 3).map(str),
        "--seed": SEEDS,
    },
    "pressure": {
        "--ifs": SOURCES,
        "--dir": DIRECTIONS,
        "--t": st.sampled_from(
            ["0", "1", "0.5", "-0.5", "2", "1000", "-1000", "nan", "inf", "-inf"]
        ),
        # 3^647 leaves the float range: Monte Carlo pressure computes L^n in logs
        "--n": (st.integers(-1, 7) | st.sampled_from([646, 647, 700, 5000])).map(str),
        "--mode": st.sampled_from(["exact", "mc", "x"]),
        "--samples": st.integers(-1, 200).map(str),
        "--seed": SEEDS,
    },
    "verify-slice": {
        "--step": st.sampled_from(["1/3", "2/9", "1/7", "1/20", "0", "-1/3", "1/2"]),
        "--threads": st.sampled_from(["-1", "0", "1"]),
    },
}
TAKES_SOURCE = {"analyze", "project"}
REQUIRED = {"--ifs", "--p", "--t", "--n"}


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from([*sorted(OPTIONS), "", "bogus"]))
    argv = [cmd] if cmd else []
    if cmd in TAKES_SOURCE and draw(st.integers(0, 4)):
        argv.append(draw(SOURCES))
    for opt, values in OPTIONS.get(cmd, {}).items():
        if draw(st.integers(0, 9)) < (9 if opt in REQUIRED else 5):
            argv += [opt, draw(JUNK if draw(st.integers(0, 9)) == 0 else values)]
    return argv + draw(st.sampled_from([[], [], [], ["--bogus"], ["stray"], ["--help"]]))


def run(argv) -> tuple[int, str]:
    """Exit code and standard error of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["fracphase", *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main()
                code = 0
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.argv = saved
    return code, err.getvalue()


def check(argv) -> None:
    code, err = run(argv)
    event(f"{argv[0] if argv else '(none)'} exit {code}")
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    check(argv)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(-5, 5) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=8,
)
@st.composite
def normal_lines(draw):
    """A line IFS in normal form: t_0 = 0 and (L - 1) divides t_max."""
    L = draw(st.integers(2, 4))
    top = draw(st.integers(0, 3)) * (L - 1)
    ts = {0, top} | set(draw(st.lists(st.integers(0, top), max_size=3)))
    return {"kind": "line", "L": L,
            "translations": [[t, draw(st.integers(1, 3))] for t in sorted(ts)]}


@st.composite
def lattices(draw):
    d, L = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    cell = st.lists(st.integers(0, L - 1), min_size=d, max_size=d)
    return {"kind": "lattice", "d": d, "L": L,
            "cells": draw(st.lists(cell, min_size=1, max_size=2 * d + 2))}


LINE = st.fixed_dictionaries({
    "kind": st.just("line"),
    "L": st.integers(-1, 5),
    "translations": st.lists(st.lists(st.integers(-2, 8), min_size=2, max_size=2),
                             max_size=4),
})
LATTICE = st.fixed_dictionaries({
    "kind": st.just("lattice"),
    "d": st.integers(0, 3),
    "L": st.integers(0, 3),
    "cells": st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=6),
})


@st.composite
def json_inputs(draw):
    """A schema-shaped object, maybe with one field dropped or replaced, or any JSON."""
    kind = draw(st.sampled_from(["shaped", "broken", "value", "text"]))
    if kind == "text":
        return draw(st.text(max_size=12))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES))
    data = draw(LINE | LATTICE | normal_lines() | lattices())
    if kind == "broken":
        key = draw(st.sampled_from(sorted(data)))
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(JSON_VALUES)
    return json.dumps(data)


@settings(max_examples=150, deadline=None)
@given(text=json_inputs(), direction=st.none() | DIRECTIONS)
def test_fuzzed_analyze_json_keeps_the_exit_code_contract(tmp_path_factory, text, direction):
    path = tmp_path_factory.getbasetemp() / "fuzzed_ifs.json"
    path.write_text(text, encoding="utf-8")
    check(["analyze", str(path)] + ([] if direction is None else ["--dir", direction]))


@settings(max_examples=60, deadline=None)
@given(data=normal_lines())
def test_fuzzed_pressure_keeps_the_exit_code_contract(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed_line.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for mode in ("exact", "mc"):
        for t in ("0", "-1", "0.5"):
            check(["pressure", "--ifs", str(path), "--t", t, "--n", "3", "--mode", mode,
                   "--samples", "50"])
