"""The exit-code contract under fuzzed input.

Every argv of every subcommand, every JSON file given to ``analyze``, and
every normal-form line IFS given to ``pressure`` exits with 0 (ok), 2 (input)
or 3 (ambiguity), and never prints a traceback: exit 4 (invariant) is a bug.
Depth, replicas, samples, n and the grid step are capped so that each
example runs well under a second; ``--threads`` stays at most 1 so that no
example starts a process pool.

At the library boundary, an integer argument that is not an ``int`` (a float,
even an integral one, a bool, a string, None or a numpy integer) or is out of
its range, and a rational argument that ``Fraction`` rejects, raise
``InputError`` and nothing else.
"""

import contextlib
import io
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fracphase.cli import _load_ifs, cli, main
from fracphase.errors import InputError, check_int, check_rational
from fracphase.lattice import LatticeIFS, make_direction
from fracphase.line_ifs import LineIFS, normalize, scale
from fracphase.phase import RootThreshold, extinction_probability, phase_report
from fracphase.pressure import lyapunov, pressure
from fracphase.simulate import _check_seed, interface_process, sample_survival, stream
from fracphase.slices import plane, verify_grid
from fracphase.spectral import char_poly, spectral_radius
from fracphase.type_system import compute_type_system

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
        # str() refuses an int past 4,300 digits, so messages must not echo one
        "--p": st.fractions(-1, 2, max_denominator=12).map(str)
        | st.sampled_from(["1e10000", "1e-30000000"]),
        "--depth": st.integers(-1, 3).map(str),
        "--replicas": st.integers(-1, 3).map(str),
        "--seed": SEEDS,
    },
    "pressure": {
        "--ifs": SOURCES,
        "--dir": DIRECTIONS,
        "--t": st.sampled_from(
            ["0", "1", "0.5", "-0.5", "2", "1000", "-1000", "1e308", "-1e308", "nan", "inf",
             "-inf"]
        ),
        # L^n = 3^647 is past the float range; Monte Carlo pressure takes its mean in
        # logs, so n >= 647 answers there, while exact mode refuses n past 12 (3^n words)
        "--n": (st.integers(-1, 7) | st.sampled_from([646, 647, 700, 5000])).map(str),
        "--mode": st.sampled_from(["exact", "mc", "x"]),
        "--samples": st.integers(-1, 200).map(str),
        "--seed": SEEDS,
    },
    "verify-slice": {
        "--step": st.sampled_from(
            ["1/3", "2/9", "1/7", "1/20", "0", "-1/3", "1/2", "1e5000", "1e-5000", "1e-30000000"]
        ),
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


CANTOR = normalize(3, [0, 2])
CANTOR_TS = compute_type_system(CANTOR)

# one call per library entry point and argument, with that argument replaced
# by v: (call, whether the argument has a lower bound of 0 or more)
INT_ARGS = {
    "LatticeIFS d": (lambda v: LatticeIFS(d=v, L=3, cells=frozenset({(0,)})), True),
    "LatticeIFS L": (lambda v: LatticeIFS(d=1, L=v, cells=frozenset({(0,)})), True),
    "LatticeIFS cell": (lambda v: LatticeIFS(d=2, L=3, cells=frozenset({(v, 0)})), True),
    "LineIFS L": (lambda v: LineIFS(v, ((0, 1), (2, 1))), True),
    "LineIFS translation": (lambda v: LineIFS(3, ((0, 1), (v, 1))), False),
    "LineIFS multiplicity": (lambda v: LineIFS(3, ((0, 1), (2, v))), True),
    "LineIFS applied_factor": (lambda v: LineIFS(3, ((0, 1), (2, 1)), v), True),
    "normalize L": (lambda v: normalize(v, [0, 2]), True),
    "normalize translation": (lambda v: normalize(3, [0, v]), False),
    "scale factor": (lambda v: scale(CANTOR, v), True),
    "make_direction": (lambda v: make_direction([1, v]), False),
    "RootThreshold base": (lambda v: RootThreshold(v, 2), True),
    "RootThreshold root": (lambda v: RootThreshold(8, v), True),
    "extinction_probability M": (lambda v: extinction_probability(v, 0.9), True),
    "sample_survival M": (lambda v: sample_survival(v, Fraction(1, 2), 2, 0), True),
    "sample_survival depth": (lambda v: sample_survival(20, Fraction(1, 2), v, 0), True),
    "sample_survival seed": (lambda v: sample_survival(20, Fraction(1, 2), 2, v), True),
    "stream seed": (lambda v: stream(v, 0), True),
    "stream index": (lambda v: stream(0, v), True),
    "_check_seed": (_check_seed, True),
    "interface_process depth": (lambda v: interface_process(0.5, v, 3), True),
    "interface_process replicas": (lambda v: interface_process(0.5, 2, v), True),
    "interface_process seed": (lambda v: interface_process(0.5, 2, 3, v), True),
    "pressure n": (lambda v: pressure(CANTOR_TS, 0.5, v), True),
    "pressure samples": (lambda v: pressure(CANTOR_TS, 0.5, 2, samples=v), True),
    "pressure seed": (lambda v: pressure(CANTOR_TS, 0.5, 2, seed=v), True),
    "pressure mc samples": (lambda v: pressure(CANTOR_TS, 0.5, 2, "mc", samples=v), True),
    "lyapunov n": (lambda v: lyapunov(CANTOR_TS, v, 5), True),
    "lyapunov samples": (lambda v: lyapunov(CANTOR_TS, 2, v), True),
    "lyapunov seed": (lambda v: lyapunov(CANTOR_TS, 2, 5, v), True),
    "verify_grid workers": (lambda v: verify_grid(Fraction(1, 3), workers=v), True),
}
RATIONAL_ARGS = {
    "sample_survival p": lambda v: sample_survival(20, v, 2, 0),
    "verdict p": lambda v: phase_report(CANTOR_TS).verdict("extinction", v),
    "verify_grid step": lambda v: verify_grid(v),
    "RootThreshold.sign p": lambda v: RootThreshold(8, 2).sign(v),
    "plane a": lambda v: plane(v, 0, 0),
    "extinction_probability p": lambda v: extinction_probability(3, v),
    "interface_process p": lambda v: interface_process(v, 2, 3),
}
BAD_INTS = [2.5, 3.0, math.nan, math.inf, None, True, "3", np.int64(3)]
BAD_RATIONALS = [math.nan, math.inf, None, "x"]


@st.composite
def bad_calls(draw):
    """An entry point with one integer or rational argument replaced by a bad value."""
    if draw(st.integers(0, 4)):
        name = draw(st.sampled_from(sorted(INT_ARGS)))
        call, bounded = INT_ARGS[name]
        value = draw(st.sampled_from(BAD_INTS + [-1] * bounded))
    else:
        name = draw(st.sampled_from(sorted(RATIONAL_ARGS)))
        call, value = RATIONAL_ARGS[name], draw(st.sampled_from(BAD_RATIONALS))
    event(name)
    return call, value


@settings(max_examples=300, deadline=None)
@given(bad_calls())
def test_bad_library_arguments_raise_input_error(case):
    call, value = case
    with pytest.raises(InputError):
        call(value)


def _cli(*argv):
    cli.main(list(argv), standalone_mode=False)


# each raised OverflowError, TypeError or ValueError, or returned a value,
# before every argument went through errors.check_int or check_rational
NAMED_BAD_CALLS = {
    "LineIFS multiplicity 1.5": lambda: LineIFS(3, ((0, 1.5), (2, 1))),
    "RootThreshold root 2.0": lambda: RootThreshold(8, 2.0),
    "normalize translation 2.0": lambda: normalize(3, [0, 2.0]),
    "sample_survival depth 2.5": lambda: sample_survival(20, 0.5, 2.5, 0),
    "sample_survival p nan": lambda: sample_survival(20, float("nan"), 2, 0),
    "stream index -1": lambda: stream(0, -1),
    "stream index 2**64": lambda: stream(0, 2**64),
    "interface_process depth 2.5": lambda: interface_process(0.5, 2.5, 3),
    "verify_grid workers 1.0": lambda: verify_grid(Fraction(1, 30), 1.0),
    "verify_grid step x": lambda: verify_grid("x"),
    "interface_process p x": lambda: interface_process("x", 2, 3),
    "extinction_probability p None": lambda: extinction_probability(3, None),
    "plane a x": lambda: plane("x", 0, 0),
    "RootThreshold.sign p x": lambda: RootThreshold(8, 2).sign("x"),
    "extinction_probability M 2.5": lambda: extinction_probability(2.5, 0.9),
    "LatticeIFS L 3.0": lambda: LatticeIFS(d=2, L=3.0, cells=frozenset({(0, 0)})),
    "LatticeIFS cell np.int64": lambda: LatticeIFS(d=1, L=3, cells=frozenset({(np.int64(1),)})),
    "scale factor 2.0": lambda: scale(CANTOR, 2.0),
    "make_direction True": lambda: make_direction([1, True]),
    "pressure t '0.5'": lambda: pressure(CANTOR_TS, "0.5", 3),
    "pressure t None": lambda: pressure(CANTOR_TS, None, 3),
    "pressure t True": lambda: pressure(CANTOR_TS, True, 3),
    "pressure n np.int64": lambda: pressure(CANTOR_TS, 0.5, np.int64(3)),
    "pressure samples 2.0": lambda: pressure(CANTOR_TS, 0.5, 2, "mc", samples=2.0),
    "lyapunov seed 1.0": lambda: lyapunov(CANTOR_TS, 2, 5, seed=1.0),
    "lyapunov n 2.0": lambda: lyapunov(CANTOR_TS, 2.0, 5),
    "verdict p inf": lambda: phase_report(CANTOR_TS).verdict("extinction", math.inf),
    "char_poly entry x": lambda: char_poly([["x"]]),
    "char_poly entry nan": lambda: char_poly([[float("nan")]]),
    "char_poly matrix 5": lambda: char_poly(5),
    "spectral_radius entry True": lambda: spectral_radius([[True, False], [True, True]]),
    "spectral_radius entry np.int64": lambda: spectral_radius([[np.int64(3)]]),
    "spectral_radius np.array": lambda: spectral_radius(np.array([[2, 1], [1, 2]])),
    "cli --replicas 0": lambda: _cli("simulate", "--ifs", "menger", "--dir", "1,1,1",
                                     "--p", "1/2", "--replicas", "0"),
    "cli --p x": lambda: _cli("simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "x"),
    "cli --step 1/0": lambda: _cli("verify-slice", "--step", "1/0"),
    # these raised ValueError from str() of an int past 4,300 digits in the message
    "check_int 10**5000": lambda: check_int(10**5000, "n", 0, 10),
    "check_int hi 10**5000": lambda: check_int(-1, "n", 0, 10**5000),
    "check_rational 10**5000": lambda: check_rational(10**5000, "p", 0, 1),
    "check_rational 10**-5000": lambda: check_rational(Fraction(-1, 10**5000), "p", 0, 1),
    "verify_grid step 10**-5000": lambda: verify_grid(Fraction(1, 10**5000)),
    "sample_survival p 10**10000": lambda: sample_survival(20, 10**10000, 2, 0),
    # Fraction would parse these for tens of seconds
    "check_rational '1e-30000000'": lambda: check_rational("1e-30000000", "p"),
    "check_rational 1,001 characters": lambda: check_rational("1" * 999 + "/3", "p"),
}


@pytest.mark.parametrize("call", NAMED_BAD_CALLS.values(), ids=list(NAMED_BAD_CALLS))
def test_named_bad_calls_raise_input_error(call):
    with pytest.raises(InputError):
        call()


HUGE_L = 10**4000  # the line below needs L * (t_max / (L-1))^2 = 10^4400 candidate entries
HUGE_LINE = {"kind": "line", "L": HUGE_L, "translations": [[0, 1], [(HUGE_L - 1) * 10**200, 1]]}


@pytest.mark.parametrize("argv", [
    ["verify-slice", "--step", "1e-5000"],
    ["verify-slice", "--step", "1e5000"],
    ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "1e10000", "--replicas", "1"],
    ["analyze", "HUGE_LINE"],
    ["pressure", "--ifs", "HUGE_LINE", "--t", "1", "--n", "2"],
    ["verify-slice", "--step", "1e-30000000"],
    ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "1e-30000000", "--replicas", "1"],
], ids=["step 1e-5000", "step 1e5000", "p 1e10000", "analyze huge L", "pressure huge L",
        "step 1e-30000000", "p 1e-30000000"])
def test_huge_numbers_exit_2_with_one_short_input_error_line(argv, tmp_path):
    # the first five exited 4: the message's str() of an int past 4,300 digits
    # raised ValueError; the last two took about 45 s, parsing 10^30000000
    path = tmp_path / "huge_line.json"
    path.write_text(json.dumps(HUGE_LINE), encoding="utf-8")
    start = time.perf_counter()
    code, err = run([str(path) if a == "HUGE_LINE" else a for a in argv])
    assert time.perf_counter() - start < 5
    assert code == 2, err
    assert err.startswith("input error:") and err.count("\n") == 1 and len(err) < 200, err


@pytest.mark.parametrize("translations, direction, message", [
    ([], None, "translation set is empty"),
    ([[0, 1], [2, 1], [2, 1]], None, "translations must be strictly increasing"),
    ([[0, 1], [2, 1]], "1,1", "--dir only applies to lattice inputs"),
], ids=["empty translation set", "repeated translation", "--dir on a line input"])
def test_line_input_rules_exit_2_with_one_input_error_line(translations, direction, message,
                                                           tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"kind": "line", "L": 3, "translations": translations}))
    with pytest.raises(InputError) as exc:
        _load_ifs(str(path), direction, None)
    assert str(exc.value) == message
    argv = ["analyze", str(path), *([] if direction is None else ["--dir", direction])]
    assert run(argv) == (2, f"input error: {message}\n")
    result = CliRunner().invoke(cli, argv)
    assert isinstance(result.exception, InputError) and str(result.exception) == message
