import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from oracles import exact_log_pressure, mc_pressure

from fracphase.cli import cli
from fracphase.errors import InputError, check_rational
from fracphase.lattice import menger, project, sierpinski
from fracphase.phase import phase_report
from fracphase.serialize import (
    frac_str,
    ifs_from_json,
    line_ifs_to_json,
    phase_report_to_csv,
    phase_report_to_json,
    svg_band_chart,
)
from fracphase.line_ifs import normalize
from fracphase.type_system import compute_type_system


def test_frac_round_trip():
    for x in (Fraction(1, 6), Fraction(-3, 7), Fraction(5), Fraction(0)):
        assert check_rational(frac_str(x), "x") == x
    assert frac_str(Fraction(4, 2)) == "2"
    with pytest.raises(InputError):
        check_rational("1/0", "x")
    with pytest.raises(InputError):
        check_rational("abc", "x")


def test_ifs_json_round_trip():
    for line in (project(menger(), (1, 1, 1)), normalize(3, [0, 1])):
        assert ifs_from_json(line_ifs_to_json(line)) == line
    assert "applied_factor" not in line_ifs_to_json(project(menger(), (1, 1, 1)))
    cells = [[0, 0], [0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1], [2, 2]]
    assert ifs_from_json({"kind": "lattice", "d": 2, "L": 3, "cells": cells}) == sierpinski()
    with pytest.raises(InputError):
        ifs_from_json({"kind": "mystery"})
    with pytest.raises(InputError):
        ifs_from_json([1, 2, 3])
    with pytest.raises(InputError):
        ifs_from_json({"kind": "line", "L": 3})


# integer fields that int() used to truncate or coerce
NON_INTEGER_IFS = [
    {"kind": "line", "L": 1.7, "translations": [[0, 1], [1, 1]]},
    {"kind": "line", "L": True, "translations": [[0, 1], [1, 1]]},
    {"kind": "line", "L": "3", "translations": [[0, 1], [2, 1]]},
    {"kind": "line", "L": 3, "translations": [[0, 1], [1.7, 1], [2, 1]]},
    {"kind": "line", "L": 3, "translations": [[0.9, 1], [1, 1], [2, 1]]},
    {"kind": "line", "L": 3, "translations": [[0, True], [1, 1], [2, 1]]},
    {"kind": "line", "L": 3, "translations": [[0, 1.5], [1, 1], [2, 1]]},
    {"kind": "lattice", "d": True, "L": 3, "cells": [[0], [2]]},
    {"kind": "lattice", "d": 2, "L": 3.0, "cells": [[0, 0], [2, 2]]},
    {"kind": "lattice", "d": 2, "L": 3, "cells": [[0, 0], [1.7, 0], [2, 2]]},
    {"kind": "lattice", "d": 2, "L": 3, "cells": [[0, 0], [0.9, True], [2, 2]]},
]


# conjugation factors that are not integers >= 1
BAD_FACTOR_IFS = [
    {"kind": "line", "L": 3, "translations": [[0, 1], [2, 1]], "applied_factor": f}
    for f in (0, -2, 1.5, True, "2", None)
]


# L * n_tilde^2 = 2 * 10^10 and 10^9 candidate transition entries
OVERSIZED_IFS = [
    {"kind": "line", "L": 2, "translations": [[0, 1], [100000, 1]]},
    {"kind": "line", "L": 10**9, "translations": [[0, 1], [10**9 - 1, 1]]},
]


DEAD_DIGIT_IFS = [
    {"kind": "line", "L": 3, "translations": [[0, 1], [2, 1]]},
    {"kind": "line", "L": 2, "translations": [[0, 1]]},
]


@pytest.mark.parametrize("data", NON_INTEGER_IFS + BAD_FACTOR_IFS)
def test_ifs_from_json_rejects_non_integers(data):
    with pytest.raises(InputError, match="must be an integer"):
        ifs_from_json(data)


def test_ifs_from_json_rejects_duplicate_cells():
    # a frozenset keeps one of equal cells, so (1,) would hide (1.0,) or (True,)
    for dup in ([1], [1.0], [True]):
        with pytest.raises(InputError):
            ifs_from_json({"kind": "lattice", "d": 1, "L": 3, "cells": [[1], dup]})


def _menger_report_json():
    ts = compute_type_system(project(menger(), (1, 1, 1)))
    return phase_report_to_json(phase_report(ts))


def test_phase_report_json_shape():
    data = _menger_report_json()
    names = [t["name"] for t in data["thresholds"]]
    assert names == [
        "extinction",
        "dimension-one",
        "interval-sufficient",
        "no-interval",
        "positive-measure",
    ]
    by_name = {t["name"]: t for t in data["thresholds"]}
    assert by_name["extinction"]["value_exact"] == "1/20"
    assert by_name["interval-sufficient"]["value_exact"] == "1/6"
    assert by_name["positive-measure"]["value_exact"] == "(288)^(-1/3)"
    assert json.loads(json.dumps(data)) == data  # JSON-serializable


DATA = Path(__file__).parent / "data"


def test_analyze_matches_golden_outputs(tmp_path):
    # the fixtures pin every byte analyze writes, floats and notes included
    runner = CliRunner()
    for args, golden in (
        (["menger", "--dir", "1,1,1"], "menger_1_1_1.json"),
        (["menger", "--dir", "1,3,7"], "menger_1_3_7.json"),
        # no interval row, and positive measure null
        (["menger", "--dir", "1,0,0", "--scale", "3"], "menger_1_0_0_scale3.json"),
        # no digit matrix repeats or mirrors another
        ([str(DATA / "line_2_0_1_3_5.ifs.json")], "line_2_0_1_3_5.json"),
    ):
        result = runner.invoke(cli, ["analyze", *args])
        assert result.exit_code == 0
        assert result.stdout_bytes == (DATA / golden).read_bytes()
    csv_path, svg_path = tmp_path / "report.csv", tmp_path / "bands.svg"
    result = runner.invoke(
        cli,
        ["analyze", "sierpinski", "--dir", "1,-1", "--format", "csv",
         "--out", str(csv_path), "--svg", str(svg_path)],
    )
    assert result.exit_code == 0
    assert csv_path.read_bytes() == (DATA / "sierpinski_1_-1.csv").read_bytes()
    assert svg_path.read_bytes() == (DATA / "sierpinski_1_-1.svg").read_bytes()


def test_phase_report_json_is_byte_stable():
    a = json.dumps(_menger_report_json(), indent=2)
    b = json.dumps(_menger_report_json(), indent=2)
    assert a == b


def test_csv_and_svg_rendering():
    data = _menger_report_json()
    csv = phase_report_to_csv(data)
    lines = csv.strip().split("\n")
    assert lines[0] == "name,theorem,value_exact,value_float"
    assert len(lines) == 1 + len(data["thresholds"])
    svg = svg_band_chart(data)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "1/6" in svg and "positive-measure" in svg


def test_cli_analyze_menger():
    runner = CliRunner()
    result = runner.invoke(cli, ["analyze", "menger", "--dir", "1,1,1"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["ifs"]["L"] == 3
    exacts = {t["name"]: t["value_exact"] for t in data["thresholds"]}
    assert exacts["interval-sufficient"] == "1/6"
    assert exacts["positive-measure"] == "(288)^(-1/3)"


def test_cli_analyze_csv_and_svg(tmp_path):
    runner = CliRunner()
    svg_path = tmp_path / "bands.svg"
    out_path = tmp_path / "report.csv"
    result = runner.invoke(
        cli,
        [
            "analyze", "sierpinski", "--dir", "1,-1",
            "--format", "csv", "--out", str(out_path), "--svg", str(svg_path),
        ],
    )
    assert result.exit_code == 0
    csv = out_path.read_text()
    assert "1/2" in csv and "(18)^(-1/3)" in csv
    assert svg_path.read_text().startswith("<svg")


def test_cli_project_and_json_input(tmp_path):
    runner = CliRunner()
    result = runner.invoke(cli, ["project", "menger", "--dir", "1,0,0"])
    assert result.exit_code == 0
    projected = json.loads(result.output)
    assert projected["translations"] == [[0, 8], [1, 4], [2, 8]]
    # feed the projected line IFS back through a file
    path = tmp_path / "line.json"
    path.write_text(json.dumps(projected))
    again = runner.invoke(cli, ["analyze", str(path), "--scale", "3"])
    assert again.exit_code == 0
    data = json.loads(again.output)
    assert any("zero column" in n for n in data["notes"])


def test_conjugation_note_ends_the_report_notes(tmp_path):
    # normalize(3, [0, 1]) conjugates by 2; the lattice {0, 1} projects to it
    note = "translations were conjugated by factor 2 to repair divisibility"
    assert phase_report(compute_type_system(normalize(3, [0, 1]))).notes[-1] == note
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"kind": "lattice", "d": 1, "L": 3, "cells": [[0], [1]]}))
    runner = CliRunner()
    result = runner.invoke(cli, ["analyze", str(path), "--dir", "1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["notes"].count(note) == 1
    # the projected JSON carries the factor, so analyzing it keeps the note
    projected = tmp_path / "projected.json"
    result = runner.invoke(cli, ["project", str(path), "--dir", "1", "--out", str(projected)])
    assert result.exit_code == 0
    result = runner.invoke(cli, ["analyze", str(projected)])
    assert result.exit_code == 0
    assert json.loads(result.output)["notes"].count(note) == 1


def test_cli_simulate_csv():
    runner = CliRunner()
    result = runner.invoke(
        cli,
        ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "3/10",
         "--depth", "2", "--replicas", "5", "--seed", "1"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "replica,retained_count,proj_measure,longest_run,extinct_level"
    assert len(lines) == 6
    # determinism: same seed, same bytes
    again = runner.invoke(
        cli,
        ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "3/10",
         "--depth", "2", "--replicas", "5", "--seed", "1"],
    )
    assert again.output == result.output


def test_cli_simulate_matches_golden_output():
    # the README command; the fixture pins every realization of the hash scheme
    result = CliRunner().invoke(
        cli,
        ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "3/10",
         "--depth", "4", "--replicas", "50"],
    )
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / "simulate_menger_1_1_1.csv").read_bytes()


def test_cli_pressure_matches_golden_output():
    # exact enumeration over 3^8 words; the fixture pins the float sum bit for bit
    result = CliRunner().invoke(
        cli,
        ["pressure", "--ifs", "menger", "--dir", "1,1,1", "--t", "0.5", "--n", "8"],
    )
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / "pressure_menger_1_1_1_t0.5_n8.json").read_bytes()


def test_cli_pressure():
    runner = CliRunner()
    result = runner.invoke(
        cli,
        ["pressure", "--ifs", "sierpinski", "--dir", "1,-1", "--t", "1", "--n", "4"],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["value_float"] == pytest.approx(1.8927892607143721)


def test_cli_verify_slice_coarse():
    runner = CliRunner()
    result = runner.invoke(cli, ["verify-slice", "--step", "1/12"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["certified"] is False  # far too coarse for the certificate
    assert check_rational(data["min"], "min") > 0


def test_cli_exit_codes():
    runner = CliRunner()
    # lattice source without --dir is an input error
    result = runner.invoke(cli, ["analyze", "menger"], standalone_mode=False)
    assert isinstance(result.exception, InputError)
    # missing file
    result2 = runner.invoke(cli, ["analyze", "/no/such/file.json"], standalone_mode=False)
    assert isinstance(result2.exception, InputError)


def test_main_exit_codes(monkeypatch, capsys, tmp_path):
    import fracphase.cli as climod

    def exits_with_input_error(argv, message="input error"):
        monkeypatch.setattr("sys.argv", ["fracphase", *argv])
        with pytest.raises(SystemExit) as exc:
            climod.main()
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    pressure_argv = ["pressure", "--ifs", "menger", "--dir", "1,1,1", "--n", "2"]
    json_argvs = []
    for k, data in enumerate(NON_INTEGER_IFS + BAD_FACTOR_IFS):
        path = tmp_path / f"non_integer_{k}.json"
        path.write_text(json.dumps(data))
        direction = ["--dir", "1,1"] if data["kind"] == "lattice" else []
        json_argvs.append(["analyze", str(path), *direction])
    # A_1 = 0: sampled words of mass 0 at negative t, as in exact mode
    dead_digit_argvs = []
    for k, data in enumerate(DEAD_DIGIT_IFS):
        path = tmp_path / f"dead_digit_{k}.json"
        path.write_text(json.dumps(data))
        for mode in ("exact", "mc"):
            dead_digit_argvs.append(["pressure", "--ifs", str(path), "--t", "-1", "--n", "3",
                                     "--mode", mode, "--samples", "50"])
    # unreadable inputs: a directory, bytes that are not UTF-8, nesting past
    # the recursion limit, an integer past int's digit limit; unwritable
    # outputs: a path in a missing directory
    (tmp_path / "latin1.json").write_bytes(b'{"kind": "line", "L": 2, "x": "\xe9"}')
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    (tmp_path / "long.json").write_text('{"kind": "line", "L": 1' + "0" * 5000 + "}")
    missing = str(tmp_path / "missing" / "out")
    file_argvs = [["analyze", str(tmp_path / name)]
                  for name in ("", "latin1.json", "deep.json", "long.json")]
    for argv in (["analyze", "menger", "--dir", "1,1,1"], ["project", "menger", "--dir", "1,1,1"],
                 ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "1/2", "--depth", "1",
                  "--replicas", "1"], [*pressure_argv, "--t", "1"],
                 ["verify-slice", "--step", "1/3"]):
        file_argvs.append([*argv, "--out", missing])
    file_argvs.append(["analyze", "menger", "--dir", "1,1,1", "--svg", missing])
    # the least column product 3^1000 and the multiplicity 10^400 are past
    # the float range; analyze answers, the float walks refuse them
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"kind": "line", "L": 1000,
                                "translations": [[t, 3] for t in range(1000)]}))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"kind": "line", "L": 2, "translations": [[0, 10**400], [1, 1]]}))
    for path in (wide, huge):
        monkeypatch.setattr("sys.argv", ["fracphase", "analyze", str(path)])
        climod.main()
        assert '"positive-measure"' in capsys.readouterr().out
    for argv in (
        *json_argvs,
        *file_argvs,
        ["pressure", "--ifs", str(huge), "--t", "0.5", "--n", "2", "--mode", "mc",
         "--samples", "10"],
        ["analyze", "menger"],
        ["analyze", "menger", "--dir", "1,x,1"],
        ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "1/2",
         "--depth", "1", "--replicas", "1", "--seed", "-1"],
        ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "1/2",
         "--replicas", "0"],
        ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "1/2",
         "--replicas", "-3"],
        [*pressure_argv, "--t", "0.5", "--mode", "mc", "--samples", "0"],
        [*pressure_argv, "--t", "0.5", "--samples", "0"],
        [*pressure_argv, "--t", "0.5", "--seed", "-1"],
        [*pressure_argv, "--t", "0.5", "--seed", "18446744073709551616"],
        [*pressure_argv, "--t", "nan"],
        [*pressure_argv, "--t", "inf"],
        [*pressure_argv, "--t", "0.5", "--mode", "mc", "--seed", "-1"],
        [*pressure_argv, "--t", "0.5", "--mode", "mc",
         "--seed", "18446744073709551616"],
        [*pressure_argv, "--t", "0.5", "--mode", "mc", "--samples", "1000000000000"],
        *dead_digit_argvs,
        ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "3/10",
         "--depth", "60", "--replicas", "1"],
        ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "1",
         "--depth", "9", "--replicas", "1"],
        ["verify-slice", "--step", "1/5000000"],
    ):
        exits_with_input_error(argv)
    # every sampled word of L = 2 {0} dies; nothing leaves the float range
    path = tmp_path / "dead_digit_1.json"
    exits_with_input_error(["pressure", "--ifs", str(path), "--t", "0.5", "--n", "20",
                            "--mode", "mc", "--samples", "50"],
                           "input error: every sampled word has mass 0")
    # 3^10000 has more digits than an int may print, and 3^(10^7) takes seconds
    for n in ("10000", "10000000"):
        exits_with_input_error(["pressure", "--ifs", "menger", "--dir", "1,1,1", "--t", "0.5",
                                "--n", n], f"needs 3^{n} words, budget is 1000000")
    # one past the int64 range of the grid kernel, the only limit on the step
    exits_with_input_error(["verify-slice", "--step", "1/4340345"],
                           "grid step denominator 4340345 exceeds 4340344")
    # Monte Carlo pressure works in logs: m(w)^1000 and L^n = 3^700 are past the float
    # range, and the estimate is still finite; only a t log m(w) past it is refused
    ts = compute_type_system(project(menger(), (1, 1, 1)))
    for t, n, samples in (("1000", 2, 50), ("0", 700, 10), ("0.01", 700, 10), ("0.5", 700, 10)):
        monkeypatch.setattr("sys.argv", ["fracphase", "pressure", "--ifs", "menger", "--dir",
                                         "1,1,1", "--t", t, "--n", str(n), "--mode", "mc",
                                         "--samples", str(samples)])
        climod.main()
        got = json.loads(capsys.readouterr().out)
        want = mc_pressure(ts, float(t), n, samples, 0)
        assert (got["value_float"], got["stderr_float"]) == pytest.approx(want, rel=1e-12)
    # exact pressure redoes a float sum past the float range in logs, as Monte Carlo does
    for t in ("1000", "-1000", "-200"):
        monkeypatch.setattr("sys.argv", ["fracphase", "pressure", "--ifs", "menger", "--dir",
                                         "1,1,1", "--t", t, "--n", "3"])
        climod.main()
        got = json.loads(capsys.readouterr().out)["value_float"]
        assert got == pytest.approx(exact_log_pressure(ts, float(t), 3), rel=1e-12)
    for t in ("1e308", "-1e308"):
        for mode in ("exact", "mc"):
            exits_with_input_error(["pressure", "--ifs", "menger", "--dir", "1,1,1", "--t", t,
                                    "--n", "5", "--mode", mode, "--samples", "50"],
                                   f"input error: sums of m(w)^t at t = {float(t)}, n = 5 leave "
                                   "the float range (0, 1.79769e+308]; use a smaller |t|")
    # over the candidate budget the type system is refused before it is built:
    # building either one would allocate far more than 1 MiB
    for k, data in enumerate(OVERSIZED_IFS):
        path = tmp_path / f"oversized_{k}.json"
        path.write_text(json.dumps(data))
        tracemalloc.start()
        try:
            exits_with_input_error(["analyze", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    monkeypatch.setattr(
        "sys.argv", ["fracphase", "analyze", "menger", "--dir", "1,1,1"]
    )
    climod.main()  # success path: returns normally
    assert '"interval-sufficient"' in capsys.readouterr().out


def test_in_process_invocations_do_not_retain_output():
    # click caches a wrapper per sys.stdout object unless echo gets file=;
    # under CliRunner each invocation's stdout is new, so the cache kept every
    # output buffer alive
    import gc

    runner = CliRunner()
    argv = ["analyze", "menger", "--dir", "1,1,1"]

    def invoke(times):
        for _ in range(times):
            result = runner.invoke(cli, argv)
            assert result.exit_code == 0
        return len(result.stdout_bytes)

    invoke(5)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        out_len = invoke(40)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 10 * out_len  # retaining 40 outputs would be >= 40 * out_len


def test_main_maps_unexpected_exceptions_to_4(monkeypatch, capsys):
    import fracphase.cli as climod

    def broken(ifs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(climod, "compute_type_system", broken)
    monkeypatch.setattr("sys.argv", ["fracphase", "analyze", "menger", "--dir", "1,1,1"])
    with pytest.raises(SystemExit) as exc:
        climod.main()
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert err == "internal error: ZeroDivisionError: division by zero\n"
