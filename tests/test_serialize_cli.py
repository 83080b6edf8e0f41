import json
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from fracphase.cli import cli
from fracphase.errors import InputError
from fracphase.lattice import menger, project, sierpinski
from fracphase.phase import phase_report
from fracphase.serialize import (
    frac_str,
    ifs_from_json,
    lattice_to_json,
    line_ifs_to_json,
    parse_frac,
    phase_report_to_csv,
    phase_report_to_json,
    svg_band_chart,
)
from fracphase.type_system import compute_type_system


def test_frac_round_trip():
    for x in (Fraction(1, 6), Fraction(-3, 7), Fraction(5), Fraction(0)):
        assert parse_frac(frac_str(x)) == x
    assert frac_str(Fraction(4, 2)) == "2"
    with pytest.raises(InputError):
        parse_frac("1/0")
    with pytest.raises(InputError):
        parse_frac("abc")


def test_ifs_json_round_trip():
    line = project(menger(), (1, 1, 1))
    assert ifs_from_json(line_ifs_to_json(line)) == line
    lat = sierpinski()
    assert ifs_from_json(lattice_to_json(lat)) == lat
    with pytest.raises(InputError):
        ifs_from_json({"kind": "mystery"})
    with pytest.raises(InputError):
        ifs_from_json([1, 2, 3])
    with pytest.raises(InputError):
        ifs_from_json({"kind": "line", "L": 3})


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
    for direction in ("1,1,1", "1,3,7"):
        result = runner.invoke(cli, ["analyze", "menger", "--dir", direction])
        assert result.exit_code == 0
        golden = DATA / f"menger_{direction.replace(',', '_')}.json"
        assert result.stdout_bytes == golden.read_bytes()
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
    assert parse_frac(data["min"]) > 0


def test_cli_exit_codes():
    runner = CliRunner()
    # lattice source without --dir is an input error
    result = runner.invoke(cli, ["analyze", "menger"], standalone_mode=False)
    assert isinstance(result.exception, InputError)
    # missing file
    result2 = runner.invoke(cli, ["analyze", "/no/such/file.json"], standalone_mode=False)
    assert isinstance(result2.exception, InputError)


def test_main_exit_codes(monkeypatch, capsys):
    import fracphase.cli as climod

    pressure_argv = ["pressure", "--ifs", "menger", "--dir", "1,1,1", "--n", "2"]
    for argv in (
        ["analyze", "menger"],
        ["analyze", "menger", "--dir", "1,x,1"],
        ["simulate", "--ifs", "menger", "--dir", "1,1,1", "--p", "1/2",
         "--depth", "1", "--replicas", "1", "--seed", "-1"],
        [*pressure_argv, "--t", "0.5", "--mode", "mc", "--samples", "0"],
        [*pressure_argv, "--t", "nan"],
        [*pressure_argv, "--t", "inf"],
        [*pressure_argv, "--t", "0.5", "--mode", "mc", "--seed", "-1"],
        [*pressure_argv, "--t", "0.5", "--mode", "mc",
         "--seed", "18446744073709551616"],
    ):
        monkeypatch.setattr("sys.argv", ["fracphase", *argv])
        with pytest.raises(SystemExit) as exc:
            climod.main()
        assert exc.value.code == 2
        assert "input error" in capsys.readouterr().err
    monkeypatch.setattr(
        "sys.argv", ["fracphase", "analyze", "menger", "--dir", "1,1,1"]
    )
    climod.main()  # success path: returns normally
    assert '"interval-sufficient"' in capsys.readouterr().out
