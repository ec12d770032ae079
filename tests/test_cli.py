import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xdeficit
from xdeficit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


class TestDeficitCommand:
    def test_pure_bell(self, capsys):
        code, out, _ = run_cli(capsys, "deficit", "1", "0")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["delta_bits"] == "1"
        assert rows[0]["branch"] == "AtZero"
        assert rows[0]["tie"] == "true"

    def test_interior_landmark(self, capsys):
        code, out, _ = run_cli(capsys, "deficit", "0.61554", "0")
        rows = parse_csv(out)
        assert code == 0
        assert float(rows[0]["delta_bits"]) == pytest.approx(0.60157, abs=5e-4)
        assert rows[0]["branch"] == "Interior"

    def test_domain_violation_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "deficit", "0.6", "0.6")
        assert code == 2
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        assert "q1 + q2 <= 1" in payload["error"]

    def test_csv_header_exact(self, capsys):
        _, out, _ = run_cli(capsys, "deficit", "0.3", "0.2")
        assert out.splitlines()[0] == "q1,q2,delta_bits,branch,theta_opt_rad,tie"


class TestShapeCommand:
    def test_bimodal_landmark(self, capsys):
        code, out, _ = run_cli(capsys, "shape", "0.7205", "0.0295")
        assert code == 0
        assert "# shape_class=Bimodal" in out
        header = [ln for ln in out.splitlines() if not ln.startswith("#")][0]
        assert header == "theta_rad,post_entropy_bits,deficit_bits"

    def test_unimodal_axis(self, capsys):
        _, out, _ = run_cli(capsys, "shape", "0.65", "0")
        assert "# shape_class=InteriorMinimum" in out

    def test_corner_shape(self, capsys):
        _, out, _ = run_cli(capsys, "shape", "0", "0")
        assert "# shape_class=MonotoneIncreasing" in out

    @pytest.mark.parametrize("samples", ["1", "0", "-1"])
    def test_too_few_curve_samples_exit_2(self, capsys, samples):
        code, out, err = run_cli(capsys, "shape", "0.65", "0", "--curve-samples", samples)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        assert "--curve-samples" in payload["error"]

    def test_json_has_extrema(self, capsys):
        _, out, _ = run_cli(capsys, "shape", "0.7205", "0.0295", "--format", "json")
        payload = json.loads(out)
        assert payload["shape_class"] == "Bimodal"
        kinds = sorted(e["kind"] for e in payload["extrema"])
        assert kinds == ["max", "min"]
        assert len(payload["rows"]) == 257


class TestScanCommand:
    def test_transitions_on_075(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "0.75", "2000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        qs = [t["q1"] for t in payload["transitions"]]
        assert qs[0] == pytest.approx(0.72159, abs=1e-3)
        assert qs[1] == pytest.approx(0.72358, abs=1e-3)
        assert len(payload["rows"]) == 2000

    def test_single_transition_on_08(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "0.8", "1000", "--format", "json")
        payload = json.loads(out)
        assert len(payload["transitions"]) == 1
        assert payload["transitions"][0]["q1"] == pytest.approx(0.769269, abs=1e-3)

    def test_no_transitions_on_low_total(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "0.2", "200", "--format", "json")
        assert json.loads(out)["transitions"] == []

    def test_bad_total_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "1.5", "200")
        assert code == 2
        assert json.loads(err)["exit_code"] == 2

    def test_csv_header_exact(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "0.3", "100")
        header = [ln for ln in out.splitlines() if not ln.startswith("#")][0]
        assert header == "q1,q2,delta_bits,branch,theta_opt_rad"


class TestTable1Command:
    def test_reference_q1_reproduced(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 7
        for row in rows:
            assert float(row["dev_q1"]) < 1e-4

    def test_reference_angles_reproduced(self, capsys):
        _, out, _ = run_cli(capsys, "table1")
        for row in parse_csv(out):
            assert float(row["dev_jump_angle_rad"]) < 5e-4

    def test_degrees_flag(self, capsys):
        _, out, _ = run_cli(capsys, "table1", "--degrees")
        rows = parse_csv(out)
        assert float(rows[-1]["jump_angle_deg"]) == pytest.approx(90.0, abs=1e-9)


class TestFidelityCommand:
    def test_landmark_pair(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity", "0.5", "0", "0.67515", "0")
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["fidelity"]) == pytest.approx(0.968, abs=1e-3)


class TestOracleCheckCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--grid", "8", "--random", "40", "--seed", "42"
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["status"] == "pass"
        assert float(rows[0]["max_abs_deviation_bits"]) < 1e-10

    @pytest.mark.parametrize(
        "argv",
        [
            ("--grid", "0", "--random", "0"),  # no comparison at all
            ("--grid", "2", "--random", "-3"),
            ("--grid", "2", "--tol", "nan"),
            ("--grid", "2", "--tol", "-1"),
        ],
        ids=["empty", "negative-random", "nan-tol", "negative-tol"],
    )
    def test_meaningless_check_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "oracle-check", *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["exit_code"] == 2


class TestBoundariesCommand:
    def test_rows_schema_and_kinds(self, capsys):
        code, out, _ = run_cli(capsys, "boundaries", "--resolution", "100")
        assert code == 0
        header = [ln for ln in out.splitlines() if not ln.startswith("#")][0]
        assert header == "kind,q1,q2,residual"
        rows = parse_csv(out)
        kinds = {row["kind"] for row in rows}
        assert kinds == {
            "EqualEndpoints",
            "HalfPiBifurcation",
            "JumpBoundary",
            "ZeroBifurcationAxis",
        }


class TestPhaseDiagramCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "phase-diagram",
            "--resolution", "100",
            "--theta-grid", "128",
            "--threads", "1",
        )
        assert code == 0
        comment = [ln for ln in out.splitlines() if ln.startswith("# area_fraction")][0]
        fraction = float(comment.split("=")[1])
        assert 0.005 <= fraction <= 0.02
        header = [ln for ln in out.splitlines() if not ln.startswith("#")][0]
        assert header == "q1,q2,branch,delta_bits,theta_opt_rad"


class TestOutputConventions:
    @pytest.mark.parametrize(
        "argv",
        [
            ("deficit", "0.61554", "0"),
            ("shape", "0.7205", "0.0295", "--curve-samples", "17"),
            ("scan", "0.75", "100"),
            ("boundaries", "--resolution", "100"),
            ("table1",),
            ("phase-diagram", "--resolution", "100", "--theta-grid", "128"),
            ("oracle-check", "--grid", "3", "--random", "4"),
            ("fidelity", "0.5", "0", "0.67515", "0"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_json_and_csv_values_agree(self, capsys, argv):
        code, out_csv, _ = run_cli(capsys, *argv)
        assert code == 0
        _, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(out_json)

        def agree(text, value):
            if isinstance(value, bool):
                return text == ("true" if value else "false")
            if isinstance(value, (int, float)):
                return float(text) == value
            return text == value  # strings, "nan" and "inf" included

        csv_rows = parse_csv(out_csv)
        assert csv_rows and len(csv_rows) == len(payload["rows"])
        header = [ln for ln in out_csv.splitlines() if not ln.startswith("#")][0]
        assert header.split(",") == list(payload["rows"][0])
        for csv_row, json_row in zip(csv_rows, payload["rows"]):
            for key, value in json_row.items():
                assert agree(csv_row[key], value), (key, csv_row[key], value)
        # each JSON extra that a CSV comment also carries
        twins = {"area_fraction_interior", "unresolved_cells", "flagged_gaps", "shape_class"}
        seen = set()
        for line in out_csv.splitlines():
            key, _, text = line.removeprefix("# ").partition("=")
            if line.startswith("#") and key in twins:
                assert agree(text, payload[key]), (key, text, payload[key])
                seen.add(key)
        assert seen == twins & payload.keys()

    def test_json_envelope(self, capsys):
        _, out, _ = run_cli(capsys, "fidelity", "0.3", "0", "0.3", "0", "--format", "json")
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["command"] == "fidelity"
        assert "params" in payload and "rows" in payload

    def test_precision_flag(self, capsys):
        _, out, _ = run_cli(capsys, "fidelity", "0.5", "0", "0.67515", "0",
                            "--precision", "12")
        rows = parse_csv(out)
        assert rows[0]["fidelity"] == "0.96831877765"

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "scan", "0.75", "150")
        _, second, _ = run_cli(capsys, "scan", "0.75", "150")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "deficit", "0.3", "0.2", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("q1,q2,delta_bits")

    def test_unopenable_output_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, "deficit", "0.3", "0.2", "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        assert str(target) in payload["error"]

    def test_closed_stdout_exits_141_quietly(self):
        # the scan writes far more than a pipe buffer holds, so the write
        # after the reader closes its end must fail
        src = str(Path(xdeficit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "xdeficit.cli", "scan", "0.75", "5000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"# total=0.75\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""
