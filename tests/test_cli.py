"""Command-line behavior: formats, reproducibility, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tfglass
from tfglass import DistributionSpec, concave_hull, qgrem_critical_fields, qgrem_pressure
from tfglass.cli import main
from tfglass.model import FieldSpec

from oracles import REM_PRESSURE_B12


@pytest.fixture
def models(tmp_path):
    paths = {}
    paths["rem"] = tmp_path / "rem.json"
    paths["rem"].write_text(json.dumps({"kind": "step", "x": [1.0], "A": [1.0]}))
    paths["grem2"] = tmp_path / "grem2.json"
    paths["grem2"].write_text(json.dumps({"kind": "step", "x": [0.5, 1.0], "jumps": [0.7, 0.3]}))
    paths["nh2"] = tmp_path / "nh2.json"
    paths["nh2"].write_text(json.dumps(
        {"n": 2, "L": [0.5, 0.5], "weights": {"1": 0.2, "2": 0.3, "1,2": 0.5}}
    ))
    n = 21
    paths["nh_big"] = tmp_path / "nh_big.json"
    paths["nh_big"].write_text(json.dumps(
        {"n": n, "L": [1.0 / n] * n, "weights": {",".join(str(i) for i in range(1, n + 1)): 1.0}}
    ))
    return paths


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: config=")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


class TestPressure:
    def test_single_point_rem(self, models, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["pressure", "--model", str(models["rem"]), "--beta", "1.2",
                   "--gamma", "1.0", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["beta", "gamma_or_law", "classical", "quantum", "argmax", "block_phases"]
        (row,) = rows
        assert float(row[3]) == pytest.approx(REM_PRESSURE_B12, abs=1e-12)
        assert row[4] == "1" and row[5] == "C"

    def test_gamma_grid_switches_branch_at_critical_field(self, models, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["pressure", "--model", str(models["rem"]), "--beta", "1.0",
                   "--gamma", "0:2:81", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        hull = concave_hull(DistributionSpec.rem())
        (gc,) = qgrem_critical_fields(hull, 1.0)
        classical = [float(r[1]) for r in rows if r[5] == "C"]
        para = [float(r[1]) for r in rows if r[5] == "P"]
        step = 2.0 / 80
        assert max(classical) <= gc + step
        assert min(para) >= gc - step

    def test_rows_match_library_exactly_after_roundtrip(self, models, tmp_path):
        out = tmp_path / "p.csv"
        main(["pressure", "--model", str(models["grem2"]), "--beta", "0.5:2.5:7",
              "--gamma", "0:2:5", "--out", str(out)])
        hull = concave_hull(DistributionSpec.from_jumps([0.7, 0.3], [0.5, 1.0]))
        _, rows = read_rows(out)
        for row in rows:
            beta, gamma = float(row[0]), float(row[1])
            want = qgrem_pressure(hull, beta, FieldSpec.constant(gamma)).value
            assert float(row[3]) == want  # 17 significant digits round-trip

    def test_byte_identical_reruns(self, models, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["pressure", "--model", str(models["grem2"]), "--beta", "0.2:3:11",
                "--gamma", "0:2:11"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_field_labels_keep_column_structure(self, models, tmp_path):
        # law labels must not smuggle commas into the CSV
        out = tmp_path / "p.csv"
        for field in ("gaussian:0.5,1.5", "constant:1.0"):
            main(["pressure", "--model", str(models["rem"]), "--beta", "1.1",
                  "--field", field, "--out", str(out)])
            header, rows = read_rows(out)
            assert all(len(row) == len(header) for row in rows)


class TestErrors:
    def test_empty_grid_is_usage_error(self, models, tmp_path):
        rc = main(["pressure", "--model", str(models["rem"]), "--beta", "1:2:0",
                   "--gamma", "1.0", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_gamma_and_field_conflict(self, models, tmp_path):
        rc = main(["pressure", "--model", str(models["rem"]), "--beta", "1.0",
                   "--gamma", "1.0", "--field", "constant:1.0", "--out", "-"])
        assert rc == 1

    def test_unreadable_model(self, tmp_path):
        rc = main(["pressure", "--model", str(tmp_path / "missing.json"), "--beta", "1.0",
                   "--gamma", "1.0", "--out", "-"])
        assert rc == 2

    def test_wrong_model_kind(self, models):
        assert main(["pressure", "--model", str(models["nh2"]), "--beta", "1.0",
                     "--gamma", "1.0", "--out", "-"]) == 2
        assert main(["nonhier", "--model", str(models["rem"]), "--beta", "1.0",
                     "--gamma", "1.0", "--out", "-"]) == 2

    def test_non_finite_nonhier_model_is_validation_error(self, tmp_path):
        path = tmp_path / "nh_nan.json"
        path.write_text(json.dumps({"n": 2, "L": [0.5, 0.5],
                                    "weights": {"1": math.nan, "2": 0.5, "1,2": 0.5}}))
        assert "NaN" in path.read_text()
        rc = main(["nonhier", "--model", str(path), "--beta", "1.2", "--gamma", "1.0", "--out", "-"])
        assert rc == 2

    def test_capacity_exit_code(self, models):
        rc = main(["nonhier", "--model", str(models["nh_big"]), "--beta", "1.0",
                   "--gamma", "0.5", "--out", "-"])
        assert rc == 4

    def test_exact_above_the_dense_gate_exits_with_capacity(self, models, capsys):
        rc = main(["verify", "--model", str(models["rem"]), "--field", "constant:1.0",
                   "--beta", "1.2", "--N", "14", "--replicas", "2", "--seed", "1",
                   "--method", "exact", "--out", "-"])
        assert rc == 4
        assert last_error(capsys)["error"] == "capacity"

    @pytest.mark.parametrize("argv", [
        ["pressure", "--beta", "nan", "--gamma", "1.0"],
        ["pressure", "--beta", "1.0", "--gamma", "inf"],
        ["phase-diagram", "--beta", "inf", "--gamma", "0:2:5"],
    ])
    def test_non_finite_grid_is_validation_error(self, models, argv):
        assert main(argv + ["--model", str(models["rem"]), "--out", "-"]) == 2

    def test_missing_seed_for_verify(self, models):
        rc = main(["verify", "--model", str(models["rem"]), "--field", "constant:1.0",
                   "--beta", "1.2", "--N", "4", "--replicas", "5", "--out", "-"])
        assert rc == 1


class TestPhaseDiagram:
    def test_rem_has_single_magnetic_line_per_beta(self, models, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["phase-diagram", "--model", str(models["rem"]), "--beta", "0.8:1.6:3",
                   "--gamma", "0:2:21", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(tmp_path / "grid-transitions.csv")
        magnetic = [r for r in rows if r[0] == "magnetic"]
        betas = {r[2] for r in magnetic}
        assert len(magnetic) == 3 and len(betas) == 3
        glass = [r for r in rows if r[0] == "glass"]
        assert len(glass) == 1
        assert float(glass[0][2]) == pytest.approx(math.sqrt(2 * math.log(2)), abs=1e-12)

    def test_grid_contains_pressure_and_magnetization(self, models, tmp_path):
        out = tmp_path / "grid.csv"
        main(["phase-diagram", "--model", str(models["grem2"]), "--beta", "1.2",
              "--gamma", "0:2:5", "--out", str(out)])
        header, rows = read_rows(out)
        assert header == ["beta", "gamma", "pressure", "m_z"]
        assert len(rows) == 5
        mzs = [float(r[3]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(mzs, mzs[1:]))


class TestTies:
    def test_beta_zero_rows_are_paramagnetic(self, tmp_path):
        # the 50-segment profile A(x) = 1.5 x - 0.5 x^2: every segment ties at beta = 0
        xs = [k / 50 for k in range(1, 51)]
        model = tmp_path / "smooth50.json"
        model.write_text(json.dumps({"kind": "piecewise_linear", "x": xs,
                                     "A": [1.5 * x - 0.5 * x * x for x in xs]}))
        out = tmp_path / "p.csv"
        assert main(["pressure", "--model", str(model), "--beta", "0", "--gamma", "0:2:41",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 41
        for row in rows:
            assert row[4] == "0" and set(row[5]) == {"P"}
            assert row[3] == row[2]

    def test_collinear_breakpoints_give_one_line_per_segment(self, tmp_path):
        # the first five breakpoints are collinear: the envelope has slopes 2, 1, 0
        model = tmp_path / "collinear.json"
        model.write_text(json.dumps({"kind": "piecewise_linear", "x": [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6, 1.0],
                                     "A": [1 / 3, 1 / 2, 2 / 3, 5 / 6, 1.0, 1.0]}))
        out = tmp_path / "grid.csv"
        assert main(["phase-diagram", "--model", str(model), "--beta", "1.2", "--gamma", "0:2:5",
                     "--out", str(out)]) == 0
        _, rows = read_rows(tmp_path / "grid-transitions.csv")
        magnetic = [r for r in rows if r[0] == "magnetic"]
        glass = [r for r in rows if r[0] == "glass"]
        assert len(magnetic) == 2 and len(glass) == 2
        run = [r for r in magnetic if abs(float(r[3]) - 1.1229480166519983) < 1e-9]
        assert len(run) == 1 and float(run[0][5]) == pytest.approx(0.5823, abs=1e-4)
        assert abs(float(glass[0][2]) - float(glass[1][2])) > 0.1


class TestNonHier:
    def test_columns_and_greedy_agreement(self, models, tmp_path):
        out = tmp_path / "nh.csv"
        rc = main(["nonhier", "--model", str(models["nh2"]), "--beta", "0.6:2.4:4",
                   "--gamma", "0:1.5:4", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["beta", "gamma_or_law", "classical", "quantum", "argmax_D",
                          "greedy_quantum", "greedy_order"]
        for row in rows:
            assert float(row[3]) == pytest.approx(float(row[5]), abs=1e-10)

    def test_rounded_tie_gives_the_one_round_order(self, tmp_path):
        path, out = tmp_path / "nh-tie.json", tmp_path / "nh-tie.csv"
        path.write_text(json.dumps({"n": 2, "L": [0.5, 0.5],
                                    "weights": {"2": 0.5, "1": 1 / 6, "1,2": 1 / 3}}))
        assert main(["nonhier", "--model", str(path), "--beta", "0.5:2.5:5",
                     "--gamma", "0:2:5", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert len(rows) == 25 and {row[header.index("greedy_order")] for row in rows} == {"1|2"}


class TestVerify:
    def test_pass_and_fail_paths(self, models, tmp_path):
        out = tmp_path / "v.csv"
        base = ["verify", "--model", str(models["rem"]), "--field", "constant:1.0",
                "--beta", "1.2", "--N", "4,6", "--replicas", "20", "--seed", "11",
                "--out", str(out)]
        assert main(base + ["--tol-limit-gap", "0.6"]) == 0
        header, rows = read_rows(out)
        assert header == ["replica", "N", "beta", "gamma_or_law", "phi_N"]
        assert len(rows) == 40
        assert main(base + ["--tol-limit-gap", "0.001"]) == 3

    def test_byte_identical_reruns(self, models, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["verify", "--model", str(models["grem2"]), "--field", "gaussian:0,1",
                "--beta", "1.0", "--N", "5", "--replicas", "10", "--seed", "3",
                "--tol-limit-gap", "1.0"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_stochastic_estimate_exits_with_capacity(self, models, monkeypatch, capsys):
        # a nan replica stops verify with a capacity error instead of being averaged in
        from tfglass import verify

        def nan_estimate(inst, beta, probes, *, seed=0, tol=None):
            return verify.StochasticPressure(math.nan, math.inf, False, probes, 0)

        monkeypatch.setattr(verify, "stochastic_pressure", nan_estimate)
        rc = main(["verify", "--model", str(models["rem"]), "--field", "constant:1.0",
                   "--beta", "8", "--N", "9", "--replicas", "4", "--seed", "3",
                   "--method", "stochastic", "--probes", "16", "--out", "-"])
        assert rc == 4
        assert last_error(capsys)["error"] == "capacity"

    def test_glass_phase_stochastic_replicas_within_three_error_bars(self, models, tmp_path):
        # the beta = 8 reproducer exits 0, each replica within three error
        # bars of the dense pressure of its instance
        from tfglass import exact_pressure, sample_instance, stochastic_pressure

        out = tmp_path / "b8.csv"
        rc = main(["verify", "--model", str(models["rem"]), "--field", "constant:1.0",
                   "--beta", "8", "--N", "9", "--replicas", "4", "--seed", "3",
                   "--method", "stochastic", "--probes", "16", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert len(rows) == 4
        rem, field = DistributionSpec.rem(), FieldSpec.constant(1.0)
        for row in rows:
            r, phi = int(row[header.index("replica")]), float(row[header.index("phi_N")])
            inst = sample_instance(rem, field, 9, [3, 9, r + 1])
            err = stochastic_pressure(inst, 8.0, 16, seed=[3, 9, r + 1]).error
            assert abs(phi - exact_pressure(inst, 8.0)) <= 3.0 * err, r


    def test_csv_alone_on_stdout(self, models, capsys):
        # the skipped-concentration note and the PASS/FAIL lines go to stderr
        rc = main(["verify", "--model", str(models["rem"]), "--field", "constant:1.0",
                   "--beta", "0.8:1.2:2", "--N", "4,5", "--replicas", "3", "--seed", "11",
                   "--tol-limit-gap", "1", "--out", "-"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("# manifest: config=") and lines[0].endswith(" seed=11")
        assert lines[1] == "replica,N,beta,gamma_or_law,phi_N"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2 * 2 * 3 and all(len(row) == 5 for row in rows)
        assert all(float(row[4]) > 0.0 for row in rows)
        err = captured.err.splitlines()
        assert sum(line.startswith("note: concentration check skipped") for line in err) == 2
        assert sum(line.startswith("PASS ") for line in err) == 4


def last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with one validation line,
    like an input file that cannot be read."""

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("argv", [
        ["pressure", "--model", "{grem2}", "--beta", "1.2", "--gamma", "0:1:2", "--out", "{bad}"],
        ["phase-diagram", "--model", "{grem2}", "--beta", "1.2", "--gamma", "0:1:3",
         "--out", "{ok}", "--transitions-out", "{bad}"],
        ["verify", "--model", "{rem}", "--field", "constant:1.0", "--beta", "1.2", "--N", "4",
         "--replicas", "3", "--seed", "11", "--tol-limit-gap", "1", "--out", "{bad}"],
    ], ids=["pressure", "phase-diagram-transitions", "verify"])
    def test_exits_2_with_one_validation_line(self, models, tmp_path, capsys, argv, target):
        bad = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        paths = {"grem2": models["grem2"], "rem": models["rem"], "ok": tmp_path / "ok.csv", "bad": bad}
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        errors = [json.loads(line) for line in captured.err.splitlines() if line.startswith("{")]
        assert len(errors) == 1 and errors[0]["error"] == "validation"
        assert str(bad) in errors[0]["message"]
        assert captured.out == ""


class TestMalformedValues:
    @pytest.mark.parametrize("extra", [
        ["--beta", "1.0", "--field", "constant:abc"],
        ["--beta", "1.0", "--gamma", "0:1:x"],
        ["--beta", "a:b:3", "--gamma", "1.0"],
    ], ids=["field-strength", "grid-count", "grid-bounds"])
    def test_unparseable_option_is_usage_error(self, models, capsys, extra):
        assert main(["pressure", "--model", str(models["rem"]), "--out", "-", *extra]) == 1
        assert last_error(capsys)["error"] == "usage"

    @pytest.mark.parametrize("law, content", [
        ("discrete", None),
        ("empirical", {"samples": [0.5, 1.0]}),
        ("empirical", "not json"),
        ("discrete", [[1.0, 0.5, 2.0]]),
        ("discrete", [[True, 1.0]]),
        ("discrete", [["1", 1.0]]),
        ("empirical", [True]),
    ], ids=["missing", "not-a-list", "not-json", "bad-atom", "boolean-value", "string-value",
            "boolean-sample"])
    def test_bad_field_file_is_validation_error(self, models, tmp_path, capsys, law, content):
        path = tmp_path / "field.json"
        if content is not None:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        rc = main(["pressure", "--model", str(models["rem"]), "--beta", "1.0",
                   "--field", f"{law}:{path}", "--out", "-"])
        assert rc == 2
        assert last_error(capsys)["error"] == "validation"

    @pytest.mark.parametrize("doc", [
        {"n": 2, "L": [0.5, 0.5], "weights": {"1": 0.3, "01": 0.3, "2": 0.7}},
        {"n": 2, "L": [0.5, 0.5], "weights": {"1,2": 0.3, " 1,2": 0.3, "2": 0.7}},
        {"n": 1, "L": [1.0], "weights": [1]},
        {"n": 1, "L": [1.0], "weights": {"1": "x"}},
        {"n": 1, "L": [1.0], "weights": {"1": None}},
        {"n": 1.5, "L": [1.0], "weights": {"1": 1.0}},
        {"n": True, "L": [1.0], "weights": {"1": 1.0}},
        {"n": 1, "L": [1.0], "weights": {"1": True}},
        {"n": 1, "L": [1.0], "weights": {"1": "1.0"}},
        {"n": 1, "L": "1", "weights": {"1": 1.0}},
        {"n": 1, "L": [True], "weights": {"1": 1.0}},
    ], ids=["repeated-singleton", "repeated-pair", "weights-list", "weight-string", "weight-null",
            "fractional-n", "boolean-n", "boolean-weight", "numeric-string-weight", "string-lengths",
            "boolean-length"])
    def test_malformed_nonhier_model_is_validation_error(self, tmp_path, capsys, doc):
        path = tmp_path / "nh.json"
        path.write_text(json.dumps(doc))
        assert main(["nonhier", "--model", str(path), "--beta", "1.2", "--gamma", "1.0", "--out", "-"]) == 2
        assert last_error(capsys)["error"] == "validation"

    @pytest.mark.parametrize("doc", [
        {"kind": "step", "x": ["1"], "A": [True]},
        {"kind": "step", "x": [1.0], "A": [True]},
        {"kind": "step", "x": "1", "A": [1.0]},
        {"kind": "step", "x": [1.0], "jumps": ["1.0"]},
    ], ids=["string-breakpoint", "boolean-value", "string-breakpoints", "string-jump"])
    def test_loose_profile_numbers_are_validation_error(self, tmp_path, capsys, doc):
        path = tmp_path / "grem.json"
        path.write_text(json.dumps(doc))
        assert main(["pressure", "--model", str(path), "--beta", "1.2", "--gamma", "1.0", "--out", "-"]) == 2
        assert last_error(capsys)["error"] == "validation"

    def test_non_boolean_normalized_flag_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "grem.json"
        path.write_text(json.dumps({"kind": "step", "x": [1.0], "A": [1.0], "normalized": "no"}))
        assert main(["pressure", "--model", str(path), "--beta", "1.2", "--gamma", "1.0", "--out", "-"]) == 2
        assert last_error(capsys)["error"] == "validation"

    @pytest.mark.parametrize("replicas", ["0", "1"])
    def test_verify_needs_two_replicas(self, models, capsys, replicas):
        rc = main(["verify", "--model", str(models["rem"]), "--field", "constant:1.0",
                   "--beta", "1.2", "--N", "4", "--replicas", replicas, "--seed", "1", "--out", "-"])
        assert rc == 2
        assert last_error(capsys)["error"] == "validation"

    def test_negative_seed_is_validation_error(self, models, capsys):
        rc = main(["verify", "--model", str(models["rem"]), "--field", "constant:1.0",
                   "--beta", "1.2", "--N", "4", "--replicas", "4", "--seed", "-1", "--out", "-"])
        assert rc == 2
        assert "non-negative" in last_error(capsys)["message"]

    @pytest.mark.parametrize("flag", ["--jump-tol", "--slope-tol", "--cluster-gap"])
    def test_non_finite_transition_tolerance_is_validation_error(self, models, tmp_path, capsys, flag):
        rc = main(["phase-diagram", "--model", str(models["rem"]), "--beta", "1.0", "--gamma", "0:2:5",
                   flag, "nan", "--out", str(tmp_path / "grid.csv")])
        assert rc == 2
        assert last_error(capsys)["error"] == "validation"

    @pytest.mark.parametrize("argv", [
        ["pressure", "--gamma", "1.0"],
        ["phase-diagram", "--gamma", "0:2:5"],
        ["nonhier", "--gamma", "1.0"],
    ], ids=["pressure", "phase-diagram", "nonhier"])
    def test_seed_only_on_verify(self, models, capsys, argv):
        model = models["nh2" if argv[0] == "nonhier" else "rem"]
        rc = main(argv + ["--model", str(model), "--beta", "1.0", "--seed", "3", "--out", "-"])
        assert rc == 1
        assert last_error(capsys)["error"] == "usage"


class TestManifest:
    # digests of the configurations the subcommands wrote before the config
    # was derived from the parsed options; output path and --workers stay out
    @pytest.mark.parametrize("argv, line", [
        (["pressure", "--model", "rem.json", "--beta", "1.2", "--gamma", "1.0"],
         "# manifest: config=2fc9d7b387b918b37d947b6a017fcbedc8012752f72d4b5fc600cf4b1f8f60e7 seed=-"),
        (["phase-diagram", "--model", "rem.json", "--beta", "0.8:1.6:3", "--gamma", "0:2:5"],
         "# manifest: config=c1729f6ec2fde87af1f0e560805d6d507284b08d085a066757e59b612167468e seed=-"),
        (["nonhier", "--model", "nh2.json", "--beta", "1.2", "--field", "constant:1.0"],
         "# manifest: config=d8aa286f004c934240ec6014c463302fbc1e209768ff74bbefe281162a6d45c7 seed=-"),
        (["verify", "--model", "rem.json", "--field", "constant:1.0", "--beta", "1.2", "--N", "4",
          "--replicas", "4", "--seed", "11", "--tol-limit-gap", "1", "--workers", "1"],
         "# manifest: config=0feea82734b9440c60369583f5f32b807428439566e3fd1973542429dd17c28b seed=11"),
    ], ids=["pressure", "phase-diagram", "nonhier", "verify"])
    def test_digest_pinned(self, models, tmp_path, monkeypatch, argv, line):
        monkeypatch.chdir(tmp_path)  # the model path is part of the configuration
        assert main(argv + ["--out", "out.csv"]) == 0
        assert (tmp_path / "out.csv").read_text().splitlines()[0] == line


def test_limit_commands_do_not_load_scipy(tmp_path):
    """scipy is loaded by the finite-size paths only: importing tfglass and
    running the README's pressure, phase-diagram and nonhier examples leaves
    scipy.sparse and scipy.special unimported, while tfglass.verify is."""
    (tmp_path / "grem.json").write_text(json.dumps({"kind": "step", "x": [0.5, 1.0], "jumps": [0.7, 0.3]}))
    (tmp_path / "nonhier.json").write_text(json.dumps(
        {"n": 2, "L": [0.5, 0.5], "weights": {"1": 0.2, "2": 0.3, "1,2": 0.5}}))
    script = """
import json, sys
import tfglass
from tfglass.cli import main
assert main(["pressure", "--model", "grem.json", "--beta", "0.5:2.5:21", "--gamma", "0:2:41", "--out", "p.csv"]) == 0
assert main(["phase-diagram", "--model", "grem.json", "--beta", "0.5:2.5:21", "--gamma", "0:2:201",
             "--out", "grid.csv"]) == 0
assert main(["nonhier", "--model", "nonhier.json", "--beta", "0.5:2.5:5", "--gamma", "0:2:5", "--out", "nh.csv"]) == 0
print(json.dumps({name: name in sys.modules for name in ("scipy.sparse", "scipy.special", "tfglass.verify")}))
"""
    src = str(Path(tfglass.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {"scipy.sparse": False, "scipy.special": False, "tfglass.verify": True}
