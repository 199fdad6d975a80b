"""Command-line behavior: formats, reproducibility, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import tfglass
from tfglass import DistributionSpec, concave_hull, concentration_check, qgrem_critical_fields, qgrem_pressure
from tfglass.cli import GRID_MAX_POINTS, _fmt, load_model, main, parse_grid
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

    def test_block_phases_switch_at_every_critical_field_of_a_smooth_hull(self, tmp_path):
        # 50 segments, a gamma step (0.005) below the smallest gap between critical fields (0.0104)
        xs = [k / 50 for k in range(1, 51)]
        model = tmp_path / "smooth50.json"
        model.write_text(json.dumps({"kind": "piecewise_linear", "x": xs, "A": [1.5 * x - 0.5 * x * x for x in xs]}))
        out = tmp_path / "p.csv"
        assert main(["pressure", "--model", str(model), "--beta", "1.2", "--gamma", "0:2:401",
                     "--out", str(out)]) == 0
        crit = qgrem_critical_fields(concave_hull(load_model(str(model))), 1.2)
        _, rows = read_rows(out)
        for row in rows:
            k = int(row[4])
            assert row[5] == "C" * k + "P" * (50 - k)
            assert k == sum(gc > float(row[1]) for gc in crit), row  # classical below its critical field
        assert {int(row[4]) for row in rows} == set(range(51))

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

    def test_rows_are_formatted_as_they_are_computed(self, models, tmp_path):
        # 10^5 rows (6.6 MB of CSV): holding every row tuple and line beside the text peaked at
        # 68 MB; with only the text and the laws of the field grid it is 41 MB
        out = tmp_path / "p.csv"
        tracemalloc.start()
        try:
            rc = main(["pressure", "--model", str(models["grem2"]), "--beta", "1.2", "--gamma", "0:2:100000",
                       "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert rc == 0 and len(read_rows(out)[1]) == 100_000
        assert peak <= 48.0, f"tracemalloc peak {peak:.1f} MB"

    @pytest.mark.parametrize("argv, labels", [
        (["--gamma", "0:1:3"], ["0", "0.5", "1"]),
        (["--gamma", "0.1"], ["0.10000000000000001"]),
        (["--field", "constant:0.1"], ["0.10000000000000001"]),
        (["--field", "gaussian:0.5,0.3"], ["gaussian:0.5;0.29999999999999999"]),
        (["--field", "discrete:{dir}/atoms.json"], ["discrete:0.5@0.25;1.5@0.75"]),
        (["--field", "empirical:{dir}/samples.json"], ["empirical:n=3"]),
    ], ids=["gamma-grid", "gamma-point", "constant", "gaussian", "discrete", "empirical"])
    def test_law_column_is_pinned_for_every_law(self, models, tmp_path, argv, labels):
        (tmp_path / "atoms.json").write_text(json.dumps([[0.5, 0.25], [1.5, 0.75]]))
        (tmp_path / "samples.json").write_text(json.dumps([0.1, 0.7, 1.3]))
        out = tmp_path / "p.csv"
        assert main(["pressure", "--model", str(models["grem2"]), "--beta", "0.5:1:2",
                     *[a.format(dir=tmp_path) for a in argv], "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [row[1] for row in rows] == labels * 2  # beta-major

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

    def test_wrong_model_kind(self, models, tmp_path):
        # pressure reads any model through its hull; nonhier still needs a non-hierarchical one
        grid = ["--model", str(models["nh2"]), "--beta", "0.5:2.5:5", "--gamma", "0:2:5"]
        assert main(["pressure", *grid, "--out", str(tmp_path / "p.csv")]) == 0
        assert main(["nonhier", *grid, "--out", str(tmp_path / "nh.csv")]) == 0
        (p_header, p_rows), (nh_header, nh_rows) = read_rows(tmp_path / "p.csv"), read_rows(tmp_path / "nh.csv")
        quantum = p_header.index("quantum")
        assert quantum == nh_header.index("quantum") and len(p_rows) == len(nh_rows) == 25
        assert [r[quantum] for r in p_rows] == [r[quantum] for r in nh_rows]
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

    @pytest.mark.parametrize("argv, cells", [
        (["pressure", "--beta", "1.0", "--gamma", f"0:1:{GRID_MAX_POINTS + 1}"], None),
        (["pressure", "--beta", "0:1:100000000000", "--gamma", "1.0"], None),
        (["pressure", "--beta", "0:1:101", "--gamma", "0:1:9901"], 101 * 9901),
        (["phase-diagram", "--beta", "0:1:9901", "--gamma", "0:1:101"], 101 * 9901),
        (["nonhier", "--beta", "0:1:101", "--gamma", "0:1:9901"], 101 * 9901),
        (["verify", "--beta", "0:1:100000000000", "--field", "constant:1.0", "--N", "4",
          "--replicas", "2", "--seed", "1"], None),
    ], ids=["grid", "huge-grid", "pressure-cells", "phase-diagram-cells", "nonhier-cells", "verify-grid"])
    def test_grid_beyond_the_gate_is_a_capacity_error(self, models, tmp_path, capsys, argv, cells):
        # before numpy allocates the grid (745 GiB at 1e11 points) and before the model is reduced
        if cells is not None:
            assert cells == GRID_MAX_POINTS + 1
        out = tmp_path / "out.csv"
        assert main([*argv, "--model", str(models["nh2"]), "--out", str(out)]) == 4
        assert last_error(capsys)["error"] == "capacity"
        assert not out.exists()

    def test_grid_at_the_gate_parses(self):
        grid = parse_grid(f"0:1:{GRID_MAX_POINTS}")
        assert len(grid) == GRID_MAX_POINTS and grid[0] == 0.0 and grid[-1] == 1.0

    @pytest.mark.parametrize("Ns, code", [("-4", 2), ("6,-4", 2), ("0", 2), ("6,21", 4),
                                          ("6,14 --method exact", 4), ("6,12 --probes 0", 2)])
    def test_every_N_is_checked_before_any_replica_runs(self, models, capsys, monkeypatch, Ns, code):
        # N = -4 would reach a negative shift count (exit 1), and N = 6 would run before it; the
        # exact gate and the probe count of N = 14 and N = 12 were read after every N = 6 replica
        from tfglass import verify

        def no_replicas(*args, **kwargs):
            raise AssertionError("a replica ran before every N was checked")

        for name in ("_replica_phis", "sample_instance"):
            monkeypatch.setattr(verify, name, no_replicas)
        rc = main(["verify", "--model", str(models["rem"]), "--field", "constant:1.0", "--beta", "1.2",
                   "--N", *Ns.split(), "--replicas", "2", "--seed", "1", "--out", "-"])
        assert rc == code
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == ("validation" if code == 2 else "capacity")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, code, fragment", [
        (["pressure", "--model", "{list}", "--beta", "1.2", "--gamma", "1.0"], 2,
         "model document must be a JSON object"),
        (["pressure", "--model", "{spline}", "--beta", "1.2", "--gamma", "1.0"], 2, "unknown model kind 'spline'"),
        (["pressure", "--model", "{rem}", "--beta", "1.2", "--field", "uniform:1"], 1, "unknown field law 'uniform'"),
        (["pressure", "--model", "{rem}", "--beta", "1:2", "--gamma", "1.0"], 1,
         "grid must be start:stop:count, got '1:2'"),
        (["pressure", "--model", "{rem}", "--beta", "2:1:3", "--gamma", "1.0"], 1, "grid start must be <= stop"),
        (["pressure", "--model", "{rem}", "--beta", "1.2"], 1, "need --field LAW or --gamma grid"),
        (["verify", "--model", "{rem}", "--field", "constant:1.0", "--beta", "1.2", "--N", "6,x",
          "--replicas", "2", "--seed", "1"], 1, "bad integer list '6,x'"),
        (["verify", "--model", "{rem}", "--field", "constant:1.0", "--beta", "1.2", "--N", ",",
          "--replicas", "2", "--seed", "1"], 1, "verify needs a non-empty --N list"),
    ], ids=["model-not-an-object", "unknown-model-kind", "unknown-field-law", "two-part-grid",
            "grid-start-above-stop", "no-field-or-gamma", "bad-N-list", "empty-N-list"])
    def test_rejection_is_one_json_line(self, models, tmp_path, capsys, argv, code, fragment):
        (tmp_path / "list.json").write_text("[1.0]")
        (tmp_path / "spline.json").write_text(json.dumps({"kind": "spline", "x": [1.0], "A": [1.0]}))
        paths = {**models, "list": tmp_path / "list.json", "spline": tmp_path / "spline.json"}
        assert main([arg.format(**paths) for arg in argv] + ["--out", "-"]) == code
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        error = json.loads(line)
        assert error["error"] == ("usage" if code == 1 else "validation")
        assert fragment in error["message"]
        assert captured.out == ""

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

    def test_non_hierarchical_model_reads_its_greedy_hull(self, models, tmp_path):
        out = tmp_path / "nhpd.csv"
        assert main(["phase-diagram", "--model", str(models["nh2"]), "--beta", "0.5:2.5:5",
                     "--gamma", "0:2:5", "--out", str(out)]) == 0
        hull = tfglass.greedy_reduction(load_model(str(models["nh2"])))[1]
        _, grid = read_rows(out)
        assert len(grid) == 25
        for beta, gamma, pressure, m_z in grid:
            beta, gamma = float(beta), float(gamma)
            assert float(pressure) == qgrem_pressure(hull, beta, FieldSpec.constant(gamma)).value
            assert float(m_z) == tfglass.magnetization(hull, beta, gamma)
        _, rows = read_rows(tmp_path / "nhpd-transitions.csv")
        magnetic = [r for r in rows if r[0] == "magnetic"]
        assert {float(r[2]) for r in magnetic} == {0.5, 1.0, 1.5, 2.0, 2.5}
        for _, _, beta, gamma, _, _ in magnetic:
            assert float(gamma) in qgrem_critical_fields(hull, float(beta))

    def test_glass_rows_sit_at_the_hull_freezing_temperatures(self, tmp_path):
        # one glass line per segment of positive slope: the flat tail has none
        model = tmp_path / "flat-tail.json"
        model.write_text(json.dumps({"kind": "step", "x": [0.3, 0.6, 1.0], "jumps": [0.6, 0.4, 0.0]}))
        assert main(["phase-diagram", "--model", str(model), "--beta", "1.2", "--gamma", "0:2:3",
                     "--out", str(tmp_path / "pd.csv")]) == 0
        hull = concave_hull(load_model(str(model)))
        assert hull.m == 3 and hull.freeze_betas[-1] == math.inf
        _, rows = read_rows(tmp_path / "pd-transitions.csv")
        glass = [(int(r[1]), float(r[2]), float(r[3])) for r in rows if r[0] == "glass"]
        assert glass == [(l, beta_l, qgrem_critical_fields(hull, beta_l)[l - 1])
                         for l, beta_l in enumerate(hull.freeze_betas[:2], start=1)]

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


    def test_concentration_line_equals_the_library_report(self, models, capsys):
        # 200 replicas turn the concentration check on; at N = 4 it takes the exact path
        rc = main(["verify", "--model", str(models["grem2"]), "--field", "constant:1.0", "--beta", "1.2",
                   "--N", "4,5", "--replicas", "200", "--seed", "7", "--tol-limit-gap", "1", "--out", "-"])
        rep = concentration_check(load_model(str(models["grem2"])), FieldSpec.constant(1.0), 4, 1.2, 200, 7)
        assert rc == 0 and rep.passed
        line = ("PASS concentration beta=1.2 N=4: fractions " + "/".join(_fmt(f) for f in rep.fractions)
                + " vs bounds " + "/".join(_fmt(b + s) for b, s in zip(rep.bounds, rep.slacks)))
        assert line in capsys.readouterr().err.splitlines()

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


class TestVerifyRange:
    """verify checks a gap to the limit against an absolute tolerance, so it supports limits whose
    rounding (1e-12 relative) stays a hundred times below the tolerance, and at most 1e150, whose
    replica statistics square without overflow: |limit| <= 1.5e9 at the default 0.15."""

    @pytest.mark.parametrize("beta, field", [("1e300", "constant:1.0"), ("1.2", "constant:1e300"),
                                             ("1.2", "gaussian:1e300,1"), ("1.2:1e300:2", "constant:1.0")],
                             ids=["beta", "constant", "gaussian", "second-beta"])
    def test_limit_beyond_the_range_exits_2_before_any_replica(self, models, capsys, monkeypatch, beta, field):
        # without the range check every replica ran, numpy warned of overflow, and verify exited 3
        from tfglass import cli

        def no_replicas(*args, **kwargs):
            raise AssertionError("a replica ran before the range was checked")

        monkeypatch.setattr(cli, "convergence_study", no_replicas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["verify", "--model", str(models["rem"]), "--field", field, "--beta", beta,
                       "--N", "4,6", "--replicas", "4", "--seed", "7", "--out", "-"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        error = json.loads(captured.err)
        assert error["error"] == "validation" and "1.5e+09" in error["message"]

    @pytest.mark.parametrize("tol, code", [("1e-2", 2), ("1e-1", 3), ("nan", 2)])
    def test_the_range_scales_with_the_tolerance(self, models, capsys, tol, code):
        # at beta = 1e8 the limit is 1.2e8: in range from a tolerance of 0.012 on, where the
        # finite-size gap (about 0.13 beta at N = 4) fails the check without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["verify", "--model", str(models["rem"]), "--field", "constant:1.0", "--beta", "1e8",
                       "--N", "4", "--replicas", "4", "--seed", "7", "--tol-limit-gap", tol, "--out", "-"])
        assert rc == code


    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_tolerance_must_be_positive(self, models, capsys, monkeypatch, tol):
        # -1 read "verify supports limits up to -1e+10 in size", after the model was reduced
        from tfglass import cli

        def no_reduction(model):
            raise AssertionError("the model was reduced before the tolerance was checked")

        monkeypatch.setattr(cli, "model_hull", no_reduction)
        rc = main(["verify", "--model", str(models["rem"]), "--field", "constant:1.0", "--beta", "1.2",
                   "--N", "4", "--replicas", "4", "--seed", "7", "--tol-limit-gap", tol, "--out", "-"])
        assert rc == 2
        error = last_error(capsys)
        assert error["error"] == "validation" and "--tol-limit-gap must be > 0" in error["message"]


class TestVerifyWorkOnce:
    def test_one_range_reduction_and_one_sign_instance_per_command(self, models, monkeypatch, capsys):
        # the range pass reduces the model once, then convergence_study once per beta; the
        # sign-invariance instance (seed [seed, 987] at every beta) is drawn once
        from tfglass import cli, verify

        calls = {"model_hull": 0, "sign_instance": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        hull_calls = counted("model_hull", verify.model_hull)
        monkeypatch.setattr(cli, "model_hull", hull_calls)
        monkeypatch.setattr(verify, "model_hull", hull_calls)
        monkeypatch.setattr(cli, "sample_instance", counted("sign_instance", cli.sample_instance))
        assert main(["verify", "--model", str(models["nh2"]), "--field", "constant:1.0", "--beta", "0.8:1.2:2",
                     "--N", "4", "--replicas", "8", "--seed", "7", "--tol-limit-gap", "1", "--out", "-"]) == 0
        assert calls == {"model_hull": 3, "sign_instance": 1}
        assert capsys.readouterr().err.count("PASS sign-invariance") == 2


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
        ["nonhier", "--model", "{nh2}", "--beta", "1.2", "--gamma", "0:1:2", "--out", "{bad}"],
    ], ids=["pressure", "phase-diagram-transitions", "verify", "nonhier"])
    def test_exits_2_with_one_validation_line(self, models, tmp_path, capsys, monkeypatch, argv, target):
        # every output path is checked before any work runs: no model is
        # reduced, verify's replicas never start, and no file is written at --out
        from tfglass import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output path was checked")

        for name in ("convergence_study", "model_hull", "greedy_reduction"):
            monkeypatch.setattr(cli, name, no_work)
        bad = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        paths = {**models, "ok": tmp_path / "ok.csv", "bad": bad}
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        errors = [json.loads(line) for line in captured.err.splitlines() if line.startswith("{")]
        assert len(errors) == 1 and errors[0]["error"] == "validation"
        assert str(bad) in errors[0]["message"]
        assert captured.out == ""
        assert not paths["ok"].exists()

    def test_permission_denied_exits_2(self, models, tmp_path, capsys, monkeypatch):
        # root ignores file modes, so the denial comes from os.access
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        out = tmp_path / "p.csv"
        assert main(["pressure", "--model", str(models["grem2"]), "--beta", "1.2", "--gamma", "0:1:2",
                     "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "validation",
                                    "message": f"cannot write output file {str(out)!r}: permission denied"}
        assert not out.exists()

    def test_a_failed_write_exits_2(self, models, tmp_path, capsys, monkeypatch):
        # the path passes the check before the work, and the write itself fails (a full disk, say)
        def full(self, *args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full)
        out = tmp_path / "p.csv"
        assert main(["pressure", "--model", str(models["grem2"]), "--beta", "1.2", "--gamma", "0:1:2",
                     "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        error = json.loads(line)
        assert error["error"] == "validation"
        assert error["message"].startswith(f"cannot write output file {str(out)!r}: ")
        assert "No space left on device" in error["message"]
        assert not out.exists()

    def test_derived_transitions_path_is_checked_before_the_grid_is_written(self, models, tmp_path, capsys):
        derived = tmp_path / "grid-transitions.csv"
        derived.mkdir()
        grid = tmp_path / "grid.csv"
        assert main(["phase-diagram", "--model", str(models["grem2"]), "--beta", "1.2", "--gamma", "0:1:3",
                     "--out", str(grid)]) == 2
        assert str(derived) in last_error(capsys)["message"]
        assert not grid.exists()


class TestHugeBeta:
    """beta = 1e200 squares to inf: the flat segment's classical pressure stays
    finite, and a field whose p(beta gamma) overflows exits 2."""

    @pytest.fixture
    def flat(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"kind": "step", "x": [0.5, 1.0], "jumps": [1.0, 0.0]}))
        return path

    def test_flat_segment_gives_finite_rows(self, flat, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["pressure", "--model", str(flat), "--beta", "1e200", "--gamma", "0:1:2",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2
        assert all(math.isfinite(float(r[2])) and math.isfinite(float(r[3])) for r in rows), rows

    def test_gaussian_field_with_a_huge_mean_exits_0(self, models, tmp_path):
        # squaring mu / sigma would overflow; p is |beta mu| = 1.2e300
        out = tmp_path / "p.csv"
        assert main(["pressure", "--model", str(models["rem"]), "--beta", "1.2", "--field", "gaussian:1e300,1",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert float(rows[0][3]) == pytest.approx(1.2e300, rel=1e-15)

    def test_overflowing_field_exits_2(self, flat, capsys):
        assert main(["pressure", "--model", str(flat), "--beta", "1e200", "--field", "constant:1e200",
                     "--out", "-"]) == 2
        assert last_error(capsys)["error"] == "validation"


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


def test_exact_path_does_not_load_scipy(tmp_path):
    """The exact path is numpy alone: its drivers up to N = 10, exact_pressure,
    sign_invariance_check and `verify --method exact` load no scipy module."""
    (tmp_path / "grem.json").write_text(json.dumps({"kind": "step", "x": [0.5, 1.0], "jumps": [0.7, 0.3]}))
    script = """
import json, sys
import tfglass as tg
from tfglass.cli import load_model, main
grem, rem, field = load_model("grem.json"), tg.DistributionSpec.rem(), tg.FieldSpec.constant(1.0)
tg.convergence_study(grem, field, 1.2, [4, 6, 8, 10], 3, 1, method="exact")
tg.concentration_check(rem, field, 8, 1.2, 200, 1, method="exact")
inst = tg.sample_instance(grem, field, 8, 1)
tg.exact_pressure(inst, 1.2)
assert tg.sign_invariance_check(inst, 1.2, patterns=2) <= 1e-8
assert main(["verify", "--model", "grem.json", "--field", "constant:1.0", "--beta", "1.2", "--N", "6,8",
             "--replicas", "8", "--seed", "7", "--tol-limit-gap", "1", "--method", "exact", "--out", "v.csv"]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""
    src = str(Path(tfglass.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


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
