"""End-to-end checks of the command-line front end.

Each test drives ``rdregion.cli.main`` in-process and compares file
payloads against direct library calls; the CLI must be a thin veneer, so
values are expected to round-trip exactly.
"""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rdregion import cli, cyclic, duality, matching, regions, sumrate, waterfill
from rdregion.cli import main
from oracles import _limit_weighted, json_indent2
from rdregion.problems import (
    MultiterminalProblem,
    RemoteProblem,
    SumCrit,
    VectorCrit,
    load_problem,
)

LN2 = math.log(2.0)
HALF_LOG_2 = 0.5 * math.log(2.0)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def remote_scalar_file(tmp_path):
    return write_json(
        tmp_path,
        "remote1.json",
        {"k": 1, "l": 1, "sigma_x": [[1.0]], "a": [[1.0]], "noise_vars": [1.0], "gamma": [[1.0]]},
    )


def remote_pair_file(tmp_path):
    return write_json(
        tmp_path,
        "remote2.json",
        {
            "k": 2,
            "l": 2,
            "sigma_x": [[1.0, 0.3], [0.3, 1.5]],
            "a": [[1.0, 0.2], [0.1, 0.9]],
            "noise_vars": [0.5, 0.8],
            "gamma": [[1.0, 0.0], [0.0, 1.0]],
        },
    )


def remote_pair_problem():
    return RemoteProblem(
        sigma_x=np.array([[1.0, 0.3], [0.3, 1.5]]),
        a_mat=np.array([[1.0, 0.2], [0.1, 0.9]]),
        noise_vars=np.array([0.5, 0.8]),
        gamma=np.eye(2),
    )


def mt_file(tmp_path):
    return write_json(
        tmp_path,
        "mt.json",
        {
            "l": 2,
            "sigma_y": [[1.5, 0.5], [0.5, 1.5]],
            "split_sigma_n": [0.4, 0.4],
            "gamma": [[1.0, 0.0], [0.0, 1.0]],
        },
    )


def mt_problem():
    return MultiterminalProblem(
        sigma_y=np.array([[1.5, 0.5], [0.5, 1.5]]),
        split_sigma_n=np.array([0.4, 0.4]),
        gamma=np.eye(2),
    )


def diag_file(tmp_path):
    return write_json(
        tmp_path,
        "diag.json",
        {
            "l": 2,
            "sigma_y": [[1.0, 0.0], [0.0, 2.0]],
            "split_sigma_n": [0.3, 0.5],
            "gamma": [[1.0, 0.0], [0.0, 1.0]],
        },
    )


def diag_problem():
    return MultiterminalProblem(
        sigma_y=np.diag([1.0, 2.0]), split_sigma_n=np.array([0.3, 0.5]), gamma=np.eye(2)
    )


def noncirc_file(tmp_path):
    return write_json(
        tmp_path,
        "noncirc.json",
        {
            "l": 2,
            "sigma_y": [[2.0, 0.3], [0.3, 1.0]],
            "split_sigma_n": [0.2, 0.2],
            "gamma": [[1.0, 0.0], [0.0, 1.0]],
        },
    )


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestRegion:
    def test_scalar_inner_hand_value(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        rc = main(
            ["region", "--input", remote_scalar_file(tmp_path), "--r", str(HALF_LOG_2),
             "--output", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["l"] == 1 and payload["kind"] == "inner"
        assert np.isclose(payload["bounds"]["0b1"], 0.5 * math.log(3.0), atol=1e-12)
        assert "full-set floor" in capsys.readouterr().out

    def test_zero_rates_all_zero(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = main(["region", "--input", remote_pair_file(tmp_path), "--r", "0", "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert all(v == 0.0 for v in payload["bounds"].values())

    def test_matches_library_exactly(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = main(
            ["region", "--input", remote_pair_file(tmp_path), "--r", "0.3,0.7", "--output", str(out)]
        )
        assert rc == 0
        expected = regions.region_inner(remote_pair_problem(), [0.3, 0.7]).to_dict()
        assert json.loads(out.read_text()) == expected

    def test_outer_with_total_distortion(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = main(
            ["region", "--input", remote_pair_file(tmp_path), "--r", "0.4,0.6",
             "--mode", "outer", "--d-sum", "1.5", "--output", str(out)]
        )
        assert rc == 0
        p = remote_pair_problem()
        level = waterfill.waterfill_det(p, SumCrit(1.5), [0.4, 0.6])
        expected = regions.region_outer(p, [0.4, 0.6], level).to_dict()
        assert json.loads(out.read_text()) == expected

    def test_mt_native_and_transformed_agree(self, tmp_path):
        native, routed = tmp_path / "native.json", tmp_path / "routed.json"
        src = mt_file(tmp_path)
        assert main(["region", "--input", src, "--r", "0.5,0.8", "--output", str(native)]) == 0
        assert main(
            ["region", "--input", src, "--r", "0.5,0.8", "--transformed", "--output", str(routed)]
        ) == 0
        b_native = json.loads(native.read_text())["bounds"]
        b_routed = json.loads(routed.read_text())["bounds"]
        assert b_native.keys() == b_routed.keys()
        for key in b_native:
            assert np.isclose(b_native[key], b_routed[key], atol=1e-10)

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        rc = main(["region", "--input", str(bad), "--r", "0.5"])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_missing_input_exit_2(self):
        assert main(["region", "--r", "0.5"]) == 2

    def test_wrong_rate_length_exit_2(self, tmp_path):
        assert main(["region", "--input", remote_pair_file(tmp_path), "--r", "0.1,0.2,0.3"]) == 2

    def test_outer_needs_level_exit_2(self, tmp_path):
        rc = main(["region", "--input", remote_pair_file(tmp_path), "--r", "0.5", "--mode", "outer"])
        assert rc == 2


class TestSumrate:
    def test_diagonal_sweep_lower_equals_upper(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(
            ["sumrate", "--input", diag_file(tmp_path), "--sweep", "0.4:0.8:3",
             "--starts", "2", "--output", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["instance-id", "d1", "d2", "lower", "upper", "gap"]
        assert len(rows) == 3
        mp = diag_problem()
        for idx, row in enumerate(rows):
            dv = np.full(2, np.linspace(0.4, 0.8, 3)[idx])
            assert float(row[3]) == sumrate.sum_rate_lower(mp, dv).value
            assert float(row[4]) == sumrate.sum_rate_upper(mp, dv, starts=2, seed=0).value
            assert abs(float(row[4]) - float(row[3])) <= 1e-9

    @pytest.mark.parametrize(
        "make_input, argv",
        [
            (mt_file, ["sumrate", "--d", "0.5", "--starts", "2"]),
            (remote_pair_file, ["region", "--r", "0.4,0.6", "--mode", "outer", "--d-sum", "1.5"]),
            (mt_file, ["match", "--d-sum", "0.5", "--points", "4"]),
        ],
        ids=["sumrate", "region-outer", "match"],
    )
    def test_byte_identical_reruns(self, tmp_path, make_input, argv):
        out_a, out_b = tmp_path / "a.out", tmp_path / "b.out"
        argv = argv + ["--input", make_input(tmp_path)]
        assert main(argv + ["--output", str(out_a)]) == 0
        assert main(argv + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(
            ["sumrate", "--input", diag_file(tmp_path), "--d", "0.6", "--starts", "1",
             "--output", str(out)]
        ) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_remote_file_rejected(self, tmp_path):
        assert main(["sumrate", "--input", remote_pair_file(tmp_path), "--d", "0.5"]) == 2

    def test_needs_a_mode(self, tmp_path):
        assert main(["sumrate", "--input", diag_file(tmp_path)]) == 2

    def test_json_format_rows(self, tmp_path):
        out = tmp_path / "table.json"
        rc = main(
            ["sumrate", "--input", diag_file(tmp_path), "--d", "0.6,0.9", "--starts", "1",
             "--format", "json", "--output", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "sumrate"
        row = payload["rows"][0]
        mp = diag_problem()
        assert row["upper"] == sumrate.sum_rate_upper(mp, [0.6, 0.9], starts=1, seed=0).value
        assert row["d1"] == 0.6 and row["d2"] == 0.9

    def test_boundary_probe_matches_library(self, tmp_path):
        out = tmp_path / "probes.csv"
        rc = main(
            ["sumrate", "--input", diag_file(tmp_path), "--boundary", "--budget", "1.5",
             "--weights", "1,1.1", "--starts", "1", "--d-iters", "8", "--output", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["w1", "w2", "d_upper", "d_lower", "certified"]
        probe = sumrate.boundary_batch(
            diag_problem(), 1.5, [np.array([1.0, 1.1])], starts=1, seed=0, d_iters=8
        )[0]
        assert float(rows[0][2]) == probe.d_upper
        assert float(rows[0][3]) == probe.d_lower
        assert rows[0][4] == ("true" if probe.certified else "false")

    def test_cyclic_flag_matches_module(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(
            ["cyclic", "--input", mt_file(tmp_path), "--samples", "6", "--output", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["r", "R_nats", "R_bits", "D", "certified"]
        ci = cyclic.cyclic_instance(mt_problem().sigma_y)
        th = cyclic.thresholds(ci)
        curve = cyclic.parametric_curve(ci, th.s_eps, th.s_eps + 2.0, samples=6)
        for row, rr, rate, dd in zip(rows, curve.r, curve.rate, curve.distortion):
            assert float(row[0]) == rr
            assert float(row[1]) == rate
            assert float(row[2]) == rate / LN2
            assert float(row[3]) == dd

    def test_cyclic_noncirculant_exit_3(self, tmp_path, capsys):
        rc = main(["cyclic", "--input", noncirc_file(tmp_path)])
        assert rc == 3
        assert "residual" in capsys.readouterr().err


class TestMatch:
    def test_remote_thresholds_match_library(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["match", "--input", remote_pair_file(tmp_path), "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        p = remote_pair_problem()
        assert payload["layout"] == "remote"
        th = payload["thresholds"]
        assert th["rotation"] == matching.threshold_rotation(p)
        assert th["simplified"] == matching.threshold_simplified(p)
        assert th["noise"] == matching.threshold_noise(p)
        assert "scan" not in payload

    def test_scan_holds_below_threshold(self, tmp_path):
        out = tmp_path / "report.json"
        p = RemoteProblem(
            sigma_x=np.eye(1), a_mat=np.array([[1.0]]), noise_vars=np.ones(1), gamma=np.eye(1)
        )
        d = 0.9 * matching.threshold_simplified(p)
        rc = main(
            ["match", "--input", remote_scalar_file(tmp_path), "--d-sum", str(d),
             "--points", "4", "--r-max", "4", "--output", str(out)]
        )
        assert rc == 0
        scan = json.loads(out.read_text())["scan"]
        assert scan["holds"] is True
        assert scan["pairs"] > 0

    def test_one_gamma_inverse_and_one_spectrum(self, tmp_path, monkeypatch):
        # the thresholds and the scan of one match op share the problem's
        # cached gamma^-1, W* and spectrum of W*
        rng = np.random.default_rng(71)
        m = rng.normal(size=(3, 3))
        p = RemoteProblem(sigma_x=m @ m.T + np.eye(3), a_mat=rng.normal(size=(3, 3)),
                          noise_vars=rng.uniform(0.5, 1.5, size=3),
                          gamma=rng.normal(size=(3, 3)) + 2.0 * np.eye(3))
        path = write_json(tmp_path, "remote3.json", {
            "k": 3, "l": 3, "sigma_x": p.sigma_x.tolist(), "a": p.a_mat.tolist(),
            "noise_vars": p.noise_vars.tolist(), "gamma": p.gamma.tolist()})
        w_star = _limit_weighted(p)
        d = 0.9 * matching.threshold_simplified(p)
        inv, eigvalsh = np.linalg.inv, np.linalg.eigvalsh
        seen = {"inv": 0, "eigvalsh": 0}

        def inv_counted(a):
            seen["inv"] += np.shape(a) == (3, 3) and np.array_equal(a, p.gamma)
            return inv(a)

        def eigvalsh_counted(a, *args, **kwargs):
            seen["eigvalsh"] += np.shape(a) == (3, 3) and np.allclose(a, w_star, rtol=1e-12, atol=0.0)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", inv_counted)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_counted)
        assert main(["match", "--input", path, "--d-sum", str(d), "--points", "3",
                     "--output", str(tmp_path / "out.json")]) == 0
        assert seen == {"inv": 1, "eigvalsh": 1}

    def test_samples_flag_is_gone(self, tmp_path):
        # the rotation threshold is exact, so there is nothing to sample
        with pytest.raises(SystemExit) as err:
            main(["match", "--input", remote_pair_file(tmp_path), "--samples", "8"])
        assert err.value.code == 2

    @pytest.mark.parametrize("r_max", ["nan", "inf", "-1", "0"])
    def test_bad_r_max_exit_3(self, tmp_path, capsys, r_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["match", "--input", remote_scalar_file(tmp_path), "--d-sum", "0.8",
                       "--r-max", r_max])
        assert rc == 3
        err = capsys.readouterr().err
        assert "r_max must be positive and finite" in err
        assert "RuntimeWarning" not in err

    def test_mt_report_carries_both_threshold_families(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["match", "--input", mt_file(tmp_path), "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["layout"] == "multiterminal"
        th = payload["thresholds"]
        mp = mt_problem()
        assert th["split"] == sumrate.threshold_split(mp)
        assert th["universal"] == sumrate.zeta(mp.sigma_y)
        assert th["simplified"] == matching.threshold_simplified(duality.dual_remote(mp))
        assert set(th) == {"split", "weighted_unit", "universal", "rotation", "simplified", "noise"}


class TestWaterfill:
    def test_total_cap_matches_library(self, tmp_path):
        out = tmp_path / "level.json"
        rc = main(
            ["waterfill", "--input", remote_pair_file(tmp_path), "--r", "0.4,0.6",
             "--d-sum", "1.2", "--output", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        expected = waterfill.waterfill_det(remote_pair_problem(), SumCrit(1.2), [0.4, 0.6])
        assert payload["value"] == expected
        assert payload["criterion"] == {"kind": "sum", "d": 1.2}

    def test_vector_caps_match_library(self, tmp_path):
        out = tmp_path / "level.json"
        rc = main(
            ["waterfill", "--input", remote_pair_file(tmp_path), "--r", "0.5",
             "--d", "0.6,0.9", "--output", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        expected = waterfill.waterfill_det(
            remote_pair_problem(), VectorCrit([0.6, 0.9]), [0.5, 0.5]
        )
        assert payload["value"] == expected

    def test_infeasible_budget_exit_3(self, tmp_path, capsys):
        rc = main(
            ["waterfill", "--input", remote_pair_file(tmp_path), "--r", "0.3", "--d-sum", "0.01"]
        )
        assert rc == 3
        assert "below the floor" in capsys.readouterr().err


class TestTransform:
    def test_output_is_loadable_remote_problem(self, tmp_path):
        out = tmp_path / "dual.json"
        rc = main(["transform", "--input", mt_file(tmp_path), "--output", str(out)])
        assert rc == 0
        dual_file = load_problem(str(out))
        assert isinstance(dual_file, RemoteProblem)
        dual = duality.dual_remote(mt_problem())
        assert np.array_equal(dual_file.sigma_x, dual.sigma_x)
        assert np.array_equal(dual_file.noise_vars, dual.noise_vars)
        assert np.array_equal(dual_file.gamma, dual.gamma)

    def test_offsets_and_mapped_criterion(self, tmp_path):
        out = tmp_path / "dual.json"
        rc = main(["transform", "--input", mt_file(tmp_path), "--d-sum", "0.5", "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        mp = mt_problem()
        data = duality.transform_data(mp)
        assert payload["offset_trace"] == data.offset_trace
        mapped = duality.dual_criterion(mp, SumCrit(0.5))
        assert payload["criterion"] == {"kind": "sum", "d": mapped.d}


class TestCyclic:
    def test_curve_matches_module(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(
            ["cyclic", "--input", mt_file(tmp_path), "--epsilon", "0.5",
             "--samples", "8", "--output", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["r", "R_nats", "R_bits", "D", "certified"]
        ci = cyclic.cyclic_instance(mt_problem().sigma_y, 0.5)
        th = cyclic.thresholds(ci)
        # default range starts at the certified rate, so row 0 sits at D_th
        assert float(rows[0][0]) == th.s_eps
        assert abs(float(rows[0][3]) - th.d_th) <= 1e-12
        assert all(row[4] == "true" for row in rows)

    def test_json_format_carries_thresholds(self, tmp_path):
        out = tmp_path / "curve.json"
        rc = main(
            ["cyclic", "--input", mt_file(tmp_path), "--format", "json", "--samples", "4",
             "--output", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        ci = cyclic.cyclic_instance(mt_problem().sigma_y)
        th = cyclic.thresholds(ci)
        assert payload["epsilon"] == ci.epsilon
        assert payload["s_eps"] == th.s_eps
        assert payload["d_th"] == th.d_th
        assert len(payload["rows"]) == 4

    def test_degenerate_epsilon_exit_3(self, tmp_path):
        assert main(["cyclic", "--input", mt_file(tmp_path), "--epsilon", "5.0"]) == 3

    def test_remote_file_rejected(self, tmp_path):
        assert main(["cyclic", "--input", remote_pair_file(tmp_path)]) == 2


class TestTwoterm:
    def test_symmetric_point_half_log_five(self, tmp_path):
        out = tmp_path / "point.json"
        rc = main(
            ["twoterm", "--sigma1", "1", "--sigma2", "1", "--rho", "0.5",
             "--d1", "0.4", "--d2", "0.4", "--output", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["in_d"] is True
        assert np.isclose(payload["nats"], 0.5 * math.log(5.0), atol=1e-12)
        assert payload["bits"] == payload["nats"] / LN2

    def test_outside_distortion_set_flagged(self, tmp_path):
        out = tmp_path / "point.json"
        rc = main(
            ["twoterm", "--sigma1", "1", "--sigma2", "1", "--rho", "0.6",
             "--d1", "0.9", "--d2", "0.05", "--output", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["in_d"] is False

    def test_curve_matches_library(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(
            ["twoterm", "--sigma1", "1.2", "--sigma2", "0.9", "--rho", "0.4", "--curve",
             "--d-cap", "0.5", "--which", "2", "--samples", "5", "--output", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["s", "r1_nats", "r1_bits", "r2_nats", "r2_bits"]
        grid = np.exp(np.linspace(math.log(1e-6), 0.0, 5))
        for row, s in zip(rows, grid):
            r1, r2 = sumrate.twoterm_curve_point(1.2, 0.9, 0.4, 0.5, 2, float(s))
            assert float(row[1]) == r1
            assert float(row[3]) == r2

    def test_invalid_correlation_exit_2(self):
        rc = main(["twoterm", "--sigma1", "1", "--sigma2", "1", "--rho", "1.0",
                   "--d1", "0.4", "--d2", "0.4"])
        assert rc == 2


def remote_l7_file(tmp_path):
    rng = np.random.default_rng(17)
    m = rng.normal(size=(3, 3))
    return write_json(
        tmp_path,
        "remote7.json",
        {
            "k": 3,
            "l": 7,
            "sigma_x": (m @ m.T + 0.5 * np.eye(3)).tolist(),
            "a": rng.normal(size=(7, 3)).tolist(),
            "noise_vars": rng.uniform(0.3, 2.0, size=7).tolist(),
            "gamma": np.eye(3).tolist(),
        },
    )


class TestJsonLayout:
    """Every JSON payload is the byte string ``json.dumps(..., indent=2)``
    writes for it, as in the oracle."""

    @pytest.mark.parametrize(
        "make_input, argv",
        [
            (remote_l7_file, ["region", "--r", "0.2,0.4,0.6,0.8,1.0,1.2,1.4"]),
            (remote_pair_file, ["region", "--r", "0.4,0.6", "--mode", "outer", "--d-sum", "1.5"]),
            (mt_file, ["region", "--r", "0.5,0.8", "--mode", "outer", "--d", "0.5,0.6"]),
            (mt_file, ["sumrate", "--d", "0.5", "--d", "0.4,0.7", "--starts", "1",
                       "--format", "json"]),
            (diag_file, ["sumrate", "--boundary", "--budget", "1.5", "--weights", "1,1.1",
                         "--starts", "1", "--d-iters", "8", "--format", "json"]),
            (remote_pair_file, ["match", "--d-sum", "1.5", "--points", "3"]),
            (mt_file, ["match", "--d-sum", "0.5", "--points", "4"]),
            (remote_pair_file, ["waterfill", "--r", "0.4,0.6", "--d-sum", "1.2"]),
            (remote_pair_file, ["waterfill", "--r", "0.5", "--d", "0.6,0.9"]),
            (mt_file, ["transform", "--d-sum", "0.5"]),
            (mt_file, ["transform", "--d", "0.3,0.4"]),
            (mt_file, ["cyclic", "--format", "json", "--samples", "4"]),
            (None, ["twoterm", "--sigma1", "1", "--sigma2", "1", "--rho", "0.5",
                    "--d1", "0.4", "--d2", "0.4"]),
            (None, ["twoterm", "--sigma1", "1.2", "--sigma2", "0.9", "--rho", "0.4", "--curve",
                    "--d-cap", "0.5", "--samples", "5", "--format", "json"]),
        ],
        ids=["region-inner-l7", "region-outer", "region-mt-outer", "sumrate", "boundary",
             "match-remote", "match-mt", "waterfill-sum", "waterfill-vector",
             "transform-sum", "transform-vector", "cyclic", "twoterm", "twoterm-curve"],
    )
    def test_payloads_match_indent2_dumps(self, tmp_path, monkeypatch, make_input, argv):
        seen = []
        emit = cli._emit_json

        def recording(args, payload, note=None):
            seen.append(payload)
            emit(args, payload, note)

        monkeypatch.setattr(cli, "_emit_json", recording)
        out = tmp_path / "payload.json"
        if make_input is not None:
            argv = argv + ["--input", make_input(tmp_path)]
        assert main(argv + ["--output", str(out)]) == 0
        assert len(seen) == 1
        assert out.read_bytes() == (json_indent2(seen[0]) + "\n").encode()

    def test_seeded_nested_payloads(self):
        rng = np.random.default_rng(2024)
        floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1e16, 0.1,
                  -2.5e-7, 1.7976931348623157e308]
        strings = ["", "plain", "caf\u00e9 \u2211 \U0001d6c2", "two\nlines", 'quote " \\ tab\t',
                   "\x00\x1f"]

        def leaf():
            pick = int(rng.integers(0, 12))
            if pick == 0:
                return floats[int(rng.integers(len(floats)))]
            if pick == 1:
                return float(rng.normal() * 10.0 ** rng.integers(-20, 20))
            if pick == 2:
                return strings[int(rng.integers(len(strings)))]
            if pick == 3:
                return [True, False, None][int(rng.integers(3))]
            if pick == 4:
                return int(rng.integers(-(10**6), 10**6)) * 10 ** int(rng.integers(0, 25))
            if pick == 5:
                return np.float64(floats[int(rng.integers(len(floats)))])
            if pick == 6:
                return np.int64(rng.integers(-(2**62), 2**62))
            if pick == 7:
                return np.bool_(rng.integers(2))
            if pick == 8:
                return np.float32(rng.normal())
            if pick == 9:
                shape = [(0,), (3,), (2, 2), (2, 0), (1, 2, 2)][int(rng.integers(5))]
                return rng.normal(size=shape)
            if pick == 10:
                return rng.integers(-5, 5, size=int(rng.integers(0, 4)))
            return [{}, [], ()][int(rng.integers(3))]

        def tree(depth):
            if depth == 0 or rng.random() < 0.3:
                return leaf()
            n = int(rng.integers(0, 5))
            kind = int(rng.integers(3))
            if kind == 0:
                return {
                    strings[int(rng.integers(len(strings)))] + str(i): tree(depth - 1)
                    for i in range(n)
                }
            items = [tree(depth - 1) for _ in range(n)]
            return items if kind == 1 else tuple(items)

        for _ in range(3000):
            payload = tree(4)
            assert cli._json_text(payload) == json_indent2(payload)

    def test_all_scalar_containers(self):
        for payload in ({"a": np.float64(0.1), "b": -0.0, "c": None, "d": True},
                        [1e-300, math.nan, -math.inf, "\u00e9\n"], {"x": []}, [{}], {}, [], ()):
            assert cli._json_text(payload) == json_indent2(payload)


class TestParserReuse:
    """One parser serves every in-process call like a fresh one would."""

    def test_append_flags_do_not_pile_up(self, tmp_path):
        src = diag_file(tmp_path)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sumrate", "--input", src, "--d", "0.6", "--d", "0.8", "--starts", "1",
                     "--output", str(first)]) == 0
        argv = ["sumrate", "--input", src, "--d", "0.7", "--starts", "1", "--output", str(second)]
        assert vars(cli._PARSER.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
        assert main(argv) == 0
        assert len(read_csv(first)[1]) == 2
        _, rows = read_csv(second)
        assert len(rows) == 1 and float(rows[0][1]) == 0.7

    def test_store_true_flag_resets(self, tmp_path):
        src = mt_file(tmp_path)
        out = tmp_path / "native.json"
        assert main(["region", "--input", src, "--r", "0.5,0.8", "--transformed"]) == 0
        assert main(["region", "--input", src, "--r", "0.5,0.8", "--output", str(out)]) == 0
        expected = regions.mt_region_inner(mt_problem(), [0.5, 0.8]).to_dict()
        assert out.read_bytes() == (json_indent2(expected) + "\n").encode()

    def test_usage_errors_then_good_call(self, tmp_path, capsys):
        src = remote_pair_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["region", "--input", src, "--mode", "sideways"])
        assert exc.value.code == 2
        assert main(["region", "--input", src, "--r", "0.1,0.2,0.3"]) == 2
        out = tmp_path / "spec.json"
        assert main(["region", "--input", src, "--r", "0.3,0.7", "--output", str(out)]) == 0
        expected = regions.region_inner(remote_pair_problem(), [0.3, 0.7]).to_dict()
        assert json.loads(out.read_text()) == expected

    def test_main_never_builds_a_parser(self, tmp_path, monkeypatch):
        # the parser is built when the module is imported, so main's call
        # count is the same on every run, first or not
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert main(["region", "--input", remote_pair_file(tmp_path), "--r", "0.5"]) == 0


class TestEntryPoints:
    def test_module_entry_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rdregion", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        for name in ("region", "sumrate", "match", "waterfill", "transform", "cyclic", "twoterm"):
            assert name in proc.stdout
