import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from sideinfo.ba import ChannelInstance, SourceInstance
import sideinfo.cli
import sideinfo.gpdual
from sideinfo.cli import GRID_CAP, _parse_grid, main
from sideinfo.gpdual import GpNumericalError
from sideinfo.probability import binary_entropy
from sideinfo.problems import (
    ProblemFileError,
    builtin_instance,
    example1_channel,
    example2_source,
    example3_source,
    example4_source,
    parse_problem,
    serialize_problem,
)


class TestBuiltins:
    def test_example1_state_statistics(self):
        ch = example1_channel()
        np.testing.assert_allclose(ch.state_joint.probs, [[0.1, 0.4], [0.4, 0.1]])
        # noiseless slice at (1, 1); crossover pair at (1,0)/(0,1)
        np.testing.assert_allclose(ch.kernel.probs[:, 1, 1, :], np.eye(2))
        assert ch.kernel.probs[1, 1, 0, 0] == pytest.approx(0.1)  # Z slice
        assert ch.kernel.probs[0, 0, 1, 1] == pytest.approx(0.1)  # S slice
        assert ch.kernel.probs[0, 0, 0, 1] == pytest.approx(0.1)  # crossover slice

    def test_example1_epsilon_parameter(self):
        ch = example1_channel(eps=0.25)
        assert ch.kernel.probs[1, 1, 0, 0] == pytest.approx(0.25)

    def test_example2_modulo_sum(self):
        src = example2_source()
        for a in range(2):
            for b in range(2):
                assert src.joint.probs[a ^ b, a, b] == pytest.approx(0.25)

    def test_example3_crossover(self):
        src = example3_source()
        p = src.joint.probs.reshape(2, 2)
        assert p[0, 0] == pytest.approx(0.35)
        assert p[0, 1] == pytest.approx(0.15)

    def test_example4_switched_noise(self):
        src = example4_source()
        # s2 = 1 uses the nearly noiseless branch
        assert src.joint.probs[0, 0, 1] == pytest.approx(0.25 * 0.999)
        assert src.joint.probs[1, 0, 0] == pytest.approx(0.25 * 0.3)

    def test_unknown_builtin(self):
        with pytest.raises(ProblemFileError):
            builtin_instance("example9")


class TestProblemFiles:
    def test_round_trip_channel_bit_identical(self):
        ch = example1_channel()
        again = parse_problem(json.dumps(serialize_problem(ch)))
        assert isinstance(again, ChannelInstance)
        assert np.array_equal(again.kernel.probs, ch.kernel.probs)
        assert np.array_equal(again.state_joint.probs, ch.state_joint.probs)

    def test_round_trip_source_bit_identical(self):
        src = example4_source()
        again = parse_problem(json.dumps(serialize_problem(src)))
        assert isinstance(again, SourceInstance)
        assert np.array_equal(again.joint.probs, src.joint.probs)
        assert np.array_equal(again.distortion, src.distortion)

    def test_builtin_token(self):
        ch = parse_problem("builtin:example1")
        assert isinstance(ch, ChannelInstance)

    def test_builtin_object_with_parameter(self):
        ch = parse_problem({"builtin": "example1", "epsilon": 0.2})
        assert ch.kernel.probs[1, 1, 0, 0] == pytest.approx(0.2)

    def test_malformed_json_rejected(self):
        with pytest.raises(ProblemFileError):
            parse_problem("{not json")

    def test_wrong_array_length_rejected(self):
        spec = serialize_problem(example3_source())
        spec["joint"]["probs"] = spec["joint"]["probs"][:-1]
        with pytest.raises(ProblemFileError):
            parse_problem(json.dumps(spec))

    def test_bad_probabilities_rejected(self):
        spec = serialize_problem(example3_source())
        spec["joint"]["probs"] = [0.9] * len(spec["joint"]["probs"])
        with pytest.raises(ProblemFileError):
            parse_problem(json.dumps(spec))


class TestCli:
    def test_malformed_problem_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["wz-rate", "--problem", str(bad), "--d", "0.1"])
        assert code == 2

    def test_wrong_problem_kind_exits_2(self):
        code = main(["wz-rate", "--problem", "builtin:example1", "--d", "0.1"])
        assert code == 2

    def test_wz_rate_both_tight(self, tmp_path):
        out = tmp_path / "wz.csv"
        code = main([
            "wz-rate", "--problem", "builtin:example3",
            "--d-grid", "0:0.2:0.1", "--via", "both", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "D,primal,gp,gap"
        assert len(lines) == 4
        for row in lines[1:]:
            assert float(row.split(",")[3]) <= 1e-3

    def test_wz_rate_both_with_a_1e16_cell(self, tmp_path, cell_source, capsys):
        # the cell's p(s2|x) = 2e-15 is above ZERO_TOL while its mass is not:
        # the dual program leaves it out, as it does the neighbour's empty cell
        out = []
        for m in (1e-16, 0.0):
            path = tmp_path / f"wz{m}.json"
            path.write_text(json.dumps(serialize_problem(cell_source("wz", m))))
            assert main(["wz-rate", "--problem", str(path), "--d", "0.005", "--via", "both"]) == 0
            out.append(capsys.readouterr().out)
        assert out[0] == out[1] == "D,primal,gp,gap\n0.005000,0.200636,0.200636,0.000000\n"

    @pytest.mark.parametrize("via", ["ba", "gp", "both"])
    @pytest.mark.parametrize("name", ["example2", "example4"])
    def test_wz_rate_on_a_two_sided_source(self, name, via, capsys):
        # the encoder sees (X, S1): both built-in two-sided sources are solved as given
        argv = ["wz-rate", "--problem", f"builtin:{name}", "--d-grid", "0:0.3:0.05", "--via", via]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 8

    def test_wz_rate_below_the_floor_exits_as_the_primal_does(self, tmp_path, capsys):
        src = example3_source()
        path = tmp_path / "offset.json"
        shifted = dataclasses.replace(src, distortion=src.distortion + 0.5)
        path.write_text(json.dumps(serialize_problem(shifted)))
        rows = {}
        for via in ("ba", "gp"):
            assert main(["wz-rate", "--problem", str(path), "--d", "0.25", "--via", via]) == 0
            rows[via] = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert rows["ba"][4] == rows["gp"][4] == "distortion-floor"
        assert rows["ba"][1] == rows["gp"][1] == "0.881291"

    def test_wz_rate_single_via_ba(self, capsys):
        code = main(["wz-rate", "--problem", "builtin:example3", "--d", "0", "--via", "ba"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        value = float(rows[1].split(",")[1])
        assert value == pytest.approx(binary_entropy(0.3), abs=1e-4)

    def test_capacity_sweep_csv_shape_and_monotone(self, tmp_path):
        out = tmp_path / "cap.csv"
        code = main([
            "capacity-case2", "--problem", "builtin:example1",
            "--rprime-grid", "0:0.72:0.24", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r_prime,value,raw_value,winning_w,iterations,gap,status"
        assert len(lines) == 5
        vals = [float(r.split(",")[1]) for r in lines[1:]]
        assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))
        assert all(r.split(",")[-1] == "ok" for r in lines[1:])

    def test_single_point_grid(self, capsys):
        code = main(["capacity-case2", "--problem", "builtin:example1", "--rprime-grid", "0:0:1"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 2

    @pytest.mark.parametrize("text, values", [
        ("0:0.72:0.06", [0.0, 0.06, 0.12, 0.18, 0.24, 0.3, 0.36, 0.42, 0.48, 0.54, 0.6, 0.66, 0.72]),
        ("0:0.3:0.05", [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]),
        ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
        ("0:0.6:0.2", [0.0, 0.2, 0.4, 0.6]),
        ("0.1:0.35:0.1", [0.1, 0.2, 0.3]),
        ("0.2:0.2:1", [0.2]),
    ])
    def test_grid_values(self, text, values):
        assert _parse_grid(text) == values

    def test_csv_deterministic_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["capacity-case2", "--problem", "builtin:example1", "--rprime-grid", "0.2:0.2:1"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_round_trip_through_file_matches_builtin(self, tmp_path):
        spec = serialize_problem(example3_source())
        path = tmp_path / "src.json"
        path.write_text(json.dumps(spec))
        out1, out2 = tmp_path / "f.csv", tmp_path / "b.csv"
        assert main(["wz-rate", "--problem", str(path), "--d", "0.1", "--via", "ba", "--out", str(out1)]) == 0
        assert main(["wz-rate", "--problem", "builtin:example3", "--d", "0.1", "--via", "ba", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_rd_case1_point(self, tmp_path):
        out = tmp_path / "rd.csv"
        code = main([
            "rd-case1", "--problem", "builtin:example2",
            "--d", "0.1", "--rprime", "0.2", "--out", str(out),
        ])
        assert code == 0
        row = out.read_text().strip().splitlines()[1]
        value = float(row.split(",")[2])
        assert value == pytest.approx(0.3310, abs=2e-2)

    @pytest.mark.parametrize(
        "args, sha256",
        [
            (
                "capacity-case2 --problem builtin:example1 --rprime-grid 0:0.72:0.06",
                "5b63338e4cffaead9ed05b7ab46f6946e72cf567a8625661b298d57011efc2de",
            ),
            (
                "capacity-case2c --problem builtin:example1 --rprime-grid 0:0.6:0.2",
                "f318a022d71dd423ed6052c8ca5982490023484d5f9c5a505206c037a8b2fcc1",
            ),
            (
                "wz-rate --problem builtin:example3 --d-grid 0:0.3:0.05 --via both",
                "7e61ea8faed538503f80029d027071b10dd143d503b38d2d8bb577e2ffbde596",
            ),
            (
                "rd-case1 --problem builtin:example2 --d 0.1 --rprime 0.2",
                "f911e25877144f589226a84a79d56aa1df8c0ccba308d7a38a5ffab5ffe7eb46",
            ),
            (
                "wz-rate --problem builtin:example4 --d-grid 0:0.3:0.05 --via both",
                "3728845576c792cab6e95bf9a10cf39f3b7528d214deef42a43929049ed90f9c",
            ),
        ],
        ids=["capacity-case2", "capacity-case2c", "wz-rate", "rd-case1", "wz-rate-two-sided"],
    )
    def test_readme_csv_bytes(self, args, sha256, capsys):
        # the README commands' CSV, recorded byte for byte in CHANGES.md
        assert main(args.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    def test_eval_command_json(self, tmp_path, capsys):
        joint = np.zeros((2, 2, 2, 2, 2, 2))
        rng = np.random.default_rng(50)
        base = rng.random((2, 2, 2, 2, 2)) + 0.1  # (S1,S2,U,X,Y) with V degenerate
        base /= base.sum()
        joint[:, :, 0] = base
        jf = tmp_path / "joint.json"
        jf.write_text(json.dumps({"sizes": [2, 2, 2, 2, 2, 2], "probs": joint.ravel().tolist()}))
        code = main(["eval", "--case", "cc2lb", "--joint", str(jf)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r_prime_required"] == pytest.approx(0.0, abs=1e-9)
        assert payload["distortion"] is None

    def test_dualize_command(self, capsys):
        code = main(["dualize", "--case", "cc2c", "--alphabets", '{"X": 2, "S2": 3}'])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "source" and payload["case"] == "1c"
        assert payload["alphabets"]["Xhat"] == 2
        assert payload["alphabets"]["S1"] == 3

    def test_dualize_unknown_case_exits_2(self):
        assert main(["dualize", "--case", "zz9"]) == 2


class TestCliInputErrors:
    """Invalid options and grids exit 2 with a message, before any solve."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity-case2", "--problem", "builtin:example1", "--rprime-grid", "0.1", "--delta", "0"],
            ["wz-rate", "--problem", "builtin:example3", "--d", "0.1", "--delta", "0"],
            ["capacity-case2", "--problem", "builtin:example1", "--rprime-grid", "0.1", "--grid-step", "0"],
            ["rd-case1", "--problem", "builtin:example2", "--d", "0.1", "--rprime", "0.1", "--grid-step", "0"],
            ["capacity-case2", "--problem", "builtin:example1", "--rprime-grid", "0.1", "--grid-step", "0.3"],
            ["capacity-case2c", "--problem", "builtin:example1", "--rprime-grid", "0.1", "--grid-step", "0.3"],
            ["rd-case1", "--problem", "builtin:example2", "--d", "0.1", "--rprime", "0.1", "--grid-step", "0.3"],
            ["capacity-case2c", "--problem", "builtin:example1", "--rprime-grid=-0.2:0.2:0.2"],
            ["rd-case1", "--problem", "builtin:example2", "--d", "0.1", "--rprime=-0.1"],
            ["rd-case1", "--problem", "builtin:example2", "--d=-0.1", "--rprime", "0.1"],
            ["wz-rate", "--problem", "builtin:example3", "--d=-0.1"],
            ["wz-rate", "--problem", "builtin:example3", "--d-grid=-0.1:0.1:0.1"],
            ["capacity-case2", "--problem", "builtin:example1", "--rprime-grid", "0:x:0.1"],
            ["capacity-case2", "--problem", "builtin:example1", "--rprime-grid", "0.3:0.1:0.1"],
            ["capacity-case2c", "--problem", "builtin:example1", "--rprime-grid", "0.2:0.2:0"],
            ["capacity-case2c", "--problem", "builtin:example1", "--rprime-grid=0.2:0.2:-1"],
            ["capacity-case2c", "--problem", "builtin:example1", "--rprime-grid", "0:1:nan"],
            ["capacity-case2c", "--problem", "builtin:example1", "--rprime-grid", "nan"],
            ["wz-rate", "--problem", "builtin:example3", "--d", "0.1", "--via", "ba", "--delta", "nan"],
            ["wz-rate", "--problem", "builtin:example3", "--d", "0.1", "--delta", "inf"],
            ["capacity-case2", "--problem", "builtin:example1", "--rprime-grid", "0.1", "--delta", "nan"],
            ["capacity-case2", "--problem", "builtin:example1", "--rprime-grid", "0.1", "--epsilon", "nan"],
            ["capacity-case2c", "--problem", "builtin:example1", "--rprime-grid", "0.1", "--epsilon", "inf"],
            ["rd-case1", "--problem", "builtin:example2", "--d", "0.1", "--rprime", "0.1", "--epsilon", "nan"],
            ["wz-rate", "--problem", "builtin:example3", "--d", "0.1", "--tight-tol", "-1"],
            ["wz-rate", "--problem", "builtin:example3", "--d", "0.1", "--tight-tol", "nan"],
            ["wz-rate", "--problem", "builtin:example3", "--d", "0.1", "--via", "ba", "--tight-tol", "inf"],
            ["wz-rate", "--problem", "builtin:example3", "--d", "0.1", "--d-grid", "0:0.1:0.1"],
            ["dualize", "--case", "cc2c", "--alphabets", "[1, 2]"],
            ["dualize", "--case", "cc2c", "--alphabets", '{"X": 0}'],
            ["dualize", "--case", "sc1", "--alphabets", '{"X": "2"}'],
            ["dualize", "--case", "sc1", "--alphabets", '{"X": true}'],
        ],
    )
    def test_exits_2_with_message(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "name, spec",
        [
            ("joint", [0.4, 0.1, 0.1, 0.4]),
            ("joint", {"sizes": "ab", "probs": [1.0]}),
            ("joint", {"sizes": [2, 1, 1, 1, 1, 2.0], "probs": [0.4, 0.1, 0.1, 0.4]}),
            ("distortion", [0.0, 1.0, 1.0, 0.0]),
            ("distortion", {"sizes": "ab", "values": [0.0]}),
            ("distortion", {"sizes": [2], "values": [0.0, 1.0]}),
            ("distortion", {"sizes": [2, 2], "values": [0.0, math.nan, 1.0, 0.0]}),
            ("distortion", {"sizes": [2, 2], "values": [0.0, -5.0, 1.0, 0.0]}),
        ],
        ids=["joint-list", "joint-sizes-str", "joint-sizes-float", "distortion-list",
             "distortion-sizes-str", "distortion-shape", "distortion-nan", "distortion-negative"],
    )
    def test_eval_input_file_exits_2(self, tmp_path, capsys, name, spec):
        # Xhat = X except with probability 0.2: the valid pair reads distortion 0.2
        files = {
            "joint": {"sizes": [2, 1, 1, 1, 1, 2], "probs": [0.4, 0.1, 0.1, 0.4]},
            "distortion": {"sizes": [2, 2], "values": [0.0, 1.0, 1.0, 0.0]},
        }
        argv = ["eval", "--case", "sc1"]
        for key, content in files.items():
            (tmp_path / f"{key}.json").write_text(json.dumps(content))
            argv += [f"--{key}", str(tmp_path / f"{key}.json")]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["distortion"] == pytest.approx(0.2)
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["cc1", "cc2lb", "cc2ub1", "cc2ub2", "cc2c", "fact1"])
    def test_eval_distortion_on_a_case_without_one_exits_2(self, tmp_path, capsys, case):
        n_axes = 7 if case.startswith("fact") else 6
        joint, distortion = tmp_path / "joint.json", tmp_path / "distortion.json"
        joint.write_text(json.dumps({"sizes": [2] + [1] * (n_axes - 1), "probs": [0.5, 0.5]}))
        distortion.write_text(json.dumps({"sizes": [2, 2], "values": [0.0, 1.0, 1.0, 0.0]}))
        argv = ["eval", "--case", case, "--joint", str(joint)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--distortion", str(distortion)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    # 1.0 + 1e-17 == 1.0, so stepping 1 by 1e-17 never reaches 2; 1 / 5e-324 overflows
    @pytest.mark.parametrize("grid", ["1:2:1e-17", "0:1:5e-324", f"0:1:{1 / GRID_CAP}", "0:1:1e-5"])
    def test_grid_above_the_point_cap_exits_2(self, grid, capsys):
        assert main(["capacity-case2c", "--problem", "builtin:example1", "--rprime-grid", grid]) == 2
        assert f"more than {GRID_CAP} points" in capsys.readouterr().err

    def test_grid_at_the_point_cap_is_read(self):
        assert len(_parse_grid(f"0:{GRID_CAP - 1}:1")) == GRID_CAP

    def test_solver_error_still_writes_partial_csv(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise GpNumericalError("line search failed")

        monkeypatch.setattr(sideinfo.cli, "rd_case1_sweep", fail)
        code = main(["rd-case1", "--problem", "builtin:example2", "--d", "0.1", "--rprime", "0.1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "d,r_prime,value,raw_value,winning_w,iterations,gap,status\n"
        assert "solver failure: line search failed" in captured.err

    def test_uncertified_dual_exits_3(self, monkeypatch, capsys):
        solve = sideinfo.gpdual.solve_gp
        monkeypatch.setattr(
            sideinfo.gpdual, "solve_gp", lambda p: dataclasses.replace(solve(p), certified=False)
        )
        assert main(["wz-rate", "--problem", "builtin:example3", "--d", "0.1", "--via", "gp"]) == 3
        assert capsys.readouterr().out.splitlines()[1].endswith(",uncertified")

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(sideinfo.cli, "capacity_case2_sweep", broken)
        with pytest.raises(TypeError, match="unexpected argument"):
            main(["capacity-case2", "--problem", "builtin:example1", "--rprime-grid", "0.1"])
