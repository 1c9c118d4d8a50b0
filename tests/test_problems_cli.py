import dataclasses
import hashlib
import json

import numpy as np
import pytest

from sideinfo.ba import ChannelInstance, SourceInstance
import sideinfo.cli
import sideinfo.gpdual
from sideinfo.cli import main
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
                "5840776e59f30de777b0e89f8a2686b7221d8a9d2ad7cbc7197040582604ef14",
            ),
            (
                "capacity-case2c --problem builtin:example1 --rprime-grid 0:0.6:0.2",
                "b471bff96ff8b68a0ec47de8214b74833b9b7b3e45a0f91f71366efbadd488a6",
            ),
            (
                "wz-rate --problem builtin:example3 --d-grid 0:0.3:0.05 --via both",
                "7e61ea8faed538503f80029d027071b10dd143d503b38d2d8bb577e2ffbde596",
            ),
            (
                "rd-case1 --problem builtin:example2 --d 0.1 --rprime 0.2",
                "f911e25877144f589226a84a79d56aa1df8c0ccba308d7a38a5ffab5ffe7eb46",
            ),
        ],
        ids=["capacity-case2", "capacity-case2c", "wz-rate", "rd-case1"],
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
        ],
    )
    def test_exits_2_with_message(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

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
