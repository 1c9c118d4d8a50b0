"""Command-line surface: problem ingestion, solver dispatch, sweeps, CSV/JSON out.

Exit codes: 0 success, 2 parse/usage errors (options and grids are checked
before any solve), 3 solver failures (a partial CSV is still written). Reals
print with 6 decimal digits; values are bits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .ba import ChannelInstance, SolverOptions, SourceInstance, wz_primal
from .case2 import Case2Options, CurvePoint, capacity_case2_sweep
from .evaluators import case_descriptor, dualize, eval_cc, eval_fact, eval_sc
from .gpdual import (
    Case1Options,
    GpInfeasibleError,
    GpNumericalError,
    rd_case1_sweep,
    wz_rate_via_gp,
)
from .probability import Alphabet, JointPmf, ProbabilityError, grid_size
from .problems import ProblemFileError, load_problem
from .strategies import StrategyCapacityError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
GRID_CAP = 10_000  # points in one a:b:step grid
CURVE_HEADER = "r_prime,value,raw_value,winning_w,iterations,gap,status"
# failures of a solve on valid input; anything else is a programming error
SOLVER_ERRORS = (GpNumericalError, GpInfeasibleError, ProbabilityError, StrategyCapacityError)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.6f}"


def _parse_grid(text: str) -> list[float]:
    """Values of 'a:b:step' or of a single value; every number must be finite, every value >= 0.

    'a:b:step' holds the values round(a + i * step, 12) up to b, at most ``GRID_CAP`` of them.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise CliError(f"grid {text!r} must be 'a:b:step' or a single value", EXIT_PARSE)
    try:
        nums = [float(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"grid {text!r} is not numeric", EXIT_PARSE) from exc
    if not all(map(math.isfinite, nums)):
        raise CliError(f"grid {text!r} has a value that is not finite", EXIT_PARSE)
    values = nums[:1]
    if len(nums) == 3:
        a, b, step = nums
        if step <= 0:
            raise CliError(f"grid step must be > 0 in {text!r}", EXIT_PARSE)
        if b < a:
            raise CliError(f"grid end is below its start in {text!r}", EXIT_PARSE)
        count = (b - a) / step + 1e-9  # one less than the number of points, plus slack
        if not count < GRID_CAP:
            raise CliError(f"grid {text!r} has more than {GRID_CAP} points", EXIT_PARSE)
        values = [round(a + i * step, 12) for i in range(math.floor(count) + 1)]
    if any(v < 0 for v in values):
        raise CliError(f"grid {text!r} has a negative value", EXIT_PARSE)
    return values


def _options(factory, **kwargs):
    """``factory(**kwargs)``, with an invalid value reported as a usage error."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc


def _load(problem: str):
    try:
        return load_problem(problem)
    except ProblemFileError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_rows(header: str, rows, out_path: str | None) -> int:
    """Write ``header`` and the line of each (line, ok) of ``rows``; exit 3 once a row is not
    ok, or when a solver fails, which ends the rows and still writes the partial CSV."""
    lines, code = [header], EXIT_OK
    try:
        for line, ok in rows:
            lines.append(line)
            code = code if ok else EXIT_SOLVER
    except SOLVER_ERRORS as exc:  # partial CSV on solver failure
        print(f"solver failure: {exc}", file=sys.stderr)
        code = EXIT_SOLVER
    _emit(lines, out_path)
    return code


def _curve_row(pt: CurvePoint) -> str:
    """One ``CURVE_HEADER`` row."""
    return (
        f"{_fmt(pt.r_prime)},{_fmt(pt.value)},{_fmt(pt.raw_value)},"
        f"{pt.winning_w},{pt.iterations},{_fmt(pt.gap)},{pt.status}"
    )


def _require_channel(inst) -> ChannelInstance:
    if not isinstance(inst, ChannelInstance):
        raise CliError("this command needs a channel problem", EXIT_PARSE)
    return inst


def _require_source(inst) -> SourceInstance:
    if not isinstance(inst, SourceInstance):
        raise CliError("this command needs a source problem", EXIT_PARSE)
    return inst


def _cmd_capacity_case2(args, causal: bool) -> int:
    ch = _require_channel(_load(args.problem))
    opts = _options(Case2Options, epsilon=args.epsilon, delta=args.delta,
                    grid_step=args.grid_step, v2_size=args.v2)
    _options(grid_size, slices=ch.s2.size, k=opts.v2_size, step=opts.grid_step)
    grid = _parse_grid(args.rprime_grid)

    def rows():
        for pt in capacity_case2_sweep(ch, grid, opts, causal=causal):
            yield _curve_row(pt), pt.status == "ok"

    return _write_rows(CURVE_HEADER, rows(), args.out)


def _cmd_wz_rate(args) -> int:
    src = _require_source(_load(args.problem))
    if (args.d_grid is None) == (args.d is None):
        raise CliError("wz-rate needs one of --d and --d-grid", EXIT_PARSE)
    ds = _parse_grid(repr(args.d) if args.d_grid is None else args.d_grid)
    opts = _options(SolverOptions, delta=args.delta)
    if not (math.isfinite(args.tight_tol) and args.tight_tol >= 0):
        raise CliError("--tight-tol must be finite and >= 0", EXIT_PARSE)

    def rows():
        for d in ds:
            if args.via == "ba":
                rep = wz_primal(src, d, opts)
            else:  # the primal cross-check only with --via both
                rep = wz_rate_via_gp(src, d, opts, args.via == "both", args.tight_tol)
            if args.via != "both":
                row = f"{_fmt(d)},{_fmt(rep.value)},{_fmt(rep.gap)},{rep.iterations},{rep.status}"
                yield row, rep.status in ("ok", "distortion-floor")
                continue
            primal = rep.extras["primal_value"]
            gap = abs(primal - rep.value)
            # not ok: uncertified, or not tight within --tight-tol
            yield f"{_fmt(d)},{_fmt(primal)},{_fmt(rep.value)},{_fmt(gap)}", rep.status == "ok"

    header = "D,primal,gp,gap" if args.via == "both" else "D,value,gap,iterations,status"
    return _write_rows(header, rows(), args.out)


def _cmd_rd_case1(args) -> int:
    src = _require_source(_load(args.problem))
    opts = _options(Case1Options, epsilon=args.epsilon, grid_step=args.grid_step, v1_size=args.v1)
    _options(grid_size, slices=src.s1.size, k=opts.v1_size, step=opts.grid_step)
    ds = _parse_grid(args.d)
    rps = _parse_grid(args.rprime)

    def rows():
        for d in ds:
            for pt in rd_case1_sweep(src, d, rps, opts):
                yield f"{_fmt(d)},{_curve_row(pt)}", pt.status == "ok"

    return _write_rows("d," + CURVE_HEADER, rows(), args.out)


_EVAL_AXES = {
    "cc1": 6, "cc2lb": 6, "cc2ub1": 6, "cc2ub2": 6, "cc2c": 6,
    "sc1": 6, "sc1c": 6, "sc2": 6, "fact1": 7, "fact2": 7,
}


def _load_table(path: str, what: str, key: str) -> np.ndarray:
    """The list ``key`` of the JSON object in ``path``, shaped by its list ``sizes``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError("the file must hold a JSON object")
        sizes = spec["sizes"]
        if not (isinstance(sizes, list) and all(type(n) is int and n >= 1 for n in sizes)):
            raise ValueError(f"'sizes' must be a list of positive integers, got {sizes!r}")
        return np.asarray(spec[key], dtype=float).reshape(sizes)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot load {what}: {exc}", EXIT_PARSE) from exc


def _load_joint(path: str, n_axes: int) -> JointPmf:
    probs = _load_table(path, "joint", "probs")
    if probs.ndim != n_axes:
        raise CliError(f"joint needs {n_axes} axes, got {probs.ndim}", EXIT_PARSE)
    try:
        return JointPmf(tuple(Alphabet(n, f"A{i}") for i, n in enumerate(probs.shape)), probs)
    except ProbabilityError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc


def _cmd_eval(args) -> int:
    case = args.case.lower()
    if case not in _EVAL_AXES:
        raise CliError(f"unknown case {case!r}; expected one of {sorted(_EVAL_AXES)}", EXIT_PARSE)
    if args.distortion and not (case.startswith("sc") or case == "fact2"):
        raise CliError(f"--distortion applies to source cases and fact2, not {case}", EXIT_PARSE)
    joint = _load_joint(args.joint, _EVAL_AXES[case])
    distortion = _load_table(args.distortion, "distortion", "values") if args.distortion else None
    try:
        if case.startswith("cc"):
            result = eval_cc(case[2:], joint)
        elif case.startswith("sc"):
            if distortion is None:
                raise CliError("source cases need --distortion", EXIT_PARSE)
            result = eval_sc(case[2:], joint, distortion)
        else:
            result = eval_fact(int(case[-1]), joint, distortion)
    except (ProbabilityError, ValueError) as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    payload = {
        "objective": result.objective,
        "r_prime_required": result.r_prime_required,
        "distortion": result.distortion,
        "markov_violations": [[name, v] for name, v in result.markov_violations],
    }
    _emit([json.dumps(payload, indent=2)], args.out)
    return EXIT_OK


def _cmd_dualize(args) -> int:
    case = args.case.lower()
    if case.startswith("cc"):
        problem, case_id = "channel", case[2:]
    elif case.startswith("sc"):
        problem, case_id = "source", case[2:]
    else:
        raise CliError(f"case must start with cc or sc, got {case!r}", EXIT_PARSE)
    alphabets = None
    if args.alphabets:
        try:
            alphabets = json.loads(args.alphabets)
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid alphabets JSON: {exc}", EXIT_PARSE) from exc
        sizes = alphabets.values() if isinstance(alphabets, dict) else [None]
        if not all(type(n) is int and n >= 1 for n in sizes):
            raise CliError("--alphabets must map role names to positive integers", EXIT_PARSE)
    try:
        desc = dualize(case_descriptor(problem, case_id, alphabets))
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    payload = {
        "problem": desc.problem,
        "case": desc.case,
        "direction": desc.direction,
        "quantity": desc.quantity,
        "objective": desc.objective,
        "constraint": desc.constraint,
        "alphabets": dict(desc.alphabets),
    }
    _emit([json.dumps(payload, indent=2)], args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sideinfo",
        description="Capacity and rate-distortion with rate-limited partial side information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True, help="JSON path or builtin:NAME")
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    for name, states in (("capacity-case2", "noncausal"), ("capacity-case2c", "causal states")):
        p = sub.add_parser(name, help=f"description-rate capacity sweep ({states})")
        common(p)
        p.add_argument("--rprime-grid", required=True, help="a:b:step or a single value")
        p.add_argument("--grid-step", type=float, default=0.05)
        p.add_argument("--v2", type=int, default=2)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--delta", type=float, default=1e-6)

    p = sub.add_parser("wz-rate", help="Wyner-Ziv rate by alternating minimization and/or the dual")
    common(p)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--d-grid", default=None)
    p.add_argument("--via", choices=("ba", "gp", "both"), default="both")
    p.add_argument("--tight-tol", type=float, default=1e-3)
    p.add_argument("--delta", type=float, default=1e-6)

    p = sub.add_parser("rd-case1", help="rate-distortion with a rate-limited state description")
    common(p)
    p.add_argument("--d", required=True, help="distortion target or a:b:step grid")
    p.add_argument("--rprime", required=True, help="description rate or a:b:step grid")
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--v1", type=int, default=2)
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("eval", help="evaluate a coding case on an explicit joint PMF")
    p.add_argument("--case", required=True)
    p.add_argument("--joint", required=True, help="JSON with 'sizes' and flat 'probs'")
    p.add_argument("--distortion", default=None, help="JSON with 'sizes' and 'values'")
    p.add_argument("--out", default=None)

    p = sub.add_parser("dualize", help="print the dual case descriptor")
    p.add_argument("--case", required=True, help="cc1|cc2|cc2c|sc1|sc1c|sc2")
    p.add_argument("--alphabets", default=None, help="JSON map of role name to size")
    p.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "capacity-case2":
            return _cmd_capacity_case2(args, causal=False)
        if args.command == "capacity-case2c":
            return _cmd_capacity_case2(args, causal=True)
        if args.command == "wz-rate":
            return _cmd_wz_rate(args)
        if args.command == "rd-case1":
            return _cmd_rd_case1(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "dualize":
            return _cmd_dualize(args)
        parser.error(f"unknown command {args.command}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
