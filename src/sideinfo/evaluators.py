"""Single-letter evaluators for the six coding cases, the two combined-rate
bounds, and the channel/source duality relabeling.

Evaluators take an explicit joint PMF with a fixed axis order and return the
objective rate, the description rate the joint requires, the distortion (for
source cases), and the Markov-chain violations of the case's factorization.
Arbitrary joints are accepted; violations are reported rather than rejected,
so variants that differ only by a Markov relation can be probed on the same
input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .ba import (
    ChannelInstance, SourceInstance, _distortion_matrix, _source_strategies, _strategy_joint
)
from .case2 import _CAUSAL, _NONCAUSAL, _state_v2_joint
from .probability import (
    Alphabet,
    CondKernel,
    JointPmf,
    ProbabilityError,
    binary_entropy,
    conditional_mutual_information as cmi,
)


@dataclass
class EvalResult:
    objective: float
    r_prime_required: float | tuple[float, float]
    distortion: float | None
    markov_violations: list[tuple[str, float]]
    extras: dict = field(default_factory=dict)


# Axis layout for channel-case joints: (S1, S2, V, U, X, Y)
_CC_S1, _CC_S2, _CC_V, _CC_U, _CC_X, _CC_Y = range(6)
# Axis layout for source-case joints: (X, S1, S2, V, U, Xhat)
_SC_X, _SC_S1, _SC_S2, _SC_V, _SC_U, _SC_XH = range(6)

_CC_CASES = ("1", "2lb", "2ub1", "2ub2", "2c")
_SC_CASES = ("1", "1c", "2")


def eval_cc(case: str, joint: JointPmf, channel: ChannelInstance | None = None) -> EvalResult:
    """Evaluate a channel-coding case on a joint over (S1, S2, V, U, X, Y)."""
    case = case.lower()
    if case not in _CC_CASES:
        raise ValueError(f"unknown channel case {case!r}; expected one of {_CC_CASES}")
    if len(joint.axes) != 6:
        raise ProbabilityError(f"channel evaluation needs 6 axes, got {len(joint.axes)}")

    v, u = (_CC_V,), (_CC_U,)
    ys2 = (_CC_Y, _CC_S2)
    if case == "2c":
        objective = cmi(joint, u, ys2, v)
    else:
        objective = cmi(joint, u, ys2, v) - cmi(joint, u, (_CC_S1,), v)

    if case == "1":
        r_prime = cmi(joint, v, (_CC_S1,)) - cmi(joint, v, ys2)
    elif case == "2c":
        r_prime = cmi(joint, v, (_CC_S2,))
    else:
        r_prime = cmi(joint, v, (_CC_S2,), (_CC_S1,))

    chains: list[tuple[str, float]] = []

    def chain_violation(name, a, b, c):
        chains.append((name, cmi(joint, a, c, b)))

    if case == "1":
        chain_violation("V-S1-S2", v, (_CC_S1,), (_CC_S2,))
        chain_violation("U-(S1,V)-S2", u, (_CC_S1, _CC_V), (_CC_S2,))
    elif case == "2lb":
        chain_violation("V-S2-S1", v, (_CC_S2,), (_CC_S1,))
        chain_violation("U-(S1,V)-S2", u, (_CC_S1, _CC_V), (_CC_S2,))
    elif case == "2ub1":
        chain_violation("U-(S1,V)-S2", u, (_CC_S1, _CC_V), (_CC_S2,))
    elif case == "2ub2":
        chain_violation("V-S2-S1", v, (_CC_S2,), (_CC_S1,))
    elif case == "2c":
        chain_violation("V-S2-S1", v, (_CC_S2,), (_CC_S1,))
        chain_violation("U-V-(S1,S2)", u, v, (_CC_S1, _CC_S2))

    extras = {}
    if channel is not None:
        chain_violation("Y-(X,S1,S2)-(V,U)", (_CC_Y,), (_CC_X, _CC_S1, _CC_S2), (_CC_V, _CC_U))
        extras["kernel_max_abs_diff"] = _kernel_mismatch(joint, channel)
    return EvalResult(objective, r_prime, None, chains, extras)


def _kernel_mismatch(joint: JointPmf, channel: ChannelInstance) -> float:
    p = joint.probs.sum(axis=(_CC_V, _CC_U))  # (S1, S2, X, Y)
    p = np.moveaxis(p, 2, 0)  # (X, S1, S2, Y)
    mass = p.sum(axis=3)
    live = mass > 1e-12
    cond = p[live] / mass[live][:, None]
    return float(np.abs(cond - channel.kernel.probs[live]).max(initial=0.0))


def eval_sc(case: str, joint: JointPmf, distortion: np.ndarray) -> EvalResult:
    """Evaluate a source-coding case on a joint over (X, S1, S2, V, U, Xhat)."""
    case = case.lower()
    if case not in _SC_CASES:
        raise ValueError(f"unknown source case {case!r}; expected one of {_SC_CASES}")
    if len(joint.axes) != 6:
        raise ProbabilityError(f"source evaluation needs 6 axes, got {len(joint.axes)}")

    v, u = (_SC_V,), (_SC_U,)
    xs1 = (_SC_X, _SC_S1)
    if case == "1c":
        objective = cmi(joint, u, xs1, v)
    else:
        objective = cmi(joint, u, xs1, v) - cmi(joint, u, (_SC_S2,), v)

    if case == "1":
        r_prime = cmi(joint, v, (_SC_S1,), (_SC_S2,))
    elif case == "1c":
        r_prime = cmi(joint, v, (_SC_S1,))
    else:
        r_prime = cmi(joint, v, (_SC_S2,)) - cmi(joint, v, xs1)

    p_xxh = joint.probs.sum(axis=(_SC_S1, _SC_S2, _SC_V, _SC_U))
    dist = float((p_xxh * _distortion_matrix(distortion, p_xxh.shape)).sum())

    chains: list[tuple[str, float]] = []
    if case in ("1", "1c"):
        chains.append(("V-S1-(X,S2)", cmi(joint, v, (_SC_X, _SC_S2), (_SC_S1,))))
    else:
        chains.append(("V-S2-(X,S1)", cmi(joint, v, (_SC_X, _SC_S1), (_SC_S2,))))
    chains.append(("U-(X,S1,V)-S2", cmi(joint, u, (_SC_S2,), (_SC_X, _SC_S1, _SC_V))))
    chains.append(
        ("Xhat-(U,S2,V)-(X,S1)", cmi(joint, (_SC_XH,), xs1, (_SC_U, _SC_S2, _SC_V)))
    )
    return EvalResult(objective, r_prime, dist, chains)


# Axis layout for the combined-rate bounds:
#   channel: (S1, S2, V1, V2, U, X, Y); source: (X, S1, S2, V1, V2, U, Xhat)


def eval_fact(fact: int, joint: JointPmf, distortion: np.ndarray | None = None) -> EvalResult:
    """Evaluate the two-sided description-rate bounds on a 7-axis joint.

    Fact 1 is the channel form over (S1, S2, V1, V2, U, X, Y); Fact 2 the
    source form over (X, S1, S2, V1, V2, U, Xhat). Both description-rate
    requirements are returned as a pair (R'_1, R'_2).
    """
    if len(joint.axes) != 7:
        raise ProbabilityError(f"combined-rate evaluation needs 7 axes, got {len(joint.axes)}")
    if fact == 1:
        s1, s2, v1, v2, u, x, y = range(7)
        vv = (v1, v2)
        objective = cmi(joint, (u,), (y, s2), vv) - cmi(joint, (u,), (s1,), vv)
        rp1 = cmi(joint, (v1,), (s1,)) - cmi(joint, (v1,), (y, s2, v2))
        rp2 = cmi(joint, (v2,), (s2,)) - cmi(joint, (v2,), (s1, v1))
        chains = [
            ("V1-S1-(S2,V2)", cmi(joint, (v1,), (s2, v2), (s1,))),
            ("V2-S2-(S1,V1)", cmi(joint, (v2,), (s1, v1), (s2,))),
            ("U-(S1,V1,V2)-S2", cmi(joint, (u,), (s2,), (s1, v1, v2))),
        ]
        return EvalResult(objective, (rp1, rp2), None, chains)
    if fact == 2:
        x, s1, s2, v1, v2, u, xh = range(7)
        vv = (v1, v2)
        objective = cmi(joint, (u,), (x, s1), vv) - cmi(joint, (u,), (s2,), vv)
        rp1 = cmi(joint, (v1,), (s1,)) - cmi(joint, (v1,), (s2, v2))
        rp2 = cmi(joint, (v2,), (s2,)) - cmi(joint, (v2,), (x, s1, v1))
        chains = [
            ("V1-S1-(X,S2,V2)", cmi(joint, (v1,), (x, s2, v2), (s1,))),
            ("V2-S2-(X,S1,V1)", cmi(joint, (v2,), (x, s1, v1), (s2,))),
            ("U-(X,S1,V1,V2)-S2", cmi(joint, (u,), (s2,), (x, s1, v1, v2))),
        ]
        dist = None
        if distortion is not None:
            p_xxh = joint.probs.sum(axis=(s1, s2, v1, v2, u))
            dist = float((p_xxh * _distortion_matrix(distortion, p_xxh.shape)).sum())
        return EvalResult(objective, (rp1, rp2), dist, chains)
    raise ValueError(f"unknown fact {fact!r}; expected 1 or 2")


# ---------------------------------------------------------------------------
# Duality relabeling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseDescriptor:
    """A named coding case with its roles spelled out; purely symbolic."""

    problem: str  # "channel" | "source"
    case: str
    direction: str
    quantity: str
    objective: str
    constraint: str
    alphabets: tuple[tuple[str, int], ...] = ()


_DESCRIPTORS = {
    ("channel", "1"): CaseDescriptor(
        "channel", "1", "max", "C_1(R')",
        "I(U;Y,S2|V1) - I(U;S1|V1)", "R' >= I(V1;S1) - I(V1;Y,S2)",
    ),
    ("channel", "2"): CaseDescriptor(
        "channel", "2", "max", "C_2(R')",
        "I(U;Y,S2|V2) - I(U;S1|V2)", "R' >= I(V2;S2|S1)",
    ),
    ("channel", "2c"): CaseDescriptor(
        "channel", "2c", "max", "C_2C(R')",
        "I(U;Y,S2|V2)", "R' >= I(V2;S2)",
    ),
    ("source", "1"): CaseDescriptor(
        "source", "1", "min", "R_1(R',D)",
        "I(U;X,S1|V1) - I(U;S2|V1)", "R' >= I(V1;S1|S2)",
    ),
    ("source", "1c"): CaseDescriptor(
        "source", "1c", "min", "R_1C(R',D)",
        "I(U;X,S1|V1)", "R' >= I(V1;S1)",
    ),
    ("source", "2"): CaseDescriptor(
        "source", "2", "min", "R_2(R',D)",
        "I(U;X,S1|V2) - I(U;S2|V2)", "R' >= I(V2;S2) - I(V2;X,S1)",
    ),
}

_DUAL_CASE = {
    ("channel", "1"): ("source", "2"),
    ("channel", "2"): ("source", "1"),
    ("channel", "2c"): ("source", "1c"),
    ("source", "2"): ("channel", "1"),
    ("source", "1"): ("channel", "2"),
    ("source", "1c"): ("channel", "2c"),
}


def case_descriptor(problem: str, case: str, alphabets: dict[str, int] | None = None) -> CaseDescriptor:
    key = (problem.lower(), case.lower())
    if key not in _DESCRIPTORS:
        raise ValueError(f"unknown case {key!r}")
    desc = _DESCRIPTORS[key]
    if alphabets:
        desc = replace(desc, alphabets=tuple(sorted(alphabets.items())))
    return desc


def _swap_alphabet_roles(problem: str, alphabets: tuple[tuple[str, int], ...]):
    """Relabel alphabets under the channel<->source substitution.

    Channel roles (X, Y, S1, S2, V1/V2, U) map to source roles
    (Xhat, X, S2, S1, V2/V1, U) and back; the mapping is an involution.
    """
    if not alphabets:
        return ()
    chan_to_src = {"X": "Xhat", "Y": "X", "S1": "S2", "S2": "S1", "V1": "V2", "V2": "V1", "U": "U"}
    mapping = chan_to_src if problem == "channel" else {v: k for k, v in chan_to_src.items()}
    return tuple(sorted((mapping.get(name, name), size) for name, size in alphabets))


def dualize(descriptor: CaseDescriptor) -> CaseDescriptor:
    """The dual coding case: max<->min, roles relabeled, R' arguments mapped.

    Purely syntactic; no probability transformation is performed. Applying
    it twice returns the original descriptor.
    """
    key = (descriptor.problem.lower(), descriptor.case.lower())
    if key not in _DUAL_CASE:
        raise ValueError(f"unknown case {key!r}")
    dual_key = _DUAL_CASE[key]
    dual = _DESCRIPTORS[dual_key]
    return replace(dual, alphabets=_swap_alphabet_roles(descriptor.problem, descriptor.alphabets))


def example2_closed_form(d: float, r_prime: float) -> float:
    """max{1 - H(D) - R', 0} for the binary symmetric modulo-sum source."""
    if not 0.0 <= d <= 1.0:
        raise ValueError("distortion must be in [0, 1]")
    if r_prime < 0:
        raise ValueError("r_prime must be >= 0")
    return max(1.0 - binary_entropy(d) - r_prime, 0.0)


# ---------------------------------------------------------------------------
# Joint reconstruction from optimizer outputs
# ---------------------------------------------------------------------------


def build_case2_joint(ch: ChannelInstance, w: CondKernel, q: CondKernel) -> JointPmf:
    """Joint (S1, S2, V, U, X, Y) realized by a description kernel and q(t|s1,v2).

    U is the strategy variable, over ``inner_max``'s strategies; X = t(s1, v2)
    deterministically.
    """
    return _strategy_joint(
        ch, _state_v2_joint(ch, w), (ch.s1, ch.s2, w.out_axes[0]), q.probs,
        *_NONCAUSAL[:2],
    )


def build_case2c_joint(ch: ChannelInstance, w: CondKernel, u_dist: CondKernel) -> JointPmf:
    """Joint (S1, S2, V, U, X, Y) for the causal variant: U ~ p(t|v2), X = t(s1)."""
    return _strategy_joint(
        ch, _state_v2_joint(ch, w), (ch.s1, ch.s2, w.out_axes[0]), u_dist.probs,
        *_CAUSAL[:2],
    )


def build_wz_joint(src: SourceInstance, q: CondKernel) -> JointPmf:
    """Joint (X, S1, S2, V, U, Xhat) realized by the Wyner-Ziv q(t|x,s1) on any source.

    The encoder sees (X, S1) and the decoder S2: V is a point mass (no
    description), U is the strategy variable over the maps S2 -> Xhat, and
    Xhat = t(s2).
    """
    strategies = _source_strategies(src)
    n_t = len(strategies)
    x, s1, s2, t = np.ix_(range(src.x.size), range(src.s1.size), range(src.s2.size), range(n_t))
    out = np.zeros(src.joint.probs.shape + (1, n_t, src.xhat.size))
    out[x, s1, s2, 0, t, strategies.tables[t, s2]] = src.joint.probs[x, s1, s2] * q.probs[x, s1, t]
    axes = (src.x, src.s1, src.s2, Alphabet(1, "V"), strategies.alphabet, src.xhat)
    return JointPmf(axes, out)
