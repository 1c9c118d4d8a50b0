import numpy as np
import pytest

from sideinfo.ba import SourceInstance
from sideinfo.probability import Alphabet, JointPmf, simplex_grid
from sideinfo.problems import example2_source


@pytest.fixture
def admissible_kernels():
    """The (grid step, kernel index) pairs in each curve point's band, found independently.

    ``admissible_kernels(points, rate_of_w, n_given, out_axis)`` rebuilds the
    grid each point was solved on and applies the band [R' - eps, R'] to
    ``rate_of_w`` of every kernel, with R', eps and the step read from the
    point's extras. It returns the bands and a map from each pair to its
    orbit, (step, sorted kernel columns): a relabeling of the codomain
    permutes the columns.
    """

    def find(points, rate_of_w, n_given, out_axis):
        rates, bands, orbit = {}, [], {}
        for pt in points:
            step = pt.extras["grid_step"]
            if step not in rates:
                kernels = simplex_grid(n_given, out_axis, step).points
                rates[step] = [rate_of_w(w) for w in kernels]
                for i, w in enumerate(kernels):
                    orbit[step, i] = step, tuple(sorted(map(tuple, w.probs.T)))
            hi = pt.extras["clamped_r_prime"] + 1e-12
            lo = hi - pt.extras["epsilon"] - 2e-12
            bands.append({(step, i) for i, rw in enumerate(rates[step]) if lo <= rw <= hi})
        return bands, orbit

    return find


@pytest.fixture(scope="session")
def blahut_arimoto():
    """Plain Blahut-Arimoto capacity of a channel matrix p(y|x), as a certified bracket.

    ``blahut_arimoto(p)`` iterates r <- r * 2^D(p(.|x) || p_r) from uniform r
    and returns (lower, upper) in bits: I(r) <= C <= max_x D(p(.|x) || p_r),
    stopping once the bracket is below ``tol`` or after ``max_iters`` steps.
    """

    def capacity(p, tol=1e-10, max_iters=20000):
        r = np.full(p.shape[0], 1.0 / p.shape[0])
        for _ in range(max_iters):
            p_y = r @ p
            with np.errstate(divide="ignore", invalid="ignore"):
                d = np.where(p > 0, p * np.log2(p / p_y), 0.0).sum(axis=1)
            lower, upper = float(r @ d), float(d.max())
            if upper - lower < tol:
                break
            r = r * np.exp2(d - upper)
            r /= r.sum()
        return lower, upper

    return capacity


@pytest.fixture(scope="session")
def cell_source():
    """Sources with one cell of a chosen mass m, for the dual program's cell rule.

    ``cell_source("rd", m)`` is example2 (X = S1 xor S2) with mass m moved
    from p(x=1, s1=0, s2=1) to the empty cell p(x=0, s1=0, s2=1).
    ``cell_source("wz", m)`` has p(x, s2) = [[0.05 - m, m], [0.5, 0.45]], a
    trivial S1 and Hamming distortion. With m = 0 each is the neighbour of
    its near-zero case.
    """

    def make(kind, m):
        if kind == "rd":
            src = example2_source()
            p = src.joint.probs.copy()
            p[0, 0, 1] += m
            p[1, 0, 1] -= m
            return SourceInstance(src.x, src.xhat, src.s1, src.s2, JointPmf(src.joint.axes, p),
                                  src.distortion)
        x, s1, s2 = Alphabet(2, "X"), Alphabet(1, "S1"), Alphabet(2, "S2")
        p = np.array([[0.05 - m, m], [0.5, 0.45]]).reshape(2, 1, 2)
        return SourceInstance(x, x, s1, s2, JointPmf((x, s1, s2), p), 1.0 - np.eye(2))

    return make
