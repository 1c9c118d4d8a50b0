import pytest

from sideinfo.probability import simplex_grid


@pytest.fixture
def admissible_kernels():
    """The (grid step, kernel index) pairs in each curve point's band, found independently.

    ``admissible_kernels(points, rate_of_w, n_given, out_axis)`` rebuilds the
    grid each point was solved on and applies the band [R' - eps, R'] to
    ``rate_of_w`` of every kernel, with R', eps and the step read from the
    point's extras.
    """

    def find(points, rate_of_w, n_given, out_axis):
        rates = {}
        bands = []
        for pt in points:
            step = pt.extras["grid_step"]
            if step not in rates:
                rates[step] = [rate_of_w(w) for w in simplex_grid(n_given, out_axis, step).points]
            hi = pt.extras["clamped_r_prime"] + 1e-12
            lo = hi - pt.extras["epsilon"] - 2e-12
            bands.append({(step, i) for i, rw in enumerate(rates[step]) if lo <= rw <= hi})
        return bands

    return find
