import math

import mpmath
import numpy as np
import pytest

from superosc.quadrature import adaptive_gk


class _Counted:
    """Integrand wrapper that records the abscissae of every call."""

    def __init__(self, f):
        self.f = f
        self.calls: list[np.ndarray] = []

    def __call__(self, x):
        self.calls.append(np.array(x))
        return self.f(x)

    @property
    def intervals(self) -> int:
        sizes = [x.size for x in self.calls]
        assert all(n % 15 == 0 for n in sizes)
        return sum(sizes) // 15


@pytest.mark.parametrize("degree", [0, 1, 7, 13, 14, 21])
def test_single_interval_exact_for_polynomials(degree):
    # the 15-point Kronrod rule integrates degree <= 22 exactly; Gauss-7 only <= 13
    rng = np.random.default_rng(degree)
    poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
    a, b = -0.3, 1.1
    exact = poly.integ()(b) - poly.integ()(a)
    res = adaptive_gk(poly, a, b, abs_tol=math.inf)
    assert res.n_evals == 15
    assert abs(res.value - exact) <= 1e-14 * np.abs(poly.coef).sum()
    if degree <= 13:
        assert res.error <= 1e-14 * np.abs(poly.coef).sum()


def test_periodic_exp_cos_against_bessel_i0():
    exact = float(2 * mpmath.pi * mpmath.besseli(0, 1))
    res = adaptive_gk(lambda t: np.exp(np.cos(t)), 0.0, 2.0 * math.pi, abs_tol=1e-13)
    assert res.error <= 1e-13
    assert abs(res.value - exact) <= 1e-13


@pytest.mark.parametrize("center,tol", [(0.0, 1e-10), (0.1234, 1e-10), (0.1234, 1e-6)])
def test_narrow_lorentzian_error_bounds_true_error(center, tol):
    eps, a, b = 1e-3, -1.0, 2.0

    def lorentzian(x):
        return eps / ((x - center) ** 2 + eps**2)

    exact = math.atan((b - center) / eps) - math.atan((a - center) / eps)
    res = adaptive_gk(lorentzian, a, b, abs_tol=tol, max_subdivisions=2000)
    assert res.error <= tol
    assert abs(res.value - exact) <= res.error


@pytest.mark.parametrize("initial", [1, 3, 8])
def test_n_evals_counts_every_interval_evaluated(initial):
    f = _Counted(lambda x: np.exp(1j * 40.0 * x) / (1.0 + x**2))
    res = adaptive_gk(f, -2.0, 3.0, abs_tol=1e-12, initial_intervals=initial)
    assert res.error <= 1e-12
    assert res.n_evals == 15 * f.intervals
    assert (f.intervals - initial) % 2 == 0  # each bisection evaluates two children


@pytest.mark.parametrize("max_subdivisions", [0, 1, 2, 5, 17, 100])
@pytest.mark.parametrize("initial", [1, 3])
def test_zero_tolerance_stops_at_max_subdivisions(max_subdivisions, initial):
    f = _Counted(lambda x: np.exp(np.sin(3.0 * x)))
    res = adaptive_gk(f, 0.0, 5.0, abs_tol=0.0, max_subdivisions=max_subdivisions,
                      initial_intervals=initial)
    bisections = (f.intervals - initial) // 2
    assert bisections == max_subdivisions
    assert res.n_evals == 15 * (initial + 2 * bisections)
    # refinement is batched: one integrand call per round, rounds at most double
    assert len(f.calls) <= 1 + math.ceil(math.log2(max_subdivisions / initial + 1))


def test_truncated_round_bisects_the_worst_interval():
    # the peak sits in the second of four intervals; a budget of one bisection
    # must go there
    f = _Counted(lambda x: 1e-2 / ((x - 1.3) ** 2 + 1e-4))
    adaptive_gk(f, 0.0, 4.0, abs_tol=0.0, max_subdivisions=1, initial_intervals=4)
    assert len(f.calls) == 2
    assert f.calls[1].size == 30
    assert np.all((f.calls[1] > 1.0) & (f.calls[1] < 2.0))
