import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continuantlab import cfcore
from continuantlab import dimension as dimension_module
from continuantlab.dimension import (DimensionResult, _barycentric_weights,
                                     _chebyshev_nodes, dimension, discretize,
                                     hensley_asymptotic, hull,
                                     leading_eigenvalue, pressure_eigenvalue,
                                     sector_count_check)
from continuantlab.errors import ConstructionError, InputError, ResourceError
from conftest import (oracle_dimension, oracle_sector_count_check,
                      product_barycentric_weights)

DELTA2 = 0.5312805062772051416244686  # 25-digit reference value


def test_hull_closed_forms():
    # single letters: the fixed point of x = 1/(a + x)
    lo, hi = hull((1,))
    assert lo == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-14)
    assert hi == pytest.approx(lo, abs=1e-13)
    lo, hi = hull((2,))
    assert lo == pytest.approx(math.sqrt(2) - 1, abs=1e-14)
    # {1,2}: endpoints are the alternating fixed points
    # lo = 1/(2 + hi), hi = 1/(1 + lo)  =>  hi = sqrt(3) - 1, lo = hi / 2
    lo, hi = hull((1, 2))
    assert hi == pytest.approx(math.sqrt(3) - 1, abs=1e-14)
    assert lo == pytest.approx((math.sqrt(3) - 1) / 2, abs=1e-14)


@pytest.mark.parametrize("letters", [(1,), (2,), (7,), (1, 2), (1000, 1001),
                                     (1, 10 ** 6)])
def test_hull_closed_form_is_the_fixed_point(letters):
    lo, hi = hull(letters)
    assert lo == 1 / (max(letters) + hi)
    assert abs(1 / (min(letters) + lo) - hi) <= 2 * math.ulp(hi)


def test_hull_contains_branch_images():
    for letters in ((1, 2), (1, 3), (2, 4, 6, 8, 10), (1, 2, 3, 4, 5)):
        lo, hi = hull(letters)
        for a in letters:
            assert lo <= 1 / (a + hi) and 1 / (a + lo) <= hi + 1e-15


def test_eigenvalue_at_s0_is_alphabet_size():
    for letters in ((1, 2), (1, 3), (2, 4, 6), (1, 2, 3, 4, 5)):
        assert pressure_eigenvalue(letters, 0.0) == pytest.approx(len(letters),
                                                                  abs=1e-10)


def test_eigenvalue_one_at_reference_delta2():
    lam = pressure_eigenvalue((1, 2), DELTA2)
    assert abs(lam - 1.0) < 1e-10


def test_eigenvalue_monotone_and_logconvex():
    ss = np.linspace(0.05, 1.5, 50)
    lams = [pressure_eigenvalue((1, 2), s, nodes=40) for s in ss]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    logs = np.log(lams)
    # adjacent-triple convexity of log lam(s) on the uniform grid
    assert np.all(logs[:-2] + logs[2:] - 2 * logs[1:-1] > -1e-9)


def test_dimension_reference_values():
    assert abs(dimension((1, 2)).delta - DELTA2) < 1e-10
    assert abs(dimension((1, 3)).delta - 0.4544890776618) < 1e-9


def test_dimension_single_letter_zero():
    res = dimension((1,))
    assert res.delta == 0.0
    assert dimension((5,)).delta == 0.0


def test_dimension_monotone_in_alphabet():
    d12 = dimension((1, 2)).delta
    d123 = dimension((1, 2, 3)).delta
    d1234 = dimension((1, 2, 3, 4)).delta
    assert 0 < d12 < d123 < d1234 < 1


def test_dimension_between_zero_and_one():
    for letters in ((1, 3), (2, 4, 6, 8, 10), (3, 7), (1, 2, 3, 4, 5)):
        assert 0 < dimension(letters).delta < 1


def test_node_doubling_stability():
    tol = 1e-12
    for n in (32, 64):
        a = dimension((1, 2), tol=tol, nodes=n).delta
        b = dimension((1, 2), tol=tol, nodes=2 * n).delta
        assert abs(a - b) < 10 * tol


def test_dimension_residual_and_history():
    res = dimension((1, 3))
    assert res.residual < 1e-10
    assert res.eigenvalue_at_delta == pytest.approx(1.0, abs=1e-10)
    assert len(res.history) > 5


def test_dimension_evaluates_through_the_module_globals(monkeypatch):
    calls = {"discretize": 0, "leading_eigenvalue": 0}
    for name in calls:
        def counted(*args, _fn=getattr(dimension_module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(dimension_module, name, counted)
    res = dimension((1, 3))
    assert calls == {"discretize": len(res.history), "leading_eigenvalue": len(res.history)}


def test_dimension_root_not_bracketed(monkeypatch):
    monkeypatch.setattr(dimension_module, "pressure_eigenvalue", lambda *args: 0.5)
    with pytest.raises(ConstructionError):
        dimension((1, 2))


def test_dimension_steps_stay_inside_the_bracket(monkeypatch):
    # P(s) = exp(-40 s) - 1/2 flattens out past its root log(2)/40, so a plain
    # secant through two points there jumps far outside (0, 1)
    monkeypatch.setattr(dimension_module, "pressure_eigenvalue",
                        lambda alphabet, s, nodes: math.exp(math.exp(-40 * s) - 0.5))
    res = dimension((1, 2))
    assert all(1e-9 <= s <= 1 for s, _ in res.history)
    assert res.delta == pytest.approx(math.log(2) / 40, abs=1e-12)


def test_tol_floor_rejected():
    with pytest.raises(InputError):
        dimension((1, 2), tol=1e-14)


def test_power_iteration_against_dense_solver():
    # independent oracle: full spectrum from LAPACK
    for letters, s in (((1, 2), 0.5), ((1, 3), 0.45), ((1, 2, 3, 4, 5), 0.8)):
        disc = discretize(letters, s, nodes=48)
        lam = leading_eigenvalue(disc)
        ev = np.linalg.eigvals(disc.matrix)
        assert lam == pytest.approx(float(np.max(ev.real)), rel=1e-11)


def test_hensley_asymptotic_values():
    # 1 - 6/(2 pi^2) - 72 log 2/(4 pi^4) = 0.56795138...
    assert hensley_asymptotic(2) == pytest.approx(0.5679514, abs=5e-7)
    assert hensley_asymptotic(10 ** 6) > 0.9999993
    with pytest.raises(InputError):
        hensley_asymptotic(1)


def test_hensley_asymptotic_approaches_dimension():
    # calibrated at A = 16, 32, 64: |dimension - formula| < 1.5 / A^2
    for A in (16, 32, 64):
        d = dimension(tuple(range(1, A + 1))).delta
        assert abs(d - hensley_asymptotic(A)) < 1.5 / A ** 2


def test_sector_slope_full_interval():
    rep = sector_count_check((1, 2), 10 ** 5, (0.0, 1.0))
    assert rep.slope is not None
    assert abs(rep.slope - 2 * DELTA2) < 0.1


def test_sector_density_point_window():
    # 1/log N window around sqrt(2)-1: count well above N^(2 delta)/log N
    x = math.sqrt(2) - 1
    for N in (10 ** 4, 10 ** 5):
        eta = 1 / math.log(N)
        rep = sector_count_check((1, 2), N, (x - eta, x + eta), grid_points=2)
        floor = N ** (2 * DELTA2) / math.log(N)
        assert rep.counts[-1] > floor


def test_sector_interval_missing_limit_set():
    # [0.9, 1] misses the {1,2} limit set (its hull tops out at sqrt(3)-1)
    rep = sector_count_check((1, 2), 2000, (0.9, 1.0))
    assert rep.empty and rep.counts[-1] == 0 and rep.slope is None
    # just below the hull top the count is positive
    rep2 = sector_count_check((1, 2), 2000, (0.70, 0.74))
    assert rep2.counts[-1] > 0


def test_sector_validation():
    with pytest.raises(InputError):
        sector_count_check((1, 2), 1000, (0.5, 0.2))
    with pytest.raises(InputError):
        sector_count_check((1, 2), 10, (0.0, 1.0))
    for grid_points in (1, 0):
        with pytest.raises(InputError):
            sector_count_check((1, 2), 1000, (0.0, 1.0), grid_points=grid_points)


def test_dimension_module_is_the_package_attribute():
    import continuantlab.dimension as D
    assert callable(D.dimension) and callable(D.sector_count_check)
    assert D is dimension_module


@st.composite
def sector_cases(draw):
    """An alphabet within {1..6}, N up to 3000 / |A|^2 + 100, a subinterval
    of [0, 1] and a grid size: small enough for the recursive oracle."""
    letters = tuple(sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=4))))
    N = draw(st.floats(100.0, 100.0 + 3000.0 / len(letters) ** 2))
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)))
    return letters, N, (lo, hi), draw(st.integers(2, 6))


@settings(max_examples=40, deadline=None)
@given(case=sector_cases())
@example(case=((1, 2), 3000.0, (0.3, 0.5), 5))
@example(case=((1, 2), 2000.0, (0.9, 1.0), 5))
@example(case=((1, 2, 3, 4, 5, 6), 150.0, (0.0, 1.0), 3))
def test_sector_count_matches_scalar_oracle(case):
    letters, N, interval, grid = case
    assert sector_count_check(letters, N, interval, grid) == \
        oracle_sector_count_check(letters, N, interval, grid)


def test_sector_refuses_past_the_frontier_cap(monkeypatch):
    monkeypatch.setattr(cfcore, "FRONTIER_CAP", 1000)
    with pytest.raises(ResourceError):
        sector_count_check((1, 2, 3, 4, 5), 1e9, (0.3, 0.5))


def test_closed_form_barycentric_weights_match_product_form():
    for letters in ((1, 2), (1, 3), (1, 2, 3, 4, 5)):
        x = _chebyshev_nodes(64, *hull(letters))
        ratio = _barycentric_weights(64) / product_barycentric_weights(x)
        assert np.ptp(ratio) < 1e-12 * np.abs(ratio).max()


@pytest.mark.parametrize("letters, nodes", [((1000, 1001), 64), ((100, 101), 128),
                                            ((1, 2), 512)])
def test_dimension_solves_where_product_weights_underflow(letters, nodes):
    # the product weights 1/prod(x_j - x_k) are not finite here
    x = _chebyshev_nodes(nodes, *hull(letters))
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(product_barycentric_weights(x)))
    res = dimension(letters, nodes=nodes)
    assert res.residual < 1e-12
    if letters == (1, 2):
        assert res.delta == pytest.approx(DELTA2, abs=1e-14)
    if letters == (1000, 1001):
        assert res.delta == pytest.approx(0.0501680, abs=1e-7)


@settings(max_examples=25, deadline=None)
@given(letters=st.sets(st.integers(1, 60), min_size=2, max_size=6).map(sorted).map(tuple),
       nodes=st.sampled_from((32, 64)))
@example(letters=(1, 2), nodes=64)
@example(letters=(59, 60), nodes=32)
@example(letters=(6, 7, 22, 42, 47, 60), nodes=32)  # the last secant step is not the best
def test_dimension_matches_bisection_secant_oracle(letters, nodes):
    tol = 1e-12
    res = dimension(letters, tol=tol, nodes=nodes)
    assert abs(res.delta - oracle_dimension(letters, tol=tol, nodes=nodes).delta) <= 2 * tol
    assert res.residual < 1e-12
    assert res.eigenvalue_at_delta == res.history[-1][1]
    assert res.delta == res.history[-1][0]
    lam_below = pressure_eigenvalue(letters, res.delta - 1e-9, nodes)
    lam_above = pressure_eigenvalue(letters, res.delta + 1e-9, nodes)
    assert lam_below > 1 > lam_above


@pytest.mark.parametrize("letters", [(1, 2), (1, 3), (2, 4, 6, 8, 10), tuple(range(1, 6)),
                                     tuple(range(1, 51)), tuple(range(1, 201))])
def test_dimension_evaluation_count(letters):
    # the secant on log lam needs 7-8 eigenvalue solves here; bisection to
    # width 1e-4 before a secant needed 19
    assert len(dimension(letters, nodes=64).history) <= 10
