import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arc_windows
from continuantlab.errors import InputError
from continuantlab.expsum import (ExpSumSource, arc_profile,
                                  band_integral_exact, dyadic_partition_report,
                                  integrate_band, representation_numbers, s_n,
                                  source_from_ensemble, source_from_orbit,
                                  _sn_uniform_grid)
from continuantlab.orbits import multiplicity_table
from continuantlab.products import build_omega


def test_s_at_zero_is_size():
    src = source_from_orbit((1, 2), 300)
    assert s_n(src, 0.0) == complex(len(src))
    assert len(src) == multiplicity_table((1, 2), 300).total


def test_half_integer_parity():
    src = ExpSumSource(np.array([2, 4, 6]), N=1)
    assert s_n(src, 0.5) == pytest.approx(3 + 0j, abs=1e-12)
    src2 = ExpSumSource(np.array([1, 3, 5]), N=1)
    assert s_n(src2, 0.5) == pytest.approx(-3 + 0j, abs=1e-12)


def test_regrouped_residue_evaluation():
    # S(a/q) equals the residue-histogram regrouping to roundoff
    src = source_from_orbit((1, 2), 500)
    for q, a in ((3, 1), (5, 2), (7, 3), (12, 5)):
        direct = s_n(src, a / q)
        counts = np.bincount(src.values % q, minlength=q)
        grouped = sum(int(c) * cmath.exp(2j * cmath.pi * a * r / q)
                      for r, c in enumerate(counts))
        assert direct == pytest.approx(grouped, abs=1e-10 * len(src))


def test_conjugate_symmetry_and_peak():
    src = source_from_orbit((1, 2), 200)
    for theta in (0.1, 0.37, 0.444):
        assert s_n(src, 1 - theta) == pytest.approx(
            s_n(src, theta).conjugate(), abs=1e-9)
    for theta in np.linspace(0.01, 0.99, 49):
        assert abs(s_n(src, theta)) < len(src)


def test_representation_numbers_dual_route():
    src = source_from_orbit((1, 2), 1000)
    rn = representation_numbers(src)
    table = multiplicity_table((1, 2), 1000)
    assert rn.agree
    for d, c in table.counts.items():
        assert rn.counts[d] == c == rn.dft_counts[d]
    # zero off the denominator set (histogram covers up to the max value)
    dset = set(table.counts)
    for d in range(2, len(rn.counts)):
        if d not in dset:
            assert rn.counts[d] == 0
    assert rn.parseval_rel_error < 1e-9
    assert rn.max_inversion_error < 1e-6


def test_representation_numbers_aliasing_refused():
    src = source_from_orbit((1, 2), 500)
    with pytest.raises(InputError):
        representation_numbers(src, dft_length=256)


def test_parseval_identity_is_tight():
    src = source_from_orbit((1, 3), 400)
    rn = representation_numbers(src)
    assert rn.parseval_grid == pytest.approx(rn.parseval_direct, rel=1e-12)


def test_band_quadrature_against_closed_form():
    src = source_from_orbit((1, 2), 300)
    for lo, hi in ((0.21, 0.22), (0.0003, 0.0007), (0.71, 0.7103), (0.5, 0.52)):
        quad, _ = integrate_band(src, lo, hi)
        exact = band_integral_exact(src, lo, hi)
        assert quad == pytest.approx(exact, rel=1e-4, abs=1e-9 * len(src) ** 2)


def test_uniform_grid_czt_matches_direct():
    src = source_from_orbit((1, 2), 400)
    t0, dt, m = 0.123, 1.7e-6, 300
    direct = np.array([s_n(src, t0 + j * dt) for j in range(m)])
    grid = _sn_uniform_grid(src, t0, dt, m)
    assert np.max(np.abs(direct - grid)) < 1e-8 * len(src)
    # force the czt path by a large m
    m2 = 6000
    grid2 = _sn_uniform_grid(src, t0, dt, m2)
    for j in (0, 1234, 5999):
        assert grid2[j] == pytest.approx(s_n(src, t0 + j * dt),
                                         abs=1e-7 * len(src))


def test_arc_profile_central_mass():
    src = source_from_orbit((1, 2), 10000)
    # the core |beta| < 1/N keeps |S| near S(0)
    core, _ = integrate_band(src, 0.0, 1.0 / src.N)
    assert core > 0.25 * len(src) ** 2 / src.N
    center = arc_profile(src, 2, 1)
    minor = arc_profile(src, 32, 2)
    central_density = center.integral / center.measure
    minor_density = minor.integral / minor.measure
    assert central_density > 100 * minor_density


def test_arc_profile_validation():
    src = source_from_orbit((1, 2), 10000)
    with pytest.raises(InputError):
        arc_profile(src, 200, 1)     # Q >= sqrt(N)
    with pytest.raises(InputError):
        arc_profile(src, 64, 2)      # K >= sqrt(N)/Q
    with pytest.raises(InputError):
        arc_profile(src, 8, 0)       # K < 1: empty windows


@st.composite
def arc_cases(draw):
    letters = draw(st.sets(st.integers(1, 5), min_size=1))
    N = draw(st.integers(300, 3000))
    # Q^2 < N; Q <= 10 keeps the quadrature side to at most 44 windows
    Q = draw(st.integers(2, min(10, math.isqrt(N - 1))))
    K = draw(st.integers(1, math.isqrt(N - 1) // Q))      # (KQ)^2 < N
    return sorted(letters), N, Q, K


@settings(max_examples=12, deadline=None)
@given(case=arc_cases())
def test_arc_profile_matches_band_integrals(case):
    letters, N, Q, K = case
    src = source_from_orbit(letters, N)
    prof = arc_profile(src, Q, K)
    windows = arc_windows(N, Q, K)
    assert prof.n_windows == len(windows)
    exact = sum(band_integral_exact(src, lo, hi) for lo, hi in windows)
    quad = sum(integrate_band(src, lo, hi)[0] for lo, hi in windows)
    assert prof.integral == pytest.approx(exact, rel=1e-12)
    assert prof.integral == pytest.approx(quad, rel=1e-3)


def test_partition_consistency_with_parseval():
    src = source_from_orbit((1, 2), 300)
    rep = dyadic_partition_report(src, 8)
    assert rep.rel_error < 1e-9
    assert rep.total_parseval == pytest.approx(
        float(np.sum(np.bincount(src.values).astype(float) ** 2)))
    # mass accounting: every band is nonnegative
    assert all(v >= 0 for v in rep.by_qk.values())
    assert sum(rep.by_qk.values()) == pytest.approx(rep.total_bands)


def test_source_validation():
    with pytest.raises(InputError):
        ExpSumSource(np.array([0, 2]), N=10)
    with pytest.raises(InputError):
        ExpSumSource(np.array([500]), N=10)  # beyond 16N
    src = source_from_orbit((1, 2), 150)
    assert src.values.max() < 150  # orbit values stay below N


def test_source_from_ensemble():
    ens = build_omega((1, 2), 10 ** 4)
    src = source_from_ensemble(ens)
    assert len(src) == ens.cardinality
    assert 1 <= src.values.min() and src.values.max() <= 16 * 10 ** 4
    assert s_n(src, 0.0) == complex(len(src))
