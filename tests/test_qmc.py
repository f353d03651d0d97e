import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continuantlab.cfcore import cf_expand
from continuantlab.errors import InputError, ResourceError
from continuantlab.qmc import (EXACT_POINT_CAP, PointSet2D, lattice_pairs,
                               read_points_csv, schmidt_floor, star_discrepancy,
                               write_points_csv, zaremba_bound, zn_points)
from conftest import scan_star_discrepancy


def brute_star(pts):
    n = len(pts)
    cand_x = sorted(set([p[0] for p in pts] + [1.0]))
    cand_y = sorted(set([p[1] for p in pts] + [1.0]))
    best = 0.0
    for u in cand_x:
        for v in cand_y:
            op = sum(1 for p in pts if p[0] < u and p[1] < v)
            cl = sum(1 for p in pts if p[0] <= u and p[1] <= v)
            best = max(best, u * v - op / n, cl / n - u * v)
    return best


def test_zn_identity_multiplier():
    ps = zn_points(1, 4)
    assert set(ps.points) == {(0.25, 0.25), (0.5, 0.5), (0.75, 0.75), (0.0, 0.0)}
    assert len(zn_points(1, 4, drop_origin=True)) == 3
    assert (0.0, 0.0) not in zn_points(1, 4, drop_origin=True).points


def test_zn_validation():
    with pytest.raises(InputError):
        zn_points(2, 4)
    with pytest.raises(InputError):
        zn_points(4, 4)
    with pytest.raises(InputError):
        zn_points(1, 1)


def test_single_point_discrepancy():
    assert star_discrepancy([(0.5, 0.5)]) == pytest.approx(0.75, abs=1e-15)


def test_exact_matches_brute_force():
    rng = random.Random(1)
    for _ in range(300):
        m = rng.randrange(1, 13)
        pts = [(rng.random(), rng.random()) for _ in range(m)]
        if rng.random() < 0.3 and m > 2:
            pts[1] = pts[0]
        assert star_discrepancy(pts) == pytest.approx(brute_star(pts), abs=1e-12)


def test_duplicates_handled_exactly():
    # duplicating a point reweights the empirical measure and can move the
    # exact value either way; what must hold is agreement with brute force
    rng = random.Random(2)
    for _ in range(50):
        pts = [(rng.random(), rng.random()) for _ in range(6)]
        dup = pts + [pts[0]]
        assert star_discrepancy(dup) == pytest.approx(brute_star(dup), abs=1e-12)


UNIFORM = st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                             st.floats(0.0, 1.0, exclude_max=True)),
                   min_size=1, max_size=300)
# a k/m grid forces ties in x and in y, and repeats points once 300 > m^2
GRID = st.sampled_from((2, 7, 50)).flatmap(
    lambda m: st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                       min_size=1, max_size=300).map(
        lambda ks: [(i / m, j / m) for i, j in ks]))
REPEATED = st.tuples(UNIFORM, st.integers(1, 5)).map(
    lambda c: (c[0] * c[1])[:300])
LATTICE = st.integers(2, 500).flatmap(
    lambda d: st.integers(1, d - 1).filter(lambda b: math.gcd(b, d) == 1).map(
        lambda b: list(zn_points(b, d).points)))


@settings(max_examples=100, deadline=None)
@given(pts=st.one_of(UNIFORM, GRID, REPEATED, LATTICE))
@example(pts=[(0.5, 0.5)])
@example(pts=[(0.0, 0.0)] * 3)
@example(pts=list(zn_points(144, 233).points))
def test_sweep_matches_scan_bit_for_bit(pts):
    assert star_discrepancy(pts) == scan_star_discrepancy(pts)


def test_sweep_matches_scan_on_reference_lattice():
    # the good multiplier of acceptance criterion 8; the O(n^2) scan keeps
    # this to one lattice at d = 4547
    ps = zn_points(3523, 4547)
    assert star_discrepancy(ps) == scan_star_discrepancy(ps)


def test_lattice_symmetry_under_multiplier_inversion():
    # swapping coordinates maps the b-lattice to the b^{-1} mod d lattice
    for b, d in ((3, 7), (55, 89), (3523, 4547)):
        binv = pow(b, -1, d)
        swapped = {(y, x) for x, y in lattice_pairs(b, d)}
        assert swapped == set(lattice_pairs(binv, d))


def test_zaremba_bound_values():
    assert zaremba_bound(3, 4547) == pytest.approx(0.018892, abs=2e-5)
    # decays like log d / d for fixed A
    assert zaremba_bound(1, 10 ** 6) < zaremba_bound(1, 10 ** 3) < zaremba_bound(1, 10)
    v = zaremba_bound(1, 10 ** 6) / (math.log(10 ** 6) / 10 ** 6)
    assert 4 / math.log(2) < v < 4 / math.log(2) + 1


def test_fibonacci_pair_respects_bound():
    # 55/89 = [1]*9 ... every quotient is 1
    assert set(cf_expand(55, 89)) <= {1, 2}
    disc = star_discrepancy(zn_points(55, 89))
    assert disc <= zaremba_bound(1, 89)


def test_schmidt_floor():
    assert schmidt_floor(4547) == pytest.approx(math.log(4547) / 4547, rel=1e-15)
    assert schmidt_floor(2) == pytest.approx(math.log(2) / 2, rel=1e-15)


def test_star_over_floor_band_small():
    # sanity band for a well-chosen multiplier at modest d
    ps = zn_points(34, 55)  # consecutive Fibonacci
    ratio = star_discrepancy(ps) / schmidt_floor(55)
    assert 0.1 < ratio < 20


def test_exact_cap_and_sampled_mode():
    n = EXACT_POINT_CAP + 1
    big = PointSet2D(tuple((i / n, (7 * i % n) / n) for i in range(n)))
    with pytest.raises(ResourceError, match="sampled"):
        star_discrepancy(big)
    ps = zn_points(21, 55)
    exact = star_discrepancy(ps)
    lower = star_discrepancy(ps, method="sampled", samples=4000, seed=1)
    assert lower <= exact + 1e-12
    assert lower > 0.3 * exact


def test_quotient_height_vs_discrepancy_scan():
    # informational scan at fixed d: the best-quotient multiplier has no
    # worse discrepancy than the worst multiplier (machinery smoke check)
    d = 101
    rows = []
    for b in range(1, d):
        if math.gcd(b, d) == 1:
            rows.append((max(cf_expand(b, d)), star_discrepancy(zn_points(b, d))))
    best_q = min(q for q, _ in rows)
    best_disc = min(disc for q, disc in rows if q == best_q)
    assert best_disc <= max(disc for _, disc in rows)


def test_points_validation_and_csv(tmp_path):
    with pytest.raises(InputError):
        PointSet2D(((0.5, 1.0),))
    # a raw sequence gets the same check
    for bad in ([(1.5, 0.5)], [(0.5, math.nan)], [(math.nan, 0.5)]):
        with pytest.raises(InputError):
            star_discrepancy(bad)
    ps = zn_points(3, 7)
    path = tmp_path / "pts.csv"
    write_points_csv(path, ps, ["header line"])
    back = read_points_csv(path)
    assert back.points == ps.points
