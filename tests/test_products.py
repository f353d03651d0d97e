import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continuantlab import cfcore, products
from continuantlab.cfcore import (frobenius_sq, mat_mul, norm_frobenius,
                                  spectral, trace, word_to_matrix)
from continuantlab.errors import ConstructionError, InputError, ResourceError
from continuantlab.orbits import counts_at_thresholds
from continuantlab.products import (_lambda_class_bounds, _lambda_classes,
                                    build_omega, build_xi, check_products,
                                    default_target_point, mult_defect,
                                    omega_cardinality_report, vplus_drift)
from conftest import (iter_gamma, oracle_build_xi, random_word,
                      scalar_lambda_class)

DELTA2 = 0.5312805062772051


def power(m, n):
    out = m
    for _ in range(n - 1):
        out = mat_mul(out, m)
    return out


def test_defect_of_matrix_powers():
    g = power(word_to_matrix((1, 1)), 20)
    defect, budget = mult_defect(g, g)
    assert defect < 1e-15


def test_defect_calibrated_constant(rng):
    # calibrated on this seed: max defect/budget = 0.29; freeze C = 1,
    # comfortably inside the <= 20 sanity bound
    worst = 0.0
    for _ in range(1000):
        g1 = word_to_matrix(random_word(rng, (1, 2), 20, 40, even=True))
        g2 = word_to_matrix(random_word(rng, (1, 2), 20, 40, even=True))
        defect, budget = mult_defect(g1, g2)
        worst = max(worst, defect / budget)
        assert defect <= 1.0 * budget
    assert worst <= 20.0


def test_defect_misaligned_directions():
    # heads [1,1,...] versus [2,2,...]: direction gap about 0.3
    g1 = power(word_to_matrix((1, 1)), 12)
    g2 = power(word_to_matrix((2, 2)), 8)
    defect, budget = mult_defect(g1, g2)
    assert 0.1 < budget < 0.5
    assert 0.01 < defect < 1.0


def test_drift_of_matrix_powers():
    g = power(word_to_matrix((1, 1)), 20)
    rep = vplus_drift(g, g)
    assert rep.drift < 1e-10
    assert rep.drift_minus < 1e-10


def test_drift_calibrated(rng):
    # calibrated max drift/budget = 0.29 on resolvable pairs; an absolute
    # floor absorbs the machine-epsilon noise of huge matrices
    for _ in range(1000):
        g1 = word_to_matrix(random_word(rng, (1, 2), 6, 16, even=True))
        g2 = word_to_matrix(random_word(rng, (1, 2), 6, 16, even=True))
        rep = vplus_drift(g1, g2)
        assert rep.drift <= 1.0 * rep.budget + 1e-12
        assert rep.drift_minus <= 1.0 * rep.budget_minus + 1e-12


def test_aligned_directions_shrink_defect():
    x = default_target_point((1, 2))
    vx = (x / math.hypot(x, 1), 1 / math.hypot(x, 1))
    caps = {0.1: 0.05, 0.01: 0.01, 0.001: 0.0015}
    maxima = {}
    for eta, cap in caps.items():
        rng = random.Random(777)
        found, worst = 0, 0.0
        while found < 200:
            w1 = random_word(rng, (1, 2), 16, 28, even=True)
            g1 = word_to_matrix(w1)
            v1 = spectral(g1).v_plus
            if math.hypot(v1[0] - vx[0], v1[1] - vx[1]) >= eta:
                continue
            w2 = random_word(rng, (1, 2), 16, 28, even=True)
            g2 = word_to_matrix(w2)
            v2 = spectral(g2).v_plus
            if math.hypot(v2[0] - vx[0], v2[1] - vx[1]) >= eta:
                continue
            found += 1
            defect, _ = mult_defect(g1, g2)
            worst = max(worst, defect)
        maxima[eta] = worst
        assert worst < cap
    assert maxima[0.001] < maxima[0.01] < maxima[0.1]


def test_build_xi_invariants():
    xi = build_xi((1, 2), 5000.0)
    assert len(xi) > 0
    xi.validate()  # norm window, direction window, lambda window, wordlength
    s1, s2, s3, s4 = xi.stage_sizes
    assert s1 >= s2 >= s3 >= s4
    # pigeonhole identities are exact arithmetic on the run
    assert s3 * xi.n_lambda_classes >= s2
    assert s4 * xi.n_wordlength_classes >= s3
    assert 0.25 < xi.L / xi.M < 4.0


def off_direction_member(xi):
    """A det +1 element in the norm window of xi whose expanding direction
    lies outside its direction window."""
    vx = products._unit_direction(xi.x_target)
    for m, _w in iter_gamma(xi.alphabet, xi.M):
        v = spectral(m).v_plus
        if (frobenius_sq(m) >= (xi.M / 2) ** 2
                and math.hypot(v[0] - vx[0], v[1] - vx[1]) >= 1 / math.log(xi.M)):
            return m
    raise AssertionError("no off-direction element")


def heaviest(xi):
    """The member of largest norm: lowering its d entry by one breaks det +1
    but keeps it inside the norm window."""
    return max(xi.members, key=frobenius_sq)


@pytest.mark.parametrize("corrupt, error, message", [
    pytest.param(lambda xi: {"L": 5 * xi.M}, ConstructionError, "L/M", id="L/M"),
    pytest.param(lambda xi: {"members": (mat_mul(xi.members[0], xi.members[0]),) + xi.members[1:]},
                 ConstructionError, "norm .* outside", id="norm"),
    pytest.param(lambda xi: {"members": (heaviest(xi)[:3] + (heaviest(xi)[3] - 1,),)
                             + xi.members[1:]}, InputError, "det", id="det"),
    pytest.param(lambda xi: {"members": xi.members[:-1] + (off_direction_member(xi),)},
                 ConstructionError, "direction outside", id="direction"),
    pytest.param(lambda xi: {"lambdas": xi.lambdas[:-1] + (2 * xi.L,)},
                 ConstructionError, "lambda .* outside", id="lambda"),
    pytest.param(lambda xi: {"words": xi.words[:-1] + (xi.words[-1] + (1, 1),)},
                 ConstructionError, "wordlength", id="wordlength"),
    pytest.param(lambda xi: {"n_lambda_classes": 0}, ConstructionError, "lambda pigeonhole",
                 id="lambda-pigeonhole"),
    pytest.param(lambda xi: {"n_wordlength_classes": 0}, ConstructionError,
                 "wordlength pigeonhole", id="wordlength-pigeonhole"),
])
def test_validate_refuses_each_broken_invariant(corrupt, error, message):
    xi = build_xi((1, 2), 5000.0)
    xi.validate()
    with pytest.raises(error, match=message):
        dataclasses.replace(xi, **corrupt(xi)).validate()


@pytest.mark.parametrize("length", [50, 100])
def test_validate_on_entries_past_int64(length):
    # word (1,)*50 has entries above 2^30, so Frobenius^2 overflows int64;
    # (1,)*100 has entries above 2^63
    m = word_to_matrix((1,) * length)
    xi = build_xi((1,), 1.5 * norm_frobenius(m))
    assert xi.members == (m,)
    # the norm sits exactly on the lower edge M/2 of the window
    dataclasses.replace(xi, M=2 * norm_frobenius(m)).validate()


def test_build_xi_input_validation():
    with pytest.raises(InputError):
        build_xi((1, 2), 50.0)
    with pytest.raises(InputError):
        build_xi((1, 2), 1000.0, x_target=0.99)  # CF of 0.99 leaves {1,2}


def test_build_xi_single_letter_degenerate():
    # one geodesic: at most one element per norm window, sometimes none
    xi = build_xi((1,), 150.0)
    assert len(xi) == 1
    with pytest.raises(ConstructionError):
        build_xi((1,), 300.0)


def outcome(build, *args):
    """The built XiSet (compared field by field), or the error type raised."""
    try:
        xi = build(*args)
    except (ConstructionError, InputError) as e:
        return type(e)
    m, w = xi.members[0], xi.words[0]
    assert type(m[0]) is int and type(w[0]) is int
    assert type(xi.lambdas[0]) is float
    assert all(type(n) is int for n in xi.stage_sizes)
    return xi


@st.composite
def xi_cases(draw):
    """An alphabet within {1..6} and a scale M in [100, 3000 / |A|^2 + 100],
    small enough for the recursive oracle."""
    letters = draw(st.sets(st.integers(1, 6), min_size=1, max_size=4))
    return tuple(sorted(letters)), draw(st.floats(100.0, 100.0 + 3000.0 / len(letters) ** 2))


@settings(max_examples=60, deadline=None)
@given(case=xi_cases())
@example(case=((1, 2), 5000.0))
@example(case=((1, 2, 3, 4, 5, 6), 150.0))
@example(case=((1,), 150.0))
@example(case=((1,), 300.0))
@example(case=((1, 4), 226.0))  # two word lengths tie in S3; the smaller k wins
@example(case=((1, 5), 331.0))
def test_build_xi_matches_scalar_oracle(case):
    letters, M = case
    assert outcome(build_xi, letters, M) == outcome(oracle_build_xi, letters, M)


@pytest.mark.parametrize("letters, N", [((1, 2), 10 ** 10), ((1, 2, 3, 4, 5), 10 ** 5)])
def test_build_omega_matches_scalar_oracle(monkeypatch, letters, N):
    ens = build_omega(letters, N)
    monkeypatch.setattr(products, "build_xi", oracle_build_xi)
    want = build_omega(letters, N)
    assert ens == want  # every field of every factor


def test_lambda_classes_on_window_edges():
    # an eigenvalue on a shared edge goes to the lower class, as in the
    # scalar scan; the edges themselves and their float neighbours
    for M in (100.0, 1234.5, 1e5):
        bounds = _lambda_class_bounds(M)
        edges = np.array(bounds)
        lam = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
                              0.5 * (edges[1:] + edges[:-1])])
        lam = lam[(lam >= edges[-1]) & (lam <= edges[0])]
        assert _lambda_classes(lam, bounds).tolist() == \
            [scalar_lambda_class(x, bounds) for x in lam.tolist()]


def test_build_xi_and_omega_refuse_past_the_frontier_cap(monkeypatch):
    monkeypatch.setattr(cfcore, "FRONTIER_CAP", 1000)
    with pytest.raises(ResourceError):
        build_xi((1, 2), 5000.0)
    with pytest.raises(ResourceError):
        build_omega((1, 2), 10 ** 10)
    assert len(build_xi((1, 2), 1000.0)) > 0  # its largest level holds 638


def test_build_omega_scale_recursion():
    ens = build_omega((1, 2), 10 ** 6)
    assert ens.J >= 2 and not ens.degenerate
    assert 0.25 < ens.scale_product / ens.N < 4.0
    assert all(0.25 < a < 4.0 for a in ens.alphas)
    # the recursion ties factor j's input scale to factor j-1's output
    for j in range(1, ens.J):
        prev_N, prev_alpha = ens.scales[j - 1], ens.alphas[j - 1]
        M_ind = math.sqrt(prev_N) / prev_alpha
        M_end = prev_N / prev_alpha ** 2
        assert ens.factors[j].M in (pytest.approx(M_ind), pytest.approx(M_end))


def test_build_omega_range_of_N():
    for N in (10 ** 4, 10 ** 5):
        ens = build_omega((1, 2), N)
        chk = check_products(ens, samples=100, seed=3)
        assert chk.ok
    with pytest.raises(InputError):
        build_omega((1, 2), 5000)


def test_omega_product_bounds():
    ens = build_omega((1, 2), 10 ** 6)
    chk = check_products(ens, samples=500, seed=0)
    assert chk.ok
    assert 0.5 < chk.ratio_min <= chk.ratio_max < 2.0
    assert 0.125 < chk.lambda_over_N_min <= chk.lambda_over_N_max < 8.0


def test_factorization_uniqueness():
    ens = build_omega((1, 2), 10 ** 5)
    lengths = [f.k for f in ens.factors]
    seen = {}
    rng = random.Random(5)
    for tup in ens.sample_tuples(200, seed=5):
        word = tuple(a for f, m in zip(ens.factors, tup)
                     for a in f.words[f.members.index(m)])
        # parse back by the fixed block lengths
        parts, pos = [], 0
        for k in lengths:
            parts.append(word[pos: pos + k])
            pos += k
        for part, f, m in zip(parts, ens.factors, tup):
            assert part == f.words[f.members.index(m)]
        g = tup[0]
        for m in tup[1:]:
            g = mat_mul(g, m)
        if word in seen:
            assert seen[word] == g
        else:
            seen[word] = g
    # distinct concatenated words give distinct matrices
    assert len({g for g in seen.values()}) == len(seen)


def test_section3_chains_on_members():
    ens = build_omega((1, 2), 10 ** 4)
    for f in ens.factors:
        for m in f.members:
            nrm = norm_frobenius(m)
            assert nrm <= 2 * trace(m) <= 4 * nrm
            col = math.hypot(m[1], m[3])
            assert m[3] < col < nrm < 2 * col < 4 * m[3]


def test_cardinality_report_trend():
    logratios = []
    for N in (10 ** 4, 10 ** 5, 10 ** 6):
        ens = build_omega((1, 2), N)
        rep = omega_cardinality_report(ens, delta=DELTA2)
        logratios.append(rep.log_ratio)
        assert rep.cardinality == math.prod(len(f) for f in ens.factors)
        assert rep.log_ratio < 2 * DELTA2
    assert logratios == sorted(logratios)  # increasing toward 2 delta


def test_omega_inside_gamma_ball():
    # distinct products are distinct rationals with d <= 16N
    ens = build_omega((1, 2), 10 ** 4)
    n_ball = counts_at_thresholds((1, 2), [16 * 10 ** 4])[0]
    assert ens.cardinality <= n_ball


def test_degenerate_single_factor_report():
    ens = build_omega((1, 2), 10 ** 4)
    rep = omega_cardinality_report(ens, delta=DELTA2)
    if ens.J == 1:
        assert rep.cardinality == len(ens.factors[0])
