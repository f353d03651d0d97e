import cmath
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import matrix_closure
from continuantlab.errors import InputError, ResourceError
from continuantlab.modular import (CLOSURE_Q_CAP, Admissibility, closure_mod_q,
                                   is_admissible, is_prime, is_primitive_root,
                                   nu_q, primitive_root_witness,
                                   singular_series, sl2_dentry_counts, sl2_order)
from continuantlab.orbits import multiplicity_table


def test_closure_12_q5_full_sl2():
    elements = matrix_closure((1, 2), 5)
    det1 = {m for m in elements if (m[0] * m[3] - m[1] * m[2]) % 5 == 1}
    assert len(det1) == 120  # |SL2(F5)|
    clo = closure_mod_q((1, 2), 5)
    assert clo.attainable_d == frozenset(range(5))
    assert clo.attainable_is_full


@settings(max_examples=40, deadline=None)
@given(letters=st.sets(st.integers(1, 12), min_size=1),
       q=st.integers(2, 40))
@example(letters={2, 4, 6, 8, 10}, q=4)
@example(letters={1, 2}, q=40)
def test_closure_matches_matrix_closure(letters, q):
    letters = sorted(letters)
    want = frozenset(m[3] for m in matrix_closure(letters, q))
    assert closure_mod_q(letters, q).attainable_d == want


def test_closure_even_alphabet_q4_deficient():
    clo = closure_mod_q((2, 4, 6, 8, 10), 4)
    assert clo.attainable_d <= {0, 1, 2}
    assert not clo.attainable_is_full


def test_closure_fibonacci_mod2():
    clo = closure_mod_q((1,), 2)
    # oracle: continuants of [1]*k are Fibonacci numbers
    fib = [1, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    assert clo.attainable_d == frozenset(f % 2 for f in fib[2:])
    assert clo.attainable_d == {0, 1}


def test_closure_is_fixed_point():
    elements = matrix_closure((1, 2), 6)
    gens = [(0, 1, 1, a % 6) for a in (1, 2)]
    for a, b, c, d in elements:
        for e, f, g, h in gens:
            m = ((a * e + b * g) % 6, (a * f + b * h) % 6,
                 (c * e + d * g) % 6, (c * f + d * h) % 6)
            assert m in elements


def test_closure_determinants():
    q = 7
    elements = matrix_closure((1, 2, 3), q)
    dets = {(m[0] * m[3] - m[1] * m[2]) % q for m in elements}
    assert dets <= {1, q - 1}
    # even-word subclosure keeps det = 1
    from continuantlab.cfcore import generator, mat_mul
    even_seed = [tuple(x % q for x in mat_mul(generator(a), generator(b)))
                 for a in (1, 2, 3) for b in (1, 2, 3)]
    seen = set(even_seed)
    work = list(even_seed)
    while work:
        m = work.pop()
        for blk in even_seed:
            nm = ((m[0] * blk[0] + m[1] * blk[2]) % q,
                  (m[0] * blk[1] + m[1] * blk[3]) % q,
                  (m[2] * blk[0] + m[3] * blk[2]) % q,
                  (m[2] * blk[1] + m[3] * blk[3]) % q)
            if nm not in seen:
                seen.add(nm)
                work.append(nm)
    assert all((m[0] * m[3] - m[1] * m[2]) % q == 1 for m in seen)


def test_closure_q_cap():
    with pytest.raises(ResourceError):
        closure_mod_q((1, 2), 20000)
    with pytest.raises(InputError):
        closure_mod_q((1, 2), 1)


def test_closure_cap_refuses_before_work():
    closure_mod_q((1, 2), CLOSURE_Q_CAP)  # the cap itself is allowed
    t0 = time.perf_counter()
    with pytest.raises(ResourceError):
        closure_mod_q((1, 2), CLOSURE_Q_CAP + 1)
    with pytest.raises(ResourceError):
        is_admissible((1, 2), 7, CLOSURE_Q_CAP + 1)
    with pytest.raises(ResourceError):
        is_admissible((1, 2), 7, 144)  # sum of q^2, q = 2..144, exceeds CLOSURE_Q_CAP^2
    assert time.perf_counter() - t0 < 0.05
    # q_max = 143 is within the budget; the obstruction at q = 4 ends the scan
    assert is_admissible((2, 4, 6, 8, 10), 7, 143) == Admissibility(False, 4)


def test_strong_approximation_small_q():
    for q in range(2, 31):
        assert closure_mod_q((1, 2), q).attainable_is_full


def test_admissibility():
    for d in range(1, 60):
        assert is_admissible((1, 2), d).admissible
    res = is_admissible((2, 4, 6, 8, 10), 7)  # 7 = 3 mod 4
    assert res == Admissibility(False, 4)
    # 6 is a true global exception for {1..4}, not a local one
    assert is_admissible((1, 2, 3, 4), 6).admissible
    assert is_admissible((1, 2, 3, 4), 54).admissible


def test_nu_trivials():
    for q in range(1, 13):
        assert nu_q(q, 0) == pytest.approx(1.0, abs=1e-12)
    assert nu_q(1, 0, exact=True) == Fraction(1)


def test_nu2_exact_rational():
    assert nu_q(2, 1, exact=True) == Fraction(-1, 3)
    assert nu_q(2, 1) == pytest.approx(-1 / 3, abs=1e-12)
    with pytest.raises(InputError):
        nu_q(5, 1, exact=True)
    with pytest.raises(ResourceError):
        nu_q(51, 1)


def test_nu2_against_direct_enumeration():
    # all six elements of SL2(F2), by hand
    els = [(a, b, c, d) for a in range(2) for b in range(2)
           for c in range(2) for d in range(2) if (a * d - b * c) % 2 == 1]
    assert len(els) == 6
    direct = sum(cmath.exp(2j * cmath.pi * m[3] / 2) for m in els) / 6
    assert nu_q(2, 1) == pytest.approx(direct, abs=1e-14)


def test_sl2_counts_vs_order_formula():
    for q in list(range(1, 21)) + [24, 36]:
        assert sum(sl2_dentry_counts(q)) == sl2_order(q)


def test_nu_parseval():
    # sum_a |nu_q(a)|^2 = q * #{equal d-entry pairs} / |SL2|^2
    for q in (2, 3, 4, 5, 6, 9):
        counts = sl2_dentry_counts(q)
        order = sum(counts)
        pairs = sum(c * c for c in counts)
        lhs = sum(abs(nu_q(q, a)) ** 2 for a in range(q))
        assert lhs == pytest.approx(q * pairs / order ** 2, rel=1e-10)


def test_singular_series_zeta2():
    assert abs(singular_series(1, 10 ** 4) - math.pi ** 2 / 6) < 1e-3


def test_singular_series_n2_unrolled():
    P = 1000
    want = (1 - 1 / 3)
    p = 3
    while p <= P:
        if is_prime(p):
            want *= 1 + 1 / (p * p - 1)
        p += 2
    assert singular_series(2, P) == pytest.approx(want, rel=1e-12)


def test_singular_series_primorial():
    n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    v1 = singular_series(1, 10 ** 4)
    vn = singular_series(n, 10 ** 4)
    assert 0 < vn < v1
    # the drop is on the 1/log log n scale
    assert 0.5 < vn * math.log(math.log(n)) < 10


def test_singular_series_monotone_in_divisors():
    P = 10 ** 3
    assert singular_series(2, P) > singular_series(6, P) > singular_series(30, P)
    assert singular_series(30, P) > 0
    assert singular_series(1, P) <= math.pi ** 2 / 6 + 1e-6


def test_miller_rabin():
    primes = [2, 3, 5, 7, 97, 4547, 99991, 2 ** 31 - 1]
    comps = [1, 4, 9, 561, 1105, 4547 * 4549, 2 ** 31]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in comps)


def test_primitive_root_witness_A5():
    w = primitive_root_witness((1, 2, 3, 4, 5), 500)
    assert w is not None
    b, d = w
    assert is_prime(d)
    # independent order computation
    order, x = 1, b % d
    while x != 1:
        x = x * b % d
        order += 1
    assert order == d - 1


def test_primitive_root_witness_fibonacci():
    w = primitive_root_witness((1,), 100)
    assert w is not None
    assert is_prime(w.d)
    assert is_primitive_root(w.b, w.d)


def test_residue_mass_tracks_singular_series():
    """Multiplicity mass per residue class is modulated by the local factor
    (1 - 1/(p+1)) at p | d versus (1 + 1/(p^2-1)) otherwise."""
    table = multiplicity_table((1, 2), 30000)
    total = table.total
    for q in (2, 3, 5, 7):
        mass = [0] * q
        for d, c in table.counts.items():
            mass[d % q] += c
        pred = [(1 - 1 / (q + 1)) if r == 0 else (1 + 1 / (q * q - 1))
                for r in range(q)]
        s = sum(pred)
        for m, p in zip(mass, pred):
            assert abs((m / total) / (p / s) - 1) < 0.10


def test_denominator_set_density_uniform():
    # strong approximation made visible: no residue class is starved
    table = multiplicity_table((1, 2, 3, 4, 5), 3000)
    denoms = table.denominators
    for q in (2, 3, 5, 7):
        per_class = [0] * q
        for d in denoms:
            per_class[d % q] += 1
        expected = len(denoms) / q
        for c in per_class:
            assert abs(c / expected - 1) < 0.10
