import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continuantlab import cfcore
from continuantlab.cfcore import (IDENTITY, Alphabet, cf_expand, cf_value,
                                  even_normalize, frobenius_sq, gamma_levels,
                                  is_semigroup_matrix, lambda_expanding,
                                  level_words, mat_mul,
                                  matrix_to_fraction, norm_frobenius, spectral,
                                  spectral_arrays, trace, twin, word_to_matrix)
from continuantlab.errors import InputError, ResourceError
from conftest import iter_gamma, mat_transpose, random_word

GOLDEN = (1 + math.sqrt(5)) / 2


def convergents(word):
    """Independent oracle: p_k = a_k p_{k-1} + p_{k-2}, same for q."""
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for a in word:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


def test_cf_expand_paper_vectors():
    assert cf_expand(3523, 4547) == (1, 3, 2, 3, 1, 2, 3, 2, 1, 3)
    assert cf_expand(3535, 4547) == (1, 3, 2, 35, 1, 1, 1, 4)
    assert cf_expand(1, 2) == (2,)


def test_cf_expand_validation():
    with pytest.raises(InputError):
        cf_expand(2, 4)  # not reduced
    with pytest.raises(InputError):
        cf_expand(3, 2)  # not in (0, 1)
    with pytest.raises(InputError):
        cf_expand(0, 5)


def test_cf_expand_canonical_and_roundtrip(rng):
    for _ in range(300):
        d = rng.randrange(2, 5000)
        b = rng.randrange(1, d)
        if math.gcd(b, d) != 1:
            continue
        w = cf_expand(b, d)
        assert cf_value(w) == Fraction(b, d)
        if len(w) >= 2:
            assert w[-1] >= 2


def test_even_normalize():
    assert even_normalize((2,)) == (1, 1)
    assert cf_value((1, 1)) == Fraction(1, 2)
    assert even_normalize((1, 3, 2, 3, 1, 2, 3, 2, 1, 3)) == (1, 3, 2, 3, 1, 2, 3, 2, 1, 3)
    assert even_normalize((2, 2, 1)) == (2, 3)
    assert cf_value((2, 2, 1)) == cf_value((2, 3))
    assert even_normalize((2, 3)) == (2, 3)
    with pytest.raises(InputError):
        even_normalize((1,))


def test_even_normalize_preserves_value(rng):
    for _ in range(200):
        w = random_word(rng, (1, 2, 3, 4, 5), 1, 9)
        if w == (1,):
            continue
        ev = even_normalize(w)
        assert len(ev) % 2 == 0
        assert cf_value(ev) == cf_value(w)


def test_cf_uniqueness_on_canonical_words(rng):
    # cf_expand inverts cf_value exactly on canonical words
    for _ in range(300):
        w = random_word(rng, (1, 2, 3, 4, 5, 6), 1, 9)
        if w == (1,) or (len(w) >= 2 and w[-1] == 1):
            continue
        v = cf_value(w)
        assert cf_expand(v.numerator, v.denominator) == w


def test_twin_is_involution(rng):
    for _ in range(100):
        w = random_word(rng, (1, 2, 3), 2, 8)
        assert twin(twin(w)) == w
        assert cf_value(twin(w)) == cf_value(w)


def test_word_to_matrix_trivials():
    assert word_to_matrix((2,)) == (0, 1, 1, 2)
    assert word_to_matrix((1, 1)) == (1, 1, 1, 2)
    m = word_to_matrix((1, 3, 2, 3, 1, 2, 3, 2, 1, 3))
    assert (m[1], m[3]) == (3523, 4547)


def test_matrix_to_fraction_trivials():
    assert matrix_to_fraction((0, 1, 1, 2)) == Fraction(1, 2)
    assert matrix_to_fraction((1, 1, 1, 2)) == Fraction(1, 2)
    with pytest.raises(InputError):
        matrix_to_fraction(IDENTITY)
    with pytest.raises(InputError):
        matrix_to_fraction((5, 1, 1, 2))  # entry order violated
    with pytest.raises(InputError):
        matrix_to_fraction((1, 2, 3, 4))  # det -2


def test_matrix_fraction_roundtrip_against_convergents(rng):
    for _ in range(1000):
        w = random_word(rng, (1, 2, 3, 4, 5), 1, 12)
        if w == (1,):
            continue
        m = word_to_matrix(w)
        p, q = convergents(w)
        assert (m[1], m[3]) == (p, q)
        assert matrix_to_fraction(m) == Fraction(p, q)


def test_homomorphism(rng):
    for _ in range(500):
        w1 = random_word(rng, (1, 2, 3, 4, 5), 1, 10)
        w2 = random_word(rng, (1, 2, 3, 4, 5), 1, 10)
        assert word_to_matrix(w1 + w2) == mat_mul(word_to_matrix(w1),
                                                  word_to_matrix(w2))


def test_transpose_closure(rng):
    # generators are symmetric, so the transpose is the reversed word
    for _ in range(200):
        w = random_word(rng, (1, 2, 3), 2, 10)
        assert mat_transpose(word_to_matrix(w)) == word_to_matrix(w[::-1])
        assert is_semigroup_matrix(mat_transpose(word_to_matrix(w)))


def all_even_words(letters, max_len):
    stack = [()]
    while stack:
        w = stack.pop()
        if w and len(w) % 2 == 0:
            yield w
        if len(w) < max_len:
            for a in letters:
                stack.append(w + (a,))


def test_entry_order_exhaustive_length_12():
    for w in all_even_words((1, 2), 12):
        a, b, c, d = word_to_matrix(w)
        assert 1 <= a <= min(b, c) <= max(b, c) < d


def test_norm_trace_chains_exhaustive_length_12():
    for w in all_even_words((1, 2), 12):
        m = word_to_matrix(w)
        nrm = norm_frobenius(m)
        t = trace(m)
        assert nrm <= 2 * t <= 4 * nrm
        d = m[3]
        col = math.hypot(m[1], m[3])
        assert d < col < nrm < 2 * col < 4 * d


def test_spectral_golden_fixed_point():
    sp = spectral((1, 1, 1, 2))
    assert sp.lambda_plus == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-15)
    # eigenvector proportional to (1, golden)
    assert sp.v_plus[1] / sp.v_plus[0] == pytest.approx(GOLDEN, rel=1e-14)
    assert sp.point == pytest.approx(1 / GOLDEN, rel=1e-14)


def test_spectral_rejects_bad_input():
    with pytest.raises(InputError):
        spectral(IDENTITY)           # trace 2
    with pytest.raises(InputError):
        spectral((0, 1, 1, 2))       # det -1
    with pytest.raises(InputError):
        lambda_expanding(1)


def test_lambda_close_to_trace_for_large_norm(rng):
    for _ in range(50):
        w = random_word(rng, (1, 2), 30, 44, even=True)
        m = word_to_matrix(w)
        if norm_frobenius(m) <= 10 ** 6:
            continue
        sp = spectral(m)
        assert abs(sp.lambda_plus - trace(m)) < 1e-5


def test_eigen_consistency(rng):
    # m v+ = lambda v+ to 1e-12 relative for norms below 1e9
    for _ in range(200):
        w = random_word(rng, (1, 2, 3), 4, 24, even=True)
        m = word_to_matrix(w)
        if norm_frobenius(m) >= 1e9:
            continue
        sp = spectral(m)
        mv = (m[0] * sp.v_plus[0] + m[1] * sp.v_plus[1],
              m[2] * sp.v_plus[0] + m[3] * sp.v_plus[1])
        lv = (sp.lambda_plus * sp.v_plus[0], sp.lambda_plus * sp.v_plus[1])
        err = math.hypot(mv[0] - lv[0], mv[1] - lv[1]) / sp.lambda_plus
        assert err < 1e-12
        # same for the contracting pair
        mw = (m[0] * sp.v_minus[0] + m[1] * sp.v_minus[1],
              m[2] * sp.v_minus[0] + m[3] * sp.v_minus[1])
        lw = (sp.v_minus[0] / sp.lambda_plus, sp.v_minus[1] / sp.lambda_plus)
        # contracting residual suffers cancellation of size ||m|| * eps
        assert math.hypot(mw[0] - lw[0], mw[1] - lw[1]) < 1e-12 + 1e-15 * norm_frobenius(m)


def test_expanding_contracting_angle(rng):
    # |<v+, v- rotated>| >= 1/2 for large elements
    for _ in range(100):
        w = random_word(rng, (1, 2), 12, 30, even=True)
        m = word_to_matrix(w)
        sp = spectral(m)
        perp = (-sp.v_minus[1], sp.v_minus[0])
        assert abs(sp.v_plus[0] * perp[0] + sp.v_plus[1] * perp[1]) >= 0.5


def test_norms_and_traces():
    assert norm_frobenius(IDENTITY) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert trace(IDENTITY) == 2
    assert norm_frobenius((0, 1, 1, 2)) == pytest.approx(math.sqrt(6), rel=1e-15)
    assert trace((0, 1, 1, 2)) == 2
    assert norm_frobenius((1, 1, 1, 2)) == pytest.approx(math.sqrt(7), rel=1e-15)
    assert trace((1, 1, 1, 2)) == 3


def frontier(letters, max_norm):
    """[(matrix, word)] per level of gamma_levels, with Python-int entries."""
    trail, out = [], []
    for level in gamma_levels(letters, max_norm):
        trail.append((level.parent, level.block))
        words = level_words(letters, trail, np.arange(len(level.parent)))
        mats = list(zip(*level.m.tolist()))
        assert [frobenius_sq(m) for m in mats] == level.frob_sq.tolist()
        out.append(list(zip(mats, words)))
    return out


def test_iter_gamma_matches_even_words():
    got = {m for level in frontier((1, 2), 60.0) for m, w in level}
    words = list(all_even_words((1, 2), 10))
    # norms grow along extensions, so no word longer than 10 is below 60
    assert all(frobenius_sq(word_to_matrix(w)) >= 3600 for w in words if len(w) == 10)
    want = {word_to_matrix(w) for w in words if frobenius_sq(word_to_matrix(w)) < 3600}
    assert got == want
    assert got == {m for m, w in iter_gamma((1, 2), 60.0)}


@st.composite
def frontier_cases(draw):
    """An alphabet within {1..6} and a norm bound up to 3000 / |A|^2, so the
    recursive oracle walks at most a few thousand elements."""
    letters = draw(st.sets(st.integers(1, 6), min_size=1, max_size=4))
    return letters, draw(st.floats(2.0, 3000.0 / len(letters) ** 2))


@settings(max_examples=40, deadline=None)
@given(case=frontier_cases())
@example(case=({1, 2}, 60.0))
@example(case=({1, 2}, 3000.0))
@example(case=({1, 2, 3, 4, 5, 6}, 150.0))
def test_frontier_matches_recursive_walk(case):
    letters, max_norm = case
    # level k is the oracle's words of length 2k, in the oracle's
    # (lexicographic, depth-first) order, with word_to_matrix entries
    want: dict[int, list] = {}
    for m, w in iter_gamma(letters, max_norm):
        want.setdefault(len(w) // 2, []).append((m, w))
    got = frontier(letters, max_norm)
    assert got == [want[k] for k in range(1, len(got) + 1)]
    assert len(got) == len(want)
    for level in got:
        for m, w in level:
            assert m == word_to_matrix(w)
            assert type(m[0]) is int and type(w[0]) is int


@pytest.mark.parametrize("letters, max_norm", [
    ((1,), 1e30),            # Fibonacci matrices far past int64
    ((1, 3000), 1e9),        # one block overflows int64 from a small parent
    ((2, 40, 41), 2.5e6),
])
def test_frontier_switches_to_python_ints_before_int64_overflows(letters, max_norm):
    got = [pair for level in frontier(letters, max_norm) for pair in level]
    assert sorted(got) == sorted(iter_gamma(letters, max_norm))
    dtypes = [level.m.dtype for level in gamma_levels(letters, max_norm)]
    assert dtypes[0] == np.int64 and dtypes[-1] == object


def test_spectral_arrays_match_spectral():
    mats = [m for level in frontier((1, 2, 3), 400.0) for m, w in level]
    lam, px, py = spectral_arrays(np.array(mats).T)
    want = [spectral(m) for m in mats]
    assert lam.tolist() == [s.lambda_plus for s in want]
    assert px.tolist() == [s.v_plus[0] for s in want]
    assert py.tolist() == [s.v_plus[1] for s in want]
    assert (px / py).tolist() == [s.point for s in want]


def test_frontier_cap_refuses_the_level_that_crosses_it(monkeypatch):
    # {1,2} levels hold 4, 16, 64, 256 elements below norm 10^4
    monkeypatch.setattr(cfcore, "FRONTIER_CAP", 64)
    sizes = []
    with pytest.raises(ResourceError, match="FRONTIER_CAP"):
        for level in gamma_levels((1, 2), 1e4):
            sizes.append(len(level.parent))
    assert sizes == [4, 16, 64]
    with pytest.raises(InputError):
        next(gamma_levels((1, 2), 1e200))


def test_alphabet_validation():
    with pytest.raises(InputError):
        Alphabet(())
    with pytest.raises(InputError):
        Alphabet((0, 1))
    with pytest.raises(InputError):
        Alphabet((2, 1))
    assert Alphabet.parse("2,1,2").letters == (1, 2)
