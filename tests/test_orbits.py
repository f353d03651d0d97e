import math
import os
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continuantlab import cfcore
from continuantlab.cfcore import Alphabet, cf_value
from continuantlab.errors import InputError, ResourceError
from continuantlab.orbits import (SPELLINGS, MultiplicityTable,
                                  counts_at_thresholds, density_ratio,
                                  enumerate_orbit, exceptions,
                                  hensley_exponent, multiplicity_table,
                                  sumset_check, write_exceptions_csv,
                                  write_mult_csv, write_orbit_csv)
from conftest import (brute_force_orbit, dfs_fiber_counts, dfs_points,
                      dfs_sumset)

FIB_DENOMS = [2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_fibonacci_denominators():
    table = multiplicity_table((1,), 100)
    assert table.denominators == FIB_DENOMS
    assert all(table.counts[d] == 1 for d in FIB_DENOMS)


def test_points_carry_valid_words():
    for pt in enumerate_orbit((1, 2), 50):
        assert cf_value(pt.word) == Fraction(pt.b, pt.d)
        assert all(a in (1, 2) for a in pt.word)


@pytest.mark.parametrize("letters,N", [((1, 2), 10), ((1, 2), 300),
                                       ((1, 3), 200), ((2,), 100),
                                       ((1, 2, 3, 4), 150)])
@pytest.mark.parametrize("spellings", ["any", "canonical", "even"])
def test_oracle_equivalence(letters, N, spellings):
    got = {(p.b, p.d) for p in enumerate_orbit(letters, N, spellings=spellings)}
    assert got == brute_force_orbit(letters, N, spellings=spellings)


def test_each_rational_once():
    pts = list(enumerate_orbit((1, 2), 500))
    pairs = [(p.b, p.d) for p in pts]
    assert len(pairs) == len(set(pairs))


def test_every_denominator_present_A5():
    table = multiplicity_table((1, 2, 3, 4, 5), 500)
    assert table.denominators == list(range(2, 500))


def test_exceptions_A4_conventions():
    # canonical convention: the classical exceptional set
    assert exceptions((1, 2, 3, 4), 200) == [6, 54, 150]
    # orbit membership rescues 6 through the word [1,4,1] = 5/6
    assert exceptions((1, 2, 3, 4), 200, spellings="any") == [54, 150]
    assert exceptions((1, 2, 3, 4), 200, spellings="even") == [6, 54, 150]


def test_exceptions_A5_empty():
    assert exceptions((1, 2, 3, 4, 5), 500) == []
    assert exceptions((1, 2, 3, 4, 5), 500, spellings="any") == []


def test_conservation():
    table = multiplicity_table((1, 2), 1000)
    stream = sum(1 for _ in enumerate_orbit((1, 2), 1000))
    assert table.total == stream == sum(table.counts.values())


def test_orbit_vs_canonical_counting():
    # over {1,2} the value 1/2 has both spellings [2] and [1,1] in-alphabet
    canon = multiplicity_table((1, 2), 30)
    orbit = multiplicity_table((1, 2), 30, representative="orbit")
    assert orbit.counts[2] == 2 * canon.counts[2] == 2
    # word-level oracle: every in-alphabet word with continuant < N counts
    words = Counter()
    def count_words(w_len_cap=16):
        stack = [((), 1, 0, 0, 1)]
        while stack:
            w, pp, qp, p, q = stack.pop()
            for a in (1, 2):
                nq = qp + a * q
                if nq >= 30:
                    continue
                nw = w + (a,)
                if nw != (1,):
                    words[nq] += 1
                stack.append((nw, p, q, pp + a * p, nq))
    count_words()
    assert dict(orbit.counts) == dict(words)


def test_prefix_continuants_increase():
    from continuantlab.cfcore import word_to_matrix
    for pt in enumerate_orbit((1, 2, 3), 80):
        ds = [word_to_matrix(pt.word[: k + 1])[3] for k in range(len(pt.word))]
        assert all(ds[i] < ds[i + 1] for i in range(len(ds) - 1))


# the DFS oracle costs about 1 us per point: N <= 9000 / #letters keeps
# every example near or below 3 * 10^5 points
CASES = st.sets(st.integers(1, 8), min_size=1).flatmap(
    lambda s: st.tuples(st.just(sorted(s)), st.integers(0, 9000 // max(3, len(s)))))


@settings(max_examples=30, deadline=None)
@given(case=CASES, spellings=st.sampled_from(SPELLINGS),
       representative=st.sampled_from(("canonical", "orbit")))
@example(case=([1, 2], 3000), spellings="any", representative="orbit")
@example(case=([1, 3], 3000), spellings="any", representative="canonical")
@example(case=([1, 2 ** 30], 3000), spellings="any", representative="orbit")
def test_fiber_counts_match_dfs(case, spellings, representative):
    # the frontier against the per-point walk; {1, 2^30} needs int64 pairs
    letters, N = case
    want = dfs_fiber_counts(letters, N, spellings, representative)
    assert multiplicity_table(letters, N, spellings, representative).counts == want
    if N >= 2 and representative == "canonical":
        Ns = [2, N // 2 + 1, N]
        assert counts_at_thresholds(letters, Ns, spellings) == [
            sum(c for d, c in want.items() if d < n) for n in sorted(set(Ns))]


@settings(max_examples=10, deadline=None)
@given(case=CASES, spellings=st.sampled_from(SPELLINGS))
@example(case=([1, 2], 3000), spellings="any")
@example(case=([1, 2], 3000), spellings="even")
@example(case=([1, 2 ** 30], 3000), spellings="any")
@example(case=([1, 2 ** 30], 3000), spellings="canonical")
@example(case=([1, 2 ** 16], 2 ** 20), spellings="any")
def test_points_match_dfs(case, spellings):
    # the point blocks against the per-point walk: the same multiset of
    # (b, d, word), in another order; {1, 2^30} needs int64 pairs and
    # {1, 2^16} int64 words
    letters, N = case
    assert Counter(enumerate_orbit(letters, N, spellings)) == dfs_points(letters, N, spellings)


@pytest.mark.parametrize("N", [0, 1, 2, 3])
@pytest.mark.parametrize("letters", [(1,), (2,), (1, 2), (2, 3)])
@pytest.mark.parametrize("spellings", SPELLINGS)
def test_points_below_four(letters, N, spellings):
    got = list(enumerate_orbit(letters, N, spellings))
    assert Counter(got) == dfs_points(letters, N, spellings)
    if N < 3:
        assert got == []  # no b/d with 2 <= d < N


def test_counts_at_thresholds_matches_direct():
    Ns = [50, 200, 800]
    cs = counts_at_thresholds((1, 2), Ns)
    for N, c in zip(Ns, cs):
        assert c == multiplicity_table((1, 2), N).total


def test_hensley_exponent_alphabets():
    Ns = [2 ** k for k in range(10, 17)]
    slope = hensley_exponent((1, 2), Ns)
    assert abs(slope - 1.0625610125544) < 0.05
    slope13 = hensley_exponent((1, 3), Ns)
    assert abs(slope13 - 2 * 0.4544890776618) < 0.05
    # single letter: logarithmic growth, slope near 0
    assert hensley_exponent((1,), Ns) < 0.3


def test_hensley_exponent_validation():
    with pytest.raises(InputError):
        hensley_exponent((1, 2), [100, 200])


def test_DN_bounded_by_RN():
    table = multiplicity_table((1, 2), 1000)
    assert len(table.counts) <= table.total


def test_product_set_inequality():
    # #{d} * #{b + a d} >= #R(N) for fixed a: knowing the pair recovers b/d
    pts = list(enumerate_orbit((1, 2), 500))
    for a in (1, 2):
        ds = {p.d for p in pts}
        sums = {p.b + a * p.d for p in pts}
        assert len(ds) * len(sums) >= len(pts)


def test_sumset_check_12():
    rep = sumset_check((1, 2), 500)
    assert rep.larger_N == 1500
    assert rep.ok and rep.counterexamples == []
    assert rep.n_points == len(list(enumerate_orbit((1, 2), 500)))


def test_sumset_check_A5():
    rep = sumset_check((1, 2, 3, 4, 5), 200)
    assert rep.ok


@pytest.mark.parametrize("letters,N", [((1, 2), 10 ** 4), ((1, 2, 3, 4, 5), 500),
                                       ((1,), 100), ((2, 3), 3000)])
@pytest.mark.parametrize("spellings", SPELLINGS)
def test_sumset_check_matches_dfs(letters, N, spellings):
    rep = sumset_check(letters, N, spellings)
    assert (rep.n_points, rep.n_checks, sorted(rep.counterexamples)) == dfs_sumset(
        letters, N, spellings)
    # b + a*d adds one letter to the transposed word and flips its length
    # parity, so only "even" has counterexamples
    assert rep.ok or spellings == "even"


def test_sumset_fibonacci_successor():
    # over {1}: b + d is the next Fibonacci continuant
    pts = sorted(enumerate_orbit((1,), 100), key=lambda p: p.d)
    denoms = [p.d for p in pts]
    for p in pts[:-1]:
        assert p.b + p.d in denoms


def test_density_ratio_13():
    delta = 0.4544890776618
    rep = density_ratio((1, 3), 200000, delta)
    ratios = [r for _, _, r in rep.grid]
    # bounded ratio curve: no drift to 0 or infinity
    assert 0.3 < min(ratios) and max(ratios) < 3.0
    assert max(ratios) / min(ratios) < 5.0
    # reference observation: max multiplicity 10 over even words at this N;
    # the orbit convention sees 12
    assert rep.max_multiplicity == 12
    even_rep = multiplicity_table((1, 3), 200000, spellings="even")
    assert max(even_rep.counts.values()) == 10


def test_density_ratio_single_letter_monotone():
    rep = density_ratio((1,), 1000, 0.0)
    counts = [c for _, c, _ in rep.grid]
    assert counts == sorted(counts)
    assert all(r == c for _, c, r in rep.grid)  # delta=0: ratio is the count


def test_multiplicity_band_A5():
    # normalized multiplicity R(d)/d^(2 delta - 1) stays in a band
    delta5 = 0.8368294436812084
    table = multiplicity_table((1, 2, 3, 4, 5), 1000)
    ratios = sorted(c / d ** (2 * delta5 - 1) for d, c in table.counts.items())
    assert ratios[0] > 0.15 and ratios[-1] < 2.0
    n = len(ratios)
    mid = ratios[n // 20: -n // 20]
    assert mid[0] > 0.3 and mid[-1] < 1.7


def test_csv_emitters(tmp_path):
    pts = list(enumerate_orbit((1, 2), 50))
    table = multiplicity_table((1, 2), 50)
    orbit_path = tmp_path / "orbit.csv"
    mult_path = tmp_path / "mult.csv"
    exc_path = tmp_path / "exceptions.csv"
    write_orbit_csv(orbit_path, pts, ["tool test", "seed: 0"])
    write_mult_csv(mult_path, table)
    write_exceptions_csv(exc_path, exceptions((1, 2, 3, 4), 60))
    lines = orbit_path.read_text().splitlines()
    assert lines[0] == "# tool test" and lines[2] == "b,d,word"
    assert len(lines) == 3 + len(pts)
    assert mult_path.read_text().splitlines()[0] == "d,count"
    assert exc_path.read_text().splitlines()[1] == "6"


def test_spellings_validation():
    with pytest.raises(InputError):
        multiplicity_table((1, 2), 100, spellings="bogus")
    with pytest.raises(InputError):
        multiplicity_table((1, 2), 100, representative="bogus")


def max_fiber_level(letters, N):
    """Most words of one length >= 2 and one leading letter with
    continuant < N: the largest level of orbits._fibers."""
    words = Counter()

    def rec(first, k, qp, q):
        for a in letters:
            nq = qp + a * q
            if nq >= N:
                break
            words[first, k + 1] += 1
            rec(first, k + 1, q, nq)

    for a in letters:
        rec(a, 1, 1, a)
    return max(words.values())


def test_fiber_frontier_cap(monkeypatch):
    # the cap admits a level of exactly FRONTIER_CAP words, refuses one more
    peak = max_fiber_level((1, 2, 3, 4), 1000)
    want = multiplicity_table((1, 2, 3, 4), 1000).counts
    monkeypatch.setattr(cfcore, "FRONTIER_CAP", peak)
    assert multiplicity_table((1, 2, 3, 4), 1000).counts == want
    monkeypatch.setattr(cfcore, "FRONTIER_CAP", peak - 1)
    with pytest.raises(ResourceError, match="FRONTIER_CAP"):
        multiplicity_table((1, 2, 3, 4), 1000)
    with pytest.raises(ResourceError):
        counts_at_thresholds((1, 2, 3, 4), [100, 1000])
    # points come from the same frontier, so the same cap refuses them
    with pytest.raises(ResourceError, match="FRONTIER_CAP"):
        list(enumerate_orbit((1, 2, 3, 4), 1000))
