"""Pruned enumeration of bounded-quotient rationals and their continuants.

The object enumerated is the orbit of e2 = (0,1)^t under the semigroup
generated by (0 1; 1 a), a in the alphabet: equivalently all rationals
b/d admitting a continued-fraction spelling over the alphabet.  Words
are extended one letter at a time and pruned exactly when the continuant
d reaches the bound N, which is sound because d strictly increases along
every extension.

One level-synchronous numpy frontier (`_blocks`) applies that rule and
the emit rule below.  It yields the emitted words in blocks of one
length, one leading letter and one last-letter pair.  Fiber counts
(`multiplicity_table` and everything built on it, `counts_at_thresholds`)
read only the continuants of each block.  Points (`enumerate_orbit`, and
through the same blocks the orbit CSV, `sumset_check` and the
primitive-root search) also carry the numerators and the word matrix.
Points come by leading letter, then word length, then block: a fixed
order, but not the lexicographic one of a depth-first walk.

Spelling conventions.  Every rational except 1 has two CF spellings,
the canonical one (last quotient >= 2) and its trailing-1 twin.  Which
spellings are admitted changes the enumerated set, and the literature
is not uniform about it:

  * "any"        -- b/d is in when either spelling lies over the
                    alphabet.  This matches the semigroup orbit;
                    e.g. for alphabet {1} it yields all consecutive
                    Fibonacci ratios [1,1,...,1].
  * "canonical"  -- only the canonical spelling counts.  This is the
                    convention behind the classical exceptional set
                    {6, 54, 150} for the alphabet {1,2,3,4}: the word
                    [1,4,1] spells 5/6, so 6 is reachable as an orbit
                    point, yet 5/6 = [1,5] canonically and 6 counts as
                    an exception.
  * "even"       -- only the even-length spelling counts (the index-2
                    sub-semigroup of determinant +1 words).  Agrees
                    with "canonical" on which continuants appear for
                    full alphabets {1..A}.

Defaults: enumeration and multiplicity tables use "any" (the orbit);
`exceptions` uses "canonical" (the classical convention).  Each rational
is visited exactly once regardless of convention; the `representative`
switch on multiplicity tables additionally counts a rational with
weight 2 when both of its spellings lie over the alphabet ("orbit"
counting of words, versus the default "canonical" counting of values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .cfcore import Alphabet, Word, frontier_guard
from .errors import InputError

SPELLINGS = ("any", "canonical", "even")


class OrbitPoint(NamedTuple):
    b: int
    d: int
    word: Word  # the visited spelling, a word over the alphabet

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.b, self.d)


def _check_spellings(spellings: str) -> str:
    if spellings not in SPELLINGS:
        raise InputError(f"spellings must be one of {SPELLINGS}, got {spellings!r}")
    return spellings


def _blocks(alphabet, N: int, spellings: str, representative: str = "canonical",
            points: bool = False) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """Every emitted word with continuant < N, as blocks (weight, cols, words).

    A block holds the words of one length, one leading letter and one
    (previous, new) last-letter pair, because the emit rule reads only
    the new letter, the one before it and the length.  `weight` is how
    often each word counts: 1, or 2 under representative="orbit" when
    the twin of a canonical word also lies over the alphabet.  `cols` is
    the (1, n) row of continuants q_k; with points=True it is the (2, n)
    array of numerators and continuants (p_k, q_k), and `words` is the
    (n, k) word matrix (else None).

    Level-synchronous: level k holds the last two matrix columns of every
    word of length k with q_k < N, grouped by last letter.  A parent that
    overflows letter a overflows every larger letter, so each letter
    extends only the survivors of the one before.  One chunk per leading
    letter bounds memory by the largest subtree, and frontier_guard caps
    each level.  Blocks come by leading letter, then length.
    """
    alphabet = Alphabet.of(alphabet)
    letters = alphabet.letters
    lset = frozenset(letters)
    spellings = _check_spellings(spellings)
    both = representative == "orbit" and spellings == "any" and 1 in lset
    # q_{k-1} + a * q_k < (a_max + 1) * N bounds every value computed,
    # and p_k <= q_k
    dtype = np.int32 if (alphabet.a_max + 1) * N < 2 ** 31 else np.int64
    wtype = np.int16 if alphabet.a_max < 2 ** 15 else np.int64
    rows = slice(0 if points else 1, 2)  # (p, q) or q alone

    def weight(prev: int, a: int, depth: int) -> int:
        # the emit rule, for the word ending (..., prev, a) of length depth;
        # prev = 0 for a one-letter word, so the word (1) is never emitted
        if spellings == "canonical":
            return int(a >= 2)
        if spellings == "even":
            return int(depth % 2 == 0)
        # "any": canonical words, plus trailing-1 words whose twin leaves
        # the alphabet (so each member rational is emitted exactly once)
        if a >= 2:
            return 2 if both and (a - 1) in lset else 1
        return int(prev > 0 and (prev + 1) not in lset)

    for first in letters:
        if first >= N:
            break
        # the matrix columns (p_0, q_0) and (p_1, q_1) of the word (first)
        old = np.array([[0], [1]], dtype)[rows]
        cur = np.array([[1], [first]], dtype)[rows]
        word = np.full((1, 1), first, wtype) if points else None
        w = weight(0, first, 1)
        if w:
            yield w, cur, word
        frontier = {first: (old, cur, word)}
        depth = 1
        while frontier:
            depth += 1
            grown: dict[int, tuple[list, list, list]] = {}
            size = 0
            for prev, (new, cur, words) in frontier.items():
                step = 0
                for a in letters:
                    new = new + (a - step) * cur  # = old + a * cur
                    step = a
                    fits = new[-1] < N
                    if not fits.all():
                        cur, new = cur.compress(fits, 1), new.compress(fits, 1)
                        words = words.compress(fits, 0) if points else None
                    n = new.shape[1]
                    if not n:
                        break
                    size += n
                    frontier_guard(size)
                    kids = np.column_stack((words, np.full(n, a, wtype))) if points else None
                    olds, news, kin = grown.setdefault(a, ([], [], []))
                    olds.append(cur)
                    news.append(new)
                    kin.append(kids)
                    w = weight(prev, a, depth)
                    if w:
                        yield w, new, kids
            frontier = {a: (np.concatenate(olds, 1), np.concatenate(news, 1),
                            np.concatenate(kin) if points else None)
                        for a, (olds, news, kin) in grown.items()}


def enumerate_orbit(alphabet, N: int, spellings: str = "any") -> Iterator[OrbitPoint]:
    """Stream every member b/d with d < N, exactly once, as OrbitPoints:
    by leading letter, then word length, then last two letters."""
    for _, (b, d), words in _blocks(alphabet, N, spellings, points=True):
        yield from map(OrbitPoint, b.tolist(), d.tolist(), map(tuple, words.tolist()))


def _pairs(alphabet, N: int, spellings: str) -> tuple[np.ndarray, np.ndarray]:
    """(b, d) of every member b/d with d < N, as int64 arrays in block order."""
    empty = np.zeros(0, np.int64)
    bs, ds = zip((empty, empty), *(cols for _, cols, _ in
                                   _blocks(alphabet, N, spellings, points=True)))
    return np.concatenate(bs), np.concatenate(ds)


@dataclass
class MultiplicityTable:
    """Fiber counts d -> #{b : b/d enumerated}, with the bound N."""

    N: int
    counts: dict[int, int]
    spellings: str = "any"
    representative: str = "canonical"

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def denominators(self) -> list[int]:
        return sorted(self.counts)

    def count(self, d: int) -> int:
        return self.counts.get(d, 0)

    def exceptions(self) -> list[int]:
        return [d for d in range(2, self.N) if d not in self.counts]


def _fibers(alphabet, N: int, spellings: str,
            representative: str = "canonical") -> tuple[np.ndarray, np.ndarray]:
    """(ds, counts): the continuants d < N of the emitted words, ascending,
    with the weighted number of emitted words at each."""
    # emitted continuants not yet counted, one copy per unit of weight.
    # They go into an N-long histogram once they reach N entries, so each
    # bincount costs O(N) that often; an orbit with fewer words than N is
    # sorted instead and never allocates the histogram.
    emitted: list[np.ndarray] = []
    pending = 0
    hist = None
    for weight, cols, _ in _blocks(alphabet, N, spellings, representative):
        emitted += [cols[-1]] * weight
        pending += weight * cols.shape[1]
        if pending >= N:
            counted = np.bincount(np.concatenate(emitted), minlength=N)
            hist = counted if hist is None else hist + counted
            emitted, pending = [], 0
    rest = np.concatenate(emitted) if emitted else np.zeros(0, np.int64)
    if hist is None:
        return np.unique(rest, return_counts=True)
    hist += np.bincount(rest, minlength=N)
    ds = np.flatnonzero(hist)
    return ds, hist[ds]


def multiplicity_table(alphabet, N: int, spellings: str = "any",
                       representative: str = "canonical") -> MultiplicityTable:
    """Aggregate the enumeration into fiber counts.

    representative="canonical" counts each rational once;
    representative="orbit" counts each word over the alphabet (so a
    value with both spellings over the alphabet weighs 2).  The flag
    only matters for spellings="any".
    """
    if representative not in ("canonical", "orbit"):
        raise InputError(f"representative must be canonical|orbit, got {representative!r}")
    ds, counts = _fibers(alphabet, N, spellings, representative)
    return MultiplicityTable(N, dict(zip(ds.tolist(), counts.tolist())),
                             spellings, representative)


def exceptions(alphabet, N: int, spellings: str = "canonical") -> list[int]:
    """All d in [2, N) with empty fiber.

    Default convention is "canonical", under which the alphabet
    {1,2,3,4} misses exactly {6, 54, 150} up to 1000; under "any" the
    word [1,4,1] = 5/6 rescues 6.  See the module docstring.
    """
    return multiplicity_table(alphabet, N, spellings=spellings).exceptions()


def counts_at_thresholds(alphabet, N_list: Sequence[int],
                         spellings: str = "any") -> list[int]:
    """#R(N_i) for each threshold, from one fiber count at max(N_list)."""
    thresholds = sorted(set(int(n) for n in N_list))
    if any(n < 2 for n in thresholds):
        raise InputError("thresholds must be >= 2")
    ds, counts = _fibers(alphabet, thresholds[-1], spellings)
    # below[i] sums the i smallest fibers; searchsorted counts those with d < n
    below = np.concatenate(([0], np.cumsum(counts)))
    return [int(below[np.searchsorted(ds, n)]) for n in thresholds]


def hensley_exponent(alphabet, N_list: Sequence[int],
                     spellings: str = "any") -> float:
    """Least-squares slope of log #R(N) against log N."""
    Ns = sorted(set(int(n) for n in N_list))
    if len(Ns) < 3:
        raise InputError("need at least 3 increasing N values")
    counts = counts_at_thresholds(alphabet, Ns, spellings=spellings)
    if any(c == 0 for c in counts):
        raise InputError(f"empty orbit at some threshold: {list(zip(Ns, counts))}")
    return float(np.polyfit(np.log(Ns), np.log(counts), 1)[0])


@dataclass
class SumsetReport:
    N: int
    larger_N: int
    n_points: int
    n_checks: int
    counterexamples: list[tuple[int, int, int, int]]  # (b, d, a, value missing)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def sumset_check(alphabet, N: int, spellings: str = "any") -> SumsetReport:
    """Verify d and b + a*d are continuants at scale (a_max + 1) * N.

    The transpose of a word matrix is again a generator product, and
    appending the letter a to it lands on the continuant b + a*d; so
    every enumerated b/d forces b + a*d into the denominator set of the
    (a_max+1)N enumeration.  Returns any counterexamples (none expected).
    """
    alphabet = Alphabet.of(alphabet)
    bigN = (alphabet.a_max + 1) * N
    big = multiplicity_table(alphabet, bigN, spellings=spellings)
    dset = np.fromiter(big.counts, np.int64, len(big.counts))
    b, d = _pairs(alphabet, N, spellings)
    bad: list[tuple[int, int, int, int]] = []
    for a, v in [(0, d)] + [(a, b + a * d) for a in alphabet]:
        miss = ~np.isin(v, dset)
        bad += zip(b[miss].tolist(), d[miss].tolist(), repeat(a), v[miss].tolist())
    return SumsetReport(N, bigN, len(d), len(d) * (len(alphabet) + 1), bad)


@dataclass
class DensityReport:
    delta: float
    grid: list[tuple[int, int, float]]  # (N_i, #D(N_i), #D(N_i)/N_i^{2 delta})
    max_multiplicity: int
    max_multiplicity_at: int


def density_ratio(alphabet, N: int, delta: float,
                  spellings: str = "any") -> DensityReport:
    """Normalized counting function #D(N_i) / N_i^{2 delta} on a log grid
    of 40 points from 4 to N (fewer where they round to the same N_i)."""
    if not (0 <= delta < 1):
        raise InputError(f"delta must be in [0, 1), got {delta}")
    if N < 4:
        raise InputError("N too small")
    table = multiplicity_table(alphabet, N, spellings=spellings)
    denoms = np.array(table.denominators)
    grid_N = sorted(set(int(round(x)) for x in
                        np.exp(np.linspace(math.log(4), math.log(N), 40))))
    grid = []
    for Ni in grid_N:
        nd = int(np.searchsorted(denoms, Ni, side="left"))
        grid.append((Ni, nd, nd / Ni ** (2 * delta)))
    if table.counts:
        dmax = max(table.counts, key=lambda d: (table.counts[d], -d))
        mmax = table.counts[dmax]
    else:
        dmax, mmax = 0, 0
    return DensityReport(delta, grid, mmax, dmax)


# --- CSV emitters (base-10 integers, header row, LF newlines) ---------------

def write_csv(path, header_lines: Sequence[str], columns: Sequence[str],
              rows) -> None:
    """`# ` header lines, the column row, then one line per row of str()s."""
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def write_orbit_csv(path, points, header_lines: Sequence[str] = ()) -> None:
    rows = ((p.b, p.d, " ".join(str(a) for a in p.word)) for p in points)
    write_csv(path, header_lines, ("b", "d", "word"), rows)


def write_mult_csv(path, table: MultiplicityTable,
                   header_lines: Sequence[str] = ()) -> None:
    rows = ((d, table.counts[d]) for d in table.denominators)
    write_csv(path, header_lines, ("d", "count"), rows)


def write_exceptions_csv(path, exc: Sequence[int],
                         header_lines: Sequence[str] = ()) -> None:
    write_csv(path, header_lines, ("d",), ((d,) for d in exc))
