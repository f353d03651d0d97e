import bisect
import random
from collections import Counter
from math import gcd

import numpy as np
import pytest

from continuantlab.cfcore import Alphabet, cf_expand
from continuantlab.orbits import _walk
from continuantlab.qmc import PointSet2D


def random_word(rng: random.Random, letters, lo: int, hi: int, even=False):
    k = rng.randrange(lo, hi + 1)
    if even and k % 2:
        k += 1
    return tuple(rng.choice(letters) for _ in range(k))


def spellings_of(b: int, d: int):
    """Both CF spellings of b/d (canonical first)."""
    w = cf_expand(b, d)
    if w == (1,):
        return [w]
    if w[-1] >= 2:
        return [w, w[:-1] + (w[-1] - 1, 1)]
    return [w, w[:-2] + (w[-2] + 1,)]


def brute_force_orbit(letters, N: int, spellings: str = "any"):
    """Membership oracle over all reduced pairs, independent of the DFS."""
    lset = set(letters)
    out = set()
    for d in range(2, N):
        for b in range(1, d):
            if gcd(b, d) != 1:
                continue
            sp = spellings_of(b, d)
            over = [all(a in lset for a in w) for w in sp]
            if spellings == "any" and any(over):
                out.add((b, d))
            elif spellings == "canonical" and over[0]:
                out.add((b, d))
            elif spellings == "even":
                for w, ok in zip(sp, over):
                    if ok and len(w) % 2 == 0:
                        out.add((b, d))
    return out


def dfs_fiber_counts(letters, N: int, spellings: str = "any",
                     representative: str = "canonical") -> dict[int, int]:
    """d -> weighted count of the points the depth-first walk visits.

    The per-point oracle for the numpy frontier behind
    orbits.multiplicity_table: weight 2 under representative="orbit" with
    spellings="any" when the visited word ends in a >= 2 and its twin
    [..., a-1, 1] also lies over the alphabet, else weight 1.
    """
    lset = frozenset(letters)
    orbit = representative == "orbit" and spellings == "any"
    counts: Counter = Counter()

    def visit(b, d, w):
        both = orbit and w[-1] >= 2 and (w[-1] - 1) in lset and 1 in lset
        counts[d] += 2 if both else 1

    _walk(Alphabet.of(letters), N, visit, spellings=spellings)
    return dict(counts)


def matrix_closure(letters, q: int) -> set:
    """Every nonempty word matrix mod q, as 4-tuples (a, b, c, d).

    Worklist fixed point of the generator reductions (0 1; 1 a) under
    right multiplication, on up to q^4 states: the matrix-level oracle
    for the bottom-row closure in modular.closure_mod_q.
    """
    gens = [(0, 1, 1, a % q) for a in letters]
    seen = set(gens)
    work = list(gens)
    while work:
        a, b, c, d = work.pop()
        for e, f, g, h in gens:
            m = ((a * e + b * g) % q, (a * f + b * h) % q,
                 (c * e + d * g) % q, (c * f + d * h) % q)
            if m not in seen:
                seen.add(m)
                work.append(m)
    return seen


def arc_windows(N: int, Q: int, K: int) -> list[tuple[float, float]]:
    """The bands a/q + [K/2N, K/N) and a/q - [K/N, K/2N) for Q/2 <= q < Q,
    0 <= a < q, gcd(a, q) = 1: the window set of expsum.arc_profile."""
    out = []
    for q in range(1, Q):
        if 2 * q < Q:
            continue
        for a in range(q):
            if gcd(a, q) == 1:
                out.append((a / q + K / (2 * N), a / q + K / N))
                out.append((a / q - K / N, a / q - K / (2 * N)))
    return out


def scan_star_discrepancy(ps) -> float:
    """Exact anchored-box discrepancy by an O(n^2) scan over the grid.

    Keeps the y values seen so far in a sorted list and counts them with
    searchsorted at every distinct x: the per-column oracle for the rank
    sweep in qmc.star_discrepancy, which must agree bit for bit.
    """
    pts = list(ps.points if isinstance(ps, PointSet2D) else ps)
    n = len(pts)
    pts.sort()
    xs = [p[0] for p in pts]
    best = 0.0
    sorted_y: list[float] = []
    i = 0
    inv = 1.0 / n
    for u in sorted(set(xs)):
        # deficit side: boxes [0,u) x [0,v), counts strictly inside
        k = i
        if k:
            arr = np.array(sorted_y)
            lt = np.searchsorted(arr, arr, side="left")
            best = max(best, float(np.max(u * arr - lt * inv)))
        best = max(best, u - k * inv)  # v = 1
        while i < n and pts[i][0] == u:
            bisect.insort(sorted_y, pts[i][1])
            i += 1
        # excess side: boxes [0,u] x [0,v], closed counts
        arr = np.array(sorted_y)
        le = np.searchsorted(arr, arr, side="right")
        best = max(best, float(np.max(le * inv - u * arr)))
    arr = np.array(sorted_y)  # u = 1
    lt = np.searchsorted(arr, arr, side="left")
    best = max(best, float(np.max(arr - lt * inv)))
    return best


@pytest.fixture
def rng():
    return random.Random(20240901)
