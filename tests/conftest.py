import bisect
import math
import random
from collections import Counter
from math import gcd
from typing import Callable, Iterator

import numpy as np
import pytest

from continuantlab.cfcore import (IDENTITY, Alphabet, Mat2, Word, cf_expand,
                                  frobenius_sq, generator, mat_mul,
                                  norm_frobenius, spectral)
from continuantlab.dimension import (DimensionResult, SectorReport,
                                     pressure_eigenvalue)
from continuantlab.errors import ConstructionError, InputError, NumericalError
from continuantlab.expsum import ExpSumSource
from continuantlab.modular import Witness, is_prime, is_primitive_root
from continuantlab.orbits import _check_spellings, multiplicity_table
from continuantlab.products import (XI_MIN_M, XiSet, _lambda_class_bounds,
                                    _require_in_limit_set, _unit_direction,
                                    default_target_point)
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


# A depth-first walk over the words, one visit per emitted point: the
# per-point oracle for the numpy blocks of orbits._blocks.
def _emit_test(spellings: str, letters: frozenset[int]) -> Callable:
    """Predicate deciding whether the visited word is the representative
    spelling of its value under the given convention."""
    if spellings == "canonical":
        return lambda w, a: a >= 2
    if spellings == "even":
        return lambda w, a: len(w) % 2 == 0
    # "any": canonical words, plus trailing-1 words whose twin leaves
    # the alphabet (so each member rational is emitted exactly once)
    return lambda w, a: a >= 2 or (len(w) >= 2 and (w[-2] + 1) not in letters)


def _walk(alphabet, N: int, visit: Callable[[int, int, Word], None],
          spellings: str = "any", prefix: Word = ()) -> None:
    """DFS over words over the alphabet with continuant < N.

    Calls visit(b, d, word) once per member rational (per `spellings`).
    `prefix` restricts the walk to words starting with that prefix
    (enumerate_orbit walks one leading letter at a time); the prefix
    itself is visited.
    """
    letters = Alphabet.of(alphabet).letters
    lset = frozenset(letters)
    emit = _emit_test(_check_spellings(spellings), lset)
    if N < 2:
        return

    # state: previous and current convergent columns of the word matrix
    def rec(pp: int, qp: int, p: int, q: int, w: Word) -> None:
        for a in letters:
            nq = qp + a * q
            if nq >= N:
                break  # letters ascend and q grows with a: no more fits
            np_ = pp + a * p
            nw = w + (a,)
            if nw != (1,) and emit(nw, a):
                visit(np_, nq, nw)
            rec(p, q, np_, nq, nw)

    pp, qp, p, q = 1, 0, 0, 1
    w: Word = ()
    for a in prefix:
        pp, qp, p, q, w = p, q, pp + a * p, qp + a * q, w + (a,)
    if q >= N:
        return
    if prefix and w != (1,) and emit(w, w[-1]):
        visit(p, q, w)
    rec(pp, qp, p, q, w)


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


def dfs_points(letters, N: int, spellings: str = "any") -> Counter:
    """Multiset of the (b, d, word) the depth-first walk visits: the
    oracle for the point blocks behind orbits.enumerate_orbit."""
    points: Counter = Counter()
    _walk(Alphabet.of(letters), N, lambda b, d, w: points.update([(b, d, w)]),
          spellings=spellings)
    return points


def dfs_sumset(letters, N: int, spellings: str = "any"):
    """(n_points, n_checks, sorted counterexamples) of orbits.sumset_check,
    per point of the depth-first walk.  The continuants below
    (a_max + 1) * N come from multiplicity_table, which
    test_fiber_counts_match_dfs holds to the walk."""
    alphabet = Alphabet.of(letters)
    dset = set(multiplicity_table(alphabet, (alphabet.a_max + 1) * N, spellings).counts)
    bad = []
    n_points = 0

    def visit(b, d, w):
        nonlocal n_points
        n_points += 1
        for a, v in [(0, d)] + [(a, b + a * d) for a in alphabet]:
            if v not in dset:
                bad.append((b, d, a, v))

    _walk(alphabet, N, visit, spellings=spellings)
    return n_points, n_points * (len(alphabet) + 1), sorted(bad)


def dfs_witness(letters, N: int, spellings: str = "any"):
    """modular.primitive_root_witness over the depth-first walk: the first
    b/d by increasing d, then b, with d prime and b a primitive root."""
    fibers: dict[int, list[int]] = {}
    _walk(Alphabet.of(letters), N, lambda b, d, w: fibers.setdefault(d, []).append(b),
          spellings=spellings)
    for d in sorted(fibers):
        if not is_prime(d):
            continue
        for b in sorted(fibers[d]):
            if is_primitive_root(b, d):
                return Witness(b, d)
    return None


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


def oracle_sl2_dentry_counts(q: int) -> tuple[int, ...]:
    """counts[r] = #{(a,b,c,d) in SL2(Z/q) : d = r}.

    Uses #{(b,c): bc = m (q)} precomputed in O(q^2); total O(q^2).
    """
    if q == 1:
        return (1,)
    prod_count = [0] * q
    for b in range(q):
        for c in range(q):
            prod_count[(b * c) % q] += 1
    counts = [0] * q
    for r in range(q):
        counts[r] = sum(prod_count[(a * r - 1) % q] for a in range(q))
    return tuple(counts)


def sl2_order(q: int) -> int:
    """|SL2(Z/q)| = q^3 * prod_{p | q} (1 - 1/p^2)."""
    if q < 1:
        raise InputError(f"need q >= 1, got {q}")
    order = q ** 3
    m = q
    p = 2
    while p * p <= m:
        if m % p == 0:
            order = order // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        order = order // (m * m) * (m * m - 1)
    return order


def mat_transpose(m: Mat2) -> Mat2:
    a, b, c, d = m
    return (a, c, b, d)


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


def s_n(source: ExpSumSource, theta: float) -> complex:
    """S(theta) by direct summation; S(0) is exactly the multiset size."""
    if theta == 0.0:
        return complex(len(source))
    phase = np.exp(2j * np.pi * ((theta * source.values) % 1.0))
    return complex(phase.sum())


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


def iter_gamma(alphabet, max_norm: float) -> Iterator[tuple[Mat2, Word]]:
    """All nonidentity even words over the alphabet with ||g|| < max_norm.

    Frobenius norm strictly increases under right-multiplication by a
    generator pair, so the search tree is pruned exactly at the bound.
    Deterministic depth-first order (lexicographic in the word).
    """
    letters = Alphabet.of(alphabet).letters
    blocks = [
        (mat_mul(generator(x), generator(y)), (x, y)) for x in letters for y in letters
    ]
    cap = max_norm * max_norm

    def rec(m: Mat2, w: Word) -> Iterator[tuple[Mat2, Word]]:
        for blk, pair in blocks:
            nm = mat_mul(m, blk)
            if frobenius_sq(nm) < cap:
                nw = w + pair
                yield nm, nw
                yield from rec(nm, nw)

    yield from rec(IDENTITY, ())


def scalar_lambda_class(lam: float, bounds: list[float]) -> int:
    """Highest class whose window [bounds[i+1], bounds[i]] holds lam (the
    lowest i on a shared edge); -1 when lam escapes [bounds[-1], bounds[0]]."""
    for i in range(len(bounds) - 1):
        if bounds[i + 1] <= lam <= bounds[i]:
            return i
    return -1


def oracle_build_xi(alphabet, M: float, x_target=None) -> XiSet:
    """The four stages of products.build_xi as scalar loops over the
    recursive walk: the oracle for the numpy frontier version."""
    alphabet = Alphabet.of(alphabet)
    if M < XI_MIN_M:
        raise InputError(f"need M >= {XI_MIN_M:.0f}, got {M}")
    if x_target is None:
        x_target = default_target_point(alphabet)
    _require_in_limit_set(alphabet, x_target)
    vx = _unit_direction(x_target)
    eta = 1.0 / math.log(M)
    half2 = (M / 2.0) ** 2

    s1 = [(m, w) for m, w in iter_gamma(alphabet, M) if frobenius_sq(m) >= half2]
    s2 = []
    for m, w in s1:
        sp = spectral(m)
        if math.hypot(sp.v_plus[0] - vx[0], sp.v_plus[1] - vx[1]) < eta:
            s2.append((m, w, sp.lambda_plus))
    if not s2:
        raise ConstructionError(
            f"direction window around {x_target} empty at M={M}")

    bounds = _lambda_class_bounds(M)
    classes: dict[int, list] = {}
    for m, w, lam in s2:
        i = scalar_lambda_class(lam, bounds)
        if i < 0:
            raise ConstructionError(f"eigenvalue {lam} escaped [M/4, 4M] at M={M}")
        classes.setdefault(i, []).append((m, w, lam))
    best = max(sorted(classes), key=lambda i: len(classes[i]))  # ties: lowest i
    s3 = classes[best]
    L = bounds[best]

    by_k: dict[int, list] = {}
    for m, w, lam in s3:
        by_k.setdefault(len(w), []).append((m, w, lam))
    best_k = max(sorted(by_k), key=lambda k: len(by_k[k]))  # ties: smallest k
    s4 = by_k[best_k]

    xi = XiSet(
        alphabet=alphabet,
        members=tuple(m for m, _, _ in s4),
        words=tuple(w for _, w, _ in s4),
        lambdas=tuple(lam for _, _, lam in s4),
        L=L, M=float(M), k=best_k, x_target=x_target,
        stage_sizes=(len(s1), len(s2), len(s3), len(s4)),
        n_lambda_classes=len(bounds) - 1,
        n_wordlength_classes=len(by_k),
    )
    xi.validate()
    return xi


def oracle_sector_count_check(alphabet, N: float, interval: tuple[float, float],
                              grid_points: int = 5) -> SectorReport:
    """dimension.sector_count_check as a scalar loop over the recursive walk."""
    lo, hi = interval
    if not (0.0 <= lo < hi <= 1.0):
        raise InputError(f"interval must be within [0,1], got {interval}")
    if N < 100:
        raise InputError("N too small for a meaningful fit")
    norms = [N ** (0.5 + 0.5 * i / (grid_points - 1)) for i in range(grid_points)]
    counts = [0] * grid_points
    for m, _w in iter_gamma(alphabet, norms[-1]):
        pt = spectral(m).point
        if lo <= pt <= hi:
            nrm = norm_frobenius(m)
            for i, bound in enumerate(norms):
                if nrm < bound:
                    counts[i] += 1
    slope = None
    if all(c > 0 for c in counts):
        slope = float(np.polyfit(np.log(norms), np.log(counts), 1)[0])
    return SectorReport((lo, hi), tuple(norms), tuple(counts), slope,
                        empty=(counts[-1] == 0))


def oracle_dimension(alphabet, tol: float = 1e-12, nodes: int = 64) -> DimensionResult:
    """The zero of lam(s) - 1 on (0, 1), by bisection then secant: the
    two-phase oracle for the bracketed secant on log lam(s) in
    dimension.dimension."""
    alphabet = Alphabet.of(alphabet)
    if tol < 1e-13:
        raise InputError(f"tol {tol} below the 1e-13 double-precision floor")
    if len(alphabet) == 1:
        return DimensionResult(0.0, float(len(alphabet)), 0, 0.0, ())

    history: list[tuple[float, float]] = []

    def g(s: float) -> float:
        lam = pressure_eigenvalue(alphabet, s, nodes)
        history.append((s, lam))
        return lam - 1.0

    lo, hi = 1e-9, 1.0
    glo, ghi = g(lo), g(hi)
    if glo <= 0 or ghi >= 0:
        raise ConstructionError(
            f"root not bracketed on (0,1): lam(0+)={glo + 1}, lam(1)={ghi + 1}")
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm > 0:
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
    s0, f0, s1, f1 = lo, glo, hi, ghi
    for _ in range(80):
        s2 = s1 - f1 * (s1 - s0) / (f1 - f0)
        f2 = g(s2)
        s0, f0, s1, f1 = s1, f1, s2, f2
        if abs(s1 - s0) < tol:
            break
    else:
        raise NumericalError(f"secant refinement stalled near s={s1}")
    return DimensionResult(float(s1), float(f1 + 1.0), nodes, abs(float(f1)),
                           tuple(history))


def product_barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric weights 1/prod_{k != j}(x_j - x_k) for any nodes: the
    oracle for the closed-form Chebyshev weights in dimension.discretize."""
    n = len(x)
    w = np.ones(n)
    for j in range(n):
        w[j] = 1.0 / np.prod(x[j] - np.delete(x, j))
    return w


@pytest.fixture
def rng():
    return random.Random(20240901)
