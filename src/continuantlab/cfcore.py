"""Exact continued-fraction and 2x2 integer-matrix arithmetic.

Conventions used throughout the package:

  * A continued fraction word [a1, ..., ak] denotes the value
    1/(a1 + 1/(a2 + ... + 1/ak)), so every word with positive quotients
    lies in (0, 1].
  * The canonical expansion of a rational b/d with 0 < b < d is the one
    produced by the Euclidean algorithm; it ends in a quotient >= 2
    (except for the rational 1 = [1]).  The other spelling of the same
    value swaps [..., a] <-> [..., a-1, 1].
  * A word maps to the matrix product of the generators (0 1; 1 a),
    taken left to right.  The second column of the product is (b, d)
    with b/d the value of the word, so the denominator d is the
    continuant of the word.
  * Matrices are plain tuples (a, b, c, d) read row-major:
    (a b; c d).  Entries are Python ints, hence arbitrary precision.
    The numpy frontier `gamma_levels` holds entries as int64 only while
    every product it forms provably stays below 2^63, and as Python-int
    object arrays beyond that, so it never overflows either.

Even-length words have determinant +1 and, when nonidentity, satisfy the
entry order 1 <= a <= min(b, c) <= max(b, c) < d.  Their expanding
eigenvalue exceeds 1 and both entries of the expanding eigenvector are
positive; we identify the unit eigenvector (x, y) with the point
x/y in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InputError, NumericalError, ResourceError

Mat2 = tuple[int, int, int, int]
Word = tuple[int, ...]

IDENTITY: Mat2 = (1, 0, 0, 1)

# Most elements one level of a numpy frontier may hold: a level of this
# module's det +1 semigroup walk, or of one leading-letter chunk of
# orbits._blocks, which serves both fiber counts and orbit points.  Levels
# grow geometrically, so this also bounds the time and memory a refused
# request costs.  The largest legitimate level holds 2 013 852 elements
# ({1..5} at N = 2*10^4 in the fiber counts), about half the cap.
FRONTIER_CAP = 2 ** 22


@dataclass(frozen=True)
class Alphabet:
    """A finite set of allowed partial quotients, kept sorted."""

    letters: tuple[int, ...]

    def __post_init__(self):
        ls = self.letters
        if not ls:
            raise InputError("alphabet must be nonempty")
        if any(a < 1 for a in ls):
            raise InputError(f"alphabet letters must be >= 1, got {ls}")
        if any(ls[i] >= ls[i + 1] for i in range(len(ls) - 1)):
            raise InputError(f"alphabet letters must be strictly increasing, got {ls}")

    @classmethod
    def of(cls, letters) -> "Alphabet":
        if isinstance(letters, Alphabet):
            return letters
        return cls(tuple(sorted(set(int(a) for a in letters))))

    @classmethod
    def parse(cls, text: str) -> "Alphabet":
        try:
            return cls.of(int(tok) for tok in text.split(","))
        except ValueError as e:
            raise InputError(f"cannot parse alphabet {text!r}") from e

    @property
    def a_min(self) -> int:
        return self.letters[0]

    @property
    def a_max(self) -> int:
        return self.letters[-1]

    def __contains__(self, a) -> bool:
        return a in self.letters

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return ",".join(str(a) for a in self.letters)


def validate_word(word: Sequence[int], alphabet: Alphabet | None = None) -> Word:
    w = tuple(int(a) for a in word)
    if not w:
        raise InputError("empty continued-fraction word")
    if any(a < 1 for a in w):
        raise InputError(f"partial quotients must be >= 1, got {w}")
    if alphabet is not None:
        bad = [a for a in w if a not in alphabet]
        if bad:
            raise InputError(f"quotients {bad} not in alphabet {alphabet}")
    return w


def cf_expand(b: int, d: int) -> Word:
    """Canonical continued fraction of b/d (Euclid; last quotient >= 2)."""
    if not (0 < b < d):
        raise InputError(f"need 0 < b < d, got b={b} d={d}")
    if gcd(b, d) != 1:
        raise InputError(f"fraction {b}/{d} is not reduced")
    out = []
    while b:
        out.append(d // b)
        d, b = b, d % b
    return tuple(out)


def cf_value(word: Sequence[int]) -> Fraction:
    """Value of a word as an exact Fraction, via the convergent recurrence."""
    w = validate_word(word)
    p_prev, q_prev, p, q = 1, 0, 0, 1
    for a in w:
        p_prev, q_prev, p, q = p, q, p_prev + a * p, q_prev + a * q
    return Fraction(p, q)


def twin(word: Sequence[int]) -> Word:
    """The other spelling of the same rational: [..,a] <-> [..,a-1,1]."""
    w = validate_word(word)
    if w == (1,):
        raise InputError("the rational 1 = [1] has a unique spelling")
    if w[-1] >= 2:
        return w[:-1] + (w[-1] - 1, 1)
    return w[:-2] + (w[-2] + 1,)


def even_normalize(word: Sequence[int]) -> Word:
    """The even-length spelling of the word's value (value is unchanged)."""
    w = validate_word(word)
    if len(w) % 2 == 0:
        return w
    if w == (1,):
        raise InputError("the rational 1 has no even-length expansion")
    return twin(w)


def generator(a: int) -> Mat2:
    if a < 1:
        raise InputError(f"generator letter must be >= 1, got {a}")
    return (0, 1, 1, a)


def mat_mul(m: Mat2, n: Mat2) -> Mat2:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def word_to_matrix(word: Sequence[int]) -> Mat2:
    """Product of the generators (0 1; 1 a_j), left to right."""
    m = IDENTITY
    for a in validate_word(word):
        m = mat_mul(m, generator(a))
    return m


def det(m: Mat2) -> int:
    a, b, c, d = m
    return a * d - b * c


def trace(m: Mat2) -> int:
    return m[0] + m[3]


def frobenius_sq(m: Mat2) -> int:
    a, b, c, d = m
    return a * a + b * b + c * c + d * d


def norm_frobenius(m: Mat2) -> float:
    return math.sqrt(frobenius_sq(m))


def is_semigroup_matrix(m: Mat2) -> bool:
    """Entry test for products of the generators (identity excluded)."""
    a, b, c, d = m
    if det(m) not in (1, -1) or m == IDENTITY:
        return False
    return 0 <= a <= min(b, c) and max(b, c) <= d and d >= 1


def matrix_to_fraction(m: Mat2) -> Fraction:
    """Second column (b, d) of a semigroup element, as the fraction b/d."""
    if not is_semigroup_matrix(m):
        raise InputError(f"{m} is not a generator product (entry order violated)")
    return Fraction(m[1], m[3])


def lambda_expanding(tr) -> float:
    """Expanding root of X^2 - tr X + 1, polished to double precision.

    The closed form (tr + sqrt(tr^2-4))/2 loses accuracy once tr^2
    overflows the 53-bit mantissa; the fixed point lam = tr - 1/lam
    restores it at any scale representable as a float.
    """
    if tr <= 2:
        raise InputError(f"trace {tr} < 3: identity or not a hyperbolic semigroup element")
    try:
        t = float(tr)
    except OverflowError as e:
        raise NumericalError(f"trace too large for double precision: {tr}") from e
    lam = 0.5 * (t + math.sqrt(max(t * t - 4.0, 0.0)))
    for _ in range(3):
        lam = t - 1.0 / lam
    return lam


class SpectralData(NamedTuple):
    """Perron data of a det +1 semigroup element.

    v_plus has positive entries and approximates (b, d)/|(b, d)|;
    v_minus is normalized with positive second entry (direction (-d, c)
    in the large-norm limit).  point = x/y for v_plus = (x, y), the
    paper-style identification of directions with [0, 1].
    """

    lambda_plus: float
    v_plus: tuple[float, float]
    v_minus: tuple[float, float]
    point: float


def spectral(m: Mat2) -> SpectralData:
    a, b, c, d = m
    if det(m) != 1:
        raise InputError(f"{m} has det {det(m)}; spectral data needs det +1")
    lam = lambda_expanding(a + d)  # rejects trace <= 2
    vx, vy = float(b), lam - a
    n = math.hypot(vx, vy)
    v_plus = (vx / n, vy / n)
    wx, wy = 1.0 / lam - d, float(c)
    n2 = math.hypot(wx, wy)
    v_minus = (wx / n2, wy / n2)
    return SpectralData(lam, v_plus, v_minus, v_plus[0] / v_plus[1])


def frontier_guard(count: int) -> None:
    """Refuse a frontier level of more than FRONTIER_CAP elements; callers
    check as the level grows, before storing it."""
    if count > FRONTIER_CAP:
        raise ResourceError(
            f"a frontier level needs more than FRONTIER_CAP = {FRONTIER_CAP} elements")


class GammaLevel(NamedTuple):
    """The words of one length 2k in the det +1 frontier, in lexicographic order.

    Column j of m holds the entries (a, b, c, d) of element j; parent[j]
    is its row in the level before (row 0 of the identity at k = 1) and
    block[j] = i * |A| + j' indexes the two-letter block (x, y) = (A[i], A[j'])
    that extends it.
    """

    m: np.ndarray        # (4, n), int64 or Python-int objects
    frob_sq: np.ndarray  # Frobenius norm squared, same dtype as m
    parent: np.ndarray
    block: np.ndarray


def gamma_levels(alphabet, max_norm: float) -> Iterator[GammaLevel]:
    """All nonidentity even words over the alphabet with ||g|| < max_norm,
    one GammaLevel per word length 2, 4, 6, ...

    Each level multiplies every element of the one before by every block
    (x, y); the child is (u, b + y u; v, d + y v) with u = a + b x and
    v = c + d x.  Frobenius norm strictly increases along the way, so the
    pruning at the bound is exact, and it increases in x and in y, so a
    parent whose child reaches the bound at (x, y) is dropped for every
    larger y, and one reaching it at (x, a_min) for every larger x as
    well.  Within a level, (parent, block) order is lexicographic order
    of the words.
    """
    letters = Alphabet.of(alphabet).letters
    cap = max_norm * max_norm
    if not cap < math.inf:
        raise InputError(f"norm bound {max_norm} is not finite")
    lim = math.ceil(cap)  # an integer f satisfies f < cap exactly when f < lim
    # A child's entries and Frobenius^2 are sums of nonnegative products,
    # each at most the child's Frobenius^2.  That is at most the parent's
    # times the block's, and a block (1 y; x 1+xy) has Frobenius^2 at most
    # a^4 + 4a^2 + 2 for a = a_max.  So int64 is exact for every child of a
    # level whose Frobenius^2 stays at most `room`; past that the entries
    # become Python ints.
    a_max = letters[-1]
    room = (2 ** 63 - 1) // (a_max ** 4 + 4 * a_max ** 2 + 2)
    m, f = np.array([[1], [0], [0], [1]], np.int64), np.array([2])
    while True:
        if m.dtype != object and f.max() > room:
            m = m.astype(object)
        a, b, c, d = m
        kids, size = [], 0
        alive = np.arange(m.shape[1])
        for i, x in enumerate(letters):
            rows = alive
            u, v = a[rows] + b[rows] * x, c[rows] + d[rows] * x
            bb, dd = b[rows], d[rows]
            step = 0
            for j, y in enumerate(letters):
                bb, dd, step = bb + (y - step) * u, dd + (y - step) * v, y
                sq = u * u + bb * bb + v * v + dd * dd
                fits = sq < lim
                if not fits.all():
                    rows, u, bb, v, dd, sq = (t[fits] for t in (rows, u, bb, v, dd, sq))
                if j == 0:
                    alive = rows
                if not len(rows):
                    break
                size += len(rows)
                frontier_guard(size)
                kids.append((rows, i * len(letters) + j, (u, bb, v, dd), sq))
            if not len(alive):
                break
        if not kids:
            return
        parent = np.concatenate([k[0] for k in kids])
        # kids come block by block, each in parent order: a stable sort on
        # the parent restores (parent, block) order
        order = np.argsort(parent, kind="stable")
        m = np.concatenate([k[2] for k in kids], axis=1)[:, order]
        f = np.concatenate([k[3] for k in kids])[order]
        yield GammaLevel(m, f, parent[order],
                         np.concatenate([np.full(len(k[0]), k[1]) for k in kids])[order])


def level_words(alphabet, trail: Sequence[tuple[np.ndarray, np.ndarray]],
                rows: np.ndarray) -> list[Word]:
    """Words of the given rows of the last level of gamma_levels, read back
    through the (parent, block) arrays of every level so far."""
    letters = Alphabet.of(alphabet).letters
    pairs = np.array([(x, y) for x in letters for y in letters])
    out = np.empty((len(rows), 2 * len(trail)), dtype=pairs.dtype)
    for k in range(len(trail) - 1, -1, -1):
        parent, block = trail[k]
        out[:, 2 * k: 2 * k + 2] = pairs[block[rows]]
        rows = parent[rows]
    return list(map(tuple, out.tolist()))


def spectral_arrays(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda_plus, v_plus x, v_plus y) for each column of a (4, n) stack
    of det +1 elements, by the float operations of `spectral`, so every
    value equals the scalar one bit for bit."""
    t = (m[0] + m[3]).astype(np.float64)
    lam = 0.5 * (t + np.sqrt(np.maximum(t * t - 4.0, 0.0)))
    for _ in range(3):
        lam = t - 1.0 / lam
    vx, vy = m[1].astype(np.float64), lam - m[0].astype(np.float64)
    n = hypot_arrays(vx, vy)
    return lam, vx / n, vy / n


def hypot_arrays(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """math.hypot elementwise.  np.hypot is faster but differs from it in
    the last bit on about 0.1% of inputs.  Chunks bound the Python floats
    alive at once."""
    chunk = 1 << 16
    out = np.empty(len(x))
    for i in range(0, len(x), chunk):
        out[i: i + chunk] = list(map(math.hypot, x[i: i + chunk].tolist(),
                                     y[i: i + chunk].tolist()))
    return out
