"""Independent reference computations the benchmark checks results against.

Nothing here imports continuantlab: each oracle recomputes its quantity
from the definition, by a route other than the package's own, so that a
wrong answer from the package cannot also be the expected answer.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from functools import lru_cache

ZETA2 = math.pi ** 2 / 6
DELTA12 = 0.5312805062772051416244686  # dim E_{1,2}, 25-digit literature value
DELTA13 = 0.4544890776618              # dim E_{1,3}, 13-digit literature value

_MASK = (1 << 256) - 1


def rows_digest(rows) -> str:
    """Order-insensitive sha256 digest of a multiset of text rows.

    The sum of the rows' sha256 values mod 2^256, prefixed by the row
    count.  Order-insensitive so that an enumeration order change alone
    does not fail a check; streaming so that a check holds no row list.
    """
    total = 0
    n = 0
    for row in rows:
        total = (total + int.from_bytes(hashlib.sha256(row.encode()).digest(), "big")) & _MASK
        n += 1
    return f"{n}:{total:064x}"


def csv_data_rows(path):
    """Data rows of a CSV written by continuantlab: no '#' comment lines
    (they carry the configuration header) and no column-name row."""
    with open(path) as fh:
        seen_columns = False
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if not seen_columns:
                seen_columns = True
                continue
            yield line


def csv_digest(path) -> str:
    return rows_digest(csv_data_rows(path))


def orbit_rows(letters, N: int):
    """Rows 'b,d,word' of every b/d with 2 <= d < N whose continued
    fraction has a spelling over the letters, one row per rational.

    The spelling written is the canonical one (last quotient >= 2) when
    it lies over the letters, else the trailing-one twin (the "any"
    convention of the package README).
    """
    letters = sorted(set(letters))
    lset = set(letters)
    # word matrix columns: (p_{k-1}, q_{k-1}) and (p_k, q_k)
    stack = [(1, 0, 0, 1, ())]
    while stack:
        pp, qp, p, q, w = stack.pop()
        for a in letters:
            nq = qp + a * q
            if nq >= N:
                break
            nb = pp + a * p
            nw = w + (a,)
            stack.append((p, q, nb, nq, nw))
            if nq < 2:
                continue
            if a >= 2 or (w[-1] + 1) not in lset:
                yield f"{nb},{nq},{' '.join(map(str, nw))}"


def orbit_counts(letters, N: int) -> Counter:
    """d -> number of rationals b/d in the orbit (canonical representative)."""
    return Counter(int(row.split(",", 2)[1]) for row in orbit_rows(letters, N))


def word_counts(letters, N: int, even: bool = False) -> dict[int, int]:
    """d -> number of words over the letters with continuant d, 2 <= d < N
    (only words of even length when even=True), by a level-by-level
    numpy frontier of (q_{k-1}, q_k) pairs."""
    import numpy as np

    hist = np.zeros(N, dtype=np.int64)
    qp, q = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    length = 0
    while len(q):
        grown = [(q, qp + a * q) for a in letters]
        qp = np.concatenate([old[new < N] for old, new in grown])
        q = np.concatenate([new[new < N] for _, new in grown])
        length += 1
        if not even or length % 2 == 0:
            hist += np.bincount(q, minlength=N)
    hist[:2] = 0  # the one-letter word (1) spells 1/1, which is not counted
    return {d: int(c) for d, c in enumerate(hist.tolist()) if c}


def mult_rows(counts: Counter):
    return (f"{d},{counts[d]}" for d in sorted(counts))


@lru_cache(maxsize=None)
def attainable_mod_q(letters: tuple, q: int) -> frozenset:
    """Residues mod q of all continuants, from the bottom-row orbit.

    The bottom row (c, d) of a word matrix evolves by itself under
    right multiplication by (0 1; 1 a): (c, d) -> (d, c + a d).  So the
    attainable d are read off an orbit of at most q^2 states.
    """
    start = {(1 % q, a % q) for a in letters}
    seen = set(start)
    work = list(start)
    while work:
        c, d = work.pop()
        for a in letters:
            nxt = (d, (c + a * d) % q)
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return frozenset(d for _, d in seen)


def admissible(letters, d: int, q_max: int) -> tuple[bool, int | None]:
    for q in range(2, q_max + 1):
        if d % q not in attainable_mod_q(letters, q):
            return False, q
    return True, None


def transfer_eigenvalue(letters, s: float, words: int = 200_000) -> float:
    """The transfer-operator eigenvalue lam(s), which is 1 at s = dimension,
    from S_n(s) = sum over words of length n of q_w^(-2s).

    r_n = S_{n+1}/S_n tends to lam(s) geometrically; the last three r_n
    are Aitken-extrapolated.  n runs up to about `words` words per level.
    """
    import numpy as np

    depth = max(3, int(math.log(words) / math.log(len(letters))))
    sums = []
    qp, q = np.zeros(1), np.ones(1)
    for _ in range(depth + 1):
        qp, q = (np.concatenate([q] * len(letters)),
                 np.concatenate([qp + a * q for a in letters]))
        sums.append(float(np.sum(q ** (-2.0 * s))))
    r0, r1, r2 = (sums[i + 1] / sums[i] for i in range(depth - 3, depth))
    curvature = (r2 - r1) - (r1 - r0)
    return r2 - (r2 - r1) ** 2 / curvature if curvature else r2


def singular_series_limit(n: int) -> float:
    """prod_{p | n}(1 - 1/(p+1)) prod_{p not | n}(1 + 1/(p^2-1))
    = zeta(2) * phi(n) / n, since the two factors differ by (p-1)/p."""
    phi_ratio = 1.0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            phi_ratio *= 1 - 1 / p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        phi_ratio *= 1 - 1 / m
    return ZETA2 * phi_ratio


def nu(q: int, a: int) -> complex:
    """Mean of e(a d / q) over SL2(Z/q), counting matrices by brute force
    over (a, d) with #{(b, c) : bc = ad - 1 mod q}."""
    import numpy as np

    r = np.arange(q)
    by_product = np.bincount((np.outer(r, r) % q).ravel(), minlength=q)
    per_d = by_product[(np.outer(r, r) - 1) % q].sum(axis=0)
    phases = np.exp(2j * np.pi * (a * r % q) / q)
    return complex((per_d * phases).sum() / per_d.sum())


def cf_quotients(b: int, d: int) -> list[int]:
    """Partial quotients of b/d in (0, 1) by the Euclidean algorithm."""
    out = []
    while b:
        out.append(d // b)
        b, d = d % b, b
    return out


def low_quotient_multipliers(d: int, bound: int) -> list[int]:
    """All b < d coprime to d whose partial quotients are all <= bound."""
    return [b for b in range(1, d) if math.gcd(b, d) == 1
            and max(cf_quotients(b, d)) <= bound]


def primitive_root_witness(letters, N: int) -> tuple[int, int] | None:
    """Least prime d < N, then least b, with b/d over the letters and b
    generating (Z/d)^*, by direct order computation."""
    lset = set(letters)

    def over(b, d):
        w = cf_quotients(b, d)
        twin = w[:-1] + [w[-1] - 1, 1] if w[-1] >= 2 else None
        return all(a in lset for a in w) or (twin is not None and all(a in lset for a in twin))

    for d in range(2, N):
        if any(d % p == 0 for p in range(2, math.isqrt(d) + 1)):
            continue
        for b in range(1, d):
            if not over(b, d):
                continue
            x, order = b % d, 1
            while x != 1 % d:
                x, order = x * b % d, order + 1
            if order == d - 1:
                return b, d
    return None


def lattice_rows(b: int, d: int):
    """Rows 'x,y' of the points (n/d, bn/d mod 1), n = 1..d, as
    17-significant-digit decimals."""
    for n in range(1, d + 1):
        yield f"{n % d / d:.17g},{b * n % d / d:.17g}"


def band_integrals(values, bands) -> list[float]:
    """Integral of |sum_v e(v t)|^2 over each band [lo, hi] in closed form:
    A(0)(hi - lo) + sum_{m>=1} A(m)(sin 2 pi m hi - sin 2 pi m lo)/(pi m),
    with A the autocorrelation of the value histogram."""
    import numpy as np

    h = np.bincount(np.asarray(values, dtype=np.int64)).astype(np.float64)
    size = 1 << (2 * len(h) - 1).bit_length()
    spec = np.fft.rfft(h, size)
    acf = np.rint(np.fft.irfft(spec * np.conj(spec), size)[: len(h)])  # integer A(m)
    m = np.arange(1, len(acf))
    w = acf[1:] / (np.pi * m)
    return [float(acf[0] * (hi - lo)
                  + np.dot(w, np.sin(2 * np.pi * m * hi) - np.sin(2 * np.pi * m * lo)))
            for lo, hi in bands]


def arc_windows(N: int, Q: int, K: int) -> list[tuple[float, float]]:
    """The windows +-[K/2N, K/N) around every a/q, Q/2 <= q < Q, gcd(a, q) = 1."""
    out = []
    for q in range(1, Q):
        if 2 * q < Q:
            continue
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            for sign in (1, -1):
                x, y = a / q + sign * K / (2.0 * N), a / q + sign * K / N
                out.append((min(x, y), max(x, y)))
    return out

