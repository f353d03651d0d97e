"""Reductions mod q: continuant residues, admissibility, and the singular series.

The bottom row (c, d) of a word matrix evolves by itself under right
multiplication by a generator:

    (c, d) * (0 1; 1 a) = (d, c + a*d).

So the continuants mod q (the attainable lower-right entries d) are the
projection of an orbit on at most q^2 states (c, d) mod q, started from
the one-letter rows (1, a mod q).  An integer d passes the local
obstruction at q when d mod q is attainable; alphabets containing {1, 2}
attain every residue for every q (verified here finitely), while e.g.
{2,4,6,8,10} only attains {0,1,2} mod 4.

The mod-q distribution of lower-right entries over all of SL2(Z/q)
enters the circle method through

    nu_q(a) = (1/|SL2(q)|) * sum over omega of e(a * d_omega / q),

and the resulting Euler product over primes is the singular series

    S(n) = prod_{p not | n} (1 + 1/(p^2-1)) * prod_{p | n} (1 - 1/(p+1)).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .cfcore import Alphabet
from .errors import InputError, ResourceError
from .orbits import _pairs

CLOSURE_Q_CAP = 1000  # q^2 = 10^6 bottom-row states, under a second
NU_Q_CAP = 50


@dataclass(frozen=True)
class ResidueClosure:
    q: int
    attainable_d: frozenset  # continuants mod q

    @property
    def attainable_is_full(self) -> bool:
        return len(self.attainable_d) == self.q


def closure_mod_q(alphabet, q: int) -> ResidueClosure:
    """Residues mod q of the continuants of every nonempty word.

    Worklist fixed point of (c, d) -> (d, c + a*d) mod q from the
    one-letter bottom rows (1, a); state c*q + d indexes a q^2 bytearray.
    The attainable residues are the d with some reached state (c, d).
    """
    alphabet = Alphabet.of(alphabet)
    if q < 2:
        raise InputError(f"need q >= 2, got {q}")
    if q > CLOSURE_Q_CAP:
        raise ResourceError(f"q={q} above the closure cap {CLOSURE_Q_CAP}")
    steps = sorted({a % q for a in alphabet})
    seen = bytearray(q * q)
    work = [q + a for a in steps]  # the rows (1, a)
    for s in work:
        seen[s] = 1
    while work:
        c, d = divmod(work.pop(), q)
        for a in steps:
            nxt = d * q + (c + a * d) % q
            if not seen[nxt]:
                seen[nxt] = 1
                work.append(nxt)
    return ResidueClosure(q, frozenset(d for d in range(q) if any(seen[d::q])))


class Admissibility(NamedTuple):
    admissible: bool
    witness: Optional[int]  # an obstructing modulus when inadmissible


def is_admissible(alphabet, d: int, q_max: int = 30) -> Admissibility:
    """Does d pass every local obstruction for q <= q_max?

    A finite proxy for "all q": obstructions come from a fixed bad
    modulus, so small q suffice in practice; raise q_max to taste.
    Each q costs a q^2-state orbit; their sum is capped at CLOSURE_Q_CAP^2.
    """
    if d < 1:
        raise InputError(f"need d >= 1, got {d}")
    if q_max < 2:
        raise InputError(f"need q_max >= 2, got {q_max}")
    states = q_max * (q_max + 1) * (2 * q_max + 1) // 6 - 1   # sum of q^2, q = 2..q_max
    if states > CLOSURE_Q_CAP ** 2:
        raise ResourceError(f"q_max={q_max}: {states} closure states > {CLOSURE_Q_CAP ** 2}")
    alphabet = Alphabet.of(alphabet)
    for q in range(2, q_max + 1):
        if (d % q) not in closure_mod_q(alphabet, q).attainable_d:
            return Admissibility(False, q)
    return Admissibility(True, None)


def sl2_dentry_counts(q: int) -> tuple[int, ...]:
    """counts[r] = #{(a,b,c,d) in SL2(Z/q) : d = r} = q^2 phi(g) / g, g = gcd(r, q)."""
    primes = _prime_factors(q)
    counts = []
    for r in range(q):
        count = q * q
        for p in primes:
            if r % p == 0:
                count = count // p * (p - 1)
        counts.append(count)
    return tuple(counts)


def nu_q(q: int, a: int, exact: bool = False):
    """Mean of e(a * d / q) over SL2(Z/q), via the d-entry distribution.

    exact=True returns a Fraction and requires every phase to be +-1,
    i.e. q | 2a (covers q = 1 and q = 2, e.g. nu_2(1) = -1/3 exactly).
    """
    if q < 1:
        raise InputError(f"need q >= 1, got {q}")
    if q > NU_Q_CAP:
        raise ResourceError(f"q={q} above the nu_q cap {NU_Q_CAP}")
    counts = sl2_dentry_counts(q)
    order = sum(counts)
    if exact:
        if (2 * a) % q != 0:
            raise InputError(f"exact nu_q needs q | 2a, got q={q}, a={a}")
        total = Fraction(0)
        for r, cnt in enumerate(counts):
            sign = 1 if (a * r) % q == 0 else -1  # phase is e(a r / q) = +-1
            total += sign * cnt
        return total / order
    acc = 0j
    for r, cnt in enumerate(counts):
        acc += cnt * cmath.exp(2j * cmath.pi * (a % q) * r / q)
    return acc / order


def _primes_upto(n: int) -> np.ndarray:
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def singular_series(n: int, P: int) -> float:
    """Truncated Euler product prod_{p<=P, p not| n}(1 + 1/(p^2-1))
    * prod_{p<=P, p|n}(1 - 1/(p+1)); at n=1 it converges to zeta(2)."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if P < 2:
        raise InputError(f"need prime cutoff P >= 2, got {P}")
    value = 1.0
    for p in _primes_upto(P):
        p = int(p)
        if n % p == 0:
            value *= 1.0 - 1.0 / (p + 1)
        else:
            value *= 1.0 + 1.0 / (p * p - 1.0)
    return value


# --- primitive-root witness search ------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_primitive_root(b: int, p: int) -> bool:
    """Is b a generator of (Z/p)^* for prime p?"""
    if b % p == 0:
        return False
    return all(pow(b, (p - 1) // r, p) != 1 for r in _prime_factors(p - 1))


class Witness(NamedTuple):
    b: int
    d: int


def primitive_root_witness(alphabet, N: int,
                           spellings: str = "any") -> Optional[Witness]:
    """First enumerated b/d with d prime and b a primitive root mod d.

    Deterministic search order: increasing d, then increasing b.
    """
    if N < 100:
        raise InputError(f"need N >= 100, got {N}")
    b, d = _pairs(alphabet, N, spellings)
    order = np.lexsort((b, d))
    last = prime = None
    for bi, di in zip(b[order].tolist(), d[order].tolist()):
        if di != last:
            last, prime = di, is_prime(di)
        if prime and is_primitive_root(bi, di):
            return Witness(bi, di)
    return None
