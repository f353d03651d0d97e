import random
from math import gcd

import pytest

from continuantlab.cfcore import cf_expand


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


@pytest.fixture
def rng():
    return random.Random(20240901)
