"""Matrix-product estimates and the pigeonholed product ensembles.

Two hyperbolic matrices with nearby expanding directions multiply
almost multiplicatively in their expanding eigenvalues:

    lam(g g') = lam(g) lam(g') * (1 + O(|v+(g) - v+(g')| + |g|^-2 + |g'|^-2)),

and the product's expanding direction stays within O(|g|^-2) of the
first factor's.  mult_defect / vplus_drift measure both sides so the
effective constants can be calibrated empirically.

build_xi runs the four filtering stages that produce a set of
determinant +1 words, all of nearly the same size and direction:

    S1: norm window M/2 <= |g| < M;
    S2: expanding direction within 1/log M of a fixed target direction;
    S3: eigenvalue window [L(1 - 1/log L), L], L chosen by pigeonhole
        over a multiplicative grid on [M/4, 4M];
    S4: a single wordlength k, again by pigeonhole.

build_omega chains such sets at scales N^(1/2), N^(1/4), ... (halving
the exponent each step, with a final step spending the remaining
exponent) until the next scale would drop below the M >= 100 floor.
Every product of one member per factor then has expanding eigenvalue
within a factor 2 of the product of scales, and the fixed wordlengths
make the factorization unique.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cfcore import (Alphabet, Mat2, Word, frobenius_sq, gamma_levels, hypot_arrays,
                     level_words, mat_mul, norm_frobenius, spectral, spectral_arrays)
from .errors import ConstructionError, InputError

XI_MIN_M = 100.0


def mult_defect(g1: Mat2, g2: Mat2) -> tuple[float, float]:
    """(defect, budget): |lam(g1 g2)/(lam(g1) lam(g2)) - 1| against
    |v+(g1) - v+(g2)| + |g1|^-2 + |g2|^-2."""
    s1, s2 = spectral(g1), spectral(g2)
    s12 = spectral(mat_mul(g1, g2))
    defect = abs(s12.lambda_plus / (s1.lambda_plus * s2.lambda_plus) - 1.0)
    vdiff = math.hypot(s1.v_plus[0] - s2.v_plus[0], s1.v_plus[1] - s2.v_plus[1])
    budget = vdiff + 1.0 / frobenius_sq(g1) + 1.0 / frobenius_sq(g2)
    return defect, budget


@dataclass(frozen=True)
class DriftReport:
    drift: float          # |v+(g1 g2) - v+(g1)|
    budget: float         # |g1|^-2
    drift_minus: float    # |v-(g1 g2) - v-(g2)|, the mirror statement
    budget_minus: float   # |g2|^-2


def vplus_drift(g1: Mat2, g2: Mat2) -> DriftReport:
    s1, s2 = spectral(g1), spectral(g2)
    s12 = spectral(mat_mul(g1, g2))
    drift = math.hypot(s12.v_plus[0] - s1.v_plus[0], s12.v_plus[1] - s1.v_plus[1])
    dm = math.hypot(s12.v_minus[0] - s2.v_minus[0], s12.v_minus[1] - s2.v_minus[1])
    return DriftReport(drift, 1.0 / frobenius_sq(g1), dm, 1.0 / frobenius_sq(g2))


def default_target_point(alphabet) -> float:
    """Fixed direction point: [2,2,2,...] = sqrt(2)-1 when 2 is a letter,
    else the fixed point of the smallest letter."""
    alphabet = Alphabet.of(alphabet)
    a = 2 if 2 in alphabet else alphabet.a_min
    return (math.sqrt(a * a + 4.0) - a) / 2.0  # x = 1/(a+x)


def _require_in_limit_set(alphabet: Alphabet, x: float) -> None:
    """Precondition guard: the quotients of x readable at double precision
    must all be alphabet letters."""
    if not (0.0 < x < 1.0):
        raise InputError(f"target point {x} outside (0,1)")
    v, q = x, 1.0
    for _ in range(20):
        if v < 1e-12 or q > 1e6:  # remaining digits below float resolution
            return
        a = int(1.0 / v)
        frac = 1.0 / v - a
        # tolerate boundary roundoff: 1/v barely below an integer
        if frac > 1.0 - 1e-9:
            a, frac = a + 1, 0.0
        if a not in alphabet:
            raise InputError(
                f"target point {x} is not in the limit set: quotient {a} "
                f"not in alphabet {alphabet}")
        v = frac
        q *= a + 1.0


def _lambda_class_bounds(M: float) -> list[float]:
    """Descending grid from 4M to M/4 with steps B -> B(1 - 1/log B);
    class i is the window [bounds[i+1], bounds[i]] = [L(1-1/log L), L]."""
    bounds = [4.0 * M]
    while bounds[-1] > M / 4.0:
        B = bounds[-1]
        bounds.append(B * (1.0 - 1.0 / math.log(B)))
    return bounds


def _lambda_classes(lam: np.ndarray, bounds: list[float]) -> np.ndarray:
    """Class i of each eigenvalue in [bounds[-1], bounds[0]]: the window
    [bounds[i+1], bounds[i]] holding it, the lower i on a shared edge."""
    desc = np.array(bounds)
    return np.maximum(np.searchsorted(-desc, -lam, side="left") - 1, 0)


@dataclass
class XiSet:
    """One pigeonholed factor: members share norm window, direction,
    eigenvalue window, and wordlength."""

    alphabet: Alphabet
    members: tuple[Mat2, ...]
    words: tuple[Word, ...]
    lambdas: tuple[float, ...]
    L: float
    M: float
    k: int
    x_target: float
    stage_sizes: tuple[int, int, int, int]   # |S1|, |S2|, |S3|, |S4|
    n_lambda_classes: int
    n_wordlength_classes: int

    def __len__(self):
        return len(self.members)

    def validate(self) -> None:
        """Assert every construction invariant on all members at once."""
        if not 0.25 < self.L / self.M < 4.0:
            raise ConstructionError(f"L/M = {self.L / self.M} outside (1/4, 4)")
        vx = _unit_direction(self.x_target)
        eta = 1.0 / math.log(self.M)
        lam_lo = self.L * (1.0 - 1.0 / math.log(self.L))
        m = np.array(self.members, dtype=object).reshape(-1, 4).T
        if m.size and np.abs(m).max() < 2 ** 30:  # four squares stay below 2^62
            m = m.astype(np.int64)
        # norm_frobenius: the exact Frobenius^2, rounded once, then sqrt
        nrm = np.sqrt((m * m).sum(axis=0).astype(np.float64))
        out = ~((self.M / 2 <= nrm) & (nrm < self.M))
        if out.any():
            raise ConstructionError(f"norm {nrm[out][0]} outside [M/2, M)")
        if np.any(m[0] * m[3] - m[1] * m[2] != 1) or np.any(m[0] + m[3] <= 2):
            raise InputError("members must be det +1 elements of trace >= 3")
        _, px, py = spectral_arrays(m)
        if np.any(hypot_arrays(px - vx[0], py - vx[1]) >= eta):
            raise ConstructionError("member direction outside the window")
        lam = np.array(self.lambdas, dtype=np.float64)
        out = ~((lam_lo <= lam) & (lam <= self.L))
        if out.any():
            raise ConstructionError(f"lambda {lam[out][0]} outside [{lam_lo}, {self.L}]")
        for w in self.words:
            if len(w) != self.k:
                raise ConstructionError(f"wordlength {len(w)} != {self.k}")
        s1, s2, s3, s4 = self.stage_sizes
        # pigeonhole is constructive: the chosen classes beat the averages
        if s3 * self.n_lambda_classes < s2:
            raise ConstructionError("lambda pigeonhole lost members")
        if s4 * self.n_wordlength_classes < s3:
            raise ConstructionError("wordlength pigeonhole lost members")


def _unit_direction(x: float) -> tuple[float, float]:
    n = math.hypot(x, 1.0)
    return (x / n, 1.0 / n)


def build_xi(alphabet, M: float, x_target: Optional[float] = None) -> XiSet:
    """Run the four filtering/pigeonhole stages at norm scale M."""
    alphabet = Alphabet.of(alphabet)
    if M < XI_MIN_M:
        raise InputError(f"need M >= {XI_MIN_M:.0f}, got {M}")
    if x_target is None:
        x_target = default_target_point(alphabet)
    _require_in_limit_set(alphabet, x_target)
    vx = _unit_direction(x_target)
    eta = 1.0 / math.log(M)
    half2 = math.ceil((M / 2.0) ** 2)  # integer f >= (M/2)^2 exactly when f >= half2

    # per level: the S2 rows, their entries and eigenvalues; the (parent,
    # block) trail spells the S4 words at the end
    trail, s2 = [], []
    s1_size = 0
    for level in gamma_levels(alphabet, M):
        trail.append((level.parent, level.block))
        rows = np.flatnonzero(level.frob_sq >= half2)
        s1_size += len(rows)
        lam, px, py = spectral_arrays(level.m[:, rows])
        near = hypot_arrays(px - vx[0], py - vx[1]) < eta
        s2.append((rows[near], level.m[:, rows[near]], lam[near]))
    lam = np.concatenate([level_lam for _, _, level_lam in s2])
    if not len(lam):
        raise ConstructionError(
            f"direction window around {x_target} empty at M={M}")

    bounds = _lambda_class_bounds(M)
    escaped = (lam > bounds[0]) | (lam < bounds[-1])
    if escaped.any():
        raise ConstructionError(
            f"eigenvalue {lam[escaped][0]} escaped [M/4, 4M] at M={M}")
    cls = _lambda_classes(lam, bounds)
    best = int(np.argmax(np.bincount(cls)))  # ties: lowest i
    L = bounds[best]
    depth = np.repeat(np.arange(len(s2)), [len(r) for r, _, _ in s2])
    in3 = cls == best
    by_k = np.bincount(depth[in3])
    best_depth = int(np.argmax(by_k))  # ties: smallest k

    # S4 is one level, already in lexicographic (DFS) order
    rows, m, lam4 = s2[best_depth]
    start = int(np.searchsorted(depth, best_depth))
    keep = in3[start: start + len(rows)]
    xi = XiSet(
        alphabet=alphabet,
        members=tuple(zip(*m[:, keep].tolist())),
        words=tuple(level_words(alphabet, trail[: best_depth + 1], rows[keep])),
        lambdas=tuple(lam4[keep].tolist()),
        L=L, M=float(M), k=2 * (best_depth + 1), x_target=x_target,
        stage_sizes=(s1_size, len(lam), int(in3.sum()), int(by_k[best_depth])),
        n_lambda_classes=len(bounds) - 1,
        n_wordlength_classes=int(np.count_nonzero(by_k)),
    )
    xi.validate()
    return xi


@dataclass
class OmegaEnsemble:
    """Product ensemble Xi_1 ... Xi_J with per-factor scales N_j."""

    alphabet: Alphabet
    N: int
    factors: tuple[XiSet, ...]
    scales: tuple[float, ...]    # N_j = L of factor j
    alphas: tuple[float, ...]    # N_j / M_j, each in (1/4, 4)
    degenerate: bool             # True when only J = 1 was feasible

    @property
    def J(self) -> int:
        return len(self.factors)

    @property
    def scale_product(self) -> float:
        return math.prod(self.scales)

    @property
    def cardinality(self) -> int:
        return math.prod(len(f) for f in self.factors)

    def sample_tuples(self, count: int, seed: int = 0):
        """Deterministic sample of member tuples (with replacement)."""
        rng = random.Random(seed)
        for _ in range(count):
            yield tuple(rng.choice(f.members) for f in self.factors)


def build_omega(alphabet, N: int, x_target: Optional[float] = None) -> OmegaEnsemble:
    """Chain Xi sets down the exponent-halving scale recursion.

    Setup at M = sqrt(N); induction steps at M = sqrt(N_{j-1})/alpha_{j-1}
    while that stays >= 100; one end step at M = N_{J-1}/alpha_{J-1}^2
    spends the remaining exponent so the scale product lands within a
    factor 4 of N.  If even the end step is infeasible the ensemble
    degenerates to a single factor at M = N.
    """
    alphabet = Alphabet.of(alphabet)
    if N < 10_000:
        raise InputError(f"need N >= 10^4, got {N}")
    if x_target is None:
        x_target = default_target_point(alphabet)

    factors: list[XiSet] = []
    scales: list[float] = []
    alphas: list[float] = []

    M = math.sqrt(N)
    xi = build_xi(alphabet, M, x_target)
    factors.append(xi)
    scales.append(xi.L)
    alphas.append(xi.L / M)

    degenerate = False
    while True:
        M_ind = math.sqrt(scales[-1]) / alphas[-1]
        M_end = scales[-1] / alphas[-1] ** 2
        if M_ind >= XI_MIN_M:
            xi = build_xi(alphabet, M_ind, x_target)
            factors.append(xi)
            scales.append(xi.L)
            alphas.append(xi.L / M_ind)
            continue
        if M_end >= XI_MIN_M:
            xi = build_xi(alphabet, M_end, x_target)
            factors.append(xi)
            scales.append(xi.L)
            alphas.append(xi.L / M_end)
            break
        # neither step fits: fall back to a single factor at scale N
        xi = build_xi(alphabet, float(N), x_target)
        factors, scales, alphas = [xi], [xi.L], [xi.L / N]
        degenerate = True
        break

    ens = OmegaEnsemble(alphabet, N, tuple(factors), tuple(scales),
                        tuple(alphas), degenerate)
    if not 0.25 < ens.scale_product / N < 4.0:
        raise ConstructionError(
            f"scale product {ens.scale_product} not within (N/4, 4N)")
    if any(not 0.25 < a < 4.0 for a in alphas):
        raise ConstructionError(f"some alpha outside (1/4, 4): {alphas}")
    return ens


@dataclass
class EnsembleCheck:
    """Sampled verification of the product eigenvalue and norm bounds."""

    samples: int
    ratio_min: float       # lam(product) / prod N_j over the sample
    ratio_max: float
    lambda_over_N_min: float
    lambda_over_N_max: float
    norm_violations: int   # |g| <= 2 lam(g) <= 16 N failures
    ratio_violations: int  # 1/2 < lam/prod N_j < 2 failures

    @property
    def ok(self) -> bool:
        return self.norm_violations == 0 and self.ratio_violations == 0


def check_products(ens: OmegaEnsemble, samples: int = 500,
                   seed: int = 0) -> EnsembleCheck:
    prod_N = ens.scale_product
    rmin, rmax = math.inf, -math.inf
    lmin, lmax = math.inf, -math.inf
    bad_norm = bad_ratio = 0
    for tup in ens.sample_tuples(samples, seed):
        g = tup[0]
        for m in tup[1:]:
            g = mat_mul(g, m)
        lam = spectral(g).lambda_plus
        r = lam / prod_N
        rmin, rmax = min(rmin, r), max(rmax, r)
        ln = lam / ens.N
        lmin, lmax = min(lmin, ln), max(lmax, ln)
        if not 0.5 < r < 2.0:
            bad_ratio += 1
        if not norm_frobenius(g) <= 2.0 * lam <= 16.0 * ens.N:
            bad_norm += 1
    return EnsembleCheck(samples, rmin, rmax, lmin, lmax, bad_norm, bad_ratio)


@dataclass
class CardinalityReport:
    N: int
    J: int
    factor_sizes: tuple[int, ...]
    cardinality: int
    delta: float
    fitted_c: float        # from |Omega| = N^{2 delta} e^{-c (log log N)^2}
    log_ratio: float       # log |Omega| / log N


def omega_cardinality_report(ens: OmegaEnsemble,
                             delta: Optional[float] = None) -> CardinalityReport:
    """Compare the ensemble size against N^{2 delta} e^{-c (log log N)^2};
    the constant c is fitted, never asserted."""
    if delta is None:
        from .dimension import dimension
        delta = dimension(ens.alphabet).delta
    card = ens.cardinality
    lglg = math.log(math.log(ens.N))
    fitted_c = (2 * delta * math.log(ens.N) - math.log(card)) / lglg ** 2
    return CardinalityReport(ens.N, ens.J, tuple(len(f) for f in ens.factors),
                             card, delta, fitted_c,
                             math.log(card) / math.log(ens.N))
