"""Hausdorff dimension of bounded-quotient Cantor sets via the transfer operator.

The limit set of infinite continued fractions over an alphabet is the
attractor of the maps x -> 1/(a + x).  The associated weighted transfer
operator

    (L_s f)(x) = sum_a (a + x)^(-2s) f(1/(a + x))

acts on analytic functions on any interval containing the attractor,
and its leading eigenvalue lam(s) is simple, positive, and strictly
decreasing in s.  The dimension is the unique s with lam(s) = 1.

We discretize by Lagrange collocation at Chebyshev points of the hull
interval.  Since the branch maps are analytic and contract the hull
into itself, the collocation converges superexponentially in the node
count; 64 nodes give far more than double precision for the alphabets
exercised here.  (A periodic-orbit determinant would be equally
accurate; collocation is simpler.)

The hull is the smallest interval [lo, hi] with 1/(a_max + hi) = lo and
1/(a_min + lo) = hi, in closed form; its endpoints are the fixed points
of the alternating words built from the extreme letters (for {1,2}:
[(sqrt(3)-1)/2, sqrt(3)-1]).  The pressure P(s) = log lam(s) is convex
and nearly linear, so a bracketed secant on P finds its root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cfcore import Alphabet, gamma_levels, spectral_arrays
from .errors import ConstructionError, InputError, NumericalError

POWER_TOL = 1e-14          # relative change of the power-iteration eigenvalue
POWER_MAX_ITER = 100000


def hull(alphabet) -> tuple[float, float]:
    """Fixed-point bracket of the limit set under x -> 1/(a + x): with
    a = a_min and b = a_max, hi = 1/(a + 1/(b + hi)) is the positive root
    of a hi^2 + ab hi - b = 0, written without cancellation."""
    alphabet = Alphabet.of(alphabet)
    a, b = alphabet.a_min, alphabet.a_max
    hi = 2 * b / (a * b + math.sqrt((a * b) ** 2 + 4 * a * b))
    return 1.0 / (b + hi), hi


@dataclass
class TransferDiscretization:
    alphabet: Alphabet
    s: float
    nodes: np.ndarray        # Chebyshev collocation points on the hull
    matrix: np.ndarray       # n x n collocation of L_s
    hull: tuple[float, float]


def _chebyshev_nodes(n: int, lo: float, hi: float) -> np.ndarray:
    k = np.arange(n)
    t = np.cos(np.pi * k / (n - 1))  # second-kind points on [-1, 1]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * t


def _barycentric_weights(n: int) -> np.ndarray:
    """Barycentric weights of n second-kind Chebyshev points in closed form:
    (-1)^j, halved at both ends (Berrut-Trefethen, SIAM Review 2004).  The
    interpolant is invariant under a common factor, and the product form
    1/prod(x_j - x_k) underflows on narrow hulls or at many nodes."""
    w = (-1.0) ** np.arange(n)
    w[[0, -1]] *= 0.5
    return w


def discretize(alphabet, s: float, nodes: int = 64) -> TransferDiscretization:
    """Collocation matrix of L_s at Chebyshev points of the hull."""
    alphabet = Alphabet.of(alphabet)
    if nodes < 4:
        raise InputError(f"need at least 4 nodes, got {nodes}")
    lo, hi = hull(alphabet)
    if hi - lo < 1e-12:
        raise InputError(
            f"alphabet {alphabet} has a degenerate (single-point) limit set")
    x = _chebyshev_nodes(nodes, lo, hi)
    w = _barycentric_weights(nodes)
    L = np.zeros((nodes, nodes))
    for a in alphabet:
        y = 1.0 / (a + x)                  # images stay inside [lo, hi]
        wt = (a + x) ** (-2.0 * s)
        diff = y[:, None] - x[None, :]
        hit = np.abs(diff) < 1e-300        # y exactly at a node
        safe = np.where(hit, 1.0, diff)
        C = w[None, :] / safe
        B = C / C.sum(axis=1, keepdims=True)
        rows = hit.any(axis=1)
        if rows.any():
            B[rows] = 0.0
            B[rows, hit[rows].argmax(axis=1)] = 1.0
        L += wt[:, None] * B
    if not np.all(np.isfinite(L)):
        raise NumericalError("collocation matrix has non-finite entries")
    return TransferDiscretization(alphabet, s, x, L, (lo, hi))


def leading_eigenvalue(disc: TransferDiscretization) -> float:
    """Perron eigenvalue of the collocation matrix by power iteration."""
    L = disc.matrix
    v = np.ones(L.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        w = L @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise NumericalError("power iteration hit the zero vector")
        v = w / nw
        new = float(v @ (L @ v))
        if abs(new - lam) <= POWER_TOL * max(1.0, abs(new)):
            return new
        lam = new
    raise NumericalError(
        f"power iteration did not converge in {POWER_MAX_ITER} iterations "
        f"(s={disc.s}, last eigenvalue estimate {lam})")


def pressure_eigenvalue(alphabet, s: float, nodes: int = 64) -> float:
    """lam(s): leading eigenvalue of L_s (equals |alphabet| at s = 0)."""
    return leading_eigenvalue(discretize(alphabet, s, nodes))


@dataclass
class DimensionResult:
    delta: float
    eigenvalue_at_delta: float
    node_count: int
    residual: float                       # |lam(delta) - 1|
    history: tuple[tuple[float, float], ...]  # (s, lam(s)) evaluations

    def as_dict(self) -> dict:
        return {
            "delta": self.delta,
            "residual": self.residual,
            "nodes": self.node_count,
        }


def dimension(alphabet, tol: float = 1e-12, nodes: int = 64) -> DimensionResult:
    """The zero of P(s) = log lam(s) on (0, 1), by a bracketed secant.

    A single-letter alphabet has a one-point limit set and dimension
    exactly 0.  For everything else lam(0) = |alphabet| >= 2 and
    lam(1) < 1 (checked at runtime), so the root is bracketed.  Each
    evaluation moves one end of the bracket, a step leaving it becomes
    the midpoint, and the loop ends on a step below tol or on P = 0.
    If an earlier evaluation was strictly closer to lam = 1 than the
    last, it is evaluated once more, so the result always ends the
    history on its best point.
    """
    alphabet = Alphabet.of(alphabet)
    if tol < 1e-13:
        raise InputError(f"tol {tol} below the 1e-13 double-precision floor")
    if len(alphabet) == 1:
        return DimensionResult(0.0, float(len(alphabet)), 0, 0.0, ())

    history: list[tuple[float, float]] = []

    def P(s: float) -> float:
        lam = pressure_eigenvalue(alphabet, s, nodes)
        history.append((s, lam))
        return math.log(lam)

    lo, hi = 1e-9, 1.0
    s0, p0, s1, p1 = lo, P(lo), hi, P(hi)
    if p0 <= 0 or p1 >= 0:
        raise ConstructionError(
            f"root not bracketed on (0,1): lam(0+)={history[0][1]}, lam(1)={history[1][1]}")
    for _ in range(80):
        s = s1 - p1 * (s1 - s0) / (p1 - p0)
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        p = P(s)
        if p > 0:
            lo = s
        else:
            hi = s
        s0, p0, s1, p1 = s1, p1, s, p
        if p == 0 or abs(s1 - s0) < tol:
            break
    else:
        raise NumericalError(f"secant refinement stalled near s={s1}")
    best = min(history, key=lambda h: abs(h[1] - 1.0))
    if abs(best[1] - 1.0) < abs(history[-1][1] - 1.0):
        P(best[0])
    s, lam = history[-1]
    return DimensionResult(s, lam, nodes, abs(lam - 1.0), tuple(history))


def hensley_asymptotic(A: int) -> float:
    """Large-alphabet expansion 1 - 6/(pi^2 A) - 72 log A/(pi^4 A^2)."""
    if A < 2:
        raise InputError(f"need A >= 2, got {A}")
    return 1.0 - 6.0 / (math.pi ** 2 * A) - 72.0 * math.log(A) / (math.pi ** 4 * A ** 2)


@dataclass
class SectorReport:
    interval: tuple[float, float]
    norms: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float | None        # log-log slope; None when some count is 0
    empty: bool                # interval missed the limit set entirely


def sector_count_check(alphabet, N: float, interval: tuple[float, float],
                       grid_points: int = 5) -> SectorReport:
    """Count det +1 elements with norm < N whose expanding direction,
    read as the point x/y in [0,1], lies in the interval; fit the
    log-log growth over a geometric grid of norms.

    The count grows like a constant times N^(2 delta) times the measure
    of the interval; intervals missing the limit set report count 0.
    """
    lo, hi = interval
    if not (0.0 <= lo < hi <= 1.0):
        raise InputError(f"interval must be within [0,1], got {interval}")
    if N < 100:
        raise InputError("N too small for a meaningful fit")
    if grid_points < 2:
        raise InputError(f"need at least 2 grid points for a fit, got {grid_points}")
    norms = [N ** (0.5 + 0.5 * i / (grid_points - 1)) for i in range(grid_points)]
    counts = np.zeros(grid_points, dtype=np.int64)
    for level in gamma_levels(alphabet, norms[-1]):
        _, px, py = spectral_arrays(level.m)
        pt = px / py  # spectral(m).point
        # norm_frobenius(m) < bound, in floats
        nrm = np.sqrt(level.frob_sq[(lo <= pt) & (pt <= hi)].astype(np.float64))
        counts += [np.count_nonzero(nrm < bound) for bound in norms]
    counts = counts.tolist()
    slope = None
    if all(c > 0 for c in counts):
        slope = float(np.polyfit(np.log(norms), np.log(counts), 1)[0])
    return SectorReport((lo, hi), tuple(norms), tuple(counts), slope,
                        empty=(counts[-1] == 0))
