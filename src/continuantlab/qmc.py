"""Rank-1 lattice point sets and exact star discrepancy.

For coprime b, d the point set is z_n = (n/d, b*n/d mod 1); the quality
of the multiplier b is governed by the partial quotients of b/d: with
all quotients at most A the discrepancy is at most

    (4A/log(A+1) + (4A+1)/log d) * log d / d,

against the universal floor of order log d / d for any d points.

star_discrepancy computes the anchored-box discrepancy exactly: the
supremum over boxes [0,u) x [0,v) of |uv - fraction of points| is
attained on the grid of point coordinates (plus 1.0), with the deficit
side evaluated against open counts (x < u, y < v) and the excess side
against closed counts (x <= u, y <= v).  One sweep walks the distinct x
values in order and keeps, for each of the m distinct y values, the
number of points already passed that lie below it; each column updates
these counts and evaluates both sides over all m values with numpy.
Time is O(n*m) for n points, memory O(n).  Counts stay integers and are
scaled by 1/n at each use.  A y value that no passed point has is
dominated by the next occupied one (deficit side) or the previous one
(excess side), since float products round monotonically, so the value
is the same bit for bit as a scan over the occupied grid.  The
all-rectangles (extreme) discrepancy is not computed; it is bounded by
4x the anchored value, which keeps upper-bound checks sound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, ResourceError

EXACT_POINT_CAP = 40_000


@dataclass(frozen=True)
class PointSet2D:
    points: tuple[tuple[float, float], ...]
    provenance: Optional[tuple[int, int]] = None  # (b, d) when from a lattice

    def __post_init__(self):
        for x, y in self.points:
            if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
                raise InputError(f"point ({x}, {y}) outside [0,1)^2")

    def __len__(self):
        return len(self.points)


def lattice_pairs(b: int, d: int, drop_origin: bool = False) -> list[tuple[int, int]]:
    """Exact integer pairs (n mod d, b*n mod d) of the lattice points."""
    if d < 2:
        raise InputError(f"need d >= 2, got {d}")
    if not (1 <= b < d):
        raise InputError(f"need 1 <= b < d, got b={b}")
    if gcd(b, d) != 1:
        raise InputError(f"b={b} and d={d} are not coprime")
    last = d - 1 if drop_origin else d
    return [(n % d, b * n % d) for n in range(1, last + 1)]


def zn_points(b: int, d: int, drop_origin: bool = False) -> PointSet2D:
    """The d points (n/d, bn/d mod 1), n = 1..d (n = d reduces to (0,0)).

    drop_origin=True uses n = 1..d-1 instead, omitting the origin.
    """
    pts = tuple((n / d, m / d) for n, m in lattice_pairs(b, d, drop_origin))
    return PointSet2D(pts, provenance=(b, d))


def star_discrepancy(ps: PointSet2D | Sequence[tuple[float, float]],
                     method: str = "exact", samples: int = 20000,
                     seed: int = 0) -> float:
    """Anchored-box discrepancy; exact by default.

    method="sampled" evaluates a random subset of the critical grid and
    returns a lower bound (use for point sets above the exact cap).
    A raw sequence is checked like a PointSet2D: every point in [0,1)^2.
    """
    if not isinstance(ps, PointSet2D):
        ps = PointSet2D(tuple(ps))
    n = len(ps)
    if n < 1:
        raise InputError("empty point set")
    if method not in ("exact", "sampled"):
        raise InputError(f"method must be exact|sampled, got {method!r}")
    if method == "exact" and n > EXACT_POINT_CAP:
        raise ResourceError(
            f"{n} points exceeds the exact cap {EXACT_POINT_CAP} of the "
            "O(n*m) sweep; pass method='sampled' for a sampled lower bound")
    xy = np.array(ps.points, dtype=np.float64).reshape(n, 2)
    x, y = np.ascontiguousarray(xy.T)
    if method == "sampled":
        return _sampled_discrepancy(x, y, samples, seed)
    return _exact_discrepancy(x, y)


def _exact_discrepancy(x: np.ndarray, y: np.ndarray) -> float:
    """The sweep over distinct x described in the module docstring."""
    n = len(x)
    ys, rank = np.unique(y, return_inverse=True)
    order = np.lexsort((y, x))
    x, rank = x[order], rank[order]
    cut = (np.flatnonzero(x[1:] != x[:-1]) + 1).tolist()
    starts, ends = [0] + cut, cut + [n]
    # below[j] counts passed points of y rank < j: below[:-1] are the open
    # counts (y < ys[j]) and below[1:] the closed counts (y <= ys[j])
    below = np.zeros(len(ys) + 1, dtype=np.int64)
    opn, cls = below[:-1], below[1:]
    inv = 1.0 / n
    uy, t = np.empty_like(ys), np.empty_like(ys)
    best = 0.0
    for u, lo, hi in zip(x[starts].tolist(), starts, ends):
        np.multiply(ys, u, out=uy)
        # deficit side before the column's points enter, and v = 1
        np.subtract(uy, np.multiply(opn, inv, out=t), out=t)
        best = max(best, float(t.max()), u - lo * inv)
        for r in rank[lo:hi].tolist():
            below[r + 1:] += 1
        # excess side with the column's points counted
        np.subtract(np.multiply(cls, inv, out=t), uy, out=t)
        best = max(best, float(t.max()))
    return max(best, float(np.max(ys - opn * inv)))  # u = 1


def _sampled_discrepancy(xs: np.ndarray, ys: np.ndarray, samples: int,
                         seed: int) -> float:
    n = len(xs)
    rng = random.Random(seed)
    best = 0.0
    inv = 1.0 / n
    for _ in range(samples):
        u = rng.choice(xs) if rng.random() < 0.9 else 1.0
        v = rng.choice(ys) if rng.random() < 0.9 else 1.0
        op = int(np.count_nonzero((xs < u) & (ys < v)))
        cl = int(np.count_nonzero((xs <= u) & (ys <= v)))
        best = max(best, u * v - op * inv, cl * inv - u * v)
    return best


def zaremba_bound(A: int, d: int) -> float:
    """(4A/log(A+1) + (4A+1)/log d) * log d / d, natural logs."""
    if A < 1:
        raise InputError(f"need A >= 1, got {A}")
    if d < 2:
        raise InputError(f"need d >= 2, got {d}")
    logd = math.log(d)
    return (4.0 * A / math.log(A + 1.0) + (4.0 * A + 1.0) / logd) * logd / d


def schmidt_floor(d: int) -> float:
    """Reference lower-bound scale log d / d (no constant asserted)."""
    if d < 2:
        raise InputError(f"need d >= 2, got {d}")
    return math.log(d) / d


def write_points_csv(path, ps: PointSet2D, header_lines: Sequence[str] = ()) -> None:
    """CSV x,y with 17 significant digits."""
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("x,y\n")
        for x, y in ps.points:
            fh.write(f"{x:.17g},{y:.17g}\n")


def read_points_csv(path) -> PointSet2D:
    """Points from x,y rows; an unreadable file or row raises InputError."""
    pts = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("x,"):
                    continue
                xs, ys = line.split(",")
                pts.append((float(xs), float(ys)))
    except (OSError, ValueError) as e:
        raise InputError(f"cannot read points from {path}: {e}") from e
    return PointSet2D(tuple(pts))
