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
against closed counts (x <= u, y <= v).  The scan is O(n^2).  The
all-rectangles (extreme) discrepancy is not computed; it is bounded by
4x the anchored value, which keeps upper-bound checks sound.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, ResourceError

EXACT_POINT_CAP = 10_000


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
                     seed: int = 0, max_points: int = EXACT_POINT_CAP) -> float:
    """Anchored-box discrepancy; exact by default.

    method="sampled" evaluates a random subset of the critical grid and
    returns a lower bound (use for point sets above the exact cap).
    """
    pts = list(ps.points if isinstance(ps, PointSet2D) else ps)
    n = len(pts)
    if n < 1:
        raise InputError("empty point set")
    if method == "sampled":
        return _sampled_discrepancy(pts, samples, seed)
    if method != "exact":
        raise InputError(f"method must be exact|sampled, got {method!r}")
    if n > max_points:
        raise ResourceError(
            f"{n} points exceeds the O(n^2) exact cap {max_points}; "
            "pass method='sampled' for a sampled lower bound")
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


def _sampled_discrepancy(pts, samples: int, seed: int) -> float:
    n = len(pts)
    rng = random.Random(seed)
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
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
