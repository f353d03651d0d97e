"""Circle-method sandbox: exponential sums over continuant multisets.

A source is a finite multiset of positive integers (continuants), either
the full orbit at scale N or a product ensemble; the object of study is

    S(theta) = sum over the multiset of e(theta * d),        e(x) = exp(2 pi i x).

Representation numbers R(n) (the multiplicity of n in the source) are
recovered two independent ways: directly by histogram, and by discrete
Fourier inversion of S sampled on an M-point grid with M exceeding the
value range.  On the grid j/M the phases are reduced exactly in integer
arithmetic, so the two computations agree to roundoff and Parseval

    (1/M) sum_j |S(j/M)|^2 = sum_n R(n)^2

holds at machine precision.

Arc profiles integrate |S|^2 over the dyadic regions

    W_{Q,K} = { a/q + beta : Q/2 <= q < Q, (a,q) = 1, K/2N <= |beta| < K/N }

in closed form from the autocorrelation of R, computed once per call,
and report the mass relative to the flat benchmark |source|^2 / N.
Adaptive Simpson quadrature (integrate_band) is kept as the independent
reference the closed form is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .cfcore import Alphabet, mat_mul
from .errors import InputError, NumericalError, ResourceError
from .orbits import multiplicity_table

SOURCE_CAP = 10_000_000
QUAD_RTOL = 1e-3          # integrate_band: agreement of two refinements
QUAD_MAX_POINTS = 65537   # integrate_band: largest grid before giving up


@dataclass(frozen=True)
class ExpSumSource:
    """A multiset of continuants with its scale N."""

    values: np.ndarray     # int64, each >= 1
    N: int
    label: str = "custom"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.ndim != 1 or len(v) == 0:
            raise InputError("source must be a nonempty 1-d integer multiset")
        if int(v.min()) < 1:
            raise InputError("source values must be >= 1")
        if int(v.max()) > 16 * self.N:
            raise InputError(
                f"source value {int(v.max())} exceeds the 16N range at N={self.N}")
        if len(v) > SOURCE_CAP:
            raise ResourceError(f"source size {len(v)} above cap {SOURCE_CAP}")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return len(self.values)

    @property
    def vmax(self) -> int:
        return int(self.values.max())

    def histogram(self) -> np.ndarray:
        return np.bincount(self.values, minlength=self.vmax + 1)


def source_from_orbit(alphabet, N: int, spellings: str = "any",
                      representative: str = "canonical") -> ExpSumSource:
    """Multiset {d with multiplicity} of the orbit enumeration at scale N."""
    table = multiplicity_table(alphabet, N, spellings=spellings,
                               representative=representative)
    vals = np.repeat(np.fromiter(table.counts.keys(), dtype=np.int64),
                     np.fromiter(table.counts.values(), dtype=np.int64))
    return ExpSumSource(np.sort(vals), N,
                        label=f"orbit:{Alphabet.of(alphabet)}:N={N}")


def source_from_ensemble(ens) -> ExpSumSource:
    """Multiset {<g e2, e2>} over all products of the ensemble factors."""
    if ens.cardinality > SOURCE_CAP:
        raise ResourceError(
            f"ensemble has {ens.cardinality} products, above cap {SOURCE_CAP}")
    mats = [(1, 0, 0, 1)]
    for factor in ens.factors:
        mats = [mat_mul(m, x) for m in mats for x in factor.members]
    vals = np.array(sorted(m[3] for m in mats), dtype=np.int64)
    return ExpSumSource(vals, ens.N, label=f"omega:{ens.alphabet}:N={ens.N}")


def _sn_grid_exact(source: ExpSumSource, M: int) -> np.ndarray:
    """S(j/M) for j = 0..M-1 with exact integer phase reduction.

    Direct summation over the raw multiset (deliberately not via the
    histogram/FFT, so it is an independent route for inversion checks).
    """
    table = np.exp(2j * np.pi * np.arange(M) / M)
    vals = source.values
    out = np.empty(M, dtype=np.complex128)
    js = np.arange(M, dtype=np.int64)
    chunk = 512  # grid points per block of the (points x values) phase matrix
    for start in range(0, M, chunk):
        jb = js[start:start + chunk]
        idx = (jb[:, None] * vals[None, :]) % M
        out[start:start + chunk] = table[idx].sum(axis=1)
    return out


def _sn_uniform_grid(source: ExpSumSource, t0: float, dt: float,
                     m: int) -> np.ndarray:
    """S(t0 + j dt), j = 0..m-1, via chirp-z on the histogram when the
    direct product would be large."""
    vals = source.values
    if m * len(vals) <= 2_000_000:
        th = t0 + dt * np.arange(m)
        phase = np.exp(2j * np.pi * ((th[:, None] * vals[None, :]) % 1.0))
        return phase.sum(axis=1)
    from scipy.signal import czt  # deferred: importing it dominates CLI start-up

    h = source.histogram().astype(np.complex128)
    n = np.arange(len(h))
    x = h * np.exp(2j * np.pi * ((t0 * n) % 1.0))
    return czt(x, m, w=np.exp(2j * np.pi * dt), a=1.0 + 0j)


@dataclass
class RepNumbers:
    counts: np.ndarray          # index n -> R(n), direct histogram
    dft_counts: np.ndarray      # same via Fourier inversion, rounded
    dft_length: int
    max_inversion_error: float  # before rounding
    parseval_grid: float        # (1/M) sum |S(j/M)|^2
    parseval_direct: float      # sum R(n)^2

    @property
    def agree(self) -> bool:
        return bool(np.array_equal(self.counts, self.dft_counts))

    @property
    def parseval_rel_error(self) -> float:
        return abs(self.parseval_grid - self.parseval_direct) / self.parseval_direct


def representation_numbers(source: ExpSumSource,
                           dft_length: Optional[int] = None) -> RepNumbers:
    """R(n) by histogram and by inversion of the exponential sum.

    The DFT length defaults to the next power of two above 16N, which
    covers the admissible value range; a user-supplied length at or
    below the largest value aliases and is refused.
    """
    if dft_length is None:
        M = 1
        while M < 16 * source.N + 1:
            M *= 2
    else:
        M = int(dft_length)
    if M <= source.vmax:
        raise InputError(
            f"DFT length {M} would alias: largest source value is {source.vmax}")
    if M * len(source) > 2_000_000_000:
        raise ResourceError(f"DFT grid {M} x {len(source)} too large")
    counts = source.histogram()
    grid = _sn_grid_exact(source, M)
    inv = np.fft.fft(grid) / M          # R(n) = (1/M) sum_j S_j e(-nj/M)
    recovered = inv.real[: len(counts)]
    err = float(np.max(np.abs(recovered - counts)))
    tail = float(np.max(np.abs(inv.real[len(counts):]))) if M > len(counts) else 0.0
    err = max(err, tail)
    if err > 1e-6:
        raise NumericalError(f"Fourier inversion off by {err} (> 1e-6)")
    dft_counts = np.rint(recovered).astype(np.int64)
    parseval_grid = float(np.mean(np.abs(grid) ** 2))
    parseval_direct = float(np.sum(counts.astype(np.float64) ** 2))
    return RepNumbers(counts, dft_counts, M, err, parseval_grid, parseval_direct)


# --- arc integration ---------------------------------------------------------

def _simpson(vals: np.ndarray, h: float) -> float:
    return float(h / 3.0 * (vals[0] + vals[-1]
                            + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum()))


def integrate_band(source: ExpSumSource, lo: float, hi: float) -> tuple[float, int]:
    """Adaptive Simpson integral of |S|^2 over [lo, hi]; the check on band_integral_exact.

    Initial resolution follows the integrand's oscillation scale
    1/vmax; the grid doubles until two refinements agree to QUAD_RTOL,
    and a band that still disagrees at QUAD_MAX_POINTS raises
    NumericalError.  Returns (integral, points used).
    """
    if hi <= lo:
        raise InputError(f"empty band [{lo}, {hi}]")
    width = hi - lo
    n = 8
    while n < width * source.vmax * 16 and n < QUAD_MAX_POINTS - 1:
        n *= 2
    prev = None
    while True:
        pts = _sn_uniform_grid(source, lo, width / n, n + 1)
        val = _simpson(np.abs(pts) ** 2, width / n)
        if prev is not None and abs(val - prev) <= QUAD_RTOL * max(abs(val), 1e-30):
            return val, n + 1
        if n >= QUAD_MAX_POINTS - 1:
            if prev is not None and abs(val - prev) <= 10 * QUAD_RTOL * abs(val):
                return val, n + 1
            raise NumericalError(
                f"band [{lo}, {hi}] quadrature not converged at {n + 1} points")
        prev = val
        n *= 2


def _autocorrelation(source: ExpSumSource) -> np.ndarray:
    """A(m) = sum_n R(n) R(n+m) for m = 0..vmax, by zero-padded FFT."""
    h = source.histogram().astype(np.float64)
    size = 1 << (2 * len(h) - 1).bit_length()   # power of two >= 2 len(h): no wraparound
    return np.fft.irfft(np.abs(np.fft.rfft(h, size)) ** 2, size)[:len(h)]


def _band_from_acf(acf: np.ndarray, lo: float, hi: float) -> float:
    """The sine series of band_integral_exact for one band."""
    m = np.arange(1, len(acf))
    series = acf[1:] * (np.sin(2 * np.pi * m * hi) - np.sin(2 * np.pi * m * lo)) / (np.pi * m)
    return float(acf[0] * (hi - lo) + series.sum())


def band_integral_exact(source: ExpSumSource, lo: float, hi: float) -> float:
    """Closed form for the band integral of |S|^2 via the autocorrelation
    A(m) = sum_n R(n) R(n+m):

        int_lo^hi |S|^2 = A(0)(hi-lo)
                          + sum_{m>=1} A(m) (sin 2 pi m hi - sin 2 pi m lo)/(pi m).
    """
    return _band_from_acf(_autocorrelation(source), lo, hi)


def _coprime_residues(q: int) -> list[int]:
    if q == 1:
        return [0]
    return [a for a in range(1, q) if gcd(a, q) == 1]


@dataclass
class ArcProfile:
    Q: int
    K: int
    n_windows: int
    measure: float
    integral: float
    ratio_to_flat: float     # integral / (|source|^2 / N)


def arc_profile(source: ExpSumSource, Q: int, K: int) -> ArcProfile:
    """Mass of |S|^2 on the dyadic region W_{Q,K} (diagnostic only).

    Windows with beta in +-[K/2N, K/N) are laid around every a/q with
    q in [Q/2, Q); overlaps between different dyadic regions are
    possible at the family level and are not corrected here.  Windows
    are summed in closed form from one autocorrelation of R.
    """
    N = source.N
    if not Q < math.sqrt(N):
        raise InputError(f"need Q < sqrt(N), got Q={Q} at N={N}")
    if not 1 <= K < math.sqrt(N) / Q:
        raise InputError(f"need 1 <= K < sqrt(N)/Q, got K={K} at Q={Q}, N={N}")
    qs = [q for q in range(max(1, (Q + 1) // 2), Q) if q >= Q / 2]
    if not qs:
        raise InputError(f"no moduli q with Q/2 <= q < Q for Q={Q}")
    windows = [(lo, hi) for q in qs for a in _coprime_residues(q)
               for lo, hi in ((a / q + K / (2.0 * N), a / q + K / N),
                              (a / q - K / N, a / q - K / (2.0 * N)))]
    acf = _autocorrelation(source)
    total = sum(_band_from_acf(acf, lo, hi) for lo, hi in windows)
    measure = sum(hi - lo for lo, hi in windows)
    flat = len(source) ** 2 / N
    return ArcProfile(Q, K, len(windows), measure, total, total / flat)


def _farey(order: int) -> list[tuple[int, int]]:
    """Farey fractions a/q, 0/1 .. 1/1, of the given order."""
    seq = [(0, 1), (1, order)]
    while seq[-1] != (1, 1):
        a, b = seq[-2]
        c, d = seq[-1]
        k = (order + b) // d
        seq.append((k * c - a, k * d - b))
    return seq


@dataclass
class PartitionReport:
    Q_max: int
    n_cells: int
    n_bands: int
    total_bands: float
    total_parseval: float
    by_qk: dict                 # (q, K) -> mass;  K = 0 is the core band

    @property
    def rel_error(self) -> float:
        return abs(self.total_bands - self.total_parseval) / self.total_parseval


def dyadic_partition_report(source: ExpSumSource, Q_max: int) -> PartitionReport:
    """Integrate |S|^2 over an exact partition of the circle and compare
    with Parseval.

    The circle splits into Farey cells of order Q_max (mediant
    boundaries); each cell splits into the core |beta| < 1/2N and
    dyadic bands K/2N <= |beta| < K/N clipped at the cell edge.  The
    closed-form total from one autocorrelation must reproduce sum R(n)^2.
    """
    if Q_max < 2:
        raise InputError(f"need Q_max >= 2, got {Q_max}")
    N = source.N
    farey = _farey(Q_max)
    centers = [a / q for a, q in farey]
    mediants = [(farey[i][0] + farey[i + 1][0]) / (farey[i][1] + farey[i + 1][1])
                for i in range(len(farey) - 1)]
    acf = _autocorrelation(source)
    total = 0.0
    n_bands = 0
    by_qk: dict = {}

    for i, (a, q) in enumerate(farey):
        center = centers[i]
        left = mediants[i - 1] if i > 0 else None
        right = mediants[i] if i < len(mediants) else None
        if a == 0:                       # cell of 0/1: right side only here
            sides = [(1, right - center)]
        elif (a, q) == (1, 1):           # cell of 1/1: left side, plus it
            sides = [(-1, center - left)]    # wraps onto 0/1's negative side
        else:
            sides = [(1, right - center), (-1, center - left)]
        for sign, reach in sides:
            # core band [0, 1/2N), then dyadic [K/2N, K/N) clipped
            edges = [0.0, min(0.5 / N, reach)]
            K = 1
            while edges[-1] < reach - 1e-15:
                edges.append(min(K / N, reach))
                K *= 2
            Kls = [0] + [2 ** j for j in range(len(edges) - 2)]
            for (b0, b1), Kl in zip(zip(edges, edges[1:]), Kls):
                if b1 - b0 < 1e-15:
                    continue
                lo = center + (b0 if sign > 0 else -b1)
                hi = center + (b1 if sign > 0 else -b0)
                val = _band_from_acf(acf, lo, hi)
                total += val
                n_bands += 1
                by_qk[(q, Kl)] = by_qk.get((q, Kl), 0.0) + val

    counts = source.histogram().astype(np.float64)
    parseval = float(np.sum(counts ** 2))
    return PartitionReport(Q_max, len(farey), n_bands, total, parseval, by_qk)
