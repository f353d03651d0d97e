"""The two workloads: fixed-size operations on continuantlab, each with a check.

library runs three parts in one interpreter: the orbit census (orbits),
the spectral and local part (modular, dimension, products) and the
circle-and-lattice part (expsum, qmc).  cli-session runs the README
commands, each in a fresh process.

A workload is a list of operations that one client runs one after the
other, each waiting for the previous (a closed loop in one process).
Each operation calls one public function of one layer and is named
"<layer>.<function>".  Its check compares the result with a paper
reference or an oracle from oracles.py.  Checks, and the oracles they
compute (once, on first use), are not timed and do not run during set-up.

Sizes keep a pass of library to about 12 s and of cli-session to about
17 s, so that a run times at least two passes and run.py can take their
median, in units of the workload's reference computation (below).

Each workload binds the functions it calls when it is built (bound()),
so that the traced run, which wraps nested calls in the modules' globals
afterwards, does not wrap the direct calls a second time.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from types import SimpleNamespace
from typing import Callable

import oracles as O


class CheckFailed(AssertionError):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    name: str                                    # "<layer>.<function>"
    call: Callable[[], object]
    check: Callable[[object], None]
    counts: Callable[[object], dict] | None = None  # when the result cannot tell


def bound(module: str) -> SimpleNamespace:
    """The functions of continuantlab.<module> as they are at this moment."""
    # importlib, because the attribute continuantlab.dimension is the function
    return SimpleNamespace(**vars(importlib.import_module(f"continuantlab.{module}")))


def rel_err(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def zaremba_bound(A: int, d: int) -> float:
    return (4 * A / math.log(A + 1) + (4 * A + 1) / math.log(d)) * math.log(d) / d


def orbit_digests(letters, N: int) -> tuple[str, str, int]:
    """(orbit rows digest, multiplicity rows digest, point count) from one oracle walk."""
    counts = Counter()

    def rows():
        for row in O.orbit_rows(letters, N):
            counts[int(row.split(",", 2)[1])] += 1
            yield row
    digest = O.rows_digest(rows())
    return digest, O.rows_digest(O.mult_rows(counts)), sum(counts.values())


def points_digest(ps) -> str:
    return O.rows_digest(f"{x:.17g},{y:.17g}" for x, y in ps.points)


# --- library, part 1: orbit census --------------------------------------------

def orbit_census(rng: random.Random, tmp: str) -> tuple[list[Op], dict]:
    orbits = bound("orbits")
    mt = orbits.multiplicity_table
    n_walk = 2 ** 16
    orbit_csv, mult_csv = os.path.join(tmp, "orbit.csv"), os.path.join(tmp, "mult.csv")
    state: dict = {}
    walk_oracle = cache(lambda: orbit_digests((1, 2), n_walk))

    def walk():
        state["points"] = list(orbits.enumerate_orbit((1, 2), n_walk))
        return state["points"]

    def aggregate():
        state["table"] = mt((1, 2), n_walk)
        return state["table"]

    def check_words(t):
        expect(t.counts == O.word_counts((1, 2, 3, 4, 5), 4000) and not t.exceptions(),
               "{1..5} word counts at 4000")

    def check_even(t):
        largest = max(t.counts.values())
        expect(largest == 10 and t.counts == O.word_counts((1, 3), 2 * 10 ** 5, even=True),
               f"{{1,3}} even fibers at 2*10^5, largest {largest}")

    def check_sumset(r):
        n = sum(O.orbit_counts((1, 2), 10 ** 4).values())
        expect(r.ok and r.larger_N == 3 * 10 ** 4 and r.n_points == n,
               f"sumset: {len(r.counterexamples)} counterexamples, {r.n_points} points")

    def check_walk(pts):
        got = O.rows_digest(f"{p.b},{p.d},{' '.join(map(str, p.word))}" for p in pts)
        expect(got == walk_oracle()[0], "orbit points differ from the oracle walk")

    def check_table(t):
        got = O.rows_digest(f"{d},{t.counts[d]}" for d in t.denominators)
        expect(got == walk_oracle()[1] and t.total == walk_oracle()[2], "{1,2} fibers at 2^16")

    ops = [
        Op("orbits.hensley_exponent",
           partial(orbits.hensley_exponent, (1, 2), [2 ** k for k in range(10, 19)]),
           lambda s: expect(abs(s - 2 * O.DELTA12) <= 0.05, f"slope {s} vs 2 delta")),
        Op("orbits.multiplicity_table",
           partial(mt, (1, 2, 3, 4, 5), 4000, representative="orbit"), check_words),
        Op("orbits.multiplicity_table", partial(mt, (1, 3), 2 * 10 ** 5, spellings="even"),
           check_even),
        Op("orbits.exceptions", partial(orbits.exceptions, (1, 2, 3, 4), 1000),
           lambda e: expect(e == [6, 54, 150], f"exceptions {e}")),
        Op("orbits.sumset_check", partial(orbits.sumset_check, (1, 2), 10 ** 4),
           check_sumset),
        # the walk / write / aggregate / write path of `enumerate --out --mult-out`
        Op("orbits.enumerate_orbit", walk, check_walk),
        Op("orbits.write_orbit_csv", lambda: orbits.write_orbit_csv(orbit_csv, state.pop("points")),
           lambda _: expect(O.csv_digest(orbit_csv) == walk_oracle()[0], "orbit CSV rows")),
        Op("orbits.multiplicity_table", aggregate, check_table),
        Op("orbits.write_mult_csv", lambda: orbits.write_mult_csv(mult_csv, state.pop("table")),
           lambda _: expect(O.csv_digest(mult_csv) == walk_oracle()[1], "multiplicity CSV rows")),
    ]
    config = {"seed_used": False,
              "seed_note": "inputs are the paper's reference alphabets and bounds",
              "walk_N": n_walk}
    return ops, config


# --- library, part 2: spectral and local --------------------------------------

REF_DIMENSIONS = {          # alphabet -> (reference delta, tolerance)
    (1, 2): (O.DELTA12, 1e-10),
    (1, 3): (O.DELTA13, 1e-9),
    (2, 4, 6, 8, 10): (0.517, 5e-4),
    (1, 2, 3, 4, 5): (0.83, 1e-2),
}
PRESSURE_TOL = 1e-6         # on |lam(delta) - 1|; an error of 1e-5 in delta moves lam by >1e-5
OBSTRUCTED = (2, 4, 6, 8, 10)


def spectral_local(rng: random.Random, tmp: str) -> tuple[list[Op], dict]:
    modular, dim, products = bound("modular"), bound("dimension"), bound("products")
    d0 = rng.randrange(2, 10 ** 9)
    products_seed = rng.randrange(2 ** 31)
    state: dict = {}

    def check_closure(letters, q):
        def check(c):
            expect(c.attainable_d == O.attainable_mod_q(letters, q), f"closure {letters} mod {q}")
            if letters == (1, 2):
                expect(c.attainable_is_full, f"{{1,2}} deficient mod {q}")
            if letters == OBSTRUCTED and q == 4:
                expect(c.attainable_d <= {0, 1, 2}, "mod-4 obstruction of {2,4,6,8,10}")
        return check

    def check_admissible(d):
        return lambda res: expect((res.admissible, res.witness) == O.admissible(OBSTRUCTED, d, 30),
                                  f"admissibility of {d}: {res}")

    def check_dimension(letters):
        def check(res):
            if letters in REF_DIMENSIONS:
                ref, tol = REF_DIMENSIONS[letters]
                expect(abs(res.delta - ref) <= tol, f"delta{letters} = {res.delta}")
            lam = O.transfer_eigenvalue(letters, res.delta)
            expect(abs(lam - 1) <= PRESSURE_TOL, f"lam(delta) = {lam} for {letters}")
        return check

    def large(A):
        return lambda: (dim.dimension(tuple(range(1, A + 1))).delta, dim.hensley_asymptotic(A))

    def check_large(A):
        def check(res):
            delta, asym = res
            formula = 1 - 6 / (math.pi ** 2 * A) - 72 * math.log(A) / (math.pi ** 4 * A ** 2)
            expect(abs(asym - formula) <= 1e-15 and abs(delta - formula) <= 2 / A ** 2,
                   f"delta(1..{A}) = {delta} vs asymptotic {formula}")
        return check

    def omega():
        state["ens"] = products.build_omega((1, 2), 10 ** 10)
        return state["ens"]

    def check_ensemble(ens):
        expect(0.25 < ens.scale_product / ens.N < 4 and all(0.25 < a < 4 for a in ens.alphas)
               and ens.cardinality == math.prod(len(f) for f in ens.factors) > 0,
               "ensemble scale invariants")

    def check_report(rep):
        ens = state.pop("ens")
        expect(rep.cardinality == ens.cardinality and rep.J == ens.J
               and abs(rep.delta - O.DELTA12) <= 1e-10 and math.isfinite(rep.fitted_c),
               "cardinality report")

    def check_nu(q):
        return lambda v: expect(abs(v - O.nu(q, 1)) <= 1e-12, f"nu_{q}(1) = {v}")

    def sseries(n):
        return Op("modular.singular_series", partial(modular.singular_series, n, 10 ** 5),
                  lambda v: expect(rel_err(v, O.singular_series_limit(n)) <= 1e-5, f"S({n}) = {v}"))

    pairs = [(a, b) for a in range(1, 9) for b in range(a + 1, 9)]

    ops = [Op("modular.closure_mod_q", partial(modular.closure_mod_q, letters, q),
              check_closure(letters, q))
           for letters, q_max in (((1, 2), 30), ((1, 3), 20), (OBSTRUCTED, 20))
           for q in range(2, q_max + 1)]
    ops += [Op("modular.is_admissible", partial(modular.is_admissible, OBSTRUCTED, d, 30),
               check_admissible(d))
            for d in range(d0, d0 + 4)]
    ops += [Op("dimension.dimension", partial(dim.dimension, letters), check_dimension(letters))
            for letters in list(REF_DIMENSIONS) + [p for p in pairs if p not in REF_DIMENSIONS]]
    ops += [Op("dimension.dimension", large(A), check_large(A)) for A in (10, 20, 50, 100, 200)]
    ops += [
        Op("products.build_omega", omega, check_ensemble),
        Op("products.check_products",
           lambda: products.check_products(state["ens"], 500, seed=products_seed),
           lambda c: expect(c.ok and 0.5 < c.ratio_min <= c.ratio_max < 2,
                            f"sampled products {c}")),
        Op("products.omega_cardinality_report",
           lambda: products.omega_cardinality_report(state["ens"]), check_report),
        Op("products.build_omega", partial(products.build_omega, (1, 2, 3, 4, 5), 10 ** 5),
           check_ensemble),
        Op("dimension.sector_count_check",
           partial(dim.sector_count_check, (1, 2), 3e4, (0.3, 0.5)),
           lambda r: expect(not r.empty and abs(r.slope - 2 * O.DELTA12) <= 0.05,
                            f"sector slope {r.slope}")),
        sseries(1),
        sseries(30030),
    ]
    ops += [Op("modular.nu_q", partial(modular.nu_q, q, 1), check_nu(q)) for q in range(1, 51)]
    ops.append(Op("modular.nu_q", partial(modular.nu_q, 2, 1, exact=True),
                  lambda v: expect(v == Fraction(-1, 3), f"nu_2(1) = {v}, not -1/3")))
    ops.append(Op("modular.primitive_root_witness",
                  partial(modular.primitive_root_witness, (1, 2), 10 ** 4),
                  lambda w: expect(tuple(w) == O.primitive_root_witness((1, 2), 10 ** 4),
                                   f"witness {w}")))
    config = {"seed_used": True, "admissible_d": [d0, d0 + 3],
              "check_products_seed": products_seed}
    return ops, config


# --- library, part 3: circle and lattice --------------------------------------

QMC_D = 4547
BAND_WIDTHS = (2e-4, 1e-3, 4e-3, 1.6e-2)


def circle_lattice(rng: random.Random, tmp: str) -> tuple[list[Op], dict]:
    expsum, qmc = bound("expsum"), bound("qmc")
    low = O.low_quotient_multipliers(QMC_D, 3)
    if len(low) != 50:
        raise RuntimeError(f"expected 50 multipliers with quotients <= 3, found {len(low)}")
    b_seed = rng.choice(low)
    bands = [(lo, lo + w) for w in BAND_WIDTHS for lo in [rng.uniform(0.0, 1.0 - w)]]
    sample_seed = rng.randrange(2 ** 31)
    state: dict = {}

    def source(N):
        def call():
            state[N] = expsum.source_from_orbit((1, 2), N)
            return state[N]
        return call

    counts = cache(partial(O.orbit_counts, (1, 2)))

    def check_source(N):
        return lambda src: expect(Counter(src.values.tolist()) == counts(N),
                                  f"source values at N={N}")

    def check_arcs(prof):
        windows = O.arc_windows(10 ** 4, 8, 2)
        want = sum(O.band_integrals(state[10 ** 4].values, windows))
        expect(prof.n_windows == len(windows) and rel_err(prof.integral, want) <= 1e-3,
               f"arc integral {prof.integral} vs closed form {want}")

    def check_repnum(rn):
        want = counts(1000)
        expect(rn.agree and rn.parseval_rel_error <= 1e-9
               and all(rn.counts[d] == c for d, c in want.items())
               and int(rn.counts.sum()) == sum(want.values()),
               f"representation numbers (parseval {rn.parseval_rel_error:.1e})")

    def band_ops(band):
        def check(tol):
            def compare(v):
                v = v[0] if isinstance(v, tuple) else v  # integrate_band adds its point count
                want = O.band_integrals(state[10 ** 4].values, [band])[0]
                expect(rel_err(v, want) <= tol, f"band {band}: {v} vs {want}")
            return compare
        return [
            Op("expsum.integrate_band", lambda: expsum.integrate_band(state[10 ** 4], *band),
               check(1e-3)),
            Op("expsum.band_integral_exact",
               lambda: expsum.band_integral_exact(state[10 ** 4], *band), check(1e-9)),
        ]

    def lattice_ops(b):
        path = os.path.join(tmp, f"points_{b}.csv")
        digest = cache(lambda: O.rows_digest(O.lattice_rows(b, QMC_D)))
        limit = zaremba_bound(max(O.cf_quotients(b, QMC_D)), QMC_D)
        disc = lambda _: {"qmc.disc_points": QMC_D}

        def zn():
            state[b] = qmc.zn_points(b, QMC_D)
            return state[b]

        def read():
            state[b] = qmc.read_points_csv(path)
            return state[b]

        def check_exact(v):
            state[("exact", b)] = v
            expect(0 < v <= limit, f"D*({b}/{QMC_D}) = {v} above the bound {limit}")

        return [
            Op("qmc.zn_points", zn,
               lambda ps: expect(ps.provenance == (b, QMC_D) and points_digest(ps) == digest(),
                                 f"lattice points for b={b}")),
            Op("qmc.write_points_csv", lambda: qmc.write_points_csv(path, state[b]),
               lambda _: expect(O.csv_digest(path) == digest(), f"points CSV rows for b={b}")),
            Op("qmc.read_points_csv", read,
               lambda ps: expect(points_digest(ps) == digest(), f"points read back for b={b}")),
            Op("qmc.star_discrepancy", lambda: qmc.star_discrepancy(state[b]), check_exact, disc),
            Op("qmc.star_discrepancy",
               lambda: qmc.star_discrepancy(state.pop(b), method="sampled", seed=sample_seed),
               lambda v: expect(0 < v <= state[("exact", b)], f"sampled D* {v} above exact, b={b}"),
               disc),
        ]

    ops = [
        Op("expsum.source_from_orbit", source(10 ** 4), check_source(10 ** 4)),
        Op("expsum.arc_profile", lambda: expsum.arc_profile(state[10 ** 4], 8, 2), check_arcs),
        Op("expsum.source_from_orbit", source(1000), check_source(1000)),
        Op("expsum.representation_numbers",
           lambda: expsum.representation_numbers(state[1000]), check_repnum),
    ]
    for band in bands:
        ops += band_ops(band)
    for b in (3523, b_seed):
        ops += lattice_ops(b)
    config = {"seed_used": True, "qmc_b": [3523, b_seed], "bands": bands,
              "sampled_discrepancy_seed": sample_seed}
    return ops, config


# --- cli-session --------------------------------------------------------------

def cli_session(rng: random.Random, tmp: str) -> tuple[list[Op], dict]:
    """Each README example in its own `python -m continuantlab.cli` process.

    Neither --threads nor --format is passed, n_elements is never read
    and no '#' header line is hashed: those are surfaces slated for removal.
    """
    out = os.path.join(tmp, "out")
    f = {name: os.path.join(tmp, name) for name in
         ("orbit.csv", "mult.csv", "points.csv", "arcs.csv")}

    def cli(*argv):
        def call():
            proc = subprocess.run([sys.executable, "-m", "continuantlab.cli", *argv],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return proc.stdout
        return call

    def js(check):
        return lambda stdout: check(json.loads(stdout))

    def check_enumerate(r):
        orbit, mult, n = orbit_digests((1, 2), 1000)
        expect(r["n_points"] == n and O.csv_digest(f["orbit.csv"]) == orbit
               and O.csv_digest(f["mult.csv"]) == mult, "enumerate CSV rows")

    def check_profile(r):
        import numpy as np

        counts = O.orbit_counts((1, 2), 10 ** 5)
        values = np.repeat(np.fromiter(counts.keys(), dtype=np.int64),
                           np.fromiter(counts.values(), dtype=np.int64))
        windows = O.arc_windows(10 ** 5, 8, 4)
        want = sum(O.band_integrals(values, windows))
        rows = list(O.csv_data_rows(f["arcs.csv"]))
        expect(r["n_windows"] == len(windows) and r["source_size"] == len(values),
               f"arc profile size: {r['n_windows']} windows, {r['source_size']} values")
        expect(rel_err(r["integral"], want) <= 1e-3,
               f"arc profile integral {r['integral']} vs closed form {want}")
        expect(rows == [f"8,4,{len(windows)},{r['measure']:.17g},{r['integral']:.17g},"
                        f"{r['ratio_to_flat']:.17g}"], f"arc profile CSV {rows}")

    def check_fig7(r):
        mult = O.rows_digest(O.mult_rows(O.orbit_counts((1, 2, 3, 4, 5), 1000)))
        rows = list(O.csv_data_rows(os.path.join(out, "fig7_normalized.csv")))
        d, c, norm = rows[-1].split(",")
        implied = (math.log(int(c) / float(norm)) / math.log(int(d)) + 1) / 2
        expect(r["figure"] == "fig7"
               and O.csv_digest(os.path.join(out, "fig7_mult.csv")) == mult
               and O.rows_digest(",".join(row.split(",")[:2]) for row in rows) == mult
               and abs(implied - 0.83) <= 1e-2,
               f"fig7 tables (implied delta {implied})")

    qmc_bound = zaremba_bound(3, QMC_D)
    ops = [
        Op("cli.startup", cli("--version"),
           lambda s: expect(re.fullmatch(r"\d+\.\d+\.\d+\s*", s) is not None, f"version {s!r}")),
        Op("cli.dimension",
           cli("dimension", "--alphabet", "1,2", "--tol", "1e-12", "--nodes", "64"),
           js(lambda r: expect(abs(r["delta"] - O.DELTA12) <= 1e-10, f"delta {r['delta']}"))),
        Op("cli.exceptions", cli("exceptions", "--alphabet", "1,2,3,4", "--N", "1000"),
           js(lambda r: expect(r["exceptions"] == [6, 54, 150], f"exceptions {r['exceptions']}"))),
        Op("cli.enumerate", cli("enumerate", "--alphabet", "1,2", "--N", "1000",
                                "--out", f["orbit.csv"], "--mult-out", f["mult.csv"]),
           js(check_enumerate)),
        Op("cli.ensemble",
           cli("ensemble", "--alphabet", "1,2", "--N", "1000000", "--sample", "500"),
           js(lambda r: expect(r["all_invariants_ok"] and 0.5 < r["lambda_ratio_range"][0]
                               <= r["lambda_ratio_range"][1] < 2, "ensemble invariants"))),
        Op("cli.modular_closure", cli("modular", "closure", "--alphabet", "2,4,6,8,10", "--q", "4"),
           js(lambda r: expect(set(r["attainable_d"]) == O.attainable_mod_q(OBSTRUCTED, 4)
                               <= {0, 1, 2}, f"attainable {r['attainable_d']}"))),
        Op("cli.modular_sseries", cli("modular", "sseries", "--n", "30030", "--P", "100000"),
           js(lambda r: expect(rel_err(r["value"], O.singular_series_limit(30030)) <= 1e-5,
                               f"S(30030) = {r['value']}"))),
        Op("cli.qmc_zn",
           cli("qmc", "zn", "--b", "3523", "--d", str(QMC_D), "--out", f["points.csv"]),
           js(lambda r: expect(r["n_points"] == QMC_D and O.csv_digest(f["points.csv"])
                               == O.rows_digest(O.lattice_rows(3523, QMC_D)), "points CSV"))),
        Op("cli.qmc_disc", cli("qmc", "disc", "--in", f["points.csv"]),
           js(lambda r: expect(0 < r["star_discrepancy"] <= qmc_bound,
                               f"D* {r['star_discrepancy']} vs bound {qmc_bound}"))),
        Op("cli.expsum_profile", cli("expsum", "profile", "--alphabet", "1,2", "--N", "100000",
                                     "--Q", "8", "--K", "4", "--out", f["arcs.csv"]),
           js(check_profile)),
        Op("cli.repro_fig7", cli("repro", "fig7", "--N", "1000", "--out-dir", out), js(check_fig7)),
    ]
    config = {"seed_used": False, "seed_note": "commands are the README examples verbatim"}
    return ops, config


# --- library ------------------------------------------------------------------

def library(rng: random.Random, tmp: str) -> tuple[list[Op], dict]:
    """The orbit census, then the spectral and local checks, then the circle
    method and lattice operations, in one interpreter."""
    ops, config = [], {}
    for part in (orbit_census, spectral_local, circle_lattice):
        part_ops, part_config = part(rng, tmp)
        ops += part_ops
        config[part.__name__] = part_config
    return ops, config


WORKLOADS = {
    "library": library,
    "cli-session": cli_session,
}


# --- references ---------------------------------------------------------------
#
# The host's speed drifts by up to 1.5x for seconds to minutes, so pass
# times in seconds spread from run to run by more than a regression worth
# catching.  Each workload has a fixed computation that does not touch
# continuantlab and is timed between its operations; it slows with
# the host, and run.py reports pass times in units of it.

REF_LOOP = 20_000  # about 3 ms of interpreter work


def interpreter_ref_s() -> float:
    """Seconds for a fixed loop of integer and dict work in this interpreter."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(REF_LOOP):
        acc += i * i % 7
        seen[i & 255] = acc
    return time.perf_counter() - t0


def process_ref_s() -> float:
    """Seconds for a fresh interpreter to start and import numpy.

    The CLI commands are mostly process start-up and imports, which the
    host's drift moves differently from a loop inside one interpreter.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0


REFERENCES = {
    "library": interpreter_ref_s,
    "cli-session": process_ref_s,
}
