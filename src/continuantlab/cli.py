"""Command-line entry point binding all modules.

Every subcommand has one handler, `_cmd_<name>(args)`, which does the
work, writes the output files it was asked for and returns its result
as a dict.  `run` times the handler and prints that dict, with
`seconds` added, as one JSON object on stdout.

Exit codes: 0 success, 2 input/usage error, 3 resource-cap error.
Every output file starts with header comments recording the tool
version, the resolved configuration, and the seed, so identical
invocations produce byte-identical files.  Timing is reported on
stdout only, never written into files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .cfcore import Alphabet, cf_expand, even_normalize, word_to_matrix
from .dimension import dimension
from .errors import InputError, ResourceError
from .expsum import arc_profile, source_from_orbit
from .modular import closure_mod_q, is_admissible, nu_q, singular_series
from .orbits import (density_ratio, enumerate_orbit, exceptions,
                     multiplicity_table, write_csv, write_exceptions_csv,
                     write_mult_csv, write_orbit_csv)
from .products import build_omega, check_products, omega_cardinality_report
from .qmc import read_points_csv, star_discrepancy, write_points_csv, zn_points


# Paths stay out of the header so that files match across machines.
_UNRECORDED_ARGS = {"func", "out", "mult_out", "out_dir", "infile"}


def _header(args: argparse.Namespace, extra: dict | None = None) -> list[str]:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in _UNRECORDED_ARGS and v is not None}
    if extra:
        cfg.update(extra)
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return [f"continuantlab {__version__}", f"config: {blob}", f"seed: {args.seed}"]


def _result(args, payload: dict) -> dict:
    """Write the payload as the --out JSON document, if asked; return it."""
    if args.out:
        doc = {"meta": {"tool": f"continuantlab {__version__}", "seed": args.seed},
               "result": payload}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    return payload


def _cmd_cf(args) -> dict:
    word = cf_expand(args.b, args.d)
    return _result(args, {
        "b": args.b, "d": args.d,
        "word": list(word),
        "even_word": list(even_normalize(word)),
        "matrix": list(word_to_matrix(word)),
    })


def _cmd_enumerate(args) -> dict:
    alphabet = Alphabet.parse(args.alphabet)
    header = _header(args)
    # the canonical table counts each point once, so its total is the
    # point count; it walks the same frontier as the points, so an
    # oversized request exits 3 here, before any file is opened
    table = multiplicity_table(alphabet, args.N, spellings=args.spellings)
    n_points = table.total
    if args.out:
        write_orbit_csv(args.out, enumerate_orbit(alphabet, args.N, spellings=args.spellings),
                        header)
    if args.mult_out:
        if args.representative != table.representative:
            table = multiplicity_table(alphabet, args.N, spellings=args.spellings,
                                       representative=args.representative)
        write_mult_csv(args.mult_out, table, header)
    # --out holds the orbit CSV; the summary goes to stdout only
    return {"n_points": n_points, "N": args.N, "alphabet": str(alphabet)}


def _cmd_exceptions(args) -> dict:
    alphabet = Alphabet.parse(args.alphabet)
    exc = exceptions(alphabet, args.N, spellings=args.spellings)
    if args.out:
        write_exceptions_csv(args.out, exc, _header(args))
    return {"alphabet": str(alphabet), "N": args.N,
            "spellings": args.spellings, "exceptions": exc}


def _cmd_dimension(args) -> dict:
    res = dimension(Alphabet.parse(args.alphabet), tol=args.tol, nodes=args.nodes)
    return _result(args, res.as_dict())


def _cmd_ensemble(args) -> dict:
    alphabet = Alphabet.parse(args.alphabet)
    ens = build_omega(alphabet, args.N)
    chk = check_products(ens, samples=args.sample, seed=args.seed)
    card = omega_cardinality_report(ens)
    return _result(args, {
        "alphabet": str(alphabet), "N": args.N, "J": ens.J,
        "scales": list(ens.scales), "alphas": list(ens.alphas),
        "scale_product_over_N": ens.scale_product / args.N,
        "factor_sizes": [len(f) for f in ens.factors],
        "cardinality": ens.cardinality,
        "degenerate": ens.degenerate,
        "samples": chk.samples,
        "lambda_ratio_range": [chk.ratio_min, chk.ratio_max],
        "ratio_violations": chk.ratio_violations,
        "norm_violations": chk.norm_violations,
        "all_invariants_ok": chk.ok,
        "fitted_c": card.fitted_c,
        "log_cardinality_over_log_N": card.log_ratio,
    })


def _cmd_closure(args) -> dict:
    clo = closure_mod_q(Alphabet.parse(args.alphabet), args.q)
    return _result(args, {"q": clo.q, "attainable_d": sorted(clo.attainable_d),
                          "attainable_is_full": clo.attainable_is_full})


def _cmd_sseries(args) -> dict:
    return _result(args, {"n": args.n, "P": args.P,
                          "value": singular_series(args.n, args.P)})


def _cmd_nu(args) -> dict:
    val = nu_q(args.q, args.a)
    return _result(args, {"q": args.q, "a": args.a, "re": val.real, "im": val.imag})


def _cmd_admissible(args) -> dict:
    res = is_admissible(Alphabet.parse(args.alphabet), args.d, args.qmax)
    return _result(args, {"d": args.d, "q_max": args.qmax,
                          "admissible": res.admissible, "witness": res.witness})


def _cmd_zn(args) -> dict:
    ps = zn_points(args.b, args.d, drop_origin=args.drop_origin)
    if args.out:
        write_points_csv(args.out, ps, _header(args))
    return {"b": args.b, "d": args.d, "n_points": len(ps), "out": args.out}


def _cmd_disc(args) -> dict:
    ps = read_points_csv(args.infile)
    return {"n_points": len(ps), "method": args.method,
            "star_discrepancy": star_discrepancy(ps, method=args.method, seed=args.seed)}


def _cmd_profile(args) -> dict:
    alphabet = Alphabet.parse(args.alphabet)
    source = source_from_orbit(alphabet, args.N)
    prof = arc_profile(source, args.Q, args.K)
    if args.out:
        write_csv(args.out, _header(args),
                  ("Q", "K", "n_windows", "measure", "integral", "ratio_to_flat"),
                  [(prof.Q, prof.K, prof.n_windows, f"{prof.measure:.17g}",
                    f"{prof.integral:.17g}", f"{prof.ratio_to_flat:.17g}")])
    return {
        "alphabet": str(alphabet), "N": args.N, "Q": args.Q, "K": args.K,
        "source_size": len(source), "n_windows": prof.n_windows,
        "measure": prof.measure, "integral": prof.integral,
        "ratio_to_flat": prof.ratio_to_flat,
    }


def _cmd_repro(args) -> dict:
    fig = args.figure
    if args.N is not None and fig not in ("fig7", "fig8"):
        raise InputError(f"repro {fig} takes no --N")
    os.makedirs(args.out_dir, exist_ok=True)
    header = _header(args, {"figure": fig})

    def path(name):
        return os.path.join(args.out_dir, name)

    if fig in ("fig2", "fig3"):
        b = 3523 if fig == "fig2" else 3535
        write_points_csv(path(f"{fig}_points.csv"), zn_points(b, 4547), header)
    elif fig == "fig5":
        for N in (1000, 10000):
            write_orbit_csv(path(f"fig5_orbit_N{N}.csv"),
                            enumerate_orbit(Alphabet.of((1, 2)), N), header)
    elif fig == "fig6":
        write_orbit_csv(path("fig6_orbit.csv"),
                        enumerate_orbit(Alphabet.of((1, 2, 3, 4, 5)), 500), header)
    elif fig == "fig7":
        alphabet = Alphabet.of((1, 2, 3, 4, 5))
        table = multiplicity_table(alphabet, args.N or 1000)
        write_mult_csv(path("fig7_mult.csv"), table, header)
        delta = dimension(alphabet).delta
        write_csv(path("fig7_normalized.csv"), header + [f"delta: {delta!r}"],
                  ("d", "count", "normalized"),
                  ((d, c, f"{c / d ** (2 * delta - 1):.17g}")
                   for d, c in sorted(table.counts.items())))
    else:  # fig8
        alphabet = Alphabet.of((1, 3))
        delta = dimension(alphabet).delta
        rep = density_ratio(alphabet, args.N or 200000, delta)
        write_csv(path("fig8_density.csv"),
                  header + [f"delta: {delta!r}", f"max_multiplicity: {rep.max_multiplicity}"],
                  ("N", "count_D", "ratio"),
                  ((Ni, nd, f"{ratio:.17g}") for Ni, nd, ratio in rep.grid))
    return {"figure": fig, "out_dir": args.out_dir}


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: an abbreviation such as --out for --out-dir would
    # silently write somewhere the user did not name
    top = argparse.ArgumentParser(
        prog="continuantlab", allow_abbrev=False,
        description="Bounded-partial-quotient continued fractions at desk scale")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    leaves = []

    def command(group, name, func, help=None, out=True):
        p = group.add_parser(name, allow_abbrev=False,
                             **({} if help is None else {"help": help}))
        p.set_defaults(func=func)
        leaves.append((p, out))
        return p

    p = command(sub, "cf", _cmd_cf, "canonical continued-fraction expansion")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = command(sub, "enumerate", _cmd_enumerate, "orbit points with d < N")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--spellings", choices=("any", "canonical", "even"),
                   default="any")
    p.add_argument("--representative", choices=("canonical", "orbit"),
                   default="canonical")
    p.add_argument("--mult-out", help="also write the multiplicity table CSV")

    p = command(sub, "exceptions", _cmd_exceptions, "empty-fiber continuants below N")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--spellings", choices=("any", "canonical", "even"),
                   default="canonical")

    p = command(sub, "dimension", _cmd_dimension, "Hausdorff dimension of the limit set")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--nodes", type=int, default=64)

    p = command(sub, "ensemble", _cmd_ensemble, "build Omega_N and check invariants")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--sample", type=int, default=500)

    msub = sub.add_parser("modular", allow_abbrev=False, help="mod-q closures and singular series")
    msub = msub.add_subparsers(dest="modular_cmd", required=True)
    p = command(msub, "closure", _cmd_closure)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--q", type=int, required=True)
    p = command(msub, "sseries", _cmd_sseries)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p = command(msub, "nu", _cmd_nu)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p = command(msub, "admissible", _cmd_admissible)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--qmax", type=int, default=30)

    qsub = sub.add_parser("qmc", allow_abbrev=False, help="lattice point sets and discrepancy")
    qsub = qsub.add_subparsers(dest="qmc_cmd", required=True)
    p = command(qsub, "zn", _cmd_zn)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--drop-origin", action="store_true")
    p = command(qsub, "disc", _cmd_disc, out=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=("exact", "sampled"), default="exact")

    esub = sub.add_parser("expsum", allow_abbrev=False, help="exponential-sum arc profiles")
    esub = esub.add_subparsers(dest="expsum_cmd", required=True)
    p = command(esub, "profile", _cmd_profile)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--K", type=int, required=True)

    p = command(sub, "repro", _cmd_repro, "regenerate the data behind the figures",
                out=False)
    p.add_argument("figure",
                   choices=("fig2", "fig3", "fig5", "fig6", "fig7", "fig8"))
    p.add_argument("--N", type=int, default=None, help="fig7 and fig8 only")
    p.add_argument("--out-dir", default=".")

    # added last, so that every usage line ends with them
    for p, out in leaves:
        if out:
            p.add_argument("--out", help="output file path")
        p.add_argument("--seed", type=int, default=0)
    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    t0 = time.perf_counter()
    try:
        payload = args.func(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except ResourceError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return 3
    print(json.dumps({**payload, "seconds": round(time.perf_counter() - t0, 3)},
                     indent=2, sort_keys=True, default=str))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
