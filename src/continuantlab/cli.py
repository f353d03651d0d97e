"""Command-line entry point binding all modules.

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
                     multiplicity_table, write_exceptions_csv, write_mult_csv,
                     write_orbit_csv)
from .products import build_omega, check_products, omega_cardinality_report
from .qmc import read_points_csv, star_discrepancy, write_points_csv, zn_points


# Paths, and knobs that change how a result is computed but not the result,
# stay out of the header so that files match across machines.
_UNRECORDED_ARGS = {"func", "out", "mult_out", "out_dir", "infile", "threads"}


def _header(args: argparse.Namespace, extra: dict | None = None) -> list[str]:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in _UNRECORDED_ARGS and v is not None}
    if extra:
        cfg.update(extra)
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return [f"continuantlab {__version__}", f"config: {blob}",
            f"seed: {getattr(args, 'seed', 0)}"]


def _emit(args, payload: dict, volatile: dict | None = None) -> None:
    """JSON to stdout (with volatile timing fields); stable JSON to --out."""
    shown = dict(payload)
    if volatile:
        shown.update(volatile)
    print(json.dumps(shown, indent=2, sort_keys=True, default=str))
    out = getattr(args, "out", None)
    if out:
        doc = {"meta": {"tool": f"continuantlab {__version__}",
                        "seed": getattr(args, "seed", 0)},
               "result": payload}
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


def _cmd_cf(args) -> int:
    word = cf_expand(args.b, args.d)
    payload = {
        "b": args.b, "d": args.d,
        "word": list(word),
        "even_word": list(even_normalize(word)),
        "matrix": list(word_to_matrix(word)),
    }
    _emit(args, payload)
    return 0


def _cmd_enumerate(args) -> int:
    t0 = time.time()
    alphabet = Alphabet.parse(args.alphabet)
    header = _header(args)
    points = list(enumerate_orbit(alphabet, args.N, spellings=args.spellings))
    if args.out:
        write_orbit_csv(args.out, points, header)
    if args.mult_out:
        table = multiplicity_table(alphabet, args.N, spellings=args.spellings,
                                   representative=args.representative,
                                   threads=args.threads)
        write_mult_csv(args.mult_out, table, header)
    # --out holds the orbit CSV; the JSON summary goes to stdout only
    print(json.dumps({"n_points": len(points), "N": args.N,
                      "alphabet": str(alphabet),
                      "seconds": round(time.time() - t0, 3)},
                     indent=2, sort_keys=True))
    return 0


def _cmd_exceptions(args) -> int:
    t0 = time.time()
    alphabet = Alphabet.parse(args.alphabet)
    exc = exceptions(alphabet, args.N, spellings=args.spellings)
    if args.out:
        write_exceptions_csv(args.out, exc, _header(args))
    print(json.dumps({"alphabet": str(alphabet), "N": args.N,
                      "spellings": args.spellings, "exceptions": exc,
                      "seconds": round(time.time() - t0, 3)},
                     indent=2, sort_keys=True))
    return 0


def _cmd_dimension(args) -> int:
    t0 = time.time()
    alphabet = Alphabet.parse(args.alphabet)
    res = dimension(alphabet, tol=args.tol, nodes=args.nodes)
    payload = res.as_dict()
    _emit(args, payload, volatile={"seconds": round(time.time() - t0, 3)})
    return 0


def _cmd_ensemble(args) -> int:
    t0 = time.time()
    alphabet = Alphabet.parse(args.alphabet)
    ens = build_omega(alphabet, args.N)
    chk = check_products(ens, samples=args.sample, seed=args.seed)
    card = omega_cardinality_report(ens)
    payload = {
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
    }
    _emit(args, payload, volatile={"seconds": round(time.time() - t0, 3)})
    return 0


def _cmd_modular(args) -> int:
    if args.modular_cmd == "closure":
        clo = closure_mod_q(Alphabet.parse(args.alphabet), args.q)
        payload = {"q": clo.q, "attainable_d": sorted(clo.attainable_d),
                   "attainable_is_full": clo.attainable_is_full}
    elif args.modular_cmd == "sseries":
        payload = {"n": args.n, "P": args.P,
                   "value": singular_series(args.n, args.P)}
    elif args.modular_cmd == "nu":
        val = nu_q(args.q, args.a)
        payload = {"q": args.q, "a": args.a,
                   "re": val.real, "im": val.imag}
    elif args.modular_cmd == "admissible":
        res = is_admissible(Alphabet.parse(args.alphabet), args.d, args.qmax)
        payload = {"d": args.d, "q_max": args.qmax,
                   "admissible": res.admissible, "witness": res.witness}
    else:  # pragma: no cover
        raise InputError(f"unknown modular subcommand {args.modular_cmd!r}")
    _emit(args, payload)
    return 0


def _cmd_qmc(args) -> int:
    if args.qmc_cmd == "zn":
        ps = zn_points(args.b, args.d, drop_origin=args.drop_origin)
        if args.out:
            write_points_csv(args.out, ps, _header(args))
        print(json.dumps({"b": args.b, "d": args.d, "n_points": len(ps),
                          "out": args.out}, indent=2, sort_keys=True))
    elif args.qmc_cmd == "disc":
        ps = read_points_csv(args.infile)
        t0 = time.time()
        value = star_discrepancy(ps, method=args.method, seed=args.seed)
        print(json.dumps({"n_points": len(ps), "star_discrepancy": value,
                          "method": args.method,
                          "seconds": round(time.time() - t0, 3)},
                         indent=2, sort_keys=True))
    else:  # pragma: no cover
        raise InputError(f"unknown qmc subcommand {args.qmc_cmd!r}")
    return 0


def _cmd_expsum(args) -> int:
    t0 = time.time()
    alphabet = Alphabet.parse(args.alphabet)
    source = source_from_orbit(alphabet, args.N)
    prof = arc_profile(source, args.Q, args.K)
    payload = {
        "alphabet": str(alphabet), "N": args.N, "Q": args.Q, "K": args.K,
        "source_size": len(source), "n_windows": prof.n_windows,
        "measure": prof.measure, "integral": prof.integral,
        "ratio_to_flat": prof.ratio_to_flat,
    }
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            for line in _header(args):
                fh.write(f"# {line}\n")
            fh.write("Q,K,n_windows,measure,integral,ratio_to_flat\n")
            fh.write(f"{prof.Q},{prof.K},{prof.n_windows},"
                     f"{prof.measure:.17g},{prof.integral:.17g},"
                     f"{prof.ratio_to_flat:.17g}\n")
    print(json.dumps({**payload, "seconds": round(time.time() - t0, 3)},
                     indent=2, sort_keys=True))
    return 0


def _cmd_repro(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    fig = args.figure
    header = _header(args, {"figure": fig})

    def path(name):
        return os.path.join(args.out_dir, name)

    if fig in ("fig2", "fig3"):
        b = 3523 if fig == "fig2" else 3535
        write_points_csv(path(f"{fig}_points.csv"), zn_points(b, 4547), header)
    elif fig == "fig5":
        for N in (1000, 10000):
            pts = list(enumerate_orbit(Alphabet.of((1, 2)), N))
            write_orbit_csv(path(f"fig5_orbit_N{N}.csv"), pts, header)
    elif fig == "fig6":
        pts = list(enumerate_orbit(Alphabet.of((1, 2, 3, 4, 5)), 500))
        write_orbit_csv(path("fig6_orbit.csv"), pts, header)
    elif fig == "fig7":
        N = args.N or 1000
        alphabet = Alphabet.of((1, 2, 3, 4, 5))
        table = multiplicity_table(alphabet, N)
        write_mult_csv(path("fig7_mult.csv"), table, header)
        delta = dimension(alphabet).delta
        with open(path("fig7_normalized.csv"), "w", newline="\n") as fh:
            for line in header + [f"delta: {delta!r}"]:
                fh.write(f"# {line}\n")
            fh.write("d,count,normalized\n")
            for d in table.denominators:
                c = table.counts[d]
                fh.write(f"{d},{c},{c / d ** (2 * delta - 1):.17g}\n")
    elif fig == "fig8":
        N = args.N or 200000
        alphabet = Alphabet.of((1, 3))
        delta = dimension(alphabet).delta
        rep = density_ratio(alphabet, N, delta)
        with open(path("fig8_density.csv"), "w", newline="\n") as fh:
            for line in header + [f"delta: {delta!r}",
                                  f"max_multiplicity: {rep.max_multiplicity}"]:
                fh.write(f"# {line}\n")
            fh.write("N,count_D,ratio\n")
            for Ni, nd, ratio in rep.grid:
                fh.write(f"{Ni},{nd},{ratio:.17g}\n")
    else:
        raise InputError(f"unknown figure {fig!r} (fig2,fig3,fig5,fig6,fig7,fig8)")
    print(json.dumps({"figure": fig, "out_dir": args.out_dir},
                     indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="continuantlab",
        description="Bounded-partial-quotient continued fractions at desk scale")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        if out:
            p.add_argument("--out", help="output file path")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("cf", help="canonical continued-fraction expansion")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("enumerate", help="orbit points with d < N")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--spellings", choices=("any", "canonical", "even"),
                   default="any")
    p.add_argument("--representative", choices=("canonical", "orbit"),
                   default="canonical")
    p.add_argument("--mult-out", help="also write the multiplicity table CSV")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker processes for the --mult-out walk (same result for any value)")
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("exceptions", help="empty-fiber continuants below N")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--spellings", choices=("any", "canonical", "even"),
                   default="canonical")
    common(p)
    p.set_defaults(func=_cmd_exceptions)

    p = sub.add_parser("dimension", help="Hausdorff dimension of the limit set")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--nodes", type=int, default=64)
    common(p)
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("ensemble", help="build Omega_N and check invariants")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--sample", type=int, default=500)
    common(p)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("modular", help="mod-q closures and singular series")
    msub = p.add_subparsers(dest="modular_cmd", required=True)
    pc = msub.add_parser("closure")
    pc.add_argument("--alphabet", required=True)
    pc.add_argument("--q", type=int, required=True)
    common(pc)
    pc.set_defaults(func=_cmd_modular)
    ps_ = msub.add_parser("sseries")
    ps_.add_argument("--n", type=int, required=True)
    ps_.add_argument("--P", type=int, required=True)
    common(ps_)
    ps_.set_defaults(func=_cmd_modular)
    pn = msub.add_parser("nu")
    pn.add_argument("--q", type=int, required=True)
    pn.add_argument("--a", type=int, required=True)
    common(pn)
    pn.set_defaults(func=_cmd_modular)
    pa = msub.add_parser("admissible")
    pa.add_argument("--alphabet", required=True)
    pa.add_argument("--d", type=int, required=True)
    pa.add_argument("--qmax", type=int, default=30)
    common(pa)
    pa.set_defaults(func=_cmd_modular)

    p = sub.add_parser("qmc", help="lattice point sets and discrepancy")
    qsub = p.add_subparsers(dest="qmc_cmd", required=True)
    pz = qsub.add_parser("zn")
    pz.add_argument("--b", type=int, required=True)
    pz.add_argument("--d", type=int, required=True)
    pz.add_argument("--drop-origin", action="store_true")
    common(pz)
    pz.set_defaults(func=_cmd_qmc)
    pd = qsub.add_parser("disc")
    pd.add_argument("--in", dest="infile", required=True)
    pd.add_argument("--method", choices=("exact", "sampled"), default="exact")
    common(pd, out=False)
    pd.set_defaults(func=_cmd_qmc)

    p = sub.add_parser("expsum", help="exponential-sum arc profiles")
    esub = p.add_subparsers(dest="expsum_cmd", required=True)
    pp = esub.add_parser("profile")
    pp.add_argument("--alphabet", required=True)
    pp.add_argument("--N", type=int, required=True)
    pp.add_argument("--Q", type=int, required=True)
    pp.add_argument("--K", type=int, required=True)
    common(pp)
    pp.set_defaults(func=_cmd_expsum)

    p = sub.add_parser("repro", help="regenerate the data behind the figures")
    p.add_argument("figure",
                   choices=("fig2", "fig3", "fig5", "fig6", "fig7", "fig8"))
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    common(p, out=False)
    p.set_defaults(func=_cmd_repro)

    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except ResourceError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
