"""Command-line interface.

Subcommands cover every part of the library: exact values, certified
series evaluation, asymptotics, the error table, Farey/Ford data, Dedekind
sums, A_k sums, Bessel evaluation, and the transformation-law verifiers.
The module parses arguments and prints results; the library owns the rest,
the ``verify`` case streams (:mod:`partitions.modular`) and the int-to-str
lift ``series`` prints under (:mod:`partitions.precision`) included.

Exit codes: 0 on success, 1 when a verification or series certification
fails (and for I/O trouble), 2 for usage errors: argparse checks the
arguments' syntax, and the library function that receives a value checks
it and raises ValueError (``PrecisionContext`` refuses a --prec outside 64
to ``MAX_BITS`` = 4096 bits).  All error text goes to stderr.  Output is
deterministic for fixed arguments: summation orders, sample schedules, and
precision policies contain no randomness.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from .exact import PartitionCache, cache_load, cache_lookup, cache_save, p_exact

# The mpmath-backed modules, json and fractions are imported inside the
# handlers that use them, so `partitions exact N` never pays for them.

CACHE_ENV_VAR = "PARTITIONS_CACHE"


def _frac_str(x) -> str:
    """Fraction ``x`` as "p/q"; not annotated, as only the commands that use it import fractions."""
    return f"{x.numerator}/{x.denominator}"


@contextmanager
def _p_values(path, ns):
    """[p(n) for n in ns], each looked up in the cache file at ``path`` by
    :func:`cache_lookup`.  If any is not found, the whole file is read (an
    empty table if there is none), which names its first damaged line, and
    the table is extended and saved once the block ends without error."""
    exists = bool(path) and os.path.exists(path)
    hits = [cache_lookup(path, n) for n in ns] if exists else None
    if hits is not None and None not in hits:
        yield hits
        return
    cache = cache_load(path) if exists else PartitionCache()
    loaded_max_n = cache.max_n if exists else -1
    yield [p_exact(n, cache) for n in ns]
    if path and cache.max_n > loaded_max_n:
        cache_save(cache, path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partitions",
        description="Integer partition counts, exactly and via the convergent series.",
    )
    parser.add_argument(
        "--format",
        choices=("plain", "csv", "json"),
        default="plain",
        help="output format where the subcommand supports a choice",
    )
    parser.add_argument(
        "--cache",
        default=os.environ.get(CACHE_ENV_VAR),
        metavar="PATH",
        help=f"partition value cache file (default: ${CACHE_ENV_VAR})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="p(n) by the pentagonal recurrence")
    p.set_defaults(run=_cmd_exact)
    p.add_argument("n", type=int)

    p = sub.add_parser("series", help="certified series evaluation of p(n), JSON report")
    p.set_defaults(run=_cmd_series)
    p.add_argument("n", type=int)

    p = sub.add_parser("asym", help="leading term L(n) and relative error")
    p.set_defaults(run=_cmd_asym)
    p.add_argument("n", type=int)

    p = sub.add_parser("table", help="error table as CSV")
    p.set_defaults(run=_cmd_table)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", choices=("paper",), dest="table_set",
                       help="the built-in reference grid 10..15000")
    group.add_argument("--list", dest="table_list", metavar="N1,N2,...",
                       help="comma-separated n values")

    p = sub.add_parser("farey", help="Farey sequence of the given order as CSV")
    p.set_defaults(run=_cmd_farey)
    p.add_argument("order", type=int, metavar="N")

    p = sub.add_parser("ford", help="w-plane chord data for the contour of order N as CSV")
    p.set_defaults(run=_cmd_ford)
    p.add_argument("order", type=int, metavar="N")

    p = sub.add_parser("dedekind", help="exact Dedekind sum s(h,k) as num/den")
    p.set_defaults(run=_cmd_dedekind)
    p.add_argument("h", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("ak", help="A_k(n) as a decimal")
    p.set_defaults(run=_cmd_ak)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--prec", type=int, default=128)

    p = sub.add_parser("bessel", help="I_{3/2}(x) by series and closed form")
    p.set_defaults(run=_cmd_bessel)
    p.add_argument("x")
    p.add_argument("--prec", type=int, default=128)

    p = sub.add_parser("verify", help="numerical checks of the transformation laws")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("what", choices=("eta", "ftransform"))
    p.add_argument("--samples", type=int, default=24)
    p.add_argument("--prec", type=int, default=128)

    return parser


def _cmd_exact(args) -> int:
    with _p_values(args.cache, [args.n]) as (value,):
        pass
    if args.format == "json":
        import json

        print(json.dumps({"n": args.n, "p": str(value)}))
    elif args.format == "csv":
        print("n,p_n")
        print(f"{args.n},{value}")
    else:
        print(value)
    return 0


def _cmd_series(args) -> int:
    import json

    from mpmath import mp

    from .precision import unlimited_int_str
    from .rademacher import CertificationError, p_series

    try:
        report = p_series(args.n)
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with unlimited_int_str():
        payload = {
            "n": report.n,
            "prec_bits": report.prec,
            "n_terms_used": report.n_terms_used,
            "terms": [
                {"k": t.k, "a_k": mp.nstr(t.a_k, 20), "r_k": mp.nstr(t.r_k, 20)}
                for t in report.terms
            ],
            "partial_sum": mp.nstr(report.partial_sum, 40),
            "rounded": str(report.rounded),
            "gap": mp.nstr(report.gap, 10),
            "truncation_bound": f"{report.truncation_bound:.10g}",
            "float_error_bound": f"{report.float_error_bound:.10g}",
        }
    print(json.dumps(payload))
    return 0


def _cmd_asym(args) -> int:
    from mpmath import mp

    from .asymptotics import display_eps, error_row, error_table_csv

    with _p_values(args.cache, [args.n]) as (p_n,):
        row = error_row(args.n, p_n)
    if args.format == "json":
        import json

        print(json.dumps({
            "n": row.n,
            "p": str(row.p_n),
            "L": mp.nstr(row.l_n, 20),
            "eps_percent": display_eps(row.eps_percent),
        }))
    elif args.format == "csv":
        print(error_table_csv([row]))
    else:
        print(f"L({row.n}) = {mp.nstr(row.l_n, 20)}")
        print(f"eps_percent = {display_eps(row.eps_percent)}")
    return 0


def _cmd_table(args) -> int:
    from .asymptotics import TABLE_NS, error_row, error_table_csv

    if args.table_set == "paper":
        ns = list(TABLE_NS)
    else:
        try:
            ns = [int(part) for part in args.table_list.split(",")]
        except ValueError:
            raise ValueError("--list expects comma-separated integers") from None
    with _p_values(args.cache, ns) as values:
        rows = [error_row(n, p_n) for n, p_n in zip(ns, values)]
    print(error_table_csv(rows))
    return 0


def _cmd_farey(args) -> int:
    from .farey import farey_sequence

    fractions = farey_sequence(args.order)
    print("h,k")
    for frac in fractions:
        print(f"{frac.numerator},{frac.denominator}")
    return 0


def _cmd_ford(args) -> int:
    from .farey import contour_triples, w_chord

    triples = contour_triples(args.order)
    print("h,k,k1,k2,w1_re,w1_im,w2_re,w2_im")
    for prev, mid, nxt in triples:
        chord = w_chord(prev, mid, nxt, args.order)
        print(
            f"{mid.numerator},{mid.denominator},{chord.k1},{chord.k2},"
            f"{_frac_str(chord.w1.re)},{_frac_str(chord.w1.im)},"
            f"{_frac_str(chord.w2.re)},{_frac_str(chord.w2.im)}"
        )
    return 0


def _cmd_dedekind(args) -> int:
    from .dedekind import dedekind_sum

    print(_frac_str(dedekind_sum(args.h, args.k)))
    return 0


def _cmd_ak(args) -> int:
    from mpmath import mp

    from .precision import PrecisionContext
    from .rademacher import a_k

    value = a_k(args.k, args.n, PrecisionContext(args.prec))
    print(mp.nstr(value, 20))
    return 0


def _cmd_bessel(args) -> int:
    from mpmath import mp

    from .bessel import bessel_i_3_2_closed, bessel_i_series
    from .precision import PrecisionContext

    ctx = PrecisionContext(args.prec)
    series = bessel_i_series(1.5, args.x, ctx)
    closed = bessel_i_3_2_closed(args.x, ctx)
    with ctx.workprec():
        diff = abs(series - closed)
    print(f"series = {mp.nstr(series, 30)}")
    print(f"closed = {mp.nstr(closed, 30)}")
    print(f"abs_diff = {mp.nstr(diff, 5)}")
    return 0


def _cmd_verify(args) -> int:
    from mpmath import mp, mpf

    from .modular import eta_verification_cases, f_transform_cases, verify_eta, verify_f_transform
    from .precision import PrecisionContext

    ctx = PrecisionContext(args.prec)
    # the context works at prec + GUARD_BITS, so a case that keeps the width
    # it was asked for leaves a residual near 2^(-prec-12)
    tolerance = mpf(2) ** -ctx.bits
    if args.what == "eta":
        checks = (
            (f"eta {matrix} tau={mp.nstr(tau, 6)}", verify_eta(matrix, tau, ctx).residual)
            for matrix, tau in eta_verification_cases(args.samples)
        )
    else:
        checks = (
            (f"ftransform (h,k)=({h},{k}) z={mp.nstr(z, 6)}", verify_f_transform(h, k, z, ctx))
            for h, k, z in f_transform_cases(args.samples)
        )
    failures = 0
    worst = mpf(0)
    for label, residual in checks:
        ok = residual < tolerance
        failures += 0 if ok else 1
        worst = max(worst, residual)
        print(f"{label}: residual = {mp.nstr(residual, 5)} [{'ok' if ok else 'FAIL'}]")
    print(
        f"{args.samples} cases, worst residual {mp.nstr(worst, 5)}, "
        f"tolerance {mp.nstr(tolerance, 5)}: "
        f"{'all ok' if failures == 0 else f'{failures} FAILED'}"
    )
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
