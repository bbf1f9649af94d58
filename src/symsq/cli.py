"""Command-line interface.

Exit codes: 0 when every reported assertion passes, 1 when a checked
relation fails, 2 on input errors.  All output is deterministic: JSON
is emitted with sorted keys and no timestamps, so identical inputs give
byte-identical reports.  The cache flags (``--cache-dir``, ``--no-cache``)
are not inputs to the output: they only choose where Lambda-lifts are
kept, so a report is byte-identical with a cold cache, a warm cache or
no cache.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from .characters import DirichletCharacter, trivial_character
from .cyclotomic import exact_json
from .errors import SchemaError, SymsqError
from .harness import (congruence_transfer_check, emit_report, invariant_report,
                      lift_factor, load_form)
from .iwasawa import IwasawaElement, invariants, specialize, weierstrass_prep
from .padic import is_prime


def _common_flags() -> argparse.ArgumentParser:
    """Global flags, attachable before or after the subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    s = argparse.SUPPRESS
    common.add_argument("--p", type=int, default=s,
                        help="override the working prime")
    common.add_argument("--precision", type=int, default=s,
                        help="override coefficient precision")
    common.add_argument("--trunc", type=int, default=s,
                        help="override the T-truncation")
    common.add_argument("--primitive-root", type=int, default=s,
                        help="primitive root mod p used for all embeddings")
    common.add_argument("--no-cache", action="store_true", default=s,
                        help="recompute Euler factors instead of using the cache")
    common.add_argument("--cache-dir", default=s,
                        help="content-addressed cache directory")
    common.add_argument("--format", choices=("json", "text"), default=s)
    common.add_argument("--output", default=s, help="write output to a file")
    return common


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    ap = argparse.ArgumentParser(
        prog="symsq",
        parents=[common],
        description="exact symmetric-square Euler factors, Lambda-lifts, "
                    "and Iwasawa mu/lambda bookkeeping")
    sub = ap.add_subparsers(dest="command", required=True)

    p_euler = sub.add_parser("euler", help="print the local factor P_q",
                             parents=[common])
    p_euler.add_argument("form")
    p_euler.add_argument("-q", type=int, required=True)

    p_lift = sub.add_parser("lift", help="Lambda-lift of P_q with mu/lambda",
                            parents=[common])
    p_lift.add_argument("form")
    p_lift.add_argument("-q", type=int, required=True)
    p_lift.add_argument("--psi", default=None, help="character record file")
    p_lift.add_argument("--t", type=int, default=0, help="even tame exponent")

    p_sigma = sub.add_parser("sigma", help="sigma table over a prime set",
                             parents=[common])
    p_sigma.add_argument("form")
    p_sigma.add_argument("--s0", required=True,
                         help="comma-separated primes, e.g. 2,3,7")
    p_sigma.add_argument("--psi", default=None)
    p_sigma.add_argument("--t", type=int, default=0)

    p_prep = sub.add_parser("prep", help="Weierstrass data of a Lambda element",
                            parents=[common])
    p_prep.add_argument("element", help="Lambda-element JSON file")
    p_prep.add_argument("--guard", type=int, default=4)

    p_spec = sub.add_parser("specialize", help="evaluate at a cyclotomic point",
                            parents=[common])
    p_spec.add_argument("element")
    p_spec.add_argument("-n", type=int, required=True)

    p_cong = sub.add_parser("congruence", help="mod-p congruence transfer check",
                            parents=[common])
    p_cong.add_argument("first")
    p_cong.add_argument("second")

    p_rep = sub.add_parser("report", help="full invariant report",
                           parents=[common])
    p_rep.add_argument("form")
    p_rep.add_argument("--s0", required=True)
    p_rep.add_argument("--psi", default=None)
    p_rep.add_argument("--t", type=int, default=0)
    p_rep.add_argument("--lfun", default=None,
                       help="Lambda-element file with the p-adic L-function")
    return ap


def _load_character(arg: str | None) -> DirichletCharacter:
    if arg is None:
        return trivial_character(1)
    return DirichletCharacter.from_json(json.loads(Path(arg).read_text()))


def _load_element(path: str) -> IwasawaElement:
    return IwasawaElement.from_json(json.loads(Path(path).read_text()))


_DEFAULTS = {"p": None, "precision": None, "trunc": None,
             "primitive_root": None, "no_cache": False,
             "cache_dir": ".symsq-cache", "format": "json", "output": None}


def _resolve(args):
    """Fill in defaults for flags the parser left SUPPRESSed."""
    for name, default in _DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    return args


def _parse_s0(text: str) -> list[int]:
    s0 = [int(q) for q in text.split(",") if q]
    if not all(is_prime(q) for q in s0):
        raise SchemaError(f"S0 must hold primes, got {text!r}")
    return s0


def _load_form(args):
    return load_form(args.form, p=args.p, precision=args.precision,
                     trunc=args.trunc)


def main(argv=None) -> int:
    args = _resolve(_build_parser().parse_args(argv))
    cache_dir = None if args.no_cache else args.cache_dir
    try:
        if args.command == "euler":
            form = _load_form(args)
            factor = form.euler_factor(args.q)
            out = {"q": args.q, "degree": factor.degree,
                   "coeffs": [exact_json(c) for c in factor.coeffs]}
            return emit_report(out, args.format, args.output)

        if args.command == "lift":
            form = _load_form(args)
            psi = _load_character(args.psi)
            lifted = lift_factor(form, args.q, psi, args.t,
                                 args.primitive_root, cache_dir)
            mu, lam = invariants(lifted)
            out = {"q": args.q, "t": args.t, "mu": mu, "lambda": lam,
                   "lift": lifted.to_json()}
            return emit_report(out, args.format, args.output)

        if args.command == "sigma":
            form = _load_form(args)
            psi = _load_character(args.psi)
            s0 = _parse_s0(args.s0)
            report = invariant_report(form, psi, args.t, s0, None,
                                      args.primitive_root, cache_dir)
            return emit_report(report, args.format, args.output)

        if args.command == "prep":
            f = _load_element(args.element)
            w = weierstrass_prep(f, guard=args.guard)
            out = {"mu": w.mu, "lambda": w.lam, "precision": w.prec,
                   "distinguished": [str(c) for c in w.distinguished],
                   "unit": w.unit.to_json()}
            return emit_report(out, args.format, args.output)

        if args.command == "specialize":
            f = _load_element(args.element)
            value = specialize(f, args.n)
            out = {"n": args.n, "p": f.p, "precision": value.prec,
                   "value": str(value.residue)}
            return emit_report(out, args.format, args.output)

        if args.command == "congruence":
            f, g = _load_element(args.first), _load_element(args.second)
            out = congruence_transfer_check(f, g, f.p)
            return emit_report(out, args.format, args.output)

        if args.command == "report":
            form = _load_form(args)
            psi = _load_character(args.psi)
            s0 = _parse_s0(args.s0)
            lfun = _load_element(args.lfun) if args.lfun else None
            report = invariant_report(form, psi, args.t, s0, lfun,
                                      args.primitive_root, cache_dir)
            report.provenance.update({
                "psi_source": args.psi or "<trivial>",
                "lfun_source": args.lfun, "s0": sorted(set(s0))})
            return emit_report(report, args.format, args.output)

        raise SymsqError(f"unhandled command {args.command}")
    except (SymsqError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
