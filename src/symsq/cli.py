"""Command-line interface.

Exit codes: 0 on an answer, 1 only from congruence, when its verdict
is not_congruent or transfer_failed, 2 on input errors and refusals,
with the error's class and message on stderr.  Every answer goes to
stdout, and only there; redirect it to keep it in a file.  All output
is deterministic: JSON is emitted with sorted keys and no timestamps,
so identical inputs give byte-identical reports.  Lambda-lifts are computed in memory, and
``--cache-dir``, naming a directory to keep them in, is the one flag
that writes a file; it is not an input to the output, so a report is
byte-identical with a cold cache, a warm cache or none.

Each subcommand takes only the flags it reads (see _build_parser),
written after it and in full; any other flag exits 2 (argparse).  It
also imports only the layers it runs: prep, specialize and congruence
load iwasawa and padic, never the form and Euler-factor stack.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .errors import SymsqError


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  It refuses the arguments it does not read
    itself, so the error shows its own usage line; argparse would hand
    them back to the top-level parser, whose usage names no flag."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # parent parsers, one per group of flags that some subcommands share
    form = argparse.ArgumentParser(add_help=False)
    form.add_argument("form", help="form record JSON file")
    form.add_argument("--p", type=int, help="override the working prime")
    form.add_argument("--precision", type=int,
                      help="override coefficient precision")
    form.add_argument("--trunc", type=int, help="override the T-truncation")
    lift = argparse.ArgumentParser(add_help=False, parents=[form])
    lift.add_argument("--psi", help="character record file")
    lift.add_argument("--t", type=int, default=0, help="even tame exponent")
    lift.add_argument("--primitive-root", type=int,
                      help="primitive root mod p used for all embeddings")
    lift.add_argument("--cache-dir", help="keep Lambda-lifts in this directory")
    sigma = argparse.ArgumentParser(add_help=False, parents=[lift])
    sigma.add_argument("--s0", required=True,
                       help="comma-separated primes, e.g. 2,3,7")
    sigma.add_argument("--format", choices=("json", "text"), default="json",
                       help="output format (default: json)")

    ap = argparse.ArgumentParser(
        prog="symsq",
        description="exact symmetric-square Euler factors, Lambda-lifts, "
                    "and Iwasawa mu/lambda bookkeeping")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_CommandParser)

    def command(name, summary, *parents):
        return sub.add_parser(name, help=summary, parents=parents,
                              allow_abbrev=False)

    command("euler", "print the local factor P_q", form).add_argument(
        "-q", required=True, help="a prime")
    command("lift", "Lambda-lift of P_q with mu/lambda", lift).add_argument(
        "-q", required=True, help="a prime")
    command("sigma", "sigma table over a prime set", sigma)
    command("prep", "Weierstrass data of a Lambda element").add_argument(
        "element", help="Lambda-element JSON file")
    p_spec = command("specialize", "evaluate at a cyclotomic point")
    p_spec.add_argument("element")
    p_spec.add_argument("-n", type=int, required=True)
    p_cong = command("congruence", "mod-p congruence transfer check")
    p_cong.add_argument("first")
    p_cong.add_argument("second")
    command("report", "full invariant report", sigma).add_argument(
        "--lfun", help="Lambda-element file with the p-adic L-function")
    return ap


def _run_form_command(args):
    """euler, lift, sigma and report: the form and Euler-factor stack."""
    from .characters import DirichletCharacter, trivial_character
    from .cyclotomic import exact_json
    from .harness import invariant_report, lift_factor, load_form, parse_prime
    from .iwasawa import IwasawaElement, invariants, read_json

    def load_character(path):
        if path is None:
            return trivial_character(1)
        return DirichletCharacter.from_json(read_json(path))

    def load():
        return load_form(args.form, p=args.p, precision=args.precision,
                         trunc=args.trunc)

    if args.command == "euler":
        q = parse_prime(args.q, "-q")
        factor = load().euler_factor(q)
        return {"q": q, "degree": factor.degree,
                "coeffs": [exact_json(c) for c in factor.coeffs]}
    if args.command == "lift":
        q = parse_prime(args.q, "-q")
        form = load()
        psi = load_character(args.psi)
        lifted = lift_factor(form, q, psi, args.t,
                             args.primitive_root, args.cache_dir)
        mu, lam = invariants(lifted)
        return {"q": q, "t": args.t, "mu": mu, "lambda": lam,
                "lift": lifted.to_json()}
    form = load()                           # sigma or report
    psi = load_character(args.psi)
    s0 = [parse_prime(q, "S0") for q in args.s0.split(",") if q]
    lfun = (IwasawaElement.from_json(read_json(args.lfun))
            if args.command == "report" and args.lfun else None)
    out = invariant_report(form, psi, args.t, s0, lfun,
                           args.primitive_root, args.cache_dir)
    if args.command == "report":
        out.provenance.update({
            "psi_source": args.psi or "<trivial>",
            "lfun_source": args.lfun, "s0": sorted(set(s0))})
    return out


def _run_lambda_command(args) -> dict:
    """prep, specialize and congruence: Lambda arithmetic only."""
    from .iwasawa import (IwasawaElement, congruence_transfer_check,
                          read_json, specialize, weierstrass_prep)

    def load(path):
        return IwasawaElement.from_json(read_json(path))

    if args.command == "prep":
        w = weierstrass_prep(load(args.element))
        return {"mu": w.mu, "lambda": w.lam, "precision": w.prec,
                "determined_precision": w.determined_precision,
                "distinguished": [str(c) for c in w.distinguished],
                "unit": w.unit.to_json()}
    if args.command == "specialize":
        f = load(args.element)
        value = specialize(f, args.n)
        return {"n": args.n, "p": f.p, "precision": value.prec,
                "value": str(value.residue)}
    f, g = load(args.first), load(args.second)      # congruence
    return congruence_transfer_check(f, g)


def emit_report(report, fmt: str) -> int:
    """Print deterministically to stdout; exit code 1 for a congruence
    verdict that fails (not_congruent, transfer_failed), else 0."""
    if not isinstance(report, dict):        # sigma or report
        if fmt == "text":
            print(report.to_text(), end="")
            return 0
        report = report.to_json()
    # a dict renders as the same JSON in either format
    print(json.dumps(report, sort_keys=True, indent=2))
    return int(report.get("conclusion") in ("transfer_failed",
                                            "not_congruent"))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("prep", "specialize", "congruence"):
            out = _run_lambda_command(args)
        else:
            out = _run_form_command(args)
        # only sigma and report have a text form; a dict is always JSON
        return emit_report(out, getattr(args, "format", "json"))
    except (SymsqError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
