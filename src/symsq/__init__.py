"""Exact-arithmetic machinery for symmetric-square Iwasawa invariants.

Subpackage map: padic/cyclotomic are the exact coefficient rings,
characters adds Dirichlet characters with Gauss sums and Bernoulli
L-values, qexp the Hecke-operator calculus on truncated expansions,
iwasawa the Z_p[[T]] arithmetic with Weierstrass preparation and the
congruence transfer check, euler the symmetric-square local factors and
their Lambda-lifts, harness the form records and reports, and cli the
command line.

Importing the package loads no submodule.  A public name, or a
submodule read as an attribute, imports its module on first use
(PEP 562), so a process loads only the layers it runs.
"""

from importlib import import_module

# module -> the public names it gives the package
_EXPORTS = {
    "characters": ("DirichletCharacter", "gauss_sum", "gen_bernoulli",
                   "l_neg", "trivial_character"),
    "cli": ("emit_report",),
    "cyclotomic": ("CycNumber", "cyc_embed_padic"),
    "errors": ("SymsqError",),
    "euler": ("EulerFactor", "SatakeData", "df_complex", "euler_to_lambda",
              "symsq_factor"),
    "harness": ("FormRecord", "InvariantReport", "invariant_report",
                "load_form"),
    "iwasawa": ("IwasawaElement", "WeierstrassData",
                "congruence_transfer_check", "congruent_mod_p",
                "frobenius_exponent", "specialize", "weierstrass_prep"),
    "padic": ("PAdicInt", "hensel_unit_root", "inv", "padic_log1p",
              "teichmuller"),
    "qexp": ("QExpansion", "deplete", "hecke_U", "p_stabilize", "tau"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
