"""Exact-arithmetic machinery for symmetric-square Iwasawa invariants.

Subpackage map: padic/cyclotomic are the exact coefficient rings,
characters adds Dirichlet characters with Gauss sums and Bernoulli
L-values, qexp the Hecke-operator calculus on truncated expansions,
iwasawa the Z_p[[T]] arithmetic with Weierstrass preparation, euler the
symmetric-square local factors and their Lambda-lifts, and harness the
form records, reports, and CLI plumbing.
"""

from .characters import (DirichletCharacter, gauss_sum, gen_bernoulli, l_neg,
                         tame_wild_split, teichmuller_character,
                         trivial_character)
from .cyclotomic import CycNumber, cyc_embed_padic
from .errors import SymsqError
from .euler import (EulerFactor, SatakeData, assemble_imprimitive, df_complex,
                    ep_factor, euler_to_lambda, symsq_factor)
from .harness import (FormRecord, InvariantReport, congruence_transfer_check,
                      emit_report, invariant_report, load_form)
from .iwasawa import (IwasawaElement, WeierstrassData, congruent_mod_p,
                      frobenius_exponent, one_plus_T_pow, specialize,
                      weierstrass_prep)
from .padic import PAdicInt, hensel_unit_root, inv, padic_log1p, teichmuller
from .qexp import (QExpansion, deplete, hecke_T, hecke_U, hecke_V,
                   p_stabilize, tau, theta)

__all__ = [
    "CycNumber", "DirichletCharacter", "EulerFactor", "FormRecord",
    "InvariantReport", "IwasawaElement", "PAdicInt", "QExpansion",
    "SatakeData", "SymsqError", "WeierstrassData", "assemble_imprimitive",
    "congruence_transfer_check", "congruent_mod_p", "cyc_embed_padic",
    "deplete", "df_complex", "emit_report", "ep_factor", "euler_to_lambda",
    "frobenius_exponent", "gauss_sum", "gen_bernoulli", "hecke_T", "hecke_U",
    "hecke_V", "hensel_unit_root", "inv", "invariant_report", "l_neg",
    "load_form", "one_plus_T_pow", "p_stabilize", "padic_log1p",
    "specialize", "symsq_factor", "tame_wild_split", "tau", "teichmuller",
    "teichmuller_character", "theta", "trivial_character",
    "weierstrass_prep",
]

__version__ = "0.1.0"
