"""The four workloads: set-up, one timed item, and the check of its output.

An item is one unit of user work.  ``run`` is the only timed part; it
calls the program (in-process ``symsq.cli.main`` or library functions)
on generated files and arguments.  ``check`` runs untimed afterwards
and compares mathematical content, never whole-report bytes, so a
change to report provenance does not trip it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from collections import Counter
from pathlib import Path

import corpus


def _write_json(path: Path, obj) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def _cli(sq, argv: list[str]) -> tuple[int, str]:
    """One in-process ``symsq`` invocation: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sq.cli.main(argv)
    return rc, buf.getvalue()


def lift_request_key(sq, form, q, psi, t) -> str:
    """What a lift depends on besides the label: (factor, psi, t, p, N, D)."""
    factor = form.euler_factor(q)
    coeffs = [c.to_json() if isinstance(c, sq.cyclotomic.CycNumber) else str(c)
              for c in factor.coeffs]
    return json.dumps([coeffs, psi.to_json(), t, form.p, form.precision,
                       form.trunc], sort_keys=True)


def _grid(records) -> Counter:
    """Histogram of a corpus over the (p, N, D) grid."""
    return Counter("p={} N={} D={}".format(*r["cell"]) for r in records)


def horner_specialize(coeffs: list[int], p: int, prec: int, n: int) -> int:
    """F((1+p)^(1-n) - 1) mod p^prec by plain integer Horner evaluation."""
    m = p**prec
    t0 = (pow(pow(1 + p, n - 1, m), -1, m) - 1) % m
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t0 + c) % m
    return acc


class Workload:
    name = ""
    blocks = 1            # corpus blocks generated at set-up

    def __init__(self, sq, seed: int):
        self.sq, self.seed = sq, seed
        self.items: list = []      # corpus order, whole blocks
        self.block_len = 1         # items per block; every block has one mix
        self.input_write_s = 0.0   # set-up time spent writing input files

    def write_input(self, path: Path, obj) -> str:
        """Write one generated input file, timing the write.  Set-up time
        leaves it out: the program never does it, and on a shared 2-vCPU
        VM creating one file took from 0.05 to 0.7 ms from minute to
        minute."""
        t0 = time.perf_counter()
        out = _write_json(path, obj)
        self.input_write_s += time.perf_counter() - t0
        return out

    def setup(self):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> bool:
        raise NotImplementedError

    def cleanup(self, item):
        """Untimed per-item clean-up after the check."""

    def context(self) -> dict:
        return {}


# -- report corpus workloads --------------------------------------------------


class _ReportBase(Workload):
    def _write_corpus(self):
        self.records = corpus.report_corpus(self.sq, self.seed, self.blocks)
        for rec in self.records:
            rec["form_path"] = self.write_input(
                Path("forms", rec["id"] + ".json"), rec["form"])
            rec["lfun_path"] = self.write_input(
                Path("lfun", rec["lfun_id"] + ".json"), rec["lfun"])
            rec["psi_path"] = (self.write_input(
                Path("psi", rec["id"] + ".json"), rec["psi"])
                if rec["psi"] else None)
        self.block_len = 12

    def _args(self, rec) -> list[str]:
        args = [rec["form_path"], "--s0", ",".join(map(str, rec["s0"])),
                "--t", str(rec["t"])]
        if rec["psi_path"]:
            args += ["--psi", rec["psi_path"]]
        return args

    def context(self) -> dict:
        return {"corpus_records": len(self.records),
                "corpus_grid": _grid(self.records),
                "cyc_nebentype_share": sum(r["cyc_nebentype"]
                                           for r in self.records)
                / len(self.records),
                "repeated_records": sum(r["repeat_of"] is not None
                                        for r in self.records),
                "corpus_repeat_lift_share": self.repeat_lift_share()}

    def repeat_lift_share(self) -> float:
        """Share of the corpus's lift requests already requested earlier."""
        sq, seen, repeats, total = self.sq, set(), 0, 0
        for rec in self.records:
            form = sq.harness.load_form(rec["form_path"])
            psi = (sq.characters.DirichletCharacter.from_json(rec["psi"])
                   if rec["psi"] else sq.characters.trivial_character(1))
            for q in rec["s0"]:
                key = lift_request_key(sq, form, q, psi, rec["t"])
                repeats += key in seen
                total += 1
                seen.add(key)
        return repeats / total


class ReportCold(_ReportBase):
    """symsq report with an empty cache: every lift misses and is written."""

    name = "report-cold"
    blocks = 12

    def setup(self):
        self._write_corpus()
        sq = self.sq
        for rec in self.records:           # validates every record
            sq.harness.load_form(rec["form_path"])
        for p in corpus.REPORT_PRIMES:     # one report per p warms the path
            rec = next(r for r in self.records
                       if r["cell"] == (p, *corpus.GRID[0]))
            item = self._item(rec)
            rc, _ = _cli(sq, item["argv"])
            self.cleanup(item)
            if rc != 0:
                raise RuntimeError(f"warm-up report failed on {rec['id']}")
        self.items = [self._item(rec) for rec in self.records]
        self.digests: dict[str, str] = {}

    def _item(self, rec) -> dict:
        cache = str(Path("cache", rec["id"]))
        return {"rec": rec, "cache": cache,
                "argv": ["report", *self._args(rec), "--lfun",
                         rec["lfun_path"], "--cache-dir", cache]}

    def run(self, item):
        return _cli(self.sq, item["argv"])

    def check(self, item, out) -> bool:
        rc, text = out
        rec, sq = item["rec"], self.sq
        if rc != 0:
            return False
        rep = json.loads(text)
        table = rep["sigma_table"]
        lf = rep["lfun"]
        ok = (rep["passed"] and [r["q"] for r in table] == rec["s0"]
              and all(r["mu"] == 0 for r in table)
              and rep["sigma_total"] == sum(r["sigma"] for r in table)
              and lf["mu"] == 0 and lf["lambda"] == rec["lfun_lambda"]
              and lf["lambda_imprimitive"] == lf["lambda"] + rep["sigma_total"])
        # the same record must render the same bytes on every pass
        ok = ok and self.digests.setdefault(rec["id"], text) == text
        if not ok:
            return False
        # every lift, read back from the cache: specialization at n = 1
        form = sq.harness.load_form(rec["form_path"])
        psi = (sq.characters.DirichletCharacter.from_json(rec["psi"])
               if rec["psi"] else sq.characters.trivial_character(1))
        p, prec, t = form.p, form.precision, rec["t"]
        for row in table:
            q = row["q"]
            key = sq.harness.cache_key(form, q, psi, t, None)
            path = Path(item["cache"], key + ".json")
            lifted = sq.iwasawa.IwasawaElement.from_json(
                json.loads(path.read_text()))
            if sq.iwasawa.invariants(lifted) != (0, row["sigma"]):
                return False
            chi = (sq.cyclotomic.cyc_embed_padic(psi(q), p, prec)
                   * sq.padic.teichmuller(q, p, prec)**t)
            x = chi * sq.padic.inv(sq.padic.PAdicInt(p, prec, q))
            want = sq.euler.evaluate_factor_padic(
                form.euler_factor(q), sq.cyclotomic.CycNumber.one(), x)
            if sq.iwasawa.specialize(lifted, 1) != want:
                return False
        return True

    def cleanup(self, item):
        shutil.rmtree(item["cache"], ignore_errors=True)


class SigmaWarm(_ReportBase):
    """symsq sigma with the cache filled at set-up: every lift is a hit."""

    name = "sigma-warm"
    blocks = 3

    def setup(self):
        self._write_corpus()
        self.items, self.expected = [], {}
        for rec in self.records:           # the fill doubles as warm-up
            argv = ["sigma", *self._args(rec), "--cache-dir", "cache"]
            rc, text = _cli(self.sq, argv)
            if rc != 0:
                raise RuntimeError(f"cache fill failed on {rec['id']}")
            self.expected[rec["id"]] = _sigma_of(json.loads(text))
            self.items.append({"rec": rec, "argv": argv})

    def run(self, item):
        return _cli(self.sq, item["argv"])

    def check(self, item, out) -> bool:
        rc, text = out
        return rc == 0 and (_sigma_of(json.loads(text))
                            == self.expected[item["rec"]["id"]])


def _sigma_of(report: dict):
    return ([(r["q"], r["type"], r["sigma"], r["mu"], r["degree"])
             for r in report["sigma_table"]], report["sigma_total"])


# -- lambda-prep ----------------------------------------------------------------


class LambdaPrep(Workload):
    """prep, specialize -n 1..3 and congruence on generated Lambda-elements."""

    name = "lambda-prep"
    blocks = 12

    def setup(self):
        self.elements = corpus.lambda_corpus(self.seed, self.blocks)
        self.block_len = 9
        for e in self.elements:
            for side in ("f", "g"):
                e[side + "_path"] = self.write_input(
                    Path("lam", f"{e['id']}-{side.upper()}.json"),
                    {"p": e["p"], "precision": e["prec"],
                     "coeffs": [str(c) for c in e[side]]})
        self.items = self.elements
        for p in corpus.LAMBDA_PRIMES:     # one item per p warms the path
            e = next(x for x in self.elements
                     if x["cell"] == (p, *corpus.GRID[0]))
            if not self.check(e, self.run(e)):
                raise RuntimeError(f"warm-up item failed on {e['id']}")

    def run(self, e):
        sq, f = self.sq, e["f_path"]
        out = [_cli(sq, ["prep", f])]
        out += [_cli(sq, ["specialize", f, "-n", str(n)])
                for n in corpus.LAMBDA_SPECIALIZE]
        out.append(_cli(sq, ["congruence", f, e["g_path"]]))
        return out

    def check(self, e, out) -> bool:
        sq, p, prec = self.sq, e["p"], e["prec"]
        (rc, text), specs, (crc, ctext) = out[0], out[1:-1], out[-1]
        if rc != 0:
            return False
        w = json.loads(text)
        data = sq.iwasawa.WeierstrassData(
            p, w["precision"], w["mu"], w["lambda"],
            tuple(int(c) for c in w["distinguished"]),
            sq.iwasawa.IwasawaElement.from_json(w["unit"]))
        if (w["mu"], w["lambda"]) != (e["mu"], e["lam"]):
            return False
        if list(sq.iwasawa.reconstruct(data, e["trunc"]).coeffs) != e["f"]:
            return False
        for n, (nrc, stext) in zip(corpus.LAMBDA_SPECIALIZE, specs):
            got = json.loads(stext) if nrc == 0 else {}
            if got.get("value") != str(horner_specialize(e["f"], p, prec, n)):
                return False
        verdict = json.loads(ctext)
        if e["congruent"]:
            want = "transfer_verified" if e["mu"] == 0 else "no_conclusion"
            return crc == 0 and verdict["congruent"] and \
                verdict["conclusion"] == want
        return crc == 1 and verdict["conclusion"] == "not_congruent"

    def context(self) -> dict:
        return {"corpus_records": len(self.elements),
                "corpus_grid": _grid(self.elements),
                "congruent_share": sum(e["congruent"] for e in self.elements)
                / len(self.elements)}


# -- tables -----------------------------------------------------------------------


class Tables(Workload):
    """Character rows (Gauss-sum norm, L(1-m, chi)) and q-expansion checks."""

    name = "tables"
    blocks = 6

    def setup(self):
        sq = self.sq
        self.items = corpus.tables_corpus(sq, self.seed, self.blocks)
        self.block_len = len(self.items) // self.blocks
        sq.characters.bernoulli_number(corpus.TABLE_M)
        # warm every conductor's tables with its largest-order class, and
        # each q-expansion ring once
        classes = corpus.character_classes(sq)
        for c in range(1, 41):
            orders = [o for (m, o) in classes if m == c]
            if orders:
                chi = classes[(c, max(orders))][0]
                item = {"kind": "char", "chi": chi}
                if not self.check(item, self.run(item)):
                    raise RuntimeError(f"warm-up row failed at conductor {c}")
        for kind in ("qexp_int", "qexp_cyc"):
            item = next(x for x in self.items if x["kind"] == kind)
            if not self.check(item, self.run(item)):
                raise RuntimeError(f"warm-up {kind} check failed")

    def run(self, item):
        sq = self.sq
        if item["kind"] == "char":
            chi = item["chi"]
            ch = sq.characters
            norm = ch.gauss_sum(chi) * ch.gauss_sum(chi.conjugate())
            parity = 0 if chi.is_even() else 1
            values = [ch.l_neg(chi, m) for m in range(1, corpus.TABLE_M + 1)
                      if m % 2 == parity]
            return norm, values
        return self._qexp(item)

    def _qexp(self, item):
        sq = self.sq
        qx, k, p, q = sq.qexp, item["weight"], item["p"], item["q"]
        chi, level = item["character"], item["level"]
        if item["kind"] == "qexp_int":
            coeffs = tuple(item["coeffs"])
            h_un = qx.QExpansion(k, q + 1, chi, coeffs, "int")
            h_or = qx.QExpansion(k, q * (q + 1), chi, coeffs, "int")
            taus = (qx.hecke_U(qx.tau(h_un, q, "unramified"), q),
                    qx.hecke_U(qx.tau(h_or, q, "ordinary"), q))
        g0 = qx.expansion_from_eigenvalues(k, level, chi, item["ap"],
                                           corpus.QEXP_TRUNC)
        if item["kind"] == "qexp_cyc":
            taus = (qx.hecke_U(qx.tau(g0, q, "unramified"), q),
                    qx.hecke_U(qx.tau(g0, level, "ordinary"), level))
        eps_p = chi(p)
        g = qx.p_stabilize(g0, item["ap"][p], eps_p, p, 4)
        c = sq.cyclotomic.cyc_embed_padic(eps_p, p, 4) * p**(k - 1)
        alpha = sq.padic.hensel_unit_root(
            sq.padic.PAdicInt(p, 4, item["ap"][p]), c)
        return taus, qx.hecke_U(g, p), g.scale(alpha), g0.ring

    def check(self, item, out) -> bool:
        sq = self.sq
        if item["kind"] == "char":
            chi, (norm, values) = item["chi"], out
            c = chi.modulus
            if not norm == chi(-1) * c:
                return False
            for p in (5, 7):
                m = c
                while m % p == 0:
                    m //= p
                if c == 1 or m == 1 or chi.order % p == 0:
                    continue       # criterion 9 pairs only
                if any(v.denominator_lcm() % p == 0 for v in values):
                    return False
            return True
        taus, up_g, alpha_g, ring = out
        want_ring = "cyc" if item["kind"] == "qexp_cyc" else "int"
        return (ring == want_ring and all(t.is_zero() for t in taus)
                and up_g.trunc == corpus.QEXP_TRUNC // item["p"]
                and sq.qexp.coeffs_agree(up_g, alpha_g))

    def context(self) -> dict:
        kinds = Counter(item["kind"] for item in self.items)
        return {"corpus_records": len(self.items), "corpus_kinds": kinds,
                "character_classes": len(corpus.character_classes(self.sq))}


WORKLOADS = {w.name: w for w in (ReportCold, SigmaWarm, LambdaPrep, Tables)}
