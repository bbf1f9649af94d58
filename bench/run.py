"""symsq benchmark: one closed-loop client, one process, no threads.

Usage, from the repository root:

    python3 bench/run.py --workload report-cold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --second-seed 2

Each run generates its inputs from --seed, sets up (fresh import of
``src/symsq``, corpus files, warm-up, cache fill) at least SETUPS times
and until SETUP_S seconds have been spent setting up, keeps the last
set-up, then runs whole corpus blocks (each holds the same mix
of work) until --seconds of item time have been measured.  Between
items, every calibrate.EVERY_S of item time, it times a fixed
pure-Python reference kernel; each item's time, and each set-up's, is
scaled by the kernel's speed around it to a fixed host speed
(``calibrate.py``), so that other tenants' load on a shared machine
moves the figures much less.  Every item's output is checked.  With
--trace 0 the last line carries the end-to-end metrics named in
BENCHMARK.json, over every item measured.  With --trace 1 the run sets
up once, splits --seconds between an untraced and a traced phase, and
the last line carries the per-layer metrics (unscaled).

All files live in a temporary directory under ``.bench_work/`` at the
repository root, removed at exit; a traced run leaves its spans in
``.bench_work/traces/<workload>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 3                      # set up at least this many times,
SETUP_S = 2.0                   # and until this much set-up time
MAX_SETUPS = 12
SUBPROCESS_RUNS = 21
MAX_REPORTED_FAILURES = 5
BAND = 0.05                     # half-width of a quantile's band

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import corpus  # noqa: E402
import tracing as spans  # noqa: E402
import workloads  # noqa: E402


def import_fresh():
    """Import ``symsq`` from this checkout's src/, dropping any earlier
    import so that module state and lru_caches start empty."""
    for name in [m for m in sys.modules if m == "symsq" or
                 m.startswith("symsq.")]:
        del sys.modules[name]
    sq = importlib.import_module("symsq")
    importlib.import_module("symsq.cli")
    if Path(sq.__file__).resolve().parent != (SRC / "symsq").resolve():
        raise RuntimeError(f"imported symsq from {sq.__file__}, not {SRC}")
    return sq


# -- the closed loop --------------------------------------------------------


def measure(wl, seconds: float, tracer=None, speed=None) -> dict:
    """Run whole blocks until `seconds` of item time are measured; with
    `speed`, take a calibration sample every calibrate.EVERY_S of item
    time, and WINDOW/2 more at each end."""
    lat: list[float] = []
    at: list[float] = []
    failed = warned = blocks = 0
    busy = since = 0.0
    if speed is not None:
        speed.take(calibrate.WINDOW // 2)
    while busy < seconds:
        start = blocks * wl.block_len % len(wl.items)
        blocks += 1
        for item in wl.items[start:start + wl.block_len]:
            if speed is not None and since >= calibrate.EVERY_S:
                speed.take()
                since = 0.0
            n = len(lat)
            err = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = wl.run(item)
                    else:
                        tracer.begin_item(n)
                        try:
                            out = wl.run(item)
                        finally:
                            tracer.end_item()
                except Exception:
                    err = traceback.format_exc()
                dt = time.perf_counter() - t0
            warned += sum(issubclass(w.category, RuntimeWarning)
                          for w in caught)
            lat.append(dt)
            at.append(t0)
            busy += dt
            since += dt
            if err is None:
                err = _checked(wl, item, out, tracer)
            wl.cleanup(item)
            if err is not None:
                failed += 1
                if failed <= MAX_REPORTED_FAILURES:
                    print(f"{wl.name}: item {n} failed\n{err}",
                          file=sys.stderr)
    if speed is not None:
        speed.take(calibrate.WINDOW // 2)
    return {"lat": lat, "at": at, "failed": failed, "warnings": warned,
            "busy": busy, "blocks": blocks}


def band_quantile(values: list[float], q: float) -> float:
    """Mean of the samples from quantile q - BAND to q + BAND.  Item
    costs cluster by corpus cell, and a plain quantile that falls in a
    gap between clusters jumps across it with a few percent of noise;
    the band's mean moves with the noise only."""
    ranked = sorted(values)
    n = len(ranked)
    return statistics.fmean(ranked[int((q - BAND) * n):
                                   int((q + BAND) * n) + 1])


def _checked(wl, item, out, tracer) -> str | None:
    """None when the item's output passes its check, else the reason."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if tracer is None:
                ok = wl.check(item, out)
            else:
                with tracer.paused():
                    ok = wl.check(item, out)
    except Exception:
        return traceback.format_exc()
    return None if ok else "output check failed"


# -- one workload, one seed --------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> tuple[dict, dict]:
    """(result line, context) for one run."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    cwd = os.getcwd()
    try:
        setup_raw, setup_s = [], []
        while True:
            here = workdir / f"setup-{len(setup_raw)}"
            here.mkdir()
            os.chdir(here)
            gc.collect()
            around = calibrate.Speed()
            around.take(calibrate.WINDOW // 2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                t0 = time.perf_counter()
                sq = import_fresh()
                wl = workloads.WORKLOADS[name](sq, seed)
                wl.setup()
                setup_raw.append(time.perf_counter() - t0
                                 - wl.input_write_s)
            around.take(calibrate.WINDOW // 2)
            setup_s.append(setup_raw[-1] * around.scale(t0))
            if trace or len(setup_raw) == MAX_SETUPS or (
                    len(setup_raw) >= SETUPS and sum(setup_raw) >= SETUP_S):
                break
            os.chdir(workdir)
            shutil.rmtree(here)
        gc.collect()
        # a traced run splits its measuring time between the two phases,
        # and its untraced phase only gives the tracing overhead
        speed = None if trace else calibrate.Speed()
        plain = measure(wl, seconds / 2 if trace else seconds, speed=speed)
        lat = plain["lat"]
        ctx = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": int(trace), **machine_context(),
               "setup_s_raw": setup_raw, "setup_s_scaled": setup_s,
               "items": len(lat),
               "block_items": wl.block_len, "blocks": plain["blocks"],
               "p90_samples_beyond": len(lat) - int(0.9 * (len(lat) + 1)),
               **wl.context()}
        if speed is not None:
            lat = [dt * speed.scale(t) for dt, t in zip(lat, plain["at"])]
            ctx.update({
                "raw_items_per_s": len(lat) / plain["busy"],
                "calibration_samples": len(speed.took),
                "calibration_ms_quartiles": [
                    q * 1e3 for q in statistics.quantiles(speed.took, n=4)]})
        attempted, failed = len(plain["lat"]), plain["failed"]
        if not trace:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "items_per_s": len(lat) / sum(lat),
                "item_p50_ms": band_quantile(lat, 0.5) * 1e3,
                "item_p90_ms": band_quantile(lat, 0.9) * 1e3,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            names = spec["end_to_end"]
        else:
            tracer = spans.Tracer()
            tracer.install(sq)
            try:
                traced = measure(wl, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            sub_ms, sub_ok = subprocess_p50_ms(sq, seed)
            attempted += len(traced["lat"]) + 1
            failed += traced["failed"] + (not sub_ok)
            path = WORK / "traces" / f"{name}.jsonl.gz"
            tracer.write(path)
            ctx["trace_file"] = str(path.relative_to(ROOT))
            ctx["traced_items"] = len(traced["lat"])
            names = spec["per_layer"]
            metrics = layer_metrics([m["name"] for m in names], sq, wl,
                                    tracer, plain, traced, sub_ms,
                                    failed / attempted)
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in names}
        return ({"correct": failed == 0, "attempted": attempted,
                 "failed": failed, "metrics": out}, ctx)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(names, sq, wl, tracer, plain, traced, sub_ms,
                  error_rate) -> dict:
    """Per-item layer numbers derived from the traced phase's spans;
    `<module>.<function>.calls_per_item` and `.self_ms_per_item` are
    read off the spans for any wrapped function named in `names`."""
    n = len(traced["lat"])
    calls, self_ns = tracer.self_times()
    lifts = calls["harness.lift_factor"]
    span_names = [s[0] for s in tracer.spans]
    misses = sum(1 for s in tracer.spans if s[0] == "euler.euler_to_lambda"
                 and s[3] >= 0 and span_names[s[3]] == "harness.lift_factor")
    item_ns = sum(s[2] - s[1] for s in tracer.spans if s[0] == spans.ITEM)
    layer_ns = sum(v for k, v in self_ns.items() if k != spans.ITEM)
    seen, repeats, first_pass = set(), 0, 0
    for item, form, q, psi, t in tracer.lift_requests:
        if item < len(wl.items):
            key = workloads.lift_request_key(sq, form, q, psi, t)
            repeats += key in seen
            first_pass += 1
            seen.add(key)
    out = {
        "error_rate": error_rate,
        "trace.overhead_ratio": (len(plain["lat"]) / plain["busy"])
        / (n / traced["busy"]),
        "trace.layer_self_share": layer_ns / item_ns,
        "trace.item_ms": item_ns / 1e6 / n,
        "iwasawa.mul.terms_per_item": tracer.counters["iwasawa.mul.terms"] / n,
        "harness.cache.hit_ratio": (lifts - misses) / lifts if lifts else 0.0,
        "harness.cache.hits_per_item": (lifts - misses) / n,
        "harness.cache.misses_per_item": misses / n,
        "harness.cache.bytes_written_per_item":
            tracer.counters["harness.cache.bytes_written"] / n,
        "harness.repeat_lift_share": repeats / first_pass if first_pass
        else 0.0,
        "harness.warnings_per_item": traced["warnings"] / n,
        "cli.subprocess_p50_ms": sub_ms,
    }
    for name in names:
        fn, _, stat = name.rpartition(".")
        if stat == "calls_per_item":
            out[name] = calls[fn] / n
        elif stat == "self_ms_per_item":
            out[name] = self_ns[fn] / 1e6 / n
    return out


def subprocess_p50_ms(sq, seed: int) -> tuple[float, bool]:
    """Median wall time of ``python -m symsq.cli sigma`` with a warm cache."""
    rec = corpus.report_corpus(sq, seed, 1)[0]
    here = Path("subproc")
    workloads._write_json(here / "form.json", rec["form"])
    argv = [sys.executable, "-m", "symsq.cli", "sigma", "form.json",
            "--s0", ",".join(map(str, rec["s0"])), "--t", str(rec["t"]),
            "--cache-dir", "cache"]
    if rec["psi"]:
        workloads._write_json(here / "psi.json", rec["psi"])
        argv += ["--psi", "psi.json"]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def once():
        return subprocess.run(argv, cwd=here, env=env, capture_output=True,
                              text=True, timeout=120)
    fill = once()                      # cold: fills the cache
    ok, times = fill.returncode == 0, []
    for _ in range(SUBPROCESS_RUNS):
        t0 = time.perf_counter()
        done = once()
        times.append(time.perf_counter() - t0)
        ok = ok and done.returncode == 0 and done.stdout == fill.stdout
    return statistics.median(times) * 1e3, ok


def machine_context() -> dict:
    return {"git_sha": git_sha(), "src_sha256": src_digest(),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get(
                "PYTHONDONTWRITEBYTECODE")}


def src_digest() -> str:
    """sha256 over src/'s Python files, for checkouts without .git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- command line -------------------------------------------------------------


def print_result(result: dict, ctx: dict):
    print("context " + json.dumps(ctx, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")


def run_many(args, names: list[str]) -> int:
    """Each (workload, seed) in its own process; prints all, then a
    combined result line."""
    seeds = [args.seed] + ([args.second_seed] if args.second_seed is not None
                           else [])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for seed in seeds:
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            print(f"== {name} seed {seed} (exit {done.returncode})")
            if done.returncode != 0 or not lines:
                print("\n".join(lines))
                combined["correct"] = False
                continue
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for metric, value in res["metrics"].items():
                combined["metrics"][f"{name}.seed{seed}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--second-seed", type=int, default=None,
                    help="also run this seed, to check a claim on a seed "
                         "not used while making it")
    args = ap.parse_args(argv)
    if not (SRC / "symsq" / "__init__.py").is_file():
        print(f"error: no symsq package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" or args.second_seed is not None:
        return run_many(args, names if args.workload == "all"
                        else [args.workload])
    sys.path.insert(0, str(SRC))
    result, ctx = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), spec)
    print_result(result, ctx)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
