"""One workload in a fresh process: set-up, timed iterations, checks, traces.

Started by ``run.py``; prints one JSON payload as its last stdout line.
Only the standard library is imported before the set-up timer starts, so
``setup_s`` covers the numpy/scipy/latthermo imports as well.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing              # standard library only at import time

MIN_ITERATIONS = 2          # timed ones; the byte-identity check needs two sweeps in one run


def _import_checkout(root: Path):
    sys.path.insert(0, str(root / "src"))
    import latthermo

    where = Path(latthermo.__file__).resolve()
    if root / "src" not in where.parents:
        raise RuntimeError(f"latthermo imported from {where}, not from this checkout")
    return latthermo


def _versions() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except Exception:  # noqa: BLE001 - version report only
            return None

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas(numpy),
            "scipy_openblas": blas(scipy)}


def _timed(fn):
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - w0, time.process_time() - c0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--reference", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    _import_checkout(args.root)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = json.loads(args.reference.read_text())[args.workload]

    iterations: list[dict] = []
    traced: list[tuple] = []          # (layer metrics, row routes) per traced iteration
    last_tracer = None
    first_outputs = None
    attempted = failed = 0
    failures: list[dict] = []

    def record(ops: list[dict], it) -> list[dict]:
        """Count operations as attempted and the failed ones as failed."""
        nonlocal attempted, failed
        bad = [o for o in ops if not o["ok"]]
        attempted += len(ops)
        failed += len(bad)
        failures.extend({"iteration": it, **o} for o in bad)
        return bad

    def one(it: int, with_trace: bool):
        nonlocal first_outputs, last_tracer
        tr = patcher = None
        if with_trace:
            tr = tracing.Tracer()
            patcher = tracing.install(tr)
        try:
            if tr is not None:
                root_span = tr.open("workload")
            (outputs, ops), wall, cpu = _timed(lambda: wl.run_once(it))
            if tr is not None:
                tr.close(root_span)
        finally:
            if patcher is not None:
                patcher.restore()
        ops = ops + wl.check(outputs, reference, first_outputs)
        if first_outputs is None:
            first_outputs = outputs
        bad = record(ops, it)
        iterations.append({"iteration": it, "traced": with_trace, "wall_s": wall,
                           "cpu_s": cpu, "ops": len(ops), "failed": len(bad)})
        if tr is not None:
            traced.append((tracing.layer_metrics(tr), tracing.row_routes(tr)))
            last_tracer = tr

    # an untimed warm-up on the smallest cell takes the process's first-call
    # costs, so every timed iteration runs warm
    record(wl.warm_up(), "warm_up")

    # untraced runs repeat while another iteration fits in the run length;
    # traced runs alternate untraced and traced iterations, starting untraced
    need = 4 if args.trace else MIN_ITERATIONS
    t_start = time.perf_counter()
    it = 0
    while True:
        one(it, bool(args.trace) and it % 2 == 1)
        it += 1
        walls = [r["wall_s"] for r in iterations]
        elapsed = time.perf_counter() - t_start
        done = elapsed + statistics.median(walls) > args.seconds
        if it >= need and done and (not args.trace or it % 2 == 0):
            break

    untraced = [r for r in iterations if not r["traced"]]
    payload = {
        "setup_s": setup_s,
        "versions": _versions(),
        "iterations": iterations,
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "outputs": {k: v for k, v in (first_outputs or {}).items() if not k.startswith("_")},
        "inputs": wl.inputs(),
    }
    if traced:
        payload["trace"] = _trace_summary(traced, iterations)
        if args.spans_out is not None and last_tracer is not None:
            with gzip.open(args.spans_out, "wt") as fh:
                json.dump(last_tracer.span_table(), fh)
    print(json.dumps(payload))
    return 0


def _trace_summary(traced, iterations) -> dict:
    """Median per-layer times over traced iterations, counts from the first one,
    and the exact-repeat check of every count between traced iterations."""
    metrics = [m for m, _ in traced]
    summary = {}
    spread = {}
    for name, unit in tracing.LAYER_UNITS.items():
        vals = [m[name] for m in metrics]
        if unit == "s":
            summary[name] = statistics.median(vals)
        else:
            summary[name] = vals[0]
            if any(v != vals[0] for v in vals):
                spread[name] = [min(vals), max(vals)]
    walls_t = [r["wall_s"] for r in iterations if r["traced"]]
    walls_u = [r["wall_s"] for r in iterations if not r["traced"]]
    summary["trace.overhead_s"] = statistics.median(walls_t) - statistics.median(walls_u)
    return {
        "metrics": summary,
        "traced_iterations": len(traced),
        "counts_repeat": not spread,
        "count_spread": spread,
        "rows": traced[0][1],
    }


if __name__ == "__main__":
    sys.exit(main())
