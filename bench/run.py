"""latthermo benchmark: one workload per call, closed loop, one client.

    python3 bench/run.py --workload dwell_sweep --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. Each call starts the workload in fresh
processes (``worker.py``): one timed process that sets up, warms up on the
smallest cell and repeats the workload for about ``--seconds``, and with
``--trace 0`` set-up-only processes before and after it for ``setup_s``.
BLAS/OpenMP thread counts are pinned for every process. With ``--trace 0``
the last stdout line carries the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it carries the per-layer metrics of a traced run. Every
call also writes a result file under ``bench/results/``.

``--workload all`` runs both workloads one after the other and prints every
metric of each, with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dwell_sweep", "entropy_routes")
THREADS = 1                  # BLAS/OpenMP threads per process, at most nproc
SETUP_SAMPLES = 8            # set-up-only processes; the timed process adds one more
TIME_LIMIT_S = 170.0         # per workload, set-ups included
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "failed_ratio": "1"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _source_digest() -> str:
    """Content hash of the package sources (the checkout need not be a git repo)."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _worker(workload: str, args, env, workdir: Path, deadline: float,
            extra: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--reference", str(HERE / "reference.json"),
           *extra]
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise RuntimeError("time limit reached before the workload started")
    # run() kills the child on timeout and waits for it to end
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, args, spec: dict) -> dict:
    """Set-up samples plus the timed process; writes the result file and
    returns the final JSON object of this workload."""
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    env.update({v: str(THREADS) for v in THREAD_VARS})
    workdir = HERE / ".work" / f"{workload}-{args.seed}-{os.getpid()}"
    results = HERE / "results"
    tag = f"{workload}_seed{args.seed}_trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    # setup_s is an end-to-end metric, so a traced call does not sample it. The
    # host's speed drifts in phases of seconds to minutes, so half of the samples
    # are taken before the timed process and half after it.
    n_setups = 0 if args.trace else SETUP_SAMPLES

    def sample_setups(n: int) -> list[float]:
        return [_worker(workload, args, env, workdir, deadline, ["--setup-only"])["setup_s"]
                for _ in range(n)]

    try:
        before = sample_setups(n_setups // 2)
        extra = ["--spans-out", str(results / f"{tag}_spans.json.gz")] if args.trace else []
        res = _worker(workload, args, env, workdir, deadline, extra)
        after = sample_setups(n_setups - n_setups // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups = before + [res["setup_s"]] + after

    end_to_end = {
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_ratio": res["failed"] / max(res["attempted"], 1),
    }
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_revision": _git_revision(),
            "source_sha256": _source_digest(),
            **res["versions"],
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "nproc_available": len(os.sched_getaffinity(0)),
            "threads": {v: env[v] for v in THREAD_VARS},
            "seed": args.seed,
        },
        "load_model": "closed loop, one client, one workload process",
        "inputs": res["inputs"],
        "end_to_end": end_to_end,
        "setup_samples_s": setups,
        "iterations": res["iterations"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "outputs": res["outputs"],
    }
    if "trace" in res:
        record["per_layer"] = res["trace"]
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for f in res["failures"]:
        print(f"FAILED [{f['stage']}] {f['op']} (iteration {f['iteration']}): {f['error']}")
    if args.trace:
        per_layer = res["trace"]["metrics"]
        for row in res["trace"]["rows"]:
            print(f"{workload} row " + json.dumps(row, sort_keys=True))
        if not res["trace"]["counts_repeat"]:
            print("counts that did not repeat: " + json.dumps(res["trace"]["count_spread"]))
        print(f"{workload} per_layer " + json.dumps(per_layer, sort_keys=True))
        metrics = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        for name, value in end_to_end.items():
            print(f"{workload} {name} = {value:.6g} {E2E_UNITS[name]}")
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and waits for its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "latthermo" / "__init__.py").is_file():
        return _fail(f"no latthermo sources under {ROOT / 'src'}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    finals = {}
    for name in names:
        try:
            finals[name] = run_workload(name, args, spec)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            return _fail(f"{name} did not complete: {exc}")
    # the last line is the machine-read result: one object per call
    print(json.dumps(finals[args.workload] if args.workload != "all" else finals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
