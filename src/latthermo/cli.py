"""Command-line surface: check, relax, saddle, entropy, rate, sweep, fit."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import load_config
from .harness import RunConfig, emit, fit_rate, solve_points, sweep
from .potentials import stability_scan
from .serialize import atomic_write_text
from .thermo import entropy_total, htst_rate, renormalised_entropy, site_entropies


def _default_out() -> Path:
    return Path(os.environ.get("LATTHERMO_OUT", "runs"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, type=Path, help="YAML run configuration")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")


def _load(args) -> RunConfig:
    cfg = load_config(args.config, out_override=args.out, seed=args.seed)
    if cfg.out is None:
        cfg.out = _default_out() / cfg.model.name
    return cfg


def _cmd_check(args) -> int:
    cfg = _load(args)
    rep = stability_scan(cfg.model)
    print(f"stability scan: c0={rep.c0:.6g} c1={rep.c1:.6g} "
          f"({'PASS' if rep.passed else 'FAIL'}, {rep.grid_points} k-points)")
    return 0 if rep.passed else 1


def _cmd_relax(args) -> int:
    cfg = _load(args)
    N = args.N or max(cfg.N_list)
    point, _ = solve_points(replace(cfg, saddle="off"), N)
    print(f"minimum at N={N}: E={point.energy!r} |g|={point.gradient_norm:.3e} "
          f"iters={point.n_iter}")
    return 0


def _cmd_saddle(args) -> int:
    cfg = _load(args)
    N = args.N or max(cfg.N_list)
    _, saddle = solve_points(replace(cfg, saddle="on"), N)
    print(f"saddle at N={N}: E={saddle.energy!r} lambda={saddle.lam!r} "
          f"|g|={saddle.gradient_norm:.3e}")
    return 0


def _cmd_entropy(args) -> int:
    cfg = replace(_load(args), saddle="off")
    N = args.N or max(cfg.N_list)
    point, _ = solve_points(cfg, N)
    S = entropy_total(cfg.model, point)
    print(f"S_N at minimum, N={N}: {S!r}")
    if args.sites:
        prof = site_entropies(cfg.model, point)
        out = cfg.out / f"site_entropy_N{N}.csv"
        atomic_write_text(out, prof.to_csv_text())
        payload = prof.to_json_dict(model_hash=cfg.model.model_hash())
        payload["sigma"] = list(point.sigma)
        atomic_write_text(cfg.out / f"site_entropy_N{N}.json",
                          json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"site profile -> {out} (sum {prof.total!r})")
    if args.renormalised:
        if cfg.N_ref is None or cfg.R_sum is None:
            print("renormalised entropy needs run.N_ref and run.R_sum", file=sys.stderr)
            return 2
        # the N point warm-starts the N_ref solve
        ref_point, _ = solve_points(cfg, cfg.N_ref, (point, None) if N <= cfg.N_ref else None)
        ren = renormalised_entropy(cfg.model, ref_point, R_sum=cfg.R_sum)
        # no decay is fitted when every renormalised term vanishes
        decay = "" if ren.decay_fit is None else f" decay={ren.decay_fit.exponent:.2f}"
        print(f"renormalised S (N_ref={cfg.N_ref}, R_sum={cfg.R_sum}): {ren.value!r} "
              f"tail_estimate={ren.tail_estimate:.2e}{decay}")
    return 0


def _cmd_rate(args) -> int:
    cfg = _load(args)
    N = args.N or max(cfg.N_list)
    minimum, saddle = solve_points(replace(cfg, saddle="on"), N)
    rate = htst_rate(cfg.model, minimum, saddle, beta=cfg.beta[0])
    reports = []
    for b in cfg.beta:
        rep = rate.at_beta(b)
        reports.append(rep.to_json_dict())
        print(f"beta={b:g}: K={rep.K!r} logK={rep.logK!r} dE={rep.dE!r} dS={rep.dS!r}"
              + (" [dE<=0 warning]" if rep.direction_warning else ""))
    atomic_write_text(cfg.out / f"rate_N{N}.json",
                      json.dumps(reports, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    table = sweep(cfg)
    files = emit(table, cfg.out, ("csv", "json") if args.format == "both" else (args.format,))
    for f in files:
        print(f"wrote {f}")
    bad = [r for r in table.rows if r["status"] != "ok"]
    for r in bad:
        print(f"N={r['N']}: {r['status']}", file=sys.stderr)
    for col, fit in table.fits.items():
        if "exponent" in fit:
            print(f"fit {col}: exponent {fit['exponent']:+.3f} +- {fit['ci95']:.3f}")
    return 1 if bad else 0


def _cmd_fit(args) -> int:
    with open(args.table) as fh:
        payload = json.load(fh)
    rows = [r for r in payload["rows"] if r["status"] == "ok"]
    errs = [(r["N"], r.get(args.column)) for r in rows if r.get(args.column)]
    if len(errs) < 3:
        print("not enough rows with positive errors", file=sys.stderr)
        return 2
    f = fit_rate(np.array([e[0] for e in errs], float),
                 np.array([e[1] for e in errs], float), log_power=args.log_power)
    print(f"{args.column}: exponent {f.exponent:+.4f} +- {f.ci95:.4f} "
          f"(residual {f.residual:.3g}, {f.n_points} points, {f.dropped} dropped)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latthermo",
        description="Defect formation free energies, site entropies and HTST rates "
                    "on periodic supercells, with size-convergence sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the lattice stability scan")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    for name, fn, extra in [
        ("relax", _cmd_relax, ()),
        ("saddle", _cmd_saddle, ()),
        ("entropy", _cmd_entropy, ("sites", "renormalised")),
        ("rate", _cmd_rate, ()),
    ]:
        p = sub.add_parser(name)
        _add_common(p)
        p.add_argument("--N", type=int, default=None, help="cell size (default: largest in config)")
        if "sites" in extra:
            p.add_argument("--sites", action="store_true", help="emit the per-site profile")
        if "renormalised" in extra:
            p.add_argument("--renormalised", action="store_true",
                           help="also compute the renormalised infinite-lattice value")
        p.set_defaults(func=fn)

    p = sub.add_parser("sweep", help="run the full N-sweep and emit tables")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="refit exponents from an emitted table.json")
    p.add_argument("--table", required=True, type=Path)
    p.add_argument("--column", default="err_E")
    p.add_argument("--log-power", type=float, default=0.0)
    p.set_defaults(func=_cmd_fit)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report and exit nonzero
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
