"""N-sweeps, Richardson references, rate fitting and result tables."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fitting import fit_rate
from .lattice import Supercell
from .potentials import PotentialModel, stability_scan
from .serialize import atomic_write_text, certificate_hash, load_point, save_point
from .stationary import (StationaryPoint, _mirror_symmetrizer, continue_in_N, find_saddle,
                         relax_minimum)
from .thermo import entropy_total, htst_rate

__all__ = ["RunConfig", "ConvergenceTable", "solve_points", "sweep", "fit_rate", "richardson",
           "emit"]

SCHEMA_VERSION = 1
FIT_EXCLUDE_LARGEST = 1     # rows held out of rate fits (extrapolation anchors)

ROW_COLUMNS = [
    "N", "n_sites", "status", "E_min", "S_min", "grad_min", "E_saddle", "S_saddle",
    "grad_saddle", "dE", "dS", "K", "lam", "mu", "dS_split_gap", "K_product_gap",
    "cert_min", "cert_saddle",
    "err_E", "err_S", "err_dE", "err_dS", "err_K", "err_lam", "err_mu",
]
ERROR_COLUMNS = [("E_min", "err_E"), ("S_min", "err_S"), ("dE", "err_dE"), ("dS", "err_dS"),
                 ("K", "err_K"), ("lam", "err_lam"), ("mu", "err_mu")]


@dataclass
class RunConfig:
    model: PotentialModel
    N_list: list[int]
    beta: list[float] = field(default_factory=lambda: [1.0])
    seed: int = 0
    out: Path | None = None
    saddle: str = "auto"                    # auto | on | off
    kick_site: tuple | None = None
    kick_vector: np.ndarray | None = None
    N_ref: int | None = None
    R_sum: float | None = None
    max_iter: int = 100

    def __post_init__(self):
        Ns = list(self.N_list)
        if Ns != sorted(Ns) or len(set(Ns)) != len(Ns):
            raise ValueError("N list must be strictly ascending")
        if self.N_ref is not None and Ns and self.N_ref < 2 * max(Ns):
            raise ValueError("N_ref must be at least twice the largest sweep N")
        if any(b <= 0 for b in self.beta):
            raise ValueError("inverse temperatures must be positive")

    @property
    def wants_saddle(self) -> bool:
        if self.saddle == "off":
            return False
        if self.saddle == "on":
            return True
        return self.model.mirror is not None and self.kick_vector is not None


@dataclass
class ConvergenceTable:
    rows: list[dict]
    fits: dict[str, dict]
    limits: dict[str, dict]
    meta: dict

    def ok_rows(self) -> list[dict]:
        return [r for r in self.rows if r["status"] == "ok"]


def richardson(Ns: np.ndarray, values: np.ndarray, exponent: float) -> tuple[float, float]:
    """Limit estimate assuming v_N = v + C N^-p with p fixed at the proved rate.

    Uses the two largest N; the change when substituting the third-largest
    pair is reported as the reference uncertainty.
    """
    if len(Ns) < 3:
        raise ValueError("Richardson reference needs at least 3 values")
    order = np.argsort(Ns)
    Ns, values = np.asarray(Ns, float)[order], np.asarray(values, float)[order]

    def two_point(a: int, b: int) -> float:
        wa, wb = Ns[a] ** -exponent, Ns[b] ** -exponent
        return float((values[b] * wa - values[a] * wb) / (wa - wb))

    best = two_point(-2, -1)
    alt = two_point(-3, -2)
    return best, abs(best - alt)


def solve_points(config: RunConfig, N: int, previous: tuple | None = None):
    """The certified minimum and, if the config wants one, saddle of one cell size.

    ``previous`` is the (minimum, saddle or None) pair of a smaller cell: each
    point starts from its ``continue_in_N`` prolongation. Without one, the
    minimum starts from the kick and the saddle from the midpoint of the
    minimum and its mirror image. Under ``config.out`` a persisted point is
    resumed (revalidated) and a solved one is saved.
    """
    model = config.model
    cell = Supercell(model.spec, N)
    prev_min, prev_saddle = previous or (None, None)
    outdir = None if config.out is None else Path(config.out) / "points"

    def load_or_solve(name: str, solver):
        if outdir is not None:
            cached = load_point(outdir, name, model, cell)
            if cached is not None:
                return cached
        point = solver()
        if outdir is not None:
            save_point(outdir, name, point)
        return point

    def relax():
        guess = None
        if prev_min is not None:
            guess = continue_in_N(model, prev_min, cell)
        elif config.kick_vector is not None and config.kick_site is not None:
            guess = np.zeros((cell.n, cell.spec.m))
            guess[cell.index(config.kick_site)] = config.kick_vector
        return relax_minimum(model, cell, initial_guess=guess, max_iter=config.max_iter)

    minimum = load_or_solve(f"min_N{N}", relax)
    if not config.wants_saddle:
        return minimum, None

    def solve_saddle():
        guess = None
        if prev_saddle is not None:
            guess = continue_in_N(model, prev_saddle, cell)
        elif model.mirror is not None:
            guess = _mirror_symmetrizer(cell, model.mirror)(minimum.u.values)
        return find_saddle(model, cell, initial_guess=guess, max_iter=config.max_iter)

    return minimum, load_or_solve(f"saddle_N{N}", solve_saddle)


def _row(config: RunConfig, minimum: StationaryPoint, saddle: StationaryPoint | None) -> dict:
    """One table row from a cell's points; a saddle adds the pair's one thermo evaluation."""
    row: dict = {k: None for k in ROW_COLUMNS}
    row.update(N=minimum.N, n_sites=minimum.u.cell.n, status="ok", E_min=minimum.energy,
               grad_min=minimum.gradient_norm, cert_min=certificate_hash(minimum.certificate))
    if saddle is None:
        row["S_min"] = entropy_total(config.model, minimum)
        return row
    # S, dS, mu and the cross-checks all come from the pair's one evaluation
    rate = htst_rate(config.model, minimum, saddle, beta=config.beta[0])
    ds = rate.delta_S
    row.update(S_min=ds.S_min, E_saddle=saddle.energy, S_saddle=ds.S_saddle,
               grad_saddle=saddle.gradient_norm, dE=rate.dE, dS=rate.dS,
               K=rate.K, lam=rate.lam, mu=rate.mu,
               dS_split_gap=abs(ds.splitting - ds.direct),
               K_product_gap=(None if rate.product_form_K is None
                              else abs(rate.K - rate.product_form_K) / rate.K),
               cert_saddle=certificate_hash(saddle.certificate))
    for b in config.beta[1:]:
        row[f"K_beta_{b:g}"] = rate.at_beta(b).K
    return row


def solve_row(config: RunConfig, N: int) -> dict:
    """Relax, certify, (optionally) find the saddle and rate for one cell size, from the kick."""
    return _row(config, *solve_points(config, N))


def sweep(config: RunConfig) -> ConvergenceTable:
    """Run the N-sweep, attach error-vs-reference columns and rate fits.

    Rows run in ascending N, each warm-started from the points of the last
    row that succeeded (the kick seeds only the first). A failing stage
    marks its row with the reason, seeds nothing, and the sweep continues.
    Rate fits exclude the largest rows used as extrapolation anchors.
    """
    scan = stability_scan(config.model)
    if not scan.passed:
        raise RuntimeError(f"stability scan failed (c0={scan.c0:g}); refusing to sweep")

    rows: list[dict] = []
    previous = None
    for N in config.N_list:
        try:
            points = solve_points(config, N, previous)
            row = _row(config, *points)
        except Exception as exc:  # noqa: BLE001 - failure is a recorded row state
            row = {k: None for k in ROW_COLUMNS}
            row.update(N=N, status=f"error: {type(exc).__name__}: {exc}")
        else:
            previous = points
        rows.append(row)

    d = config.model.spec.d
    ok = [r for r in rows if r["status"] == "ok"]
    limits: dict[str, dict] = {}
    fits: dict[str, dict] = {}
    for col, errcol in ERROR_COLUMNS:
        vals = [(r["N"], r[col]) for r in ok if r[col] is not None]
        if len(vals) < 3:
            continue
        Ns = np.array([v[0] for v in vals], float)
        ys = np.array([v[1] for v in vals], float)
        if np.allclose(ys, ys[0]):
            limits[col] = {"value": float(ys[0]), "uncertainty": 0.0, "degenerate": True}
            continue
        ref, unc = richardson(Ns, ys, exponent=float(d))
        limits[col] = {"value": ref, "uncertainty": unc, "degenerate": False}
        for r in ok:
            if r[col] is not None:
                r[errcol] = abs(r[col] - ref)
        fit_rows = [r for r in ok if r[errcol] is not None]
        fit_rows = fit_rows[: len(fit_rows) - FIT_EXCLUDE_LARGEST]
        if len(fit_rows) >= 3:
            try:
                f = fit_rate(np.array([r["N"] for r in fit_rows], float),
                             np.array([r[errcol] for r in fit_rows], float))
                fits[col] = {"exponent": f.exponent, "ci95": f.ci95,
                             "residual": f.residual, "n_points": f.n_points,
                             "dropped": f.dropped, "converging": f.converging}
            except ValueError as exc:
                fits[col] = {"error": str(exc)}

    meta = {
        "schema_version": SCHEMA_VERSION,
        "model_hash": config.model.model_hash(),
        "model_name": config.model.name,
        "d": d, "m": config.model.spec.m,
        "N_list": list(config.N_list),
        "beta": list(config.beta),
        "seed": config.seed,
        "stability": {"c0": scan.c0, "c1": scan.c1},
        "fit_protocol": f"pure power on |value - richardson(d={d})| excluding "
                        f"{FIT_EXCLUDE_LARGEST} largest N",
    }
    return ConvergenceTable(rows=rows, fits=fits, limits=limits, meta=meta)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def table_to_csv(table: ConvergenceTable) -> str:
    cols = list(ROW_COLUMNS)
    extra = sorted({k for r in table.rows for k in r} - set(cols))
    cols += extra
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(cols)
    for r in table.rows:
        writer.writerow([_csv_cell(r.get(c)) for c in cols])
    return buf.getvalue()


def table_to_json(table: ConvergenceTable) -> str:
    payload = {"meta": table.meta, "rows": table.rows, "fits": table.fits,
               "limits": table.limits}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def plot_data_csv(table: ConvergenceTable) -> str:
    """Long-format (quantity, N, error) rows for log-log plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(["quantity", "N", "error"])
    for col, errcol in ERROR_COLUMNS:
        for r in table.rows:
            if r.get(errcol):
                writer.writerow([col, r["N"], repr(float(r[errcol]))])
    return buf.getvalue()


def emit(table: ConvergenceTable, outdir: Path,
         formats: tuple[str, ...] = ("csv", "json")) -> list[Path]:
    """Write table files (atomic, byte-deterministic for a fixed config+seed)."""
    outdir = Path(outdir)
    written: list[Path] = []
    try:
        if "csv" in formats:
            p = outdir / "table.csv"
            atomic_write_text(p, table_to_csv(table))
            written.append(p)
            q = outdir / "plotdata.csv"
            atomic_write_text(q, plot_data_csv(table))
            written.append(q)
        if "json" in formats:
            p = outdir / "table.json"
            atomic_write_text(p, table_to_json(table))
            written.append(p)
    except OSError as exc:
        raise OSError(f"failed writing results under {outdir}: {exc}") from exc
    return written
