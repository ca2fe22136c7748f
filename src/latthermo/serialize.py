"""Field / point persistence and atomic, deterministic file output."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path

import numpy as np

from .assembly import gradient_periodic
from .lattice import DisplacementField, Supercell
from .spectral import ModeClassification
from .stationary import StationaryPoint, finish_point, tol_grad

__all__ = [
    "atomic_write_text",
    "save_field_csv",
    "load_field_csv",
    "save_point",
    "load_point",
    "certificate_hash",
]

logger = logging.getLogger(__name__)


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _float(s: float) -> str:
    return repr(float(s))


def save_field_csv(path: Path, field: DisplacementField) -> None:
    """Columns l1..ld (integer lattice coordinates), u1..um."""
    cell = field.cell
    d, m = cell.spec.d, cell.spec.m
    rows = [",".join([f"l{i+1}" for i in range(d)] + [f"u{i+1}" for i in range(m)])]
    for x, u in zip(cell.x.tolist(), field.values.tolist()):
        rows.append(",".join([str(v) for v in x] + [_float(v) for v in u]))
    atomic_write_text(Path(path), "\n".join(rows) + "\n")


def load_field_csv(path: Path, cell: Supercell) -> DisplacementField:
    """Read a ``save_field_csv`` file; refused unless it lists every site of
    the cell exactly once, each row with its d + m columns."""
    d, m = cell.spec.d, cell.spec.m
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    if len(header) != d + m or any(len(row) != d + m for row in rows):
        raise ValueError(f"field file rows must have {d + m} columns")
    sites = cell.site_indices(np.array([row[:d] for row in rows], dtype=np.int64).reshape(-1, d))
    distinct = np.unique(sites).size
    if len(rows) != cell.n or distinct != cell.n:
        raise ValueError(f"field file lists {distinct} distinct sites in {len(rows)} rows, "
                         f"cell has {cell.n}")
    values = np.empty((cell.n, m))
    values[sites] = np.array([row[d:] for row in rows], dtype=float)
    return DisplacementField(cell, values)


def certificate_hash(cls: ModeClassification | None) -> str:
    if cls is None:
        return ""
    payload = {"eigs": [repr(float(v)) for v in np.asarray(cls.eigenvalues).ravel()],
               **cls.to_dict()}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def save_point(outdir: Path, name: str, point: StationaryPoint) -> None:
    outdir = Path(outdir)
    save_field_csv(outdir / f"{name}.csv", point.u)
    meta = {
        "kind": point.kind,
        "N": point.N,
        "model_hash": point.model_hash,
        "energy": repr(point.energy),
        "gradient_norm": repr(point.gradient_norm),
        "lam": None if point.lam is None else repr(point.lam),
        "sigma": [repr(point.sigma[0]), repr(point.sigma[1])],
        "n_iter": point.n_iter,
        "route": point.route,
        "certificate": None if point.certificate is None else {
            **point.certificate.to_dict(),
            "eigenvalues": [repr(float(v)) for v in point.certificate.eigenvalues],
            "hash": certificate_hash(point.certificate),
        },
    }
    atomic_write_text(outdir / f"{name}.json", json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_point(outdir: Path, name: str, model, cell: Supercell) -> StationaryPoint | None:
    """Reload a persisted stationary point of this model and cell, revalidated.

    The field file must list every site once, the gradient norm is recomputed
    against ``tol_grad``, and ``finish_point`` re-runs the certificate and
    rebuilds the spectral record; a saddle's stored lam must match the
    certificate's to 1e-8 relative. A point that fails a check is logged by
    check name and not returned, so the caller solves it again.
    """
    outdir = Path(outdir)
    meta_path = outdir / f"{name}.json"
    field_path = outdir / f"{name}.csv"
    if not (meta_path.exists() and field_path.exists()):
        return None
    meta = json.loads(meta_path.read_text())
    if meta["model_hash"] != model.model_hash() or meta["N"] != cell.N:
        return None

    def rejected(check: str, detail: str) -> None:
        logger.warning("resumed point %s failed its %s check (%s); solving it again",
                       name, check, detail)

    try:
        u = load_field_csv(field_path, cell)
    except ValueError as exc:
        return rejected("field", f"{type(exc).__name__}: {exc}")
    gnorm = float(np.linalg.norm(gradient_periodic(model, u)))
    if gnorm > tol_grad(cell):
        return rejected("gradient", f"|g|={gnorm:g} > tol_grad={tol_grad(cell):g}")
    try:
        point = finish_point(model, u, meta["kind"], float(meta["energy"]), gnorm,
                             meta["n_iter"], route=meta.get("route"))
    except RuntimeError as exc:
        return rejected("certificate", f"{type(exc).__name__}: {exc}")
    if point.lam is not None:
        stored = None if meta["lam"] is None else float(meta["lam"])
        if stored is None or abs(stored - point.lam) > 1e-8 * abs(point.lam):
            return rejected("lam", f"stored {stored!r}, certificate {point.lam!r}")
    return point
