"""YAML run configuration: lattice, potential model and sweep parameters."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from .lattice import ConfigurationError, LatticeSpec
from .harness import RunConfig
from .potentials import (
    HarmonicBondPotential,
    MorseBondPotential,
    PotentialModel,
    preset_model,
)

__all__ = ["load_config", "model_from_config"]

RUN_KEYS = ("N_list", "beta", "seed", "out", "saddle", "kick", "N_ref", "R_sum", "max_iter")
POTENTIAL_KEYS = {"harmonic": ("kind", "classes", "scale", "b_radial"),
                  "morse": ("kind", "classes", "scale", "shift")}
CLASS_KEYS = {"harmonic": ("len", "k"), "morse": ("len", "D", "a")}
PRESET_KICKS = {
    "square_double_well": ((0, 0), (0.12, 0.0)),
    "square_misfit": None,
}


def _check_keys(section: dict, known: tuple[str, ...], where: str) -> None:
    """Refuse the keys of a config section that the loader does not read."""
    unknown = sorted(map(str, set(section) - set(known)))
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s) {', '.join(unknown)}; "
                                 f"known keys: {', '.join(known)}")


def _lattice_from_config(cfg: dict) -> LatticeSpec:
    _check_keys(cfg, ("A", "B", "m", "r_cut"), "lattice")
    return LatticeSpec(
        A=np.asarray(cfg["A"], dtype=float),
        B=np.asarray(cfg["B"], dtype=float),
        m=int(cfg["m"]),
        r_cut=float(cfg["r_cut"]),
    )


def _classes_to_bonds(spec: LatticeSpec, classes: list[dict], key: str) -> np.ndarray:
    lens = np.linalg.norm(spec.stencil, axis=1)
    out = np.zeros(spec.nR)
    assigned = np.zeros(spec.nR, dtype=bool)
    for cls in classes:
        sel = np.abs(lens - float(cls["len"])) < 1e-9
        out[sel] = float(cls[key])
        assigned |= sel
    if not assigned.all():
        raise ConfigurationError(f"bond classes leave stencil lengths {set(np.round(lens[~assigned], 6))} unassigned")
    return out


def _potential_from_config(spec: LatticeSpec, cfg: dict):
    kind = cfg.get("kind", "morse")
    if kind not in POTENTIAL_KEYS:
        raise ConfigurationError(f"unknown potential kind '{kind}'")
    _check_keys(cfg, POTENTIAL_KEYS[kind], f"{kind} potential")
    for cls in cfg["classes"]:
        _check_keys(cls, CLASS_KEYS[kind], f"{kind} bond class")
    scale = float(cfg.get("scale", 1.0))
    if kind == "harmonic":
        lens = np.linalg.norm(spec.stencil, axis=1)
        K = np.zeros((spec.nR, spec.m, spec.m))
        k_per_bond = _classes_to_bonds(spec, cfg["classes"], "k")
        for i in range(spec.nR):
            nhat = spec.stencil[i] / lens[i]
            K[i] = k_per_bond[i] * (np.outer(nhat, nhat) if spec.m == spec.d
                                    else np.eye(spec.m))
        b = None
        if cfg.get("b_radial"):
            b = float(cfg["b_radial"]) * spec.stencil / lens[:, None]
        return HarmonicBondPotential(spec.stencil, spec.m, scale * K, b=b)
    D = _classes_to_bonds(spec, cfg["classes"], "D")
    a = _classes_to_bonds(spec, cfg["classes"], "a")
    shift = float(cfg.get("shift", 0.0))
    return MorseBondPotential.from_morse(spec.stencil, spec.m, scale * D, a,
                                         shift=shift if shift else None)


def model_from_config(cfg: dict) -> PotentialModel:
    """Build a model from a config mapping: a preset name or explicit tables.

    A key that the loader does not read raises ConfigurationError naming it.
    """
    if "preset" in cfg:
        _check_keys(cfg, ("preset",), "preset model")
        return preset_model(cfg["preset"])
    _check_keys(cfg, ("name", "lattice", "potential", "overrides", "mirror"), "model")
    spec = _lattice_from_config(cfg["lattice"])
    hom = _potential_from_config(spec, cfg["potential"])
    overrides = {}
    for key, ocfg in (cfg.get("overrides") or {}).items():
        site = tuple(int(v) for v in str(key).split(","))
        overrides[site] = _potential_from_config(spec, ocfg)
    mirror = None if cfg.get("mirror") is None else np.asarray(cfg["mirror"])
    return PotentialModel(spec, hom, overrides, name=cfg.get("name", "config"),
                          mirror=mirror)


def load_config(path: Path, out_override: Path | None = None,
                seed: int | None = None) -> RunConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    _check_keys(raw, ("model", "run"), "top-level")
    model = model_from_config(raw["model"])
    run = raw.get("run") or {}
    _check_keys(run, RUN_KEYS, "run")
    kick = run.get("kick")
    if kick is None and raw["model"].get("preset") in PRESET_KICKS:
        kick = PRESET_KICKS[raw["model"]["preset"]]
        kick = None if kick is None else {"site": kick[0], "vector": kick[1]}
    kick_site = tuple(kick["site"]) if kick else None
    kick_vector = np.asarray(kick["vector"], dtype=float) if kick else None
    out = out_override or run.get("out")
    return RunConfig(
        model=model,
        N_list=[int(v) for v in run.get("N_list", [4, 6, 8, 12])],
        beta=[float(b) for b in run.get("beta", [1.0])],
        seed=seed if seed is not None else int(run.get("seed", 0)),
        out=Path(out) if out else None,
        saddle=run.get("saddle", "auto"),
        kick_site=kick_site,
        kick_vector=kick_vector,
        N_ref=None if run.get("N_ref") is None else int(run["N_ref"]),
        R_sum=None if run.get("R_sum") is None else float(run["R_sum"]),
        max_iter=int(run.get("max_iter", 100)),
    )
