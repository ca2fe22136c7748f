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
    bond_classes,
    preset_model,
    spring_blocks,
)

__all__ = ["load_config", "model_from_config"]

RUN_KEYS = ("N_list", "beta", "seed", "out", "saddle", "kick", "N_ref", "R_sum", "max_iter")
POTENTIAL_KEYS = {"harmonic": ("kind", "classes", "scale", "b_radial"),
                  "morse": ("kind", "classes", "scale", "shift")}
CLASS_KEYS = {"harmonic": ("len", "k"), "morse": ("len", "D", "a")}
PRESET_KICKS = {"square_double_well": {"site": (0, 0), "vector": (0.15, 0.0)}}


def _mapping(section, where: str) -> dict:
    """``section``, refused by name unless it is a mapping."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {where} must be a mapping, not {section!r}")
    return section


def _check_keys(section: dict, known: tuple[str, ...], where: str,
                required: tuple[str, ...] = ()) -> None:
    """Refuse a config section that is not a mapping, the keys of one that
    the loader does not read, and one that lacks a ``required`` key."""
    unknown = sorted(map(str, set(_mapping(section, where)) - set(known)))
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s) {', '.join(unknown)}; "
                                 f"known keys: {', '.join(known)}")
    missing = [key for key in required if key not in section]
    if missing:
        raise ConfigurationError(f"config section {where} is missing key(s) "
                                 f"{', '.join(missing)}")


def _lattice_from_config(cfg: dict) -> LatticeSpec:
    keys = ("A", "B", "m", "r_cut")
    _check_keys(cfg, keys, "lattice", required=keys)
    return LatticeSpec(
        A=np.asarray(cfg["A"], dtype=float),
        B=np.asarray(cfg["B"], dtype=float),
        m=int(cfg["m"]),
        r_cut=float(cfg["r_cut"]),
    )


def _potential_from_config(spec: LatticeSpec, cfg: dict, where: str):
    kind = _mapping(cfg, where).get("kind", "morse")
    if kind not in POTENTIAL_KEYS:
        raise ConfigurationError(f"unknown potential kind '{kind}'")
    _check_keys(cfg, POTENTIAL_KEYS[kind], f"{kind} potential", required=("classes",))
    if not isinstance(cfg["classes"], list):
        raise ConfigurationError(f"config section {kind} potential key classes must be a "
                                 f"list of bond classes, not {cfg['classes']!r}")
    for cls in cfg["classes"]:
        _check_keys(cls, CLASS_KEYS[kind], f"{kind} bond class", required=CLASS_KEYS[kind])
    scale = float(cfg.get("scale", 1.0))
    keys = CLASS_KEYS[kind][1:]
    per_bond = bond_classes(spec.stencil, {float(c["len"]): [float(c[k]) for k in keys]
                                           for c in cfg["classes"]}).T
    if kind == "harmonic":
        K = spring_blocks(spec.stencil, spec.m, per_bond[0])
        b = None
        if cfg.get("b_radial"):
            lens = np.linalg.norm(spec.stencil, axis=1)
            b = float(cfg["b_radial"]) * spec.stencil / lens[:, None]
        return HarmonicBondPotential(spec.stencil, spec.m, scale * K, b=b)
    D, a = per_bond
    shift = float(cfg.get("shift", 0.0))
    return MorseBondPotential.from_morse(spec.stencil, spec.m, scale * D, a,
                                         shift=shift if shift else None)


def model_from_config(cfg: dict) -> PotentialModel:
    """Build a model from a config mapping: a preset name or explicit tables.

    A key that the loader does not read raises ConfigurationError naming it.
    """
    if "preset" in _mapping(cfg, "model"):
        _check_keys(cfg, ("preset",), "preset model")
        return preset_model(cfg["preset"])
    _check_keys(cfg, ("name", "lattice", "potential", "overrides", "mirror"), "model",
                required=("lattice", "potential"))
    spec = _lattice_from_config(cfg["lattice"])
    hom = _potential_from_config(spec, cfg["potential"], "potential")
    overrides = {}
    for key, ocfg in _mapping(cfg.get("overrides") or {}, "overrides").items():
        site = tuple(int(v) for v in str(key).split(","))
        overrides[site] = _potential_from_config(spec, ocfg, f"override {key}")
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
    if kick is None:
        kick = PRESET_KICKS.get(raw["model"].get("preset"))
    else:
        _check_keys(kick, ("site", "vector"), "run.kick")
        if set(kick) != {"site", "vector"}:
            raise ConfigurationError(f"run.kick needs both keys site and vector, not {kick}")
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
