"""Site potentials on stencil gradients with analytic derivatives to order 3.

Every site potential is a sum over its stencil bonds, so its second and
third derivatives are block-diagonal over the bonds and are given only as
per-bond blocks: ``bond_hess_batch`` (ns, |R|, m, m) and ``bond_third_batch``
(ns, |R|, m, m, m). The homogeneous Hessian symbol is built from the same
blocks, h_hat(k) = 4 sum_rho sin^2(k.rho/2) nabla^2 phi_rho(0). Two built-in
families: harmonic springs with per-bond stiffness blocks, and a quartic
bond-length potential whose coefficients follow the Taylor expansion of a
Morse curve. A defect is a finite set of per-site overrides near the origin;
everything else uses the homogeneous potential.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .lattice import ConfigurationError, LatticeSpec

__all__ = [
    "SitePotential",
    "HarmonicBondPotential",
    "MorseBondPotential",
    "PotentialModel",
    "symbol_h",
    "stability_scan",
    "preset_model",
    "PRESETS",
]


class SitePotential:
    """Energy of one site, a sum over its stencil bonds, as a function of its
    stencil gradient.

    Everything is batched over many sites at once (the *_batch methods, first
    axis = site); value and grad also take a single gradient. The second and
    third derivatives are per-bond blocks, one per stencil slot of LatticeSpec.
    """

    def __init__(self, stencil: np.ndarray, m: int):
        self.stencil = np.asarray(stencil, dtype=float)
        self.nR = self.stencil.shape[0]
        self.m = int(m)

    # batch API; G has shape (ns, nR, m)
    def value_batch(self, G: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_batch(self, G: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bond_hess_batch(self, G: np.ndarray) -> np.ndarray:
        """Second derivative of each bond term; (ns, nR, m, m)."""
        raise NotImplementedError

    def bond_third_batch(self, G: np.ndarray) -> np.ndarray:
        """Third derivative of each bond term; (ns, nR, m, m, m)."""
        raise NotImplementedError

    # single-site helpers
    def value(self, g: np.ndarray) -> float:
        return float(self.value_batch(np.asarray(g, dtype=float)[None])[0])

    def grad(self, g: np.ndarray) -> np.ndarray:
        return self.grad_batch(np.asarray(g, dtype=float)[None])[0]

    def params(self) -> dict:
        raise NotImplementedError


class HarmonicBondPotential(SitePotential):
    """V(g) = 1/2 sum_rho (g_rho - b_rho)^T K_rho (g_rho - b_rho), normalized to V(0)=0.

    K: (nR, m, m) symmetric stiffness blocks; b: optional (nR, m) natural
    stretches (zero for a homogeneous potential, nonzero for misfit defects).
    """

    def __init__(self, stencil: np.ndarray, m: int, K: np.ndarray, b: np.ndarray | None = None):
        super().__init__(stencil, m)
        K = np.asarray(K, dtype=float)
        if K.shape != (self.nR, m, m):
            raise ConfigurationError(f"stiffness must have shape ({self.nR}, {m}, {m})")
        if not np.allclose(K, np.swapaxes(K, 1, 2)):
            raise ConfigurationError("stiffness blocks must be symmetric")
        self.K = K
        self.b = np.zeros((self.nR, m)) if b is None else np.asarray(b, dtype=float)

    def value_batch(self, G):
        r = G - self.b
        quad = 0.5 * np.einsum("srA,rAB,srB->s", r, self.K, r)
        ref = 0.5 * np.einsum("rA,rAB,rB->", self.b, self.K, self.b)
        return quad - ref

    def grad_batch(self, G):
        return np.einsum("rAB,srB->srA", self.K, G - self.b)

    def bond_hess_batch(self, G):
        return np.broadcast_to(self.K, (G.shape[0],) + self.K.shape)

    def bond_third_batch(self, G):
        return np.zeros((G.shape[0], self.nR, self.m, self.m, self.m))

    def params(self):
        return {"kind": "harmonic", "K": self.K.tolist(), "b": self.b.tolist()}


def _norm_derivative_tensors(y: np.ndarray, order: int = 3):
    """Derivative tensors of x -> |y|, y = x + rho, batched over (..., m).

    Returns (s, n, s2, s3) up to derivative ``order``: the norm, unit
    vector, and the second and third derivative tensors of the norm.
    """
    s = np.linalg.norm(y, axis=-1)
    if np.any(s < 1e-12):
        raise FloatingPointError("bond length collapsed to zero")
    if order == 0:
        return (s,)
    n = y / s[..., None]
    if order == 1:
        return s, n
    m = y.shape[-1]
    eye = np.eye(m)
    P = eye - n[..., :, None] * n[..., None, :]
    s2 = P / s[..., None, None]
    if order == 2:
        return s, n, s2
    pn = P[..., :, :, None] * n[..., None, None, :]          # P_ij n_k
    s3 = -(pn + np.moveaxis(pn, -1, -2) + np.moveaxis(pn, -1, -3)) / s[..., None, None, None] ** 2
    return s, n, s2, s3


class MorseBondPotential(SitePotential):
    """Quartic bond-length potential V(g) = sum_rho phi_rho(|g_rho + rho| - |rho| - shift_rho).

    phi(t) = c2 t^2/2 + c3 t^3/6 + c4 t^4/24, normalized so V(0) = 0. With the
    Morse parametrization (c2, c3, c4) = (2 D a^2, -6 D a^3, 14 D a^4) this is
    the fourth-order expansion of D (1 - e^{-a t})^2. Nonzero shifts model
    misfit bonds whose natural length differs from the lattice spacing.
    Requires m == d (vector displacements living in lattice space).
    """

    def __init__(self, stencil: np.ndarray, m: int, c2, c3, c4, shift=None):
        super().__init__(stencil, m)
        if self.stencil.shape[1] != m:
            raise ConfigurationError("bond-length potentials require m == d")
        self.c2 = np.broadcast_to(np.asarray(c2, dtype=float), (self.nR,)).copy()
        self.c3 = np.broadcast_to(np.asarray(c3, dtype=float), (self.nR,)).copy()
        self.c4 = np.broadcast_to(np.asarray(c4, dtype=float), (self.nR,)).copy()
        sh = 0.0 if shift is None else shift
        self.shift = np.broadcast_to(np.asarray(sh, dtype=float), (self.nR,)).copy()
        self.rho_len = np.linalg.norm(self.stencil, axis=1)

    @classmethod
    def from_morse(cls, stencil, m, D, a, shift=None):
        D = np.broadcast_to(np.asarray(D, dtype=float), (stencil.shape[0],))
        a = np.broadcast_to(np.asarray(a, dtype=float), (stencil.shape[0],))
        return cls(stencil, m, 2 * D * a**2, -6 * D * a**3, 14 * D * a**4, shift)

    def _phi(self, t: np.ndarray, order: int) -> np.ndarray:
        c2, c3, c4 = self.c2, self.c3, self.c4
        if order == 0:
            return c2 * t**2 / 2 + c3 * t**3 / 6 + c4 * t**4 / 24
        if order == 1:
            return c2 * t + c3 * t**2 / 2 + c4 * t**3 / 6
        if order == 2:
            return c2 + c3 * t + c4 * t**2 / 2
        return c3 + c4 * t

    def _sigma(self, G: np.ndarray, order: int):
        """Bond stretch t and the norm's derivative tensors up to ``order``."""
        s, *tensors = _norm_derivative_tensors(G + self.stencil, order)
        return s - self.rho_len - self.shift, *tensors

    def value_batch(self, G):
        t, = self._sigma(G, 0)
        t0 = -self.shift
        return (self._phi(t, 0) - self._phi(t0, 0)[None, :]).sum(axis=1)

    def grad_batch(self, G):
        t, n = self._sigma(G, 1)
        return self._phi(t, 1)[..., None] * n

    def bond_hess_batch(self, G):
        t, n, s2 = self._sigma(G, 2)
        p1, p2 = self._phi(t, 1), self._phi(t, 2)
        nn = n[..., :, None] * n[..., None, :]
        return p2[..., None, None] * nn + p1[..., None, None] * s2

    def bond_third_batch(self, G):
        t, n, s2, s3 = self._sigma(G, 3)
        p1, p2, p3 = self._phi(t, 1), self._phi(t, 2), self._phi(t, 3)
        nnn = n[..., :, None, None] * n[..., None, :, None] * n[..., None, None, :]
        ns2 = n[..., :, None, None] * s2[..., None, :, :]
        sym_ns2 = ns2 + np.moveaxis(ns2, -3, -2) + np.moveaxis(ns2, -3, -1)
        return (p3[..., None, None, None] * nnn
                + p2[..., None, None, None] * sym_ns2
                + p1[..., None, None, None] * s3)

    def params(self):
        return {"kind": "morse_quartic", "c2": self.c2.tolist(), "c3": self.c3.tolist(),
                "c4": self.c4.tolist(), "shift": self.shift.tolist()}


@dataclass
class PotentialModel:
    """Homogeneous site potential plus finitely many defect overrides.

    Overrides are keyed by integer site coordinates and must sit strictly
    inside the interaction cut-off ball. ``mirror`` optionally declares a
    lattice isometry Q (integer, lattice coordinates) under which the model
    is invariant (used by the symmetric-subspace saddle search).
    """

    spec: LatticeSpec
    homogeneous: SitePotential
    overrides: dict[tuple, SitePotential] = field(default_factory=dict)
    name: str = "custom"
    mirror: np.ndarray | None = None

    def __post_init__(self):
        zero = np.zeros((self.spec.nR, self.spec.m))
        if abs(self.homogeneous.value(zero)) > 1e-12:
            raise ConfigurationError("homogeneous potential must vanish at zero gradient")
        if np.max(np.abs(self.homogeneous.grad(zero))) > 1e-12:
            raise ConfigurationError("zero displacement must be a homogeneous equilibrium")
        for key, pot in self.overrides.items():
            pos = self.spec.A @ np.asarray(key, dtype=float)
            if np.linalg.norm(pos) >= self.spec.r_cut:
                raise ConfigurationError(f"override at {key} lies outside the defect core")
            if abs(pot.value(zero)) > 1e-12:
                raise ConfigurationError(f"override at {key} must vanish at zero gradient")
        if self.mirror is not None:
            if not any(np.array_equal(self.mirror, Q) for Q in self.spec.isometries):
                raise ConfigurationError(
                    f"mirror {np.asarray(self.mirror).tolist()} is not an isometry of the lattice")
            self.mirror = np.asarray(self.mirror, dtype=np.int64)

    @property
    def has_defect(self) -> bool:
        return bool(self.overrides)

    def homogenized(self) -> "PotentialModel":
        return PotentialModel(self.spec, self.homogeneous, {}, name=self.name + "_hom",
                              mirror=self.mirror)

    def hess0(self) -> np.ndarray:
        """Homogeneous nabla^2 V(0) as its bond blocks, (nR, m, m)."""
        zero = np.zeros((1, self.spec.nR, self.spec.m))
        return self.homogeneous.bond_hess_batch(zero)[0]

    def model_hash(self) -> str:
        payload = {
            "A": self.spec.A.tolist(), "B": self.spec.B.tolist(),
            "m": self.spec.m, "r_cut": self.spec.r_cut,
            "hom": self.homogeneous.params(),
            "overrides": {str(k): p.params() for k, p in sorted(self.overrides.items())},
        }
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def symbol_h(model: PotentialModel, k: np.ndarray) -> np.ndarray:
    """Homogeneous Hessian symbol at one k in the raw difference form; (m, m).

    The definition, sum over rho of (e^{-i k.rho} - 1) K_rho (e^{i k.rho} - 1)
    with K_rho = nabla^2 phi_rho(0), serves as the reference for
    ``symbol_h_batch``, whose sine form every stage uses.
    """
    phase = model.spec.stencil @ np.asarray(k, dtype=float)
    weight = (np.exp(-1j * phase) - 1.0) * (np.exp(1j * phase) - 1.0)
    return np.einsum("r,rab->ab", weight, model.hess0())


def symbol_h_batch(model: PotentialModel, ks: np.ndarray) -> np.ndarray:
    """Sine-form symbols 4 sum_rho sin^2(k.rho/2) K_rho for many k-points at
    once; shape (nk, m, m). Summed bond by bond, so a large k-mesh needs no
    (nk, |R|) temporary."""
    ks = np.asarray(ks, dtype=float)
    out = np.zeros((ks.shape[0], model.spec.m, model.spec.m))
    for rho, K in zip(model.spec.stencil, model.hess0()):
        out += np.sin(0.5 * (ks @ rho))[:, None, None] ** 2 * (4.0 * K)
    return out


def _acoustic_limits(model: PotentialModel, khats: np.ndarray) -> np.ndarray:
    """lim_{eps->0} h_hat(eps khat)/eps^2 = sum_rho (khat.rho)^2 K_rho, for
    every row khat of ``khats``; shape (ndirs, m, m)."""
    proj = khats @ model.spec.stencil.T
    return np.einsum("kr,rab->kab", proj**2, model.hess0())


@dataclass
class StabilityReport:
    c0: float
    c1: float
    passed: bool
    grid_points: int


def stability_scan(model: PotentialModel, resolution: int = 64) -> StabilityReport:
    """Scan eigenvalues of h_hat(k)/|k|^2 over the Brillouin zone.

    Includes the |k| -> 0 acoustic limit along a fine set of directions.
    Failure (c0 <= 0) is reported as a value, not raised.
    """
    spec = model.spec
    d = spec.d
    ticks = np.arange(1, resolution + 1) / resolution * 2.0 - 1.0    # (-1, 1], boundary included
    mesh = np.stack(np.meshgrid(*([ticks] * d), indexing="ij"), axis=-1).reshape(-1, d)
    mesh = mesh[np.any(mesh != 0.0, axis=1)]
    ks = np.pi * np.linalg.solve(spec.A.T, mesh.T).T
    hs = symbol_h_batch(model, ks)
    k2 = np.sum(ks**2, axis=1)
    evals = np.linalg.eigvalsh(hs) / k2[:, None]
    c0, c1 = float(evals.min()), float(evals.max())

    if d == 1:
        dirs = np.array([[1.0]])
    elif d == 2:
        ang = np.linspace(0, np.pi, 360, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        g = np.pi * (3 - np.sqrt(5))
        i = np.arange(1000)
        z = 1 - 2 * (i + 0.5) / 1000
        r = np.sqrt(1 - z**2)
        dirs = np.stack([r * np.cos(g * i), r * np.sin(g * i), z], axis=1)
    ev = np.linalg.eigvalsh(_acoustic_limits(model, dirs))
    c0 = min(c0, float(ev.min()))
    c1 = max(c1, float(ev.max()))
    return StabilityReport(c0=c0, c1=c1, passed=c0 > 0, grid_points=mesh.shape[0])


# ---------------------------------------------------------------------------
# shipped model presets
# ---------------------------------------------------------------------------

def _central_stiffness(stencil: np.ndarray, k_by_len: Mapping[float, float]) -> np.ndarray:
    nR, d = stencil.shape
    K = np.zeros((nR, d, d))
    for i, rho in enumerate(stencil):
        ln = np.linalg.norm(rho)
        key = min(k_by_len, key=lambda L: abs(L - ln))
        nhat = rho / ln
        K[i] = k_by_len[key] * np.outer(nhat, nhat)
    return K


def _scalar_stiffness(stencil: np.ndarray, value: float) -> np.ndarray:
    return np.full((stencil.shape[0], 1, 1), value)


def _square_spec() -> LatticeSpec:
    return LatticeSpec(A=np.eye(2), B=np.eye(2), m=2, r_cut=1.5)


def _morse_classes(stencil: np.ndarray, nn: tuple, nnn: tuple):
    """Per-bond (D, a) arrays for nearest / next-nearest neighbour classes."""
    lens = np.linalg.norm(stencil, axis=1)
    short = lens < lens.min() + 1e-9
    D = np.where(short, nn[0], nnn[0])
    a = np.where(short, nn[1], nnn[1])
    return D, a


def _preset_chain_harmonic() -> PotentialModel:
    spec = LatticeSpec(A=np.eye(1), B=np.eye(1), m=1, r_cut=1.5)
    hom = HarmonicBondPotential(spec.stencil, 1, _scalar_stiffness(spec.stencil, 0.5))
    return PotentialModel(spec, hom, name="chain_harmonic")


def _preset_chain_misfit() -> PotentialModel:
    spec = LatticeSpec(A=np.eye(1), B=np.eye(1), m=1, r_cut=1.5)
    hom = MorseBondPotential.from_morse(spec.stencil, 1, D=0.5, a=1.4)
    dv = MorseBondPotential.from_morse(spec.stencil, 1, D=0.65, a=1.4, shift=0.08)
    return PotentialModel(spec, hom, {(0,): dv}, name="chain_misfit")


def _preset_square_harmonic() -> PotentialModel:
    spec = _square_spec()
    K = _central_stiffness(spec.stencil, {1.0: 0.5, np.sqrt(2.0): 0.25})
    hom = HarmonicBondPotential(spec.stencil, 2, K)
    return PotentialModel(spec, hom, name="square_harmonic")


def _preset_square_harmonic_defect() -> PotentialModel:
    spec = _square_spec()
    K = _central_stiffness(spec.stencil, {1.0: 0.5, np.sqrt(2.0): 0.25})
    hom = HarmonicBondPotential(spec.stencil, 2, K)
    lens = np.linalg.norm(spec.stencil, axis=1)
    b = 0.06 * spec.stencil / lens[:, None]
    dv = HarmonicBondPotential(spec.stencil, 2, 1.35 * K, b=b)
    return PotentialModel(spec, hom, {(0, 0): dv}, name="square_harmonic_defect")


def _preset_square_anharmonic() -> PotentialModel:
    spec = _square_spec()
    D, a = _morse_classes(spec.stencil, nn=(0.5, 1.5), nnn=(0.25, 1.2))
    hom = MorseBondPotential.from_morse(spec.stencil, 2, D, a)
    return PotentialModel(spec, hom, name="square_anharmonic")


def _preset_square_misfit() -> PotentialModel:
    spec = _square_spec()
    D, a = _morse_classes(spec.stencil, nn=(0.5, 1.5), nnn=(0.25, 1.2))
    hom = MorseBondPotential.from_morse(spec.stencil, 2, D, a)
    dv = MorseBondPotential.from_morse(spec.stencil, 2, 1.3 * D, a, shift=0.12)
    return PotentialModel(spec, hom, {(0, 0): dv}, name="square_misfit")


def _preset_square_double_well() -> PotentialModel:
    spec = _square_spec()
    D, a = _morse_classes(spec.stencil, nn=(0.5, 1.5), nnn=(0.25, 1.2))
    hom = MorseBondPotential.from_morse(spec.stencil, 2, D, a)
    # defect bonds: soften the +-e1 pair into a double well, put a symmetric
    # misfit on the diagonal bonds so the saddle is a nontrivial relaxed state
    c2 = 2 * D * a**2
    c3 = -6 * D * a**3
    c4 = 14 * D * a**4
    lens = np.linalg.norm(spec.stencil, axis=1)
    along_e1 = (np.abs(spec.stencil[:, 0]) > 0.5) & (np.abs(spec.stencil[:, 1]) < 0.5)
    diag = lens > 1.2
    # each undirected bond is seen from both endpoint site energies, so the
    # softening must overcome the homogeneous half (c2 = 2.25) plus the cage
    c2 = np.where(along_e1, -4.0, c2)
    c3 = np.where(along_e1, 0.0, c3)
    c4 = np.where(along_e1, 30.0, c4)
    shift = np.where(diag, 0.10, 0.0)
    dv = MorseBondPotential(spec.stencil, 2, c2, c3, c4, shift)
    return PotentialModel(spec, hom, {(0, 0): dv}, name="square_double_well",
                          mirror=np.diag([-1, 1]))


def _preset_square_unstable() -> PotentialModel:
    spec = _square_spec()
    K = _central_stiffness(spec.stencil, {1.0: 0.5, np.sqrt(2.0): -0.4})
    hom = HarmonicBondPotential(spec.stencil, 2, K)
    return PotentialModel(spec, hom, name="square_unstable")


def _preset_cube_harmonic() -> PotentialModel:
    spec = LatticeSpec(A=np.eye(3), B=np.eye(3), m=1, r_cut=1.5)
    hom = HarmonicBondPotential(spec.stencil, 1, _scalar_stiffness(spec.stencil, 0.5))
    return PotentialModel(spec, hom, name="cube_harmonic")


PRESETS = {
    "chain_harmonic": _preset_chain_harmonic,
    "chain_misfit": _preset_chain_misfit,
    "square_harmonic": _preset_square_harmonic,
    "square_harmonic_defect": _preset_square_harmonic_defect,
    "square_anharmonic": _preset_square_anharmonic,
    "square_misfit": _preset_square_misfit,
    "square_double_well": _preset_square_double_well,
    "square_unstable": _preset_square_unstable,
    "cube_harmonic": _preset_cube_harmonic,
}


def preset_model(name: str) -> PotentialModel:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigurationError(f"unknown preset '{name}'; available: {sorted(PRESETS)}")
