"""Assembly of energies, gradients, Hessians and their first variation on supercells.

All operators act on flattened periodic displacement vectors (site-major,
component-minor) and are stored as sparse CSR blocks or dense arrays wrapped
in LinearLatticeOperator. Hessians have bandwidth bounded by twice the
interaction cut-off and annihilate constant displacements.

Site potentials are bond sums, so the Hessian and its first variation are
sums of one m x m block K per bond (ell, ell+rho): +K at (ell, ell) and
(ell+rho, ell+rho), -K at (ell, ell+rho) and (ell+rho, ell). The blocks are
summed into the cell's cached ``bond_pattern`` and stored in CSR without
the entries that sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
import scipy.sparse as sp

from .lattice import DisplacementField, Supercell
from .potentials import PotentialModel, SitePotential

__all__ = [
    "LinearLatticeOperator",
    "energy_periodic",
    "gradient_periodic",
    "hessian",
    "variation_contractions",
]

@dataclass
class LinearLatticeOperator:
    """Symmetric block operator on periodic displacement space."""

    cell: Supercell
    mat: sp.spmatrix | np.ndarray

    @property
    def n(self) -> int:
        return self.cell.n

    @property
    def m(self) -> int:
        return self.cell.spec.m

    @property
    def dim(self) -> int:
        return self.n * self.m

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape == (self.n, self.m):
            return np.asarray(self.mat @ v.reshape(self.dim)).reshape(self.n, self.m)
        return np.asarray(self.mat @ v)

    def dense(self) -> np.ndarray:
        if sp.issparse(self.mat):
            return self.mat.toarray()
        return np.asarray(self.mat)

    def symmetry_defect(self) -> float:
        if sp.issparse(self.mat):
            return float(abs(self.mat - self.mat.T).max())
        return float(np.max(np.abs(self.mat - self.mat.T)))


def _site_potential_groups(model: PotentialModel, cell: Supercell):
    """Partition sites into (potential, site-index array) groups."""
    groups: list[tuple[SitePotential, np.ndarray]] = []
    override_idx = {cell.index(key): pot for key, pot in model.overrides.items()}
    mask = np.ones(cell.n, dtype=bool)
    for idx, pot in override_idx.items():
        groups.append((pot, np.array([idx])))
        mask[idx] = False
    groups.append((model.homogeneous, np.flatnonzero(mask)))
    return groups


def energy_periodic(model: PotentialModel, u: DisplacementField) -> float:
    """Defect supercell energy: sum over sites of V_ell(Du(ell))."""
    G = u.gradients()
    total = 0.0
    for pot, idx in _site_potential_groups(model, u.cell):
        total += float(pot.value_batch(G[idx]).sum())
    return total


def gradient_periodic(model: PotentialModel, u: DisplacementField) -> np.ndarray:
    """Defect supercell forces: the gradient of ``energy_periodic`` at u."""
    cell = u.cell
    n, m = cell.n, cell.spec.m
    G = u.gradients()
    out = np.zeros((n, m))
    for pot, idx in _site_potential_groups(model, cell):
        gv = pot.grad_batch(G[idx])                      # (ns, nR, m)
        slots = cell.neighbors[idx][..., None] * m + np.arange(m)
        out += np.bincount(slots.ravel(), weights=gv.ravel(), minlength=n * m).reshape(n, m)
        out[idx] -= gv.sum(axis=1)                       # a group's sites are unique
    return out


def _bond_blocks(model: PotentialModel, cell: Supercell, blocks) -> np.ndarray:
    """Per-bond blocks (n, |R|, m, m) of every site: ``blocks(pot, idx)``
    evaluates them on the sites idx of one potential group."""
    m = cell.spec.m
    out = np.empty((cell.n, cell.spec.nR, m, m))
    for pot, idx in _site_potential_groups(model, cell):
        out[idx] = blocks(pot, idx)
    return out


def _bond_operator(cell: Supercell, K: np.ndarray) -> LinearLatticeOperator:
    """Sum the bond blocks K (n, |R|, m, m) over ``cell.bond_pattern``."""
    pattern = cell.bond_pattern
    m = cell.spec.m
    nb = pattern.indices.size
    K = K.reshape(-1, m * m).T
    signed = np.concatenate([K, K, -K, -K], axis=1)     # order of pattern.slot
    slot = pattern.slot.reshape(-1)
    data = np.stack([np.bincount(slot, weights=w, minlength=nb) for w in signed], axis=1)
    dim = cell.n * m
    # tocsr writes fresh index arrays, so eliminate_zeros leaves the cached
    # pattern intact
    mat = sp.bsr_matrix((data.reshape(nb, m, m), pattern.indices, pattern.indptr),
                        shape=(dim, dim)).tocsr()
    mat.eliminate_zeros()
    return LinearLatticeOperator(cell, mat)


def hessian(model: PotentialModel, u: DisplacementField) -> LinearLatticeOperator:
    """Second variation of the supercell energy at u, from the per-site
    potentials V_ell (``model.homogenized()`` puts the homogeneous V on every
    site). Symmetric, constants in the kernel.
    """
    G = u.gradients()
    K = _bond_blocks(model, u.cell, lambda pot, idx: pot.bond_hess_batch(G[idx]))
    return _bond_operator(u.cell, K)


def variation_contractions(model: PotentialModel, u: DisplacementField,
                           v: DisplacementField) -> LinearLatticeOperator:
    """First variation of the Hessian at u in the direction v.

    Assembles the operator with blocks sum_xi nabla^3 V_xi(Du)[., ., Dv(xi)],
    each bond's third derivative contracted with its Dv by the potential.
    For homogeneous variations pass ``model.homogenized()``.
    """
    G = u.gradients()
    Gv = v.gradients()
    K = _bond_blocks(model, u.cell, lambda pot, idx: pot.bond_third_dot(G[idx], Gv[idx]))
    return _bond_operator(u.cell, K)
