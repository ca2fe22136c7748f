"""Assembly of energies, gradients, Hessians and their first variation on supercells.

All operators act on flattened periodic displacement vectors (site-major,
component-minor) and are stored as sparse CSR blocks or dense arrays wrapped
in LinearLatticeOperator. Hessians have bandwidth bounded by twice the
interaction cut-off and annihilate constant displacements.
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

_CHUNK = 128


@dataclass
class LinearLatticeOperator:
    """Symmetric block operator on periodic displacement space."""

    cell: Supercell
    mat: sp.spmatrix | np.ndarray
    kind: str = "composite"

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

    def quadratic(self, v: np.ndarray) -> float:
        v = v.reshape(-1)
        return float(v @ (self.mat @ v))

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
        if idx.size:
            total += float(pot.value_batch(G[idx]).sum())
    return total


def gradient_periodic(model: PotentialModel, u: DisplacementField) -> np.ndarray:
    """Defect supercell forces: the gradient of ``energy_periodic`` at u."""
    cell = u.cell
    G = u.gradients()
    out = np.zeros((cell.n, cell.spec.m))
    for pot, idx in _site_potential_groups(model, cell):
        if idx.size == 0:
            continue
        gv = pot.grad_batch(G[idx])                      # (ns, nR, m)
        np.add.at(out, cell.neighbors[idx], gv)
        np.add.at(out, idx, -gv.sum(axis=1))
    return out


def _incidence(cell: Supercell):
    """Local-to-global signed incidence for stencil quadratic forms.

    D(delta_loc e_i)(xi) couples each site xi to its |R| neighbours and
    itself; the local DOF list is (neighbours..., center).
    """
    nR = cell.spec.nR
    W = np.zeros((nR, nR + 1))
    W[:, :nR] = np.eye(nR)
    W[:, nR] = -1.0
    return W


def _scatter_local(cell: Supercell, idx: np.ndarray, local: np.ndarray,
                   rows_out, cols_out, vals_out) -> None:
    """Accumulate per-site local matrices (ns, (nR+1)m, (nR+1)m) into COO lists."""
    m = cell.spec.m
    nR = cell.spec.nR
    sites = np.concatenate([cell.neighbors[idx], idx[:, None]], axis=1)  # (ns, nR+1)
    dof = (sites[:, :, None] * m + np.arange(m)[None, None, :]).reshape(idx.size, -1)
    ns, ld = dof.shape
    rows_out.append(np.repeat(dof, ld, axis=1).reshape(-1))
    cols_out.append(np.tile(dof, (1, ld)).reshape(-1))
    vals_out.append(local.reshape(-1))


def _assemble_quadratic(cell: Supercell, site_tensors, idx: np.ndarray,
                        rows, cols, vals) -> None:
    """site_tensors: (ns, nR, m, nR, m) second-derivative tensors at sites idx."""
    m = cell.spec.m
    nR = cell.spec.nR
    W = _incidence(cell)
    Wm = np.kron(W, np.eye(m))                       # (nR*m, (nR+1)*m)
    T = site_tensors.reshape(idx.size, nR * m, nR * m)
    local = np.einsum("ra,nrs,sb->nab", Wm, T, Wm, optimize=True)
    _scatter_local(cell, idx, local, rows, cols, vals)


def _nonzero_csr(cell: Supercell, rows, cols, vals) -> sp.csr_matrix:
    """Sum the scattered local matrices into CSR storing only nonzero entries.

    For bond-sum potentials every cross-bond block of a local matrix is an
    exact zero; CSR would otherwise keep those entries.
    """
    dim = cell.n * cell.spec.m
    M = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()
    M.sum_duplicates()
    M.eliminate_zeros()
    return M


def _hessian_matrix(model: PotentialModel, u: DisplacementField) -> sp.csr_matrix:
    cell = u.cell
    G = u.gradients()
    rows, cols, vals = [], [], []
    for pot, idx in _site_potential_groups(model, cell):
        for lo in range(0, idx.size, _CHUNK):
            sl = idx[lo:lo + _CHUNK]
            _assemble_quadratic(cell, pot.hess_batch(G[sl]), sl, rows, cols, vals)
    return _nonzero_csr(cell, rows, cols, vals)


def hessian(model: PotentialModel, u: DisplacementField) -> LinearLatticeOperator:
    """Second variation of the supercell energy at u, from the per-site
    potentials V_ell (``model.homogenized()`` puts the homogeneous V on every
    site). Symmetric, constants in the kernel.
    """
    return LinearLatticeOperator(u.cell, _hessian_matrix(model, u), "hessian")


def variation_contractions(model: PotentialModel, u: DisplacementField,
                           v: DisplacementField) -> LinearLatticeOperator:
    """First variation of the Hessian at u in the direction v.

    Assembles the operator with blocks sum_xi nabla^3 V_xi(Du)[., ., Dv(xi)].
    For homogeneous variations pass ``model.homogenized()``.
    """
    cell = u.cell
    G = u.gradients()
    Gv = v.gradients()
    rows, cols, vals = [], [], []
    for pot, idx in _site_potential_groups(model, cell):
        for lo in range(0, idx.size, _CHUNK):
            sl = idx[lo:lo + _CHUNK]
            T = np.einsum("nabcdef,nef->nabcd", pot.third_batch(G[sl]), Gv[sl], optimize=True)
            _assemble_quadratic(cell, T, sl, rows, cols, vals)
    return LinearLatticeOperator(cell, _nonzero_csr(cell, rows, cols, vals), "hessian_variation")
