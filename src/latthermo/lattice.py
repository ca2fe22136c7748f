"""Bravais lattice geometry, periodic supercells and Fourier analysis on them.

The supercell of level N collects the lattice points inside B(-N,N]^d; its
dual group is the finite k-grid on which the discrete Fourier transform is
orthogonal. All site bookkeeping is done in integer coordinates x with
site = A x, which keeps wrapping and membership tests exact; a diagonal
form of 2N A^-1 B puts sites and k-points of every cell on one FFT grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "LatticeSpec",
    "Supercell",
    "DualGrid",
    "PointSymmetry",
    "BondPattern",
    "DisplacementField",
    "cutoff_T_R",
]


class ConfigurationError(ValueError):
    """Raised for invalid lattice / model configuration."""


class PreconditionError(ValueError):
    """Raised when an operation's precondition is violated."""


def _integer_matrix(M: np.ndarray) -> np.ndarray:
    R = np.rint(M)
    if not np.allclose(M, R, atol=1e-9):
        raise ConfigurationError("matrix is not integer within tolerance")
    return R.astype(np.int64)


def _adjugate_int(C: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact adjugate and determinant of a small integer matrix."""
    d = C.shape[0]
    det = int(round(np.linalg.det(C.astype(float))))
    if det == 0:
        raise ConfigurationError("supercell matrix is singular")
    adj = np.empty((d, d), dtype=np.int64)
    if d == 1:
        adj[0, 0] = 1
    else:
        for i in range(d):
            for j in range(d):
                minor = np.delete(np.delete(C, i, axis=0), j, axis=1)
                adj[j, i] = (-1) ** (i + j) * int(round(np.linalg.det(minor.astype(float))))
    # exactness check: adj @ C == det * I
    if not np.array_equal(adj @ C, det * np.eye(d, dtype=np.int64)):
        raise ConfigurationError("adjugate computation failed (matrix too large?)")
    return adj, det


def _span_index(vectors: np.ndarray) -> int:
    """Index of the integer span of the given d-vectors in Z^d.

    Returns gcd of all d x d minors (Cauchy-Binet); the vectors span Z^d
    exactly when this equals 1, and 0 means they do not span a full-rank
    sublattice.
    """
    d, ncols = vectors.shape[1], vectors.shape[0]
    if ncols < d:
        return 0
    g = 0
    for cols in itertools.combinations(range(ncols), d):
        sub = vectors[list(cols), :].astype(float)
        minor = int(round(np.linalg.det(sub)))
        g = int(np.gcd(g, abs(minor)))
        if g == 1:
            return 1
    return g


@dataclass(frozen=True)
class LatticeSpec:
    """Bravais lattice Lambda = A Z^d with interaction stencil R.

    A: lattice generator (d x d, nonsingular); B: supercell generator with
    A^-1 B integer; m: displacement dimension; r_cut: interaction cut-off.
    The stencil R is derived: all nonzero lattice points inside the open
    ball of radius r_cut, in a fixed point-symmetric order.
    """

    A: np.ndarray
    B: np.ndarray
    m: int
    r_cut: float
    d: int = field(init=False)
    C: np.ndarray = field(init=False)          # A^-1 B, integer
    stencil_x: np.ndarray = field(init=False)  # (|R|, d) integer coords
    stencil: np.ndarray = field(init=False)    # (|R|, d) real vectors A x

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        d = A.shape[0]
        if A.shape != (d, d) or B.shape != (d, d):
            raise ConfigurationError("A and B must be square matrices of equal size")
        if abs(np.linalg.det(A)) < 1e-14:
            raise ConfigurationError("lattice generator A is singular")
        if self.m < 1:
            raise ConfigurationError("displacement dimension m must be >= 1")
        if self.r_cut <= 0:
            raise ConfigurationError("r_cut must be positive")
        C = _integer_matrix(np.linalg.solve(A, B))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "C", C)
        sx = self._enumerate_stencil(A, d, self.r_cut)
        object.__setattr__(self, "stencil_x", sx)
        object.__setattr__(self, "stencil", sx @ A.T)
        if _span_index(sx) != 1:
            raise ConfigurationError(
                "interaction range does not span the lattice over the integers; increase r_cut"
            )

    @staticmethod
    def _enumerate_stencil(A: np.ndarray, d: int, r_cut: float) -> np.ndarray:
        # bound integer coordinates via |x| <= |A^-1| r_cut
        bound = int(np.ceil(np.linalg.norm(np.linalg.inv(A), 2) * r_cut)) + 1
        pts = []
        for x in itertools.product(range(-bound, bound + 1), repeat=d):
            if all(v == 0 for v in x):
                continue
            if np.linalg.norm(A @ np.array(x, dtype=float)) < r_cut - 1e-12:
                pts.append(x)
        if not pts:
            raise ConfigurationError("empty interaction range; increase r_cut")
        sx = np.array(sorted(pts), dtype=np.int64)
        # point symmetry of the ball is automatic; assert it anyway
        keys = {tuple(p) for p in sx.tolist()}
        assert all(tuple(-q for q in p) in keys for p in keys)
        return sx

    @cached_property
    def isometries(self) -> tuple[np.ndarray, ...]:
        """The point group of A Z^d in lattice coordinates, identity first: every
        integer Q with Q^T G Q = G, G = A^T A. Column j of Q is a lattice vector
        as long as a_j, and the columns keep their pairwise products."""
        A, d = self.A, self.d
        G = A.T @ A
        tol = 1e-9 * float(np.max(np.abs(G)))
        bound = int(np.ceil(np.linalg.norm(np.linalg.inv(A), 2) * np.sqrt(np.max(np.diag(G)))))
        pts = np.array(list(itertools.product(range(-bound, bound + 1), repeat=d)), dtype=np.int64)
        norms = np.einsum("pi,ij,pj->p", pts, G, pts)
        cols = [pts[np.abs(norms - G[j, j]) <= tol] for j in range(d)]
        found = []

        def extend(prefix: list) -> None:
            j = len(prefix)
            if j == d:
                found.append(np.array(prefix, dtype=np.int64).T)
                return
            for v in cols[j]:
                if all(abs(w @ G @ v - G[i, j]) <= tol for i, w in enumerate(prefix)):
                    extend(prefix + [v])

        extend([])
        found.sort(key=lambda Q: not np.array_equal(Q, np.eye(d, dtype=np.int64)))
        return tuple(found)

    @property
    def nR(self) -> int:
        return self.stencil_x.shape[0]


@dataclass(frozen=True)
class DualGrid:
    """Dual group of the supercell: k-points of the discrete Fourier basis."""

    y: np.ndarray        # (nk, d) integer labels, k = (pi/N) B^-T y
    k: np.ndarray        # (nk, d) real k-points


@dataclass(frozen=True)
class PointSymmetry:
    """One point-group element of a supercell, acting on fields by
    (T u)(Q x) = R u(x): Q maps sites (lattice coordinates), ``perm`` is its
    site permutation and R the matching map of displacement components."""

    Q: np.ndarray        # (d, d) integer
    R: np.ndarray        # (m, m) orthogonal
    perm: np.ndarray     # perm[i] = ordinal of the wrapped Q x_i

    def act(self, values: np.ndarray) -> np.ndarray:
        """T u of (n, m) or (n, m, batch) site values."""
        values = np.asarray(values)
        out = np.empty_like(values)
        out[self.perm] = values @ self.R.T if values.ndim == 2 else self.R @ values
        return out


@dataclass(frozen=True)
class BondPattern:
    """Block sparsity of the operators summed over the stencil bonds
    (ell, ell+rho) of a supercell: block row i holds the sorted block columns
    ``indices[indptr[i]:indptr[i+1]]``, and ``slot`` (4, n, |R|, int32) names
    the block that takes each bond's term at (ell, ell), (ell+rho, ell+rho),
    (ell, ell+rho) and (ell+rho, ell), in that order."""

    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray


def _enumerate_cell(C: np.ndarray, N: int) -> np.ndarray:
    """Integer points x with C^-1 x in (-N, N]^d, ordered by C^-1 x lexicographically."""
    d = C.shape[0]
    adj, det = _adjugate_int(C)
    D = 2 * N * det
    if D < 0:
        adj, D = -adj, -D
    corners = np.array(list(itertools.product((-N, N), repeat=d)), dtype=np.int64)
    verts = corners @ C.T
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    ranges = [np.arange(lo[i], hi[i] + 1, dtype=np.int64) for i in range(d)]
    grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d)
    # C^-1 x = (adj x) * 2N / D; membership in (-N, N]^d tested in exact integers
    s = 2 * N * (grid @ adj.T)
    keep = np.all((s > -N * D) & (s <= N * D), axis=1)
    pts = grid[keep]
    order = np.lexsort((pts @ adj.T)[:, ::-1].T)
    return pts[order]


def _diagonal_form(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Unimodular U, V with U M V = diag(s), s > 0, in exact integer arithmetic.

    Then x -> U x mod s maps Z^d / M Z^d onto Z/s_1 + ... + Z/s_d. The s_i
    need not divide each other (any diagonal form will do); a diagonal M
    with positive entries gives U = V = I.
    """
    d = M.shape[0]
    I, O = np.eye(d, dtype=np.int64), np.zeros((d, d), dtype=np.int64)
    # row operations act on [M | I] and column operations on [M ; I], so the
    # block right of M accumulates U and the block below it V
    W = np.block([[M, I], [I, O]]).astype(object)       # Python integers: no overflow
    for t in range(d):
        while np.any(W[t + 1:d, t] != 0) or np.any(W[t, t + 1:d] != 0):
            # move the smallest nonzero entry of row t or column t to the pivot
            line = [(i, t) for i in range(t, d)] + [(t, j) for j in range(t + 1, d)]
            i, j = min((c for c in line if W[c] != 0), key=lambda c: abs(W[c]))
            W[[t, i]] = W[[i, t]]
            W[:, [t, j]] = W[:, [j, t]]
            for i in range(t + 1, d):
                W[i] -= W[i, t] // W[t, t] * W[t]
            for j in range(t + 1, d):
                W[:, j] -= W[t, j] // W[t, t] * W[:, t]
        if W[t, t] < 0:
            W[t] *= -1
    U, V = W[:d, d:].astype(np.int64), W[d:, :d].astype(np.int64)
    s = tuple(int(v) for v in np.diagonal(W))[:d]
    if (not np.array_equal(U @ M @ V, np.diag(s)) or min(s) < 1
            or abs(_adjugate_int(U)[1]) != 1 or abs(_adjugate_int(V)[1]) != 1):
        raise ConfigurationError("diagonal form of the supercell matrix failed")
    return U, V, s


class Supercell:
    """Periodic supercell of level N: site enumeration, wrapping, stencils, DFT.

    Sites are stored in integer coordinates (rows of ``x``); real positions
    are ``x @ A.T``. With unimodular U, V and U (2N C) V = diag(s), site x
    sits in slot U x mod s of an s-shaped grid and dual label y in slot
    -V^T y mod s: on every cell, lookup is a table read and the DFT an FFT.
    """

    def __init__(self, spec: LatticeSpec, N: int, check_interaction: bool = True):
        if N < 1:
            raise PreconditionError("N must be a positive integer")
        self.spec = spec
        self.N = int(N)
        self.x = _enumerate_cell(spec.C, N)
        self.n = self.x.shape[0]
        expect = (2 * N) ** spec.d * abs(int(round(np.linalg.det(spec.C.astype(float)))))
        if self.n != expect:
            raise ConfigurationError(f"site enumeration produced {self.n} sites, expected {expect}")
        self.pos = self.x @ spec.A.T
        self.r = np.linalg.norm(self.pos, axis=1)
        self._U, V, self._fft_shape = _diagonal_form(2 * self.N * spec.C)
        self._x_slots = self._slots(self.x, self._U)
        self._site_at_slot = np.argsort(self._x_slots)      # inverse permutation
        self._neighbors = self.site_indices(self.x[:, None, :] + spec.stencil_x[None, :, :])
        # the interaction ball must embed into the cell for stencil energetics;
        # the origin's neighbours are the wrapped ball
        origin = self._site_at_slot[0]
        self.interaction_fits = bool(np.array_equal(self.x[self._neighbors[origin]],
                                                    spec.stencil_x))
        if check_interaction and not self.interaction_fits:
            raise PreconditionError(f"N={N} too small for r_cut={spec.r_cut}")
        self.dual = self._build_dual()
        self._neg_y_slots = self._slots(-self.dual.y, V.T)

    # -- site bookkeeping -------------------------------------------------

    def _slots(self, x: np.ndarray, T: np.ndarray) -> np.ndarray:
        """Flat grid slots ravel(T x mod s) of (..., d) integer points."""
        r = np.mod(np.asarray(x, dtype=np.int64) @ T.T, self._fft_shape)
        return np.ravel_multi_index(tuple(np.moveaxis(r, -1, 0)), self._fft_shape)

    def site_indices(self, x: np.ndarray) -> np.ndarray:
        """Ordinals of (...,(d)) integer points after periodic wrapping."""
        return self._site_at_slot[self._slots(x, self._U)]

    def index(self, x: Iterable[int]) -> int:
        return int(self.site_indices(np.asarray(list(x), dtype=np.int64)[None, :])[0])

    @property
    def neighbors(self) -> np.ndarray:
        """(n, |R|) site ordinals of ell + rho for every site and stencil vector."""
        return self._neighbors

    def offset_table(self) -> np.ndarray:
        """(n, n) ordinals of the wrapped offsets x_i - x_j."""
        return self.site_indices(self.x[:, None, :] - self.x[None, :, :])

    @cached_property
    def point_group(self) -> tuple[PointSymmetry, ...]:
        """The isometries Q of A Z^d that map the superlattice 2N C Z^d onto
        itself, identity first. Displacements rotate with the sites, R = A Q A^-1,
        when m = d; otherwise they are taken as invariant, R = I."""
        spec = self.spec
        adj, det = _adjugate_int(spec.C)
        A_inv = np.linalg.inv(spec.A)
        group = []
        for Q in spec.isometries:
            if np.any((adj @ Q @ spec.C) % det):         # C^-1 Q C not integer
                continue
            R = spec.A @ Q @ A_inv if spec.m == spec.d else np.eye(spec.m)
            group.append(PointSymmetry(Q, R, self.site_indices(self.x @ Q.T)))
        return tuple(group)

    @cached_property
    def bond_pattern(self) -> BondPattern:
        """The site-pair blocks {(ell, ell), (ell, ell+rho)} of every stencil
        bond, built on first use and shared by all assemblies on this cell."""
        n, nb = self.n, self._neighbors
        site = np.broadcast_to(np.arange(n)[:, None], nb.shape)
        rows = np.stack([site, nb, site, nb])
        cols = np.stack([site, nb, nb, site])
        keys, slot = np.unique(rows * n + cols, return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        return BondPattern(indptr.astype(np.int32), (keys % n).astype(np.int32),
                           slot.reshape(rows.shape).astype(np.int32))

    def symmetry(self, Q: np.ndarray) -> PointSymmetry:
        """The element of ``point_group`` with lattice map Q."""
        for g in self.point_group:
            if np.array_equal(g.Q, Q):
                return g
        raise ConfigurationError(
            f"{np.asarray(Q).tolist()} is not in the point group of the N={self.N} cell")

    # -- dual group --------------------------------------------------------

    def _build_dual(self) -> DualGrid:
        Ct = self.spec.C.T.copy()
        y = _enumerate_cell(Ct, self.N)
        # k = (pi/N) B^-T y
        k = (np.pi / self.N) * np.linalg.solve(self.spec.B.T, y.T).T
        return DualGrid(y=y, k=k)

    def dft(self, f: np.ndarray) -> np.ndarray:
        """g_hat(k) = sum_ell e^{i k.ell} f(ell); f has shape (n, ...).

        k.ell = 2 pi (V^T y)^T diag(s)^-1 (U x), so this is the FFT of shape s
        read at the dual slots -V^T y.
        """
        f = np.asarray(f)
        if f.shape[0] != self.n:
            raise ValueError(f"field has {f.shape[0]} entries, cell has {self.n} sites")
        grid = np.fft.fftn(self.to_grid(f), axes=tuple(range(self.spec.d)))
        return self.from_grid(grid, dual=True)

    def idft(self, fhat: np.ndarray) -> np.ndarray:
        """Inverse transform: f(ell) = |B_N|^-1 sum_k e^{-i k.ell} g_hat(k)."""
        fhat = np.asarray(fhat, dtype=complex)
        if fhat.shape[0] != self.n:
            raise ValueError("spectrum size does not match dual grid")
        grid = np.fft.ifftn(self.to_grid(fhat, dual=True), axes=tuple(range(self.spec.d)))
        return self.from_grid(grid)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """Shape s of the diagonal-form grid that holds the sites and dual labels."""
        return self._fft_shape

    def to_grid(self, f: np.ndarray, dual: bool = False) -> np.ndarray:
        """Lay an (n, ...) array out on the s-grid; (*s, ...).

        Site x goes to slot U x mod s. With ``dual``, dual label y goes to slot
        -V^T y mod s: a forward FFT of a site field holds e^{i k.ell} there.
        """
        f = np.asarray(f)
        slots = self._neg_y_slots if dual else self._x_slots
        grid = np.empty_like(f)
        grid[slots] = f
        return grid.reshape(self._fft_shape + f.shape[1:])

    def from_grid(self, grid: np.ndarray, dual: bool = False) -> np.ndarray:
        """Read an (*s, ...) grid back at the site slots, or with ``dual`` at
        the dual slots -V^T y; (n, ...)."""
        d = len(self._fft_shape)
        slots = self._neg_y_slots if dual else self._x_slots
        return grid.reshape((self.n,) + grid.shape[d:])[slots]

    # -- fields -----------------------------------------------------------

    def zero_field(self) -> "DisplacementField":
        return DisplacementField(self, np.zeros((self.n, self.spec.m)))

    def stencil_gradients(self, values: np.ndarray) -> np.ndarray:
        """(n, |R|, m) finite-difference gradients Du for all sites at once."""
        return values[self._neighbors] - values[:, None, :]


@dataclass
class DisplacementField:
    """Map from supercell sites to R^m."""

    cell: Supercell
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.cell.n, self.cell.spec.m):
            raise ValueError(f"values must have shape ({self.cell.n}, {self.cell.spec.m})")
        self.values = v

    def mean(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def zero_mean(self) -> "DisplacementField":
        return DisplacementField(self.cell, self.values - self.mean())

    def gradients(self) -> np.ndarray:
        return self.cell.stencil_gradients(self.values)


def _taper_profile(r: np.ndarray, r_inner: float, r_outer: float) -> np.ndarray:
    """C^2 radial taper: 1 below r_inner, 0 above r_outer, quintic blend between."""
    t = np.clip((r_outer - r) / (r_outer - r_inner), 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def cutoff_T_R(u: DisplacementField, R: float) -> DisplacementField:
    """Truncate a displacement field: exact inside |ell| <= R/2, constant outside R.

    Realized as eta_R (u - c) + c with a C^2 radial taper eta_R and c the
    mean of u over the blending annulus. The taper is 1 on |ell| <= R/2 + r_cut
    and 0 on |ell| >= R - r_cut, so both the inner-region identity Dw = Du
    (|ell| <= R/2) and the outer vanishing Dw = 0 (|ell| >= R) hold exactly.
    """
    cell = u.cell
    r_cut = cell.spec.r_cut
    r_inner = R / 2 + r_cut
    r_outer = R - r_cut
    if r_outer <= r_inner + 1e-12:
        raise PreconditionError(f"cut-off radius R={R} below minimal radius {4 * r_cut}")
    r = cell.r
    annulus = (r > R / 2) & (r < R)
    c = u.values[annulus].mean(axis=0) if np.any(annulus) else u.mean()
    eta = _taper_profile(r, r_inner, r_outer)
    w = eta[:, None] * (u.values - c) + c
    w[eta >= 1.0] = u.values[eta >= 1.0]       # inner region bit-exact
    w[eta <= 0.0] = c                          # outer region exactly constant
    return DisplacementField(cell, w)
