"""Square-root kernels, conjugated operators and positive-spectrum calculus.

F_hat(k) = h_hat(k)^{-1/2} defines the inverse square root of the homogeneous
Hessian; its periodic projection (k=0 excluded) gives the supercell kernel
F_N with F_N H_hom F_N + pi_N = I. log+ / det+ act on the strictly positive
part of the spectrum only, with a hard error on ambiguous eigenvalues.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import LinearLatticeOperator, hessian
from .lattice import Supercell
from .potentials import PotentialModel, symbol_h_batch

__all__ = [
    "AmbiguousSpectrumError",
    "ModeClassification",
    "KernelTable",
    "symbol_F",
    "kernel_FN",
    "kernel_F",
    "projector_constants",
    "conjugate_operator",
    "classify_eigenvalues",
    "logdet_plus",
    "logdet_plus_factorized",
    "matrix_log_plus",
    "log_plus_contour",
    "generalized_eigen",
    "FApplier",
    "site_log_traces",
]

DENSE_LIMIT = 6000
DENSE_EIG_LIMIT = 400        # extremal eigenpairs: dense eigh up to this dimension
LOBPCG_TOL = 1e-10           # LOBPCG residual bound, relative to the operator norm
LOBPCG_MAXITER = 400
LOBPCG_GUARD = 2
LOBPCG_RESTARTS = 2           # restarts of a block that misses the residual check
ZERO_TOL_FACTOR = 1e-8
GAP_FACTOR = 10.0
CHEB_DEGREES = (*range(8, 65, 4), 128, 256, 512, 1024, 2048)   # log expansion, lowest first
SYMMETRY_TOL = 1e-12         # relative probe residual of a verified point-group element
SYMMETRY_SEED = 11


class AmbiguousSpectrumError(RuntimeError):
    """Eigenvalues fell inside the classification dead zone."""


@dataclass
class ModeClassification:
    """Audit record of an operator spectrum split into zero / negative / positive.

    ``complete`` is False for a Hessian certificate, which keeps only the low
    end and a top entry; at every size that entry is the Gershgorin bound, so
    ``sigma_max`` and ``tau_zero`` are upper bounds.
    """

    eigenvalues: np.ndarray
    labels: list[str]
    tau_zero: float
    n_zero: int
    n_negative: int
    n_positive: int
    sigma_min: float
    sigma_max: float
    complete: bool = True

    def to_dict(self) -> dict:
        return {
            "tau_zero": self.tau_zero,
            "n_zero": self.n_zero,
            "n_negative": self.n_negative,
            "n_positive": self.n_positive,
            "sigma_min": self.sigma_min,
            "sigma_max": self.sigma_max,
            "complete": self.complete,
        }


def classify_eigenvalues(eigs: np.ndarray, expected_zero: int,
                         complete: bool = True) -> ModeClassification:
    """Split eigenvalues into translation zeros, negatives and positives.

    tau_zero = 1e-8 * max|lambda|; exactly ``expected_zero`` eigenvalues may
    lie in the dead zone [-tau, tau], and every other eigenvalue must clear
    the zone by a factor of 10, otherwise a hard error is raised.
    """
    eigs = np.sort(np.asarray(eigs, dtype=float))
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    tau = ZERO_TOL_FACTOR * scale
    zero = np.abs(eigs) <= tau
    if int(zero.sum()) != expected_zero:
        raise AmbiguousSpectrumError(
            f"expected {expected_zero} zero modes, found {int(zero.sum())} within {tau:g}"
        )
    neg = eigs < -tau
    pos = eigs > tau
    ambiguous_neg = neg & (eigs > -GAP_FACTOR * tau)
    ambiguous_pos = pos & (eigs < GAP_FACTOR * tau)
    if np.any(ambiguous_neg) or np.any(ambiguous_pos):
        bad = eigs[ambiguous_neg | ambiguous_pos]
        raise AmbiguousSpectrumError(f"eigenvalues {bad} inside the dead zone around {tau:g}")
    labels = np.where(zero, "translation_zero",
                      np.where(neg, "unstable_negative", "positive")).tolist()
    pos_vals = eigs[pos]
    return ModeClassification(
        eigenvalues=eigs, labels=labels, tau_zero=tau,
        n_zero=int(zero.sum()), n_negative=int(neg.sum()), n_positive=int(pos.sum()),
        sigma_min=float(pos_vals.min()) if pos_vals.size else np.nan,
        sigma_max=float(pos_vals.max()) if pos_vals.size else np.nan,
        complete=complete,
    )


# ---------------------------------------------------------------------------
# symbols and kernels
# ---------------------------------------------------------------------------

def _inverse_sqrt_batch(hs: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(hs)
    if np.min(w) <= 0:
        raise FloatingPointError(
            f"symbol not positive definite (min eigenvalue {np.min(w):g}); "
            "unstable model or k=0 requested"
        )
    return np.einsum("kij,kj,klj->kil", U, 1.0 / np.sqrt(w), U.conj(), optimize=True)


def symbol_F(model: PotentialModel, k: np.ndarray) -> np.ndarray:
    """Inverse square root of the homogeneous symbol at one k != 0."""
    k = np.asarray(k, dtype=float)
    out = _inverse_sqrt_batch(symbol_h_batch(model, k[None]))[0]
    return out.real if np.max(np.abs(out.imag)) < 1e-13 else out


@dataclass
class KernelTable:
    """Translation-invariant m x m kernel tabulated on a supercell.

    ``source`` is 'periodic' (the level-N kernel itself) or 'infinite' (a
    Brillouin-zone quadrature stand-in for the infinite-lattice kernel at
    level M_quad, valid for offsets up to about a quarter of the cell).
    """

    cell: Supercell
    values: np.ndarray          # (n, m, m), indexed like cell sites
    source: str
    level: int
    _dtable: np.ndarray | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.cell.spec.m

    @property
    def validity_radius(self) -> float:
        if self.source == "periodic":
            return np.inf
        rB = np.linalg.svd(self.cell.spec.B, compute_uv=False)[-1]
        return self.level * rB / 4.0

    def dtable(self) -> np.ndarray:
        """D_rho F(ell) = F(ell + rho) - F(ell) for all sites; (n, nR, m, m)."""
        if self._dtable is None:
            nb = self.cell.neighbors
            self._dtable = self.values[nb] - self.values[:, None]
        return self._dtable

    def d2_at(self, rows: np.ndarray) -> np.ndarray:
        """Second differences D_rho1 D_rho2 F at given site ordinals; (k, nR, nR, m, m)."""
        cell = self.cell
        sx = cell.spec.stencil_x
        x0 = cell.x[rows]
        idx_pp = cell.site_indices(x0[:, None, None, :] + sx[None, :, None, :] + sx[None, None, :, :])
        idx_p1 = cell.site_indices(x0[:, None, :] + sx[None, :, :])
        V = self.values
        return (V[idx_pp] - V[idx_p1][:, :, None] - V[idx_p1][:, None, :]
                + V[rows][:, None, None])

    def dense_operator(self) -> LinearLatticeOperator:
        """Full block-Toeplitz matrix (F)_{ell n} = F(ell - n)."""
        cell = self.cell
        dim = cell.n * self.m
        if dim > DENSE_LIMIT:
            raise MemoryError(f"dense kernel operator of dimension {dim} exceeds limit")
        off = cell.offset_table()
        blocks = self.values[off]                       # (n, n, m, m)
        mat = blocks.transpose(0, 2, 1, 3).reshape(dim, dim)
        return LinearLatticeOperator(cell, mat)


def _fhat_dual(model: PotentialModel, cell: Supercell) -> np.ndarray:
    """F_hat = h_hat^{-1/2} on the cell's dual grid, zero at k = 0; (n, m, m)."""
    zero = np.all(cell.dual.y == 0, axis=1)
    fh = np.zeros((cell.n, model.spec.m, model.spec.m), dtype=complex)
    fh[~zero] = _inverse_sqrt_batch(symbol_h_batch(model, cell.dual.k[~zero]))
    return fh


def kernel_FN(model: PotentialModel, cell: Supercell) -> KernelTable:
    """Periodic kernel F_N via the dual grid with the k=0 term excluded."""
    vals = cell.idft(_fhat_dual(model, cell))
    imag = float(np.max(np.abs(vals.imag)))
    if imag > 1e-10 * (1 + np.max(np.abs(vals.real))):
        raise FloatingPointError(f"periodic kernel has imaginary residue {imag:g}")
    return KernelTable(cell=cell, values=vals.real, source="periodic", level=cell.N)


def kernel_F(model: PotentialModel, M_quad: int, max_offset: float | None = None) -> KernelTable:
    """Infinite-lattice kernel via Brillouin-zone quadrature at level M_quad.

    Identical to the periodic projection at level M_quad; offsets should stay
    below a quarter of the quadrature cell (checked against ``max_offset``).
    """
    big = Supercell(model.spec, M_quad)
    table = kernel_FN(model, big)
    table = KernelTable(cell=big, values=table.values, source="infinite", level=M_quad)
    if max_offset is not None and max_offset > table.validity_radius + 1e-9:
        raise ValueError(
            f"M_quad={M_quad} too small for offsets up to {max_offset}"
        )
    return table


def projector_constants(cell: Supercell) -> LinearLatticeOperator:
    """Orthogonal projector pi_N onto constant (translation) displacements."""
    n, m = cell.n, cell.spec.m
    mat = np.kron(np.full((n, n), 1.0 / n), np.eye(m))
    return LinearLatticeOperator(cell, mat)


def conjugate_operator(FN: KernelTable, H: LinearLatticeOperator,
                       include_pi: bool = True) -> LinearLatticeOperator:
    """Dense F_N H F_N, optionally plus the constant projector pi_N."""
    if FN.cell is not H.cell:
        if FN.cell.N != H.cell.N or FN.cell.n != H.cell.n:
            raise ValueError("kernel table and operator live on different supercells")
    Fmat = FN.dense_operator().mat
    A = Fmat @ (H.mat @ Fmat)
    A = 0.5 * (A + A.T)
    if include_pi:
        A += projector_constants(H.cell).mat
    return LinearLatticeOperator(H.cell, A)


# ---------------------------------------------------------------------------
# positive-spectrum calculus
# ---------------------------------------------------------------------------

def _dense(op) -> np.ndarray:
    if isinstance(op, LinearLatticeOperator):
        return op.dense()
    return np.asarray(op)


def logdet_plus(op, expected_zero: int,
                expected_negative: int | None = None) -> tuple[float, ModeClassification]:
    """Sum of log over strictly positive eigenvalues, with audit classification."""
    A = _dense(op)
    w = np.linalg.eigvalsh(A)
    cls = classify_eigenvalues(w, expected_zero)
    if expected_negative is not None and cls.n_negative != expected_negative:
        raise AmbiguousSpectrumError(
            f"expected {expected_negative} negative modes, found {cls.n_negative}"
        )
    pos = w[w > cls.tau_zero]
    return float(np.sum(np.log(pos))), cls


def _perm_parity(perm: np.ndarray) -> int:
    seen = np.zeros(len(perm), dtype=bool)
    parity = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


def logdet_plus_factorized(H: LinearLatticeOperator, negatives: Sequence[float] = ()) -> float:
    """log det+ of a sparse lattice Hessian via a bordered sparse factorization.

    Borders H with the orthonormal translation modes Z, so that
    det [[H, Z], [Z^T, 0]] = (-1)^m det+(H) * prod(negative eigenvalues).
    Known negative eigenvalues (from certification) are divided back out;
    the overall sign is audited. The bordered matrix has a symmetric
    pattern, so the columns take a minimum-degree order of A^T + A.
    """
    m = H.cell.spec.m
    Z = sp.csc_matrix(_translation_modes(H.cell.n, m))
    lu = spla.splu(sp.bmat([[H.mat, Z], [Z.T, None]], format="csc"),
                   permc_spec="MMD_AT_PLUS_A")
    diag = lu.U.diagonal()
    if np.any(diag == 0):
        raise AmbiguousSpectrumError("singular bordered factorization")
    logabs = float(np.sum(np.log(np.abs(diag))))
    sign = int(np.prod(np.sign(diag))) * _perm_parity(lu.perm_r) * _perm_parity(lu.perm_c)
    expect_sign = (-1) ** m * (int(np.prod(np.sign(negatives))) if negatives else 1)
    if sign != expect_sign:
        raise AmbiguousSpectrumError(
            f"determinant sign {sign} inconsistent with {len(negatives)} negative modes"
        )
    if negatives:
        logabs -= float(np.sum(np.log(np.abs(np.asarray(negatives)))))
    return logabs


def matrix_log_plus(op, expected_zero: int,
                    expected_negative: int = 0) -> tuple[LinearLatticeOperator, ModeClassification]:
    """log+ A via eigendecomposition: log on positive modes, zero elsewhere."""
    A = _dense(op)
    w, V = np.linalg.eigh(A)
    cls = classify_eigenvalues(w, expected_zero)
    if cls.n_negative != expected_negative:
        raise AmbiguousSpectrumError(
            f"expected {expected_negative} negative modes, found {cls.n_negative}"
        )
    lw = np.where(w > cls.tau_zero, np.log(np.maximum(w, 1e-300)), 0.0)
    L = (V * lw) @ V.T
    cell = op.cell if isinstance(op, LinearLatticeOperator) else None
    if cell is None:
        return L, cls
    return LinearLatticeOperator(cell, L), cls


def _rectangle_nodes(sig_lo: float, sig_hi: float, n_per_edge: int):
    """Counter-clockwise rectangle enclosing [sig_lo, sig_hi] but not 0."""
    re_lo, re_hi = sig_lo / 2.0, 2.0 * sig_hi
    im = sig_lo / 2.0
    corners = [re_lo - 1j * im, re_hi - 1j * im, re_hi + 1j * im, re_lo + 1j * im]
    nodes, weights = [], []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        t = np.linspace(0.0, 1.0, n_per_edge + 1)
        z = a + (b - a) * t
        w = np.full(n_per_edge + 1, (b - a) / n_per_edge, dtype=complex)
        w[0] *= 0.5
        w[-1] *= 0.5
        nodes.append(z)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def log_plus_contour(op, sigma_bounds: tuple[float, float] | None = None,
                     tol: float = 1e-6, start_nodes: int = 16,
                     max_nodes: int = 2048) -> np.ndarray:
    """log+ A by trapezoidal resolvent quadrature around the positive spectrum.

    Node count per edge doubles until stable to ``tol``. The rectangle's
    corners limit the plain trapezoid sums to O(h^2), so one Richardson level
    is applied across the doubling sequence (Romberg acceleration on the same
    samples). Independent of the eigenvector path; used as a
    functional-calculus cross-check.
    """
    A = _dense(op)
    if sigma_bounds is None:
        w = np.linalg.eigvalsh(A)
        pos = w[w > ZERO_TOL_FACTOR * np.max(np.abs(w))]
        sigma_bounds = (float(pos.min()), float(pos.max()))
    sig_lo, sig_hi = sigma_bounds
    if sig_lo <= 0:
        raise ValueError("contour requires a strictly positive lower spectral bound")
    eye = np.eye(A.shape[0])
    prev_T = None
    prev_R = None
    n_edge = start_nodes
    while n_edge <= max_nodes:
        nodes, weights = _rectangle_nodes(sig_lo, sig_hi, n_edge)
        acc = np.zeros_like(A, dtype=complex)
        for z, w_z in zip(nodes, weights):
            acc += w_z * np.log(z) * np.linalg.solve(z * eye - A, eye)
        T = acc / (2j * np.pi)
        R = (4.0 * T - prev_T) / 3.0 if prev_T is not None else T
        if prev_R is not None and np.max(np.abs(R - prev_R)) < tol * (1 + np.max(np.abs(R))):
            return R.real
        prev_T, prev_R = T, R
        n_edge *= 2
    raise RuntimeError("contour quadrature did not stabilize")


# ---------------------------------------------------------------------------
# iterative eigenpairs on the zero-mean subspace
# ---------------------------------------------------------------------------

def _mean_project(v: np.ndarray, n: int, m: int) -> np.ndarray:
    """pi_N v for flattened (dim,) or (dim, batch) vectors."""
    shape = v.shape
    vv = v.reshape(n, m, -1)
    mean = vv.mean(axis=0, keepdims=True)
    return np.broadcast_to(mean, vv.shape).reshape(shape)


def _translation_modes(n: int, m: int) -> np.ndarray:
    """Orthonormal constant fields, one column per component; (n m, m)."""
    return np.kron(np.full((n, 1), 1.0 / np.sqrt(n)), np.eye(m))


def _lobpcg_eig(matvec, cell: Supercell, norm_scale: float, k: int, mode: str, seed: int,
                precond, X0, stage: str):
    """LOBPCG on the complement of the translations, preconditioned by ``precond``."""
    n, m = cell.n, cell.spec.m
    dim = n * m
    # guard columns: a wanted eigenvalue inside a near-degenerate cluster (the
    # acoustic band edge of a Hessian) stalls a block that ends at it
    guard = LOBPCG_GUARD if precond is not None else 0
    X = np.random.default_rng(seed).standard_normal((dim, k + guard))
    if X0 is not None:
        X0 = np.asarray(X0, dtype=float).reshape(dim, -1)[:, :X.shape[1]]
        X[:, :X0.shape[1]] = X0
    res_tol = LOBPCG_TOL * max(norm_scale, 1.0)
    for _ in range(LOBPCG_RESTARTS + 1):
        with warnings.catch_warnings():
            # non-convergence is judged below from the explicit residuals
            warnings.simplefilter("ignore", UserWarning)
            w, X = spla.lobpcg(matvec, X, M=precond, Y=_translation_modes(n, m), tol=res_tol,
                               maxiter=LOBPCG_MAXITER, largest=(mode == "LA"))
        order = (np.argsort(w) if mode == "SA" else np.argsort(-w))[:k]
        V = X[:, order]
        # scipy locks converged columns and mixes them once more at the end, so a
        # column may finish a little above the tolerance it met: check at 10x
        res = np.linalg.norm(np.asarray(matvec(V)) - V * w[order], axis=0)
        if np.all(res <= 10.0 * res_tol):
            return w[order], V
        # a stalled block falls back to its best iterate, which may predate the
        # wanted columns' convergence: restart from the whole block
    raise RuntimeError(f"{stage} at N={cell.N}: LOBPCG eigenpair residual {np.max(res):g} "
                       f"above {10 * res_tol:g} after {LOBPCG_RESTARTS + 1} runs")


def _dense_symmetric(matvec, dim: int) -> np.ndarray:
    """The symmetric part of a block matvec's operator, as a dense (dim, dim)
    matrix built 256 unit columns at a time."""
    A = np.empty((dim, dim))
    for lo in range(0, dim, 256):
        hi = min(lo + 256, dim)
        A[:, lo:hi] = np.asarray(matvec(np.eye(dim, hi - lo, -lo)), dtype=float)
    return 0.5 * (A + A.T)


def _extremal_eig(matvec, cell: Supercell, norm_scale: float, k: int = 1, seed: int = 7,
                  precond=None, X0: np.ndarray | None = None,
                  stage: str = "extremal eigenpairs", top: bool = False):
    """The k lowest eigenpairs (w, V) of a symmetric operator on the
    complement of the translations and, with ``top``, its top eigenvalue
    there: (w, V, w_top). ``matvec`` takes (dim,) vectors and (dim, batch)
    blocks; ``norm_scale`` bounds the operator norm, or is 0 when no bound
    is known.

    The one size switch of every extremal solve. Up to ``DENSE_EIG_LIMIT``
    degrees of freedom the operator is built in block matvecs, its constants
    are shifted above the spectrum by 10 ``norm_scale`` (10 times the built
    matrix's Gershgorin bound when that is 0), and one dense ``eigh`` gives
    both ends. Above it LOBPCG runs with the translations as constraints,
    preconditioned by ``precond`` (a symmetric positive map of blocks, such
    as F_N^2 = (H^hom)^+ for a lattice Hessian) when given: first the top
    (LA, named ``stage`` + ' top'), then the k lowest (SA, from a seeded
    random block or ``X0``, named ``stage`` + ' bottom' when the top was
    solved). Residuals are checked, and a miss raises RuntimeError naming the
    solve, the cell size N and the residual.
    """
    n, m = cell.n, cell.spec.m
    if n * m <= DENSE_EIG_LIMIT:
        A = _dense_symmetric(matvec, n * m)
        shift = 10.0 * (norm_scale or float(np.abs(A).sum(axis=1).max()))
        A += shift * _mean_project(np.eye(n * m), n, m)
        w, V = np.linalg.eigh(A)
        k = min(k, n * m - m)
        return (w[:k], V[:, :k], float(w[-m - 1])) if top else (w[:k], V[:, :k])
    if not top:
        return _lobpcg_eig(matvec, cell, norm_scale, k, "SA", seed, precond, X0, stage)
    w_top = float(_lobpcg_eig(matvec, cell, norm_scale, 1, "LA", seed, precond, None,
                              f"{stage} top")[0][0])
    w, V = _lobpcg_eig(matvec, cell, max(norm_scale, w_top), k, "SA", seed, precond, X0,
                       f"{stage} bottom")
    return w, V, w_top


class FApplier:
    """Matrix-free application of the periodic kernel F_N by real-input FFTs.

    On the cell's diagonal-form grid of shape s, F_N v = irfftn(F_g rfftn(v)):
    v is laid out at the site slots and F_hat(y) at the slot of -y, where
    rfftn holds e^{i k.ell}. F_N is real, so F_g(-q) = conj F_g(q) (checked
    once on the full grid), and F_g (or F_g^2 after ``squared``) is kept on
    the Hermitian half-grid [..., :s_last // 2 + 1] only. ``forward`` and
    ``inverse`` are the two half-grid transforms and ``dot`` the real inner
    product of fields held there (Parseval).
    """

    def __init__(self, cell: Supercell, model: PotentialModel):
        self.cell = cell
        self.m = model.spec.m
        s = cell.grid_shape
        if s[-1] % 2:
            raise FloatingPointError(f"odd last axis of the N={cell.N} cell's grid {s}")
        axes = tuple(range(len(s)))
        fg = cell.to_grid(_fhat_dual(model, cell), dual=True)
        mirrored = np.roll(np.flip(fg, axes), 1, axes)          # fg(-q) at slot q
        asym = float(np.max(np.abs(mirrored - fg.conj())))
        if asym > 1e-10 * (1 + float(np.max(np.abs(fg)))):
            raise FloatingPointError(
                f"F_hat is not Hermitian on the N={cell.N} cell (grid {s}): "
                f"residue {asym:g}")
        self.fhat = np.ascontiguousarray(fg[..., : s[-1] // 2 + 1, :, :])
        # Parseval: a half-grid slot stands for itself and its mirror, except
        # the last-axis slots 0 and s_last / 2, which are their own mirror
        # (s_last is even: the integer row and column operations that diagonalise
        # 2N C keep every entry a multiple of 2N)
        w = np.full(s[-1] // 2 + 1, 2.0 / cell.n)
        w[0] = w[-1] = 1.0 / cell.n
        self._row_weights = np.repeat(np.broadcast_to(w, self.fhat.shape[:-2]).ravel(), self.m)

    def forward(self, v: np.ndarray) -> np.ndarray:
        """rfftn of (dim,) or (dim, batch) flattened fields; (*half, m, batch)."""
        s = self.cell.grid_shape
        return np.fft.rfftn(self.cell.to_grid(v.reshape(self.cell.n, self.m, -1)),
                            axes=tuple(range(len(s))))

    def inverse(self, vhat: np.ndarray) -> np.ndarray:
        """irfftn of a (*half, m, batch) spectrum; (dim, batch) flattened fields."""
        s = self.cell.grid_shape
        out = np.fft.irfftn(vhat, s=s, axes=tuple(range(len(s))))
        return self.cell.from_grid(out).reshape(self.cell.n * self.m, -1)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """v: (dim,) or (dim, batch) flattened fields; returns same shape."""
        return self.inverse(self.fhat @ self.forward(v)).reshape(v.shape)

    def dot(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """<x_j, y_j> of the real fields whose half-grid spectra are the
        columns of X and Y, (*half, m, batch) each; (batch,)."""
        c = X.shape[-1]
        xy = np.einsum("g,gc,gc->c", self._row_weights,
                       np.ascontiguousarray(X).reshape(-1, c).view(np.float64),
                       np.ascontiguousarray(Y).reshape(-1, c).view(np.float64))
        return xy.reshape(c, 2).sum(axis=1)

    def site_dot(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``dot`` summed over each site's m consecutive columns; (batch // m,)."""
        return self.dot(X, Y).reshape(-1, self.m).sum(axis=1)

    def squared(self) -> "FApplier":
        """F_N^2 = (H^hom)^+, applied the same way; a preconditioner for Hessians."""
        sq = copy.copy(self)
        sq.fhat = self.fhat @ self.fhat
        return sq


def _hessian_precond(cell: Supercell, model: PotentialModel):
    """F_N^2 = (H^hom)^+ as a block map, the LOBPCG preconditioner of a
    lattice Hessian. Its ``FApplier`` is built at the first call, so the
    dense route of ``_extremal_eig``, which makes none, does not pay for it."""
    built = []

    def apply(X: np.ndarray) -> np.ndarray:
        if not built:
            built.append(FApplier(cell, model).squared())
        return built[0].apply(X)

    return apply


def _site_columns(F: FApplier, sites: np.ndarray):
    """(slice of ``sites``, half-grid spectra of their unit columns) per chunk
    of sites: the m columns e_(ell, i) of up to 256 // m sites at a time."""
    dim = F.cell.n * F.m
    per_chunk = max(1, 256 // F.m)
    for lo in range(0, len(sites), per_chunk):
        chunk = slice(lo, lo + len(sites[lo:lo + per_chunk]))
        rows = (sites[chunk, None] * F.m + np.arange(F.m)).ravel()
        E = np.zeros((dim, rows.size))
        E[rows, np.arange(rows.size)] = 1.0
        yield chunk, F.forward(E)


def _fhf_matvec(F: FApplier, H: LinearLatticeOperator):
    def mv(v):
        return F.apply(np.asarray(H.mat @ F.apply(v)))
    return mv


def generalized_eigen(H: LinearLatticeOperator, model: PotentialModel,
                      expected_negative: int = 0, tol: float = 1e-8):
    """The one F_N H F_N solve of a point: positive bounds and negative pairs.

    The nonzero spectrum of F_N H F_N is the generalized spectrum of
    H psi = mu H_hom psi on the zero-mean subspace, with psi = F_N w. One
    unpreconditioned ``_extremal_eig`` call gives the ``expected_negative``
    + 1 lowest eigenpairs and the top eigenvalue off the translations, on
    either route. ``classify_eigenvalues`` checks those ends: nothing in the
    dead zone and exactly ``expected_negative`` negatives, so an unexpected
    negative mode and a missing one both raise AmbiguousSpectrumError. Each
    negative pair is checked as a generalized eigenpair against the assembled
    H_hom. Returns (sigma_lo, sigma_hi, mus, modes): the bounds of the
    positive spectrum, the negative eigenvalues and their unit zero-mean
    modes w.
    """
    cell = H.cell
    n, m = cell.n, cell.spec.m
    F = FApplier(cell, model)
    w, V, w_top = _extremal_eig(_fhf_matvec(F, H), cell, 0.0, k=expected_negative + 1,
                                stage="F_N H F_N", top=True)
    cls = classify_eigenvalues(np.append(w, w_top), expected_zero=0)
    if cls.n_negative != expected_negative:
        raise AmbiguousSpectrumError(
            f"expected {expected_negative} negative modes, found {cls.n_negative}")
    mus, modes = [], []
    H_hom = hessian(model.homogenized(), cell.zero_field()) if expected_negative else None
    for mu, vec in zip(w[:expected_negative], V[:, :expected_negative].T):
        vec = vec - _mean_project(vec, n, m)
        vec /= np.linalg.norm(vec)
        psi = F.apply(vec)
        lhs = np.asarray(H.mat @ psi)
        res = np.linalg.norm(lhs - mu * np.asarray(H_hom.mat @ psi))
        if res > tol * max(np.linalg.norm(lhs), 1e-12):
            raise RuntimeError(f"generalized eigenpair residual {res:g} above tolerance")
        mus.append(float(mu))
        modes.append(vec)
    return cls.sigma_min, cls.sigma_max, mus, modes


# ---------------------------------------------------------------------------
# diagonal blocks of log+ (site entropy engine)
# ---------------------------------------------------------------------------

def _cheb_log_poly(a: float, b: float, tol: float = 1e-11):
    """Chebyshev interpolant of log on [a, b] at the lowest degree of
    ``CHEB_DEGREES`` whose error, sampled at 4 deg + 17 points, is below
    ``tol`` times max(1, |log a|, |log b|). Returns (poly, err).

    The ladder stops at the first degree whose sampled error grows: past the
    round-off floor a higher degree only adds rounding. Then, or past the
    last degree, it raises with the interval and the best error reached.
    """
    from numpy.polynomial import chebyshev as C

    bound = tol * max(1.0, abs(np.log(a)), abs(np.log(b)))
    best = np.inf
    for deg in CHEB_DEGREES:
        p = C.Chebyshev.interpolate(np.log, deg, domain=[a, b])
        xs = np.linspace(a, b, 4 * deg + 17)
        err = float(np.max(np.abs(p(xs) - np.log(xs))))
        if err < bound:
            return p, err
        if err > best:
            break
        best = err
    raise RuntimeError(f"log approximation on [{a:g}, {b:g}] (b/a = {b / a:.4g}) reached "
                       f"error {best:g} at best, above the bound {bound:g}")


def _site_orbits(F: FApplier, H: LinearLatticeOperator, sites: np.ndarray):
    """(representatives, inverse, info): ``sites`` = representatives[inverse],
    each site mapped to the smallest of its images under the point-group
    elements T of the cell that commute with F_N H F_N.

    One block product checks every element on a seeded random probe x and
    its images: T is kept when |F_N H F_N T x - T F_N H F_N x| <= ``SYMMETRY_TOL``
    |F_N H F_N x|. T is orthogonal, so a kept element commutes with log+ too,
    and its site traces at ell and Q ell are equal.
    """
    cell = F.cell
    group = cell.point_group
    kept, residual = [group[0]], 0.0
    if len(group) > 1:
        x = np.random.default_rng(SYMMETRY_SEED).standard_normal((cell.n, F.m))
        X = np.stack([g.act(x) for g in group], axis=-1)
        Y = _fhf_matvec(F, H)(X.reshape(cell.n * F.m, -1)).reshape(X.shape)
        scale = np.linalg.norm(Y[..., 0])
        for j, g in enumerate(group[1:], start=1):
            res = float(np.linalg.norm(Y[..., j] - g.act(Y[..., 0])) / scale)
            if res <= SYMMETRY_TOL:
                kept.append(g)
                residual = max(residual, res)
    reps, inverse = np.unique(np.min([g.perm[sites] for g in kept], axis=0),
                              return_inverse=True)
    info = {"symmetry_order": len(kept), "orbit_sites": len(reps),
            "symmetry_residual": residual}
    return reps, inverse, info


def site_log_traces(H: LinearLatticeOperator, model: PotentialModel,
                    sites: np.ndarray, expected_negative: int = 0,
                    spectrum: tuple | None = None) -> tuple[np.ndarray, dict]:
    """tr [log+ (F_N H F_N)]_{ell ell} for the requested site ordinals.

    A Chebyshev expansion of log on the measured positive spectral interval,
    applied to deflated site basis columns, at every size. The bounds and
    negative modes come from ``spectrum``, a point's carried
    ``generalized_eigen`` result, and are solved otherwise. The degree is
    the lowest that meets the ``_cheb_log_poly`` check, and the moments up
    to it come from ceil(degree / 2) block products with F_N H F_N per chunk
    of sites. The recurrence runs on the Hermitian half-grid spectra of
    ``FApplier``, so a block product is one ``irfftn``, one sparse H product
    and one ``rfftn``; projections and moments are Parseval inner products
    there. The recurrence runs once per orbit of the cell's point group
    that ``_site_orbits`` verifies on F_N H F_N, and each site reads its
    representative's trace. Returns (traces, info): info gives the spectral
    bounds, the degree, its sampled error, the carried negatives,
    ``matvecs`` (the number of block products of the recurrence),
    ``symmetry_order`` (verified elements, identity included),
    ``orbit_sites`` (sites run) and ``symmetry_residual`` (largest accepted
    probe residual).
    """
    cell = H.cell
    sites = np.asarray(sites, dtype=int)
    F = FApplier(cell, model)
    if spectrum is None:
        spectrum = generalized_eigen(H, model, expected_negative)
    sig_lo, sig_hi, negatives, deflate = spectrum
    if sig_lo <= 0:
        raise AmbiguousSpectrumError(f"positive spectrum lower bound {sig_lo:g} <= 0")
    a, b = 0.95 * sig_lo, 1.05 * sig_hi
    poly, err = _cheb_log_poly(a, b)
    coef = poly.coef
    deg = len(coef) - 1
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    deflate_hat = [F.forward(vec) for vec in deflate]
    zero_q = (0,) * len(cell.grid_shape)

    def step(X, prev=None):
        """(F_N H F_N - mid) X / half on half-grid spectra, or with ``prev``
        the recurrence term 2 (F_N H F_N - mid) X / half - prev."""
        Y = F.fhat @ F.forward(np.asarray(H.mat @ F.inverse(F.fhat @ X)))
        Y -= mid * X
        Y *= (1.0 if prev is None else 2.0) / half
        if prev is not None:
            Y -= prev
        return Y

    def project(X):
        for vec in deflate_hat:
            X -= vec * F.dot(np.broadcast_to(vec, X.shape), X)
        X[zero_q] = 0.0                      # the constants
        return X

    reps, inverse, sym_info = _site_orbits(F, H, sites)
    traces = np.zeros(len(reps))
    matvecs = 0
    for chunk, E_hat in _site_columns(F, reps):
        # rounding-level components along the translations and deflated modes
        # grow like T_k((0 - mid) / half) in the recurrence: project every term
        t_prev = project(E_hat)
        t_cur = project(step(t_prev))
        # moments mu_k = <Ed e, T_k Ed e> up to deg from T_0..T_ceil(deg/2), by
        # T_2j = 2 T_j^2 - T_0 and T_2j+1 = 2 T_j+1 T_j - T_1 (P F H F P is symmetric)
        mu = np.empty((deg + 1, len(reps[chunk])))
        mu[0], mu[1] = F.site_dot(t_prev, t_prev), F.site_dot(t_prev, t_cur)
        mu[2] = 2.0 * F.site_dot(t_cur, t_cur) - mu[0]
        for k in range(2, (deg + 1) // 2 + 1):
            t_prev, t_cur = t_cur, project(step(t_cur, t_prev))
            mu[2 * k - 1] = 2.0 * F.site_dot(t_cur, t_prev) - mu[1]
            if 2 * k <= deg:
                mu[2 * k] = 2.0 * F.site_dot(t_cur, t_cur) - mu[0]
        matvecs += (deg + 1) // 2
        traces[chunk] = coef @ mu
    info = {"method": "chebyshev", "sigma_min": sig_lo, "sigma_max": sig_hi,
            "cheb_degree": deg, "cheb_error": err, "matvecs": matvecs,
            "negatives": negatives, **sym_info}
    return traces[inverse], info
