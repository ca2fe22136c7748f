"""Span and count recording around latthermo's public functions.

Spans are recorded from outside the package: each public function at a
layer boundary (see ``install``) is replaced, for the duration of one traced
iteration, by a wrapper that opens a span, forwards the call and closes it. The
package binds names with ``from .x import y``, so a wrapper replaces the
original at every module attribute that holds it. Class methods and the
numpy/scipy solver entry points are replaced on their class or module.

Spans stay in memory and are summarised (or written) once, at the end.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter, defaultdict

STAGE_OF = {
    "stationary.relax": "relax",
    "stationary.saddle": "saddle",
    "thermo.entropy_total": "thermo",
    "thermo.site_entropies": "thermo",
    "thermo.first_variation": "thermo",
    "thermo.renormalised": "thermo",
    "thermo.delta_S": "thermo",
    "thermo.htst_rate": "thermo",
}

# dense eigen solves smaller than this are symbol blocks or acoustic-limit
# checks, not lattice operators (the smallest cell in any workload has 64 dofs)
DENSE_EIG_MIN_DIM = 32


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class Tracer:
    """In-memory span store plus the counters read at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rows: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.row = None
        self.row_info: dict = {}
        self.error_stage: str | None = None
        self.failures: list[dict] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.rows.append(self.row)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def stage(self) -> str | None:
        """Outermost stage (relax, saddle, thermo) among the open spans."""
        for idx in self.stack:
            st = STAGE_OF.get(self.names[idx])
            if st is not None:
                return st
        return None

    def row_counter(self, key: str, inc: int = 1) -> None:
        if self.row is not None:
            info = self.row_info.setdefault(self.row, Counter())
            info[key] += inc

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name, in seconds: duration minus child spans."""
        n = len(self.names)
        self_t: dict = defaultdict(float)
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            self_t[self.names[i]] += dur
            p = self.parents[i]
            if p >= 0:
                self_t[self.names[p]] -= dur
        return dict(self_t)

    def span_table(self) -> dict:
        """Compact column form of every span, for writing once at the end."""
        names = sorted(set(self.names))
        code = {nm: i for i, nm in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "row"],
            "spans": [[code[self.names[i]], round(self.starts[i] - t0, 7),
                       round(self.ends[i] - t0, 7), self.parents[i], self.rows[i]]
                      for i in range(len(self.names))],
        }


class Patcher:
    """Replaces attributes and restores every one of them afterwards."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, wrapper) -> int:
        """Replace ``original`` at every latthermo module attribute bound to it."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "latthermo" or modname.startswith("latthermo.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no binding site found for {original!r}")
        return hits

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _wrap(tr: Tracer, name: str, fn, before=None, after=None):
    """Span wrapper: ``before(args, kwargs)`` and ``after(result, args, kwargs)``
    read counts at the boundary; a raised exception names its stage."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            st = STAGE_OF.get(name)
            if st is not None:
                tr.error_stage = st       # outermost stage wins as it unwinds
            raise
        finally:
            tr.close(idx)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def install(tr: Tracer) -> Patcher:
    """Install every span and counter wrapper; the caller restores the Patcher."""
    import numpy as np
    import scipy.sparse.linalg as spla
    from scipy.sparse.linalg import ArpackNoConvergence

    from latthermo import assembly, harness, lattice, potentials, serialize
    from latthermo import spectral, stationary, thermo

    P = Patcher()
    C = tr.counts

    # lattice -----------------------------------------------------------------
    Cell = lattice.Supercell
    P.set(Cell, "__init__", _wrap(tr, "lattice.supercell", Cell.__init__))

    def count_points(args, kwargs):
        x = np.asarray(_arg(args, kwargs, 1, "x"))
        C["lattice.site_indices_points"] += int(np.prod(x.shape[:-1]))

    P.set(Cell, "site_indices", _wrap(tr, "lattice.site_indices", Cell.site_indices,
                                      before=count_points))
    P.set(Cell, "offset_table", _wrap(tr, "lattice.offset_table", Cell.offset_table))

    def count_dft(args, kwargs):
        cell = args[0]
        C["lattice.dft_calls"] += 1
        if cell._fft_shape is None:                  # dense DFT matrix route
            mb = cell.n * cell.n * np.dtype(complex).itemsize / 2**20
            tr.maxima["lattice.dft_matrix_mb"] = max(tr.maxima["lattice.dft_matrix_mb"], mb)

    for meth in ("dft", "idft"):
        P.set(Cell, meth, _wrap(tr, "lattice.dft", getattr(Cell, meth), before=count_dft))

    # potentials --------------------------------------------------------------
    P.everywhere(potentials.stability_scan,
                 _wrap(tr, "potentials.stability_scan", potentials.stability_scan))
    P.everywhere(potentials.symbol_h_batch,
                 _wrap(tr, "potentials.symbol_h_batch", potentials.symbol_h_batch,
                       before=lambda a, k: C.update(["potentials.symbol_h_batch_calls"])))

    # assembly ----------------------------------------------------------------
    def hessian_key(args, kwargs):
        u = _arg(args, kwargs, 1, "u")
        kind = kwargs.get("kind", args[2] if len(args) > 2 else "defect")
        C["assembly.hessian_calls"] += 1
        tr.keys["hessian"].add(_digest(u.cell.N, kind, u.values.tobytes()))

    P.everywhere(assembly.hessian, _wrap(tr, "assembly.hessian", assembly.hessian,
                                         before=hessian_key))
    P.everywhere(assembly.energy_periodic,
                 _wrap(tr, "assembly.energy_grad", assembly.energy_periodic,
                       before=lambda a, k: C.update(["assembly.energy_calls"])))
    P.everywhere(assembly.gradient_periodic,
                 _wrap(tr, "assembly.energy_grad", assembly.gradient_periodic,
                       before=lambda a, k: C.update(["assembly.gradient_calls"])))
    P.everywhere(assembly.variation_contractions,
                 _wrap(tr, "assembly.variation", assembly.variation_contractions))

    # spectral ----------------------------------------------------------------
    eigsh = spla.eigsh

    def traced_eigsh(A, *args, **kwargs):
        C["spectral.eigsh_calls"] += 1

        def mv(v):
            C["spectral.matvecs"] += 1
            tr.row_counter("matvecs")
            return A.matvec(v)

        op = spla.LinearOperator(A.shape, matvec=mv, dtype=A.dtype)
        idx = tr.open("spectral.eigsh")
        try:
            return eigsh(op, *args, **kwargs)
        except ArpackNoConvergence:
            C["spectral.eigsh_nonconverged"] += 1
            tr.row_counter("arpack_nonconverged")
            raise
        finally:
            tr.close(idx)

    P.set(spla, "eigsh", traced_eigsh)
    splu = spla.splu
    traced_splu = _wrap(tr, "spectral.splu", splu,
                        before=lambda a, k: C.update(["spectral.splu_calls"]))

    @functools.wraps(splu)
    def splu_by_caller(*args, **kwargs):
        # the LU of a Newton step belongs to its stationary.newton_solve span
        if tr.stack and tr.names[tr.stack[-1]] == "stationary.newton_solve":
            return splu(*args, **kwargs)
        return traced_splu(*args, **kwargs)

    P.set(spla, "splu", splu_by_caller)

    def dense_eig(fn):
        traced = _wrap(tr, "spectral.dense_eig", fn)

        @functools.wraps(fn)
        def dispatch(a, *args, **kwargs):
            a_arr = np.asarray(a)
            if a_arr.ndim != 2 or a_arr.shape[0] < DENSE_EIG_MIN_DIM:
                return fn(a, *args, **kwargs)
            C["spectral.dense_eig_calls"] += 1
            tr.maxima["spectral.dense_eig_max_dim"] = max(
                tr.maxima["spectral.dense_eig_max_dim"], a_arr.shape[0])
            return traced(a, *args, **kwargs)

        return dispatch

    P.set(np.linalg, "eigh", dense_eig(np.linalg.eigh))
    P.set(np.linalg, "eigvalsh", dense_eig(np.linalg.eigvalsh))

    def fapply_columns(args, kwargs):
        v = np.asarray(_arg(args, kwargs, 1, "v"))
        C["spectral.fapply_columns"] += 1 if v.ndim == 1 else int(v.shape[1])

    P.set(spectral.FApplier, "apply", _wrap(tr, "spectral.fapply", spectral.FApplier.apply,
                                            before=fapply_columns))
    for fn in (spectral.logdet_plus, spectral.logdet_plus_factorized):
        P.everywhere(fn, _wrap(tr, "spectral.logdet", fn))
    P.everywhere(spectral.site_log_traces,
                 _wrap(tr, "spectral.site_traces", spectral.site_log_traces))
    P.everywhere(spectral.kernel_FN, _wrap(tr, "spectral.kernel", spectral.kernel_FN))
    P.everywhere(spectral.generalized_eigen,
                 _wrap(tr, "spectral.generalized_eigen", spectral.generalized_eigen))

    # stationary --------------------------------------------------------------
    def relax_done(point, args, kwargs):
        if tr.stage() is None:           # Newton solves inside the saddle search count there
            C["stationary.newton_iters"] += point.n_iter

    P.everywhere(stationary.relax_minimum,
                 _wrap(tr, "stationary.relax", stationary.relax_minimum, after=relax_done))
    P.set(stationary, "_bordered_solve",
          _wrap(tr, "stationary.newton_solve", stationary._bordered_solve,
                before=lambda a, k: C.update(["stationary.newton_solves"])))

    def saddle_done(point, args, kwargs):
        C["stationary.saddle_iters"] += point.n_iter

    P.everywhere(stationary.find_saddle,
                 _wrap(tr, "stationary.saddle", stationary.find_saddle, after=saddle_done))

    follow = stationary._saddle_follow

    @functools.wraps(follow)
    def counted_follow(*args, **kwargs):
        C["stationary.follow_attempts"] += 1
        tr.row_counter("follow_attempts")
        point = follow(*args, **kwargs)
        C["stationary.follow_converged"] += 1
        tr.row_counter("follow_converged")
        return point

    symmetric = stationary._saddle_symmetric

    @functools.wraps(symmetric)
    def counted_symmetric(*args, **kwargs):
        C["stationary.saddle_fallbacks"] += 1
        tr.row_counter("symmetric_fallbacks")
        return symmetric(*args, **kwargs)

    P.set(stationary, "_saddle_follow", counted_follow)
    P.set(stationary, "_saddle_symmetric", counted_symmetric)

    # thermo ------------------------------------------------------------------
    def entropy_key(args, kwargs):
        state = _arg(args, kwargs, 1, "state")
        u = getattr(state, "u", state)
        C["thermo.entropy_total_calls"] += 1
        tr.keys["entropy"].add(_digest(u.cell.N, getattr(state, "kind", "state"),
                                       u.values.tobytes()))

    P.everywhere(thermo.entropy_total, _wrap(tr, "thermo.entropy_total", thermo.entropy_total,
                                             before=entropy_key))
    P.everywhere(thermo.site_entropies,
                 _wrap(tr, "thermo.site_entropies", thermo.site_entropies,
                       before=lambda a, k: C.update(["thermo.site_entropies_calls"])))
    P.everywhere(thermo.site_entropy_first_variation,
                 _wrap(tr, "thermo.first_variation", thermo.site_entropy_first_variation))
    P.everywhere(thermo.renormalised_entropy,
                 _wrap(tr, "thermo.renormalised", thermo.renormalised_entropy))
    P.everywhere(thermo.delta_S_saddle, _wrap(tr, "thermo.delta_S", thermo.delta_S_saddle))
    P.everywhere(thermo.htst_rate,
                 _wrap(tr, "thermo.htst_rate", thermo.htst_rate,
                       before=lambda a, k: C.update(["thermo.htst_rate_calls"])))

    # harness / serialize -----------------------------------------------------
    solve_row = harness.solve_row

    @functools.wraps(solve_row)
    def traced_row(config, N):
        tr.row, tr.error_stage = int(N), None
        tr.row_info.setdefault(tr.row, Counter())
        idx = tr.open("harness.solve_row")
        try:
            return solve_row(config, N)
        except BaseException as exc:
            tr.failures.append({"row": int(N), "stage": tr.error_stage or "row",
                                "error": f"{type(exc).__name__}: {exc}"})
            raise
        finally:
            tr.close(idx)
            tr.row = None

    P.set(harness, "solve_row", traced_row)
    P.everywhere(harness.sweep, _wrap(tr, "harness.sweep", harness.sweep))
    for attr in ("richardson", "fit_rate"):          # Richardson limits and rate fits
        P.set(harness, attr, _wrap(tr, "harness.tables", getattr(harness, attr)))
    P.everywhere(harness.emit, _wrap(tr, "harness.emit", harness.emit))
    for fn in (serialize.save_point, serialize.load_point):
        P.everywhere(fn, _wrap(tr, "serialize.point_io", fn))

    write = serialize.atomic_write_text

    @functools.wraps(write)
    def counted_write(path, text):
        C["serialize.bytes_written"] += len(text.encode())
        return write(path, text)

    P.everywhere(write, counted_write)
    return P


# name -> unit of every per-layer metric; "_s" metrics are self times
LAYER_UNITS = {
    "lattice.supercell_s": "s", "lattice.site_indices_s": "s",
    "lattice.site_indices_points": "count", "lattice.offset_table_s": "s",
    "lattice.dft_s": "s", "lattice.dft_calls": "count", "lattice.dft_matrix_mb": "MB",
    "potentials.stability_scan_s": "s", "potentials.symbol_h_batch_s": "s",
    "potentials.symbol_h_batch_calls": "count",
    "assembly.hessian_s": "s", "assembly.hessian_calls": "count",
    "assembly.hessian_unique_ratio": "1", "assembly.energy_calls": "count",
    "assembly.gradient_calls": "count", "assembly.energy_grad_s": "s",
    "assembly.variation_s": "s",
    "spectral.eigsh_s": "s", "spectral.eigsh_calls": "count", "spectral.matvecs": "count",
    "spectral.eigsh_nonconverged": "count", "spectral.splu_s": "s",
    "spectral.splu_calls": "count", "spectral.dense_eig_s": "s",
    "spectral.dense_eig_calls": "count", "spectral.dense_eig_max_dim": "count",
    "spectral.fapply_s": "s", "spectral.fapply_columns": "count", "spectral.logdet_s": "s",
    "spectral.site_traces_s": "s", "spectral.kernel_s": "s",
    "spectral.generalized_eigen_s": "s",
    "stationary.relax_s": "s", "stationary.newton_iters": "count",
    "stationary.newton_solve_s": "s", "stationary.newton_solves": "count",
    "stationary.saddle_s": "s",
    "stationary.saddle_iters": "count", "stationary.saddle_fallbacks": "count",
    "stationary.follow_success_ratio": "1",
    "thermo.entropy_total_s": "s", "thermo.entropy_total_calls": "count",
    "thermo.entropy_unique_ratio": "1", "thermo.site_entropies_s": "s",
    "thermo.site_entropies_calls": "count", "thermo.first_variation_s": "s",
    "thermo.renormalised_s": "s", "thermo.delta_S_s": "s", "thermo.htst_rate_s": "s",
    "thermo.htst_rate_calls": "count",
    "harness.sweep_s": "s", "harness.solve_row_s": "s", "harness.tables_s": "s",
    "harness.emit_s": "s", "serialize.point_io_s": "s", "serialize.bytes_written": "count",
    "workload.other_s": "s",
}


def layer_metrics(tr: Tracer) -> dict:
    """Every per-layer metric of one traced iteration (values only, see LAYER_UNITS)."""
    self_t = tr.self_times()
    C = tr.counts
    out = {}
    for name, unit in LAYER_UNITS.items():
        out[name] = self_t.get(name[:-2], 0.0) if unit == "s" else C.get(name, 0)
    out["workload.other_s"] = self_t.get("workload", 0.0)
    out["lattice.dft_matrix_mb"] = float(tr.maxima.get("lattice.dft_matrix_mb", 0.0))
    out["spectral.dense_eig_max_dim"] = int(tr.maxima.get("spectral.dense_eig_max_dim", 0))
    # a ratio without a single attempt is undefined and reported as None
    calls = C["assembly.hessian_calls"]
    out["assembly.hessian_unique_ratio"] = len(tr.keys["hessian"]) / calls if calls else None
    calls = C["thermo.entropy_total_calls"]
    out["thermo.entropy_unique_ratio"] = len(tr.keys["entropy"]) / calls if calls else None
    calls = C["stationary.follow_attempts"]
    out["stationary.follow_success_ratio"] = (
        C["stationary.follow_converged"] / calls if calls else None)
    return out


def row_routes(tr: Tracer) -> list[dict]:
    """Per sweep row: how the saddle was obtained and what failed, if anything."""
    failed = {f["row"]: f for f in tr.failures}
    out = []
    for N, info in sorted(tr.row_info.items()):
        if info["follow_converged"]:
            route = "follow"
        elif info["symmetric_fallbacks"]:
            route = "symmetric_fallback"
        else:
            route = "none"
        rec = {"N": N, "saddle_route": route,
               "follow_attempts": info["follow_attempts"],
               "symmetric_fallbacks": info["symmetric_fallbacks"],
               "arpack_nonconverged": info["arpack_nonconverged"],
               "eigsh_matvecs": info["matvecs"]}
        if N in failed:
            rec["failed_stage"] = failed[N]["stage"]
            rec["error"] = failed[N]["error"]
        out.append(rec)
    return out
