"""The two benchmark workloads: set-up, one timed iteration, output checks.

``dwell_sweep`` runs the double-well sweep. ``entropy_routes`` runs two
minimum-only pipelines in each iteration: the misfit cell on the matrix-free
routes and the sheared cell on the dense ones.

Each workload drives latthermo through its public functions only, from the
documented starting guess: the shipped kick for the double well and the zero
field for the two minimum-only pipelines. The seed is passed to the sweep as
its ``--seed`` but perturbs no starting guess: a perturbation of 1e-9 in the
converged minimum already changes the ARPACK work of the double-well saddle
search five-fold (see NOTES.md), which would make run time depend on the seed.

A workload iteration returns ``(outputs, ops)``: the checked values and a
list of operations, each ``{"op", "stage", "ok", "error"}``. Every operation
counts as attempted; one that raised, reported a non-ok status or whose
output misses the reference counts as failed.

``warm_up`` runs the same calls once on the workload's smallest cell, untimed
and unchecked, so that lazy imports and first-call costs of the process fall
before the timed iterations. It returns its operations as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"

DWELL_COLUMNS = ("E_min", "S_min", "dE", "dS", "K", "lam", "mu")


def _op(op: str, stage: str, error: str | None = None) -> dict:
    return {"op": op, "stage": stage, "ok": error is None, "error": error}


# stage that produces each checked output, by the last part of its key
STAGES = {"E_min": "relax", "dE": "saddle", "lam": "saddle", "exponent": "tables"}


def _stage_of(key: str) -> str:
    return STAGES.get(key.rsplit(".", 1)[-1], "thermo")


def _call(ops: list[dict], name: str, stage: str, fn):
    """Run one operation; record it in ``ops`` and return its result (None on failure)."""
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - a failed operation is a result
        ops.append(_op(name, stage, f"{type(exc).__name__}: {exc}"))
        return None
    ops.append(_op(name, stage))
    return result


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_once(self, it: int) -> tuple[dict, list[dict]]:
        raise NotImplementedError

    def warm_up(self) -> list[dict]:
        raise NotImplementedError

    def inputs(self) -> dict:
        """The starting guess, for the result file."""
        raise NotImplementedError

    def check(self, outputs: dict, reference: dict, first: dict | None) -> list[dict]:
        """Compare one iteration's outputs with the stored reference values.

        Each comparison is an operation of its own, named by its stage.
        """
        checks = []
        rtol = reference["rtol"]
        for key, ref in reference["values"].items():
            got = outputs.get(key)
            tol = rtol.get(key, rtol["default"])
            bad = got is None or not np.isfinite(got) or _rel(got, ref) > tol
            checks.append(_op(f"check:{key}", _stage_of(key),
                              f"{key}={got!r} differs from reference {ref!r} (rtol {tol:g})"
                              if bad else None))
        return checks


class DwellSweep(Workload):
    """``latthermo sweep`` on square_double_well: minimum, saddle and HTST rows."""

    name = "dwell_sweep"

    def setup(self) -> None:
        from latthermo import cli  # noqa: F401  (the CLI import is part of set-up)
        from latthermo.config import load_config
        from latthermo.lattice import Supercell
        from latthermo.potentials import stability_scan

        self.config_path = CONFIGS / "dwell_sweep.yaml"
        cfg = load_config(self.config_path)
        self.kick = {"site": list(cfg.kick_site), "vector": cfg.kick_vector.tolist()}
        self.N_list = list(cfg.N_list)
        if not stability_scan(cfg.model).passed:
            raise RuntimeError("dwell_sweep model fails the stability scan")
        Supercell(cfg.model.spec, self.N_list[0])

    def inputs(self) -> dict:
        return {"kick": self.kick}

    def run_once(self, it: int) -> tuple[dict, list[dict]]:
        return self._sweep(self.config_path, self.N_list, self.workdir / f"sweep_{it}")

    def warm_up(self) -> list[dict]:
        import yaml

        raw = yaml.safe_load(self.config_path.read_text())
        raw["run"]["N_list"] = self.N_list[:1]
        path = self.workdir / "warm_up.yaml"
        path.write_text(yaml.safe_dump(raw))
        return self._sweep(path, self.N_list[:1], self.workdir / "warm_up")[1]

    def _sweep(self, config_path: Path, N_list: list[int],
               out: Path) -> tuple[dict, list[dict]]:
        from latthermo import cli

        shutil.rmtree(out, ignore_errors=True)                  # fresh: no resume
        argv = ["sweep", "--config", str(config_path), "--out", str(out),
                "--seed", str(self.seed), "--format", "both"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        try:
            table = json.loads((out / "table.json").read_text())
            files = {nm: (out / nm).read_bytes() for nm in ("table.csv", "table.json")}
        except OSError as exc:
            msg = f"sweep exit {code}, no table: {exc}; {err.getvalue().strip()}"
            return {}, [_op(f"row_N{N}", "row", msg) for N in N_list]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        outputs: dict = {"_files": files}
        ops = []
        for row in table["rows"]:
            N = row["N"]
            for col in DWELL_COLUMNS:
                outputs[f"N{N}.{col}"] = row[col]
            ops.append(_op(f"row_N{N}", "row",
                           None if row["status"] == "ok" else row["status"]))
        for col, fit in sorted(table["fits"].items()):
            outputs[f"fit.{col}.exponent"] = fit.get("exponent")
        return outputs, ops

    def check(self, outputs: dict, reference: dict, first: dict | None) -> list[dict]:
        checks = super().check(outputs, reference, first)
        if first is not None and "_files" in outputs:
            for nm, data in outputs["_files"].items():
                same = data == first["_files"].get(nm)
                checks.append(_op(f"identical:{nm}", "tables", None if same else
                                  f"{nm} is not byte-identical to the first iteration's"))
        return checks


class _MinimumOnly(Workload):
    """Shared set-up of the two minimum-only pipelines: config, scan, first cell."""

    config_name = ""

    def setup(self) -> None:
        from latthermo.config import load_config
        from latthermo.lattice import Supercell
        from latthermo.potentials import stability_scan

        self.cfg = load_config(CONFIGS / self.config_name)
        self.model = self.cfg.model
        if not stability_scan(self.model).passed:
            raise RuntimeError(f"{self.name} model fails the stability scan")
        Supercell(self.model.spec, self.levels()[0])

    def levels(self) -> list[int]:
        raise NotImplementedError

    def inputs(self) -> dict:
        return {"initial_guess": "zero field", "levels": self.levels()}

    def _relax(self, N: int, ops: list[dict]):
        from latthermo.lattice import Supercell
        from latthermo.stationary import relax_minimum

        return _call(ops, f"relax_N{N}", "relax", lambda: relax_minimum(
            self.model, Supercell(self.model.spec, N), max_iter=self.cfg.max_iter))


class MisfitRenorm(_MinimumOnly):
    """Misfit minimum at N_ref, renormalised entropy and S_N (matrix-free routes)."""

    name = "misfit_renorm"
    config_name = "misfit_renorm.yaml"

    def levels(self) -> list[int]:
        return [self.cfg.N_ref]

    def run_once(self, it: int) -> tuple[dict, list[dict]]:
        return self._at(self.cfg.N_ref)

    def warm_up(self) -> list[dict]:
        return self._at(4 * self.cfg.R_sum)[1]       # smallest level with N_ref >= 4 R_sum

    def _at(self, N: int) -> tuple[dict, list[dict]]:
        from latthermo.thermo import entropy_total, renormalised_entropy

        ops: list[dict] = []
        outputs: dict = {}
        R = self.cfg.R_sum
        point = self._relax(N, ops)
        if point is None:
            ops += [_op("renormalised_entropy", "thermo", "skipped: relax failed"),
                    _op("entropy_total", "thermo", "skipped: relax failed")]
            return outputs, ops
        outputs["E_min"] = point.energy
        ren = _call(ops, "renormalised_entropy", "thermo", lambda: renormalised_entropy(
            self.model, point, R_sum=R, fit_window=(1.5, R)))
        if ren is not None:
            outputs.update(renormalised=ren.value, tail_estimate=ren.tail_estimate,
                           decay_exponent=ren.decay_fit.exponent)
        S = _call(ops, "entropy_total", "thermo", lambda: entropy_total(self.model, point))
        if S is not None:
            outputs["S_N"] = S
        return outputs, ops


class ShearedEntropy(_MinimumOnly):
    """Sheared-cell minimum, S_N and the full site-entropy profile (dense routes)."""

    name = "sheared_entropy"
    config_name = "sheared_entropy.yaml"

    def levels(self) -> list[int]:
        return list(self.cfg.N_list)

    def run_once(self, it: int) -> tuple[dict, list[dict]]:
        return self._at(self.levels())

    def warm_up(self) -> list[dict]:
        return self._at([4])[1]

    def _at(self, levels: list[int]) -> tuple[dict, list[dict]]:
        from latthermo.thermo import entropy_total, site_entropies

        ops: list[dict] = []
        outputs: dict = {}
        for N in levels:
            point = self._relax(N, ops)
            if point is None:
                ops += [_op(f"entropy_total_N{N}", "thermo", "skipped: relax failed"),
                        _op(f"site_entropies_N{N}", "thermo", "skipped: relax failed")]
                continue
            outputs[f"N{N}.E_min"] = point.energy
            S = _call(ops, f"entropy_total_N{N}", "thermo",
                      lambda: entropy_total(self.model, point))
            prof = _call(ops, f"site_entropies_N{N}", "thermo",
                         lambda: site_entropies(self.model, point))
            if S is not None:
                outputs[f"N{N}.S_N"] = S
            if prof is not None:
                outputs[f"N{N}.site_sum"] = prof.total
        return outputs, ops

    def check(self, outputs: dict, reference: dict, first: dict | None) -> list[dict]:
        checks = super().check(outputs, reference, first)
        tol = reference["rtol"]["default"]
        for N in self.levels():
            S, total = outputs.get(f"N{N}.S_N"), outputs.get(f"N{N}.site_sum")
            bad = S is None or total is None or _rel(total, S) > tol
            checks.append(_op(f"sum_rule_N{N}", "thermo",
                              f"N={N}: site-entropy sum {total!r} != S_N {S!r}" if bad else None))
        return checks


class EntropyRoutes(Workload):
    """The misfit and the sheared pipeline, one after the other, in each iteration.

    A ``DENSE_LIMIT`` change moves work between the two cells' routes, so
    both run in one timed figure. Each pipeline checks its outputs against its
    own section of the reference; their output keys do not overlap.
    """

    name = "entropy_routes"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.parts = (MisfitRenorm(seed, workdir), ShearedEntropy(seed, workdir))

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def inputs(self) -> dict:
        return {part.name: part.inputs() for part in self.parts}

    def run_once(self, it: int) -> tuple[dict, list[dict]]:
        outputs: dict = {}
        ops: list[dict] = []
        for part in self.parts:
            out, part_ops = part.run_once(it)
            outputs.update(out)
            ops += part_ops
        return outputs, ops

    def warm_up(self) -> list[dict]:
        return [op for part in self.parts for op in part.warm_up()]

    def check(self, outputs: dict, reference: dict, first: dict | None) -> list[dict]:
        return [op for part in self.parts
                for op in part.check(outputs, reference[part.name], first)]


WORKLOADS = {w.name: w for w in (DwellSweep, EntropyRoutes)}
