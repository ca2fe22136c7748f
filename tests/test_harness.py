import csv
import io
import json
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from latthermo.cli import main as cli_main
from latthermo.config import load_config
from latthermo.fitting import _t_quantile_95, fit_rate
from latthermo.harness import (
    ConvergenceTable,
    RunConfig,
    emit,
    richardson,
    solve_row,
    sweep,
    table_to_csv,
)
from latthermo import Supercell, assembly, harness, preset_model, spectral, thermo
from latthermo.lattice import ConfigurationError
from table_compare import assert_tables_close

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


class TestFitRate:
    def test_pure_power_exact(self):
        N = np.array([4, 8, 16, 32], float)
        fit = fit_rate(N, 3.7 * N**-3.0)
        assert abs(fit.exponent + 3.0) < 1e-10

    def test_scale_invariance(self):
        # exact in real arithmetic; verified here to machine precision
        N = np.array([4, 8, 16, 32], float)
        err = np.array([0.31, 0.073, 0.021, 0.0049])
        f1 = fit_rate(N, err)
        f2 = fit_rate(N, 17.0 * err)
        assert abs(f1.exponent - f2.exponent) < 1e-12

    def test_log_corrected_synthetic(self):
        # pure-power slope of N^-2 log^5 N over [8, 64] is -2 + 5/log(N) on
        # average, about -0.35; the log-corrected mode recovers -2 exactly
        N = np.geomspace(8, 64, 6)
        err = 2.0 * N**-2.0 * np.log(N) ** 5
        pure = fit_rate(N, err)
        assert -0.9 < pure.exponent < -0.1
        corrected = fit_rate(N, err, log_power=5.0)
        assert abs(corrected.exponent + 2.0) < 1e-10

    def test_constant_not_converging(self):
        N = np.array([4, 8, 16, 32], float)
        fit = fit_rate(N, np.full(4, 0.5))
        assert abs(fit.exponent) < 1e-10
        assert not fit.converging

    @pytest.mark.parametrize("dof, t", [(10, 2.228), (11, 2.200985), (20, 2.085963),
                                        (30, 2.042272), (60, 2.000298), (120, 1.979930)])
    def test_ci95_quantile_is_student_t(self, dof, t):
        # two-sided 95% quantiles of Student's t; above 10 degrees of freedom
        # the Cornish-Fisher expansion, not a flat 2.0
        assert abs(_t_quantile_95(dof) - t) < 1e-5
        N = np.arange(4.0, dof + 6.0)
        err = N**-2.0 * np.exp(0.01 * np.sin(N))
        fit = fit_rate(N, err)
        lx, ly = np.log(N), np.log(err)
        slope, intercept = np.polyfit(lx, ly, 1)
        s2 = np.sum((ly - slope * lx - intercept) ** 2) / dof
        stderr = np.sqrt(s2 / np.sum((lx - lx.mean()) ** 2))
        assert fit.ci95 == pytest.approx(_t_quantile_95(dof) * stderr, rel=1e-8)

    def test_zero_errors_filtered(self):
        N = np.array([4, 8, 16, 32, 64], float)
        err = np.array([0.1, 0.0, 0.0125, 0.0015625, 0.0001953125])
        fit = fit_rate(N, err)
        assert fit.dropped == 1
        assert fit.n_points == 4


class TestRichardson:
    def test_recovers_synthetic_limit(self):
        N = np.array([8, 12, 16], float)
        v = 1.25 + 3.0 * N**-2.0
        ref, unc = richardson(N, v, exponent=2.0)
        assert abs(ref - 1.25) < 1e-12
        assert unc < 1e-12

    def test_uncertainty_reflects_higher_order(self):
        N = np.array([8, 12, 16], float)
        v = 1.25 + 3.0 * N**-2.0 + 10.0 * N**-3.0
        ref, unc = richardson(N, v, exponent=2.0)
        assert abs(ref - 1.25) < 5e-3
        assert unc > 0


class TestRunConfig:
    def test_N_list_must_ascend(self):
        model = preset_model("square_misfit")
        with pytest.raises(ValueError):
            RunConfig(model=model, N_list=[8, 6])

    def test_N_ref_invariant(self):
        model = preset_model("square_misfit")
        with pytest.raises(ValueError):
            RunConfig(model=model, N_list=[4, 6, 8], N_ref=10)

    def test_beta_positive(self):
        model = preset_model("square_misfit")
        with pytest.raises(ValueError):
            RunConfig(model=model, N_list=[4, 6], beta=[0.0])

    @pytest.mark.parametrize("N_ref, R_sum, match", [
        (8, 4, r"run.N_ref \(8\) must be at least 4 run.R_sum \(16\)"),
        (12, 0, "run.R_sum must be positive, not 0"),
        (None, -1.0, "run.R_sum must be positive, not -1.0"),
    ])
    def test_N_ref_R_sum_checked_at_construction(self, N_ref, R_sum, match):
        model = preset_model("square_misfit")
        with pytest.raises(ValueError, match=match):
            RunConfig(model=model, N_list=[4], N_ref=N_ref, R_sum=R_sum)
        RunConfig(model=model, N_list=[4], N_ref=12, R_sum=3)     # N_ref = 4 R_sum


class TestConfigLoading:
    def test_preset_config(self):
        cfg = load_config(CONFIGS / "square_double_well.yaml", out_override="/tmp/x")
        assert cfg.model.name == "square_double_well"
        assert cfg.wants_saddle
        assert cfg.kick_site == (0, 0)

    def test_explicit_model_config(self):
        cfg = load_config(CONFIGS / "explicit_example.yaml", out_override="/tmp/x")
        assert cfg.model.overrides
        assert cfg.model.spec.m == 2
        # explicit harmonic defect relaxes to a nonzero minimum
        from latthermo import Supercell, relax_minimum
        pt = relax_minimum(cfg.model, Supercell(cfg.model.spec, 4))
        assert pt.energy < 0

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml"))
                             + sorted((ROOT / "bench" / "configs").glob("*.yaml")),
                             ids=lambda p: str(p.relative_to(ROOT)))
    def test_shipped_configs_load_under_the_key_check(self, path):
        assert load_config(path).N_list

    @pytest.mark.parametrize("line", ["N_lst: [4, 5]", "workers: 2"])
    def test_unknown_run_key_is_refused(self, tmp_path, line):
        p = tmp_path / "cfg.yaml"
        p.write_text(f"model:\n  preset: square_misfit\nrun:\n  {line}\n")
        with pytest.raises(ConfigurationError) as err:
            load_config(p)
        key = line.split(":")[0]
        assert f"unknown run key(s) {key}" in str(err.value)
        assert "known keys: N_list, beta, seed" in str(err.value)

    @pytest.mark.parametrize("model, key", [
        # a misspelt shift would build the unshifted Morse override
        ("""
  name: typo
  lattice: {A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0, 0.0], [0.0, 1.0]], m: 2, r_cut: 1.5}
  potential:
    kind: morse
    classes: [{len: 1.0, D: 0.5, a: 1.5}, {len: 1.4142135623730951, D: 0.25, a: 1.2}]
  overrides:
    "0,0":
      kind: morse
      shfit: 0.12
      classes: [{len: 1.0, D: 0.5, a: 1.5}, {len: 1.4142135623730951, D: 0.25, a: 1.2}]
""", "morse potential key(s) shfit"),
        ("""
  override_scale: 1.3
  lattice: {A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0, 0.0], [0.0, 1.0]], m: 2, r_cut: 1.5}
  potential:
    kind: harmonic
    classes: [{len: 1.0, k: 0.5}, {len: 1.4142135623730951, k: 0.25}]
""", "model key(s) override_scale"),
        ("""
  lattice: {A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0, 0.0], [0.0, 1.0]], m: 2, r_cut: 1.5}
  potential:
    kind: harmonic
    shift: 0.1
    classes: [{len: 1.0, k: 0.5}, {len: 1.4142135623730951, k: 0.25}]
""", "harmonic potential key(s) shift"),
        ("""
  lattice: {A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0, 0.0], [0.0, 1.0]], m: 2, r_cut: 1.5}
  potential:
    kind: harmonic
    classes: [{len: 1.0, k: 0.5, D: 0.5}, {len: 1.4142135623730951, k: 0.25}]
""", "harmonic bond class key(s) D"),
        ("""
  preset: square_misfit
  override_scale: 1.3
""", "preset model key(s) override_scale"),
    ], ids=["morse_shfit", "explicit_override_scale", "harmonic_shift",
            "harmonic_class_D", "preset_override_scale"])
    def test_unread_model_key_is_refused(self, tmp_path, model, key):
        p = tmp_path / "cfg.yaml"
        p.write_text(f"model:{model}run:\n  N_list: [4]\n")
        with pytest.raises(ConfigurationError) as err:
            load_config(p)
        assert f"unknown {key}" in str(err.value)

    @pytest.mark.parametrize("model, run, where", [
        ("5", "{N_list: [4]}", "model"),
        ("{preset: square_double_well}", "5", "run"),
        ("{preset: square_double_well}", "{kick: 5}", "run.kick"),
        ("{lattice: 5, potential: {kind: harmonic}}", "{N_list: [4]}", "lattice"),
        ("{lattice: LAT, potential: 5}", "{N_list: [4]}", "potential"),
        ("{lattice: LAT, potential: {kind: harmonic, classes: [5]}}", "{N_list: [4]}",
         "harmonic bond class"),
        ("{lattice: LAT, potential: POT, overrides: 5}", "{N_list: [4]}", "overrides"),
        ("{lattice: LAT, potential: POT, overrides: {'0,0': 5}}", "{N_list: [4]}",
         "override 0,0"),
    ], ids=["model", "run", "kick", "lattice", "potential", "bond_class", "overrides",
            "override"])
    def test_scalar_section_is_refused_by_name(self, tmp_path, capsys, model, run, where):
        # a scalar section failed as TypeError: 'int' object is not iterable
        model = model.replace("LAT", "{A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0, 0.0], "
                                     "[0.0, 1.0]], m: 2, r_cut: 1.5}")
        model = model.replace("POT", "{kind: harmonic, classes: [{len: 1.0, k: 0.5}, "
                                     "{len: 1.4142135623730951, k: 0.25}]}")
        p = tmp_path / "cfg.yaml"
        p.write_text(f"model: {model}\nrun: {run}\n")
        message = f"config section {where} must be a mapping, not 5"
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            load_config(p)
        rc = cli_main(["relax", "--config", str(p), "--N", "4", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: ConfigurationError: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, message", [
        ("{lattice: LAT, potential: {kind: harmonic, classes: 5}}",
         "config section harmonic potential key classes must be a list of bond classes, "
         "not 5"),
        ("{lattice: LAT, potential: {kind: harmonic}}",
         "config section harmonic potential is missing key(s) classes"),
        ("{potential: POT}", "config section model is missing key(s) lattice"),
        ("{lattice: {A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0, 0.0], [0.0, 1.0]], m: 2}, "
         "potential: POT}", "config section lattice is missing key(s) r_cut"),
        ("{lattice: LAT, potential: {kind: harmonic, classes: [{len: 1.0, k: 0.5}, "
         "{len: 1.4142135623730951}]}}",
         "config section harmonic bond class is missing key(s) k"),
    ], ids=["classes_scalar", "no_classes", "no_lattice", "no_r_cut", "class_no_k"])
    def test_missing_key_is_refused_by_section(self, tmp_path, capsys, model, message):
        # each failed as a TypeError or a KeyError that named no section
        model = model.replace("LAT", "{A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0, 0.0], "
                                     "[0.0, 1.0]], m: 2, r_cut: 1.5}")
        model = model.replace("POT", "{kind: harmonic, classes: [{len: 1.0, k: 0.5}, "
                                     "{len: 1.4142135623730951, k: 0.25}]}")
        p = tmp_path / "cfg.yaml"
        p.write_text(f"model: {model}\nrun: {{N_list: [4]}}\n")
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            load_config(p)
        rc = cli_main(["relax", "--config", str(p), "--N", "4", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: ConfigurationError: {message}" in capsys.readouterr().err

    def test_bond_length_without_a_class_is_refused(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("model:\n  lattice: {A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0, 0.0], "
                     "[0.0, 1.0]], m: 2, r_cut: 1.5}\n  potential:\n    kind: harmonic\n"
                     "    classes: [{len: 1.0, k: 0.5}]\nrun:\n  N_list: [4]\n")
        with pytest.raises(ConfigurationError, match=r"stencil lengths \[1.414214\] unassigned"):
            load_config(p)

    @pytest.mark.parametrize("value, shown", [("off", "False"), ("of", "'of'")])
    def test_saddle_value_other_than_auto_on_off_is_refused(self, tmp_path, value, shown):
        # YAML reads an unquoted off as False; taken as auto, it would run the
        # saddles of a mirror model with a kick
        p = tmp_path / "cfg.yaml"
        p.write_text(f"model:\n  preset: square_double_well\nrun:\n  saddle: {value}\n")
        with pytest.raises(ValueError, match=f"run.saddle .* not {shown}; quote the value"):
            load_config(p)

    @pytest.mark.parametrize("value, wants", [('"off"', False), ("'on'", True), ("auto", True)])
    def test_quoted_saddle_value_loads(self, tmp_path, value, wants):
        p = tmp_path / "cfg.yaml"
        p.write_text(f"model:\n  preset: square_double_well\nrun:\n  saddle: {value}\n")
        cfg = load_config(p)
        assert cfg.wants_saddle is wants
        with pytest.raises(ValueError, match="run.saddle"):     # the CLI's replace() path
            replace(cfg, saddle=False)

    @pytest.mark.parametrize("model, run, key", [
        ("PRESET", "{N_list: [4.7, 6.2]}", "run.N_list"),
        ("PRESET", "{max_iter: 2.9}", "run.max_iter"),
        ("PRESET", "{N_ref: 24.5}", "run.N_ref"),
        ("PRESET", "{N_list: 8}", "run.N_list"),
        ("PRESET", "{beta: 1.0}", "run.beta"),
        ("PRESET", "{R_sum: abc}", "run.R_sum"),
        ("PRESET", "{max_iter: lots}", "run.max_iter"),
        ("PRESET", "{seed: 1.5}", "run.seed"),
        ("{lattice: {A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0, 0.0], [0.0, 1.0]], m: 2, "
         "r_cut: 1.5}, potential: POT, overrides: {'0,x': POT}}", "{N_list: [4]}",
         "overrides"),
    ], ids=["N_list_fractions", "max_iter_fraction", "N_ref_fraction", "N_list_scalar",
            "beta_scalar", "R_sum_word", "max_iter_word", "seed_fraction", "override_site"])
    def test_malformed_value_is_refused_by_key(self, tmp_path, capsys, model, run, key):
        # fractions were truncated to ints; the rest failed as a bare TypeError
        # or ValueError that named no key
        model = model.replace("PRESET", "{preset: square_misfit}")
        model = model.replace("POT", "{kind: harmonic, classes: [{len: 1.0, k: 0.5}, "
                                     "{len: 1.4142135623730951, k: 0.25}]}")
        p = tmp_path / "cfg.yaml"
        p.write_text(f"model: {model}\nrun: {run}\n")
        with pytest.raises(ConfigurationError, match=f"^{key} "):
            load_config(p)
        rc = cli_main(["relax", "--config", str(p), "--N", "4", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: ConfigurationError: {key} " in capsys.readouterr().err

    def test_empty_beta_is_refused(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("model:\n  preset: square_double_well\nrun:\n  beta: []\n")
        with pytest.raises(ValueError, match="run.beta must list at least one"):
            load_config(p)

    @pytest.mark.parametrize("command", ["relax", "sweep"])
    def test_empty_N_list_is_refused(self, tmp_path, capsys, command):
        # relax failed in max() of the empty list; sweep wrote an empty table
        p = tmp_path / "cfg.yaml"
        p.write_text("model:\n  preset: square_misfit\nrun:\n  N_list: []\n")
        with pytest.raises(ValueError, match="run.N_list must list at least one cell size"):
            load_config(p)
        rc = cli_main([command, "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert ("error: ValueError: run.N_list must list at least one cell size"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kick, match", [
        ("{site: [0, 0]}", r"run.kick needs both keys site and vector"),
        ("{site: [0, 0], vector: [0.15, 0.0], scale: 2}", r"unknown run.kick key\(s\) scale"),
        ("{site: [0, 0], vector: [0.15, 0.0, 0.0]}",
         "run.kick vector must have 2 entries, not 3"),
        ("{site: [0, 0, 0], vector: [0.15, 0.0]}", "run.kick site must have 2 entries, not 3"),
    ], ids=["missing_vector", "extra_key", "vector_of_3", "site_of_3"])
    def test_kick_is_checked_at_load(self, tmp_path, capsys, kick, match):
        # a missing key failed as KeyError: 'vector', an extra key was ignored,
        # and a 3-vector on an m=2 model failed every row at relax
        p = tmp_path / "cfg.yaml"
        p.write_text(f"model:\n  preset: square_double_well\nrun:\n  N_list: [4]\n"
                     f"  kick: {kick}\n")
        with pytest.raises(ValueError, match=match):
            load_config(p)
        rc = cli_main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert re.search(match, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_max_iter_below_one_is_refused(self, tmp_path, capsys):
        # max_iter: 0 wrote a table whose every row failed to converge in 0 iterations
        p = tmp_path / "cfg.yaml"
        p.write_text("model:\n  preset: square_misfit\nrun:\n  N_list: [4]\n  max_iter: 0\n")
        with pytest.raises(ValueError, match="run.max_iter must be at least 1, not 0"):
            load_config(p)
        rc = cli_main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "run.max_iter must be at least 1, not 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["relax", "saddle", "entropy", "rate"])
    @pytest.mark.parametrize("N", ["0", "-4"])
    def test_cell_size_below_one_is_refused(self, tmp_path, capsys, monkeypatch, command, N):
        # --N 0 read as "not given" and solved the config's largest cell
        def refused(*args, **kwargs):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(harness, "relax_minimum", refused)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(CONFIGS / "square_misfit.yaml"),
                      "--out", str(tmp_path / "out"), "--N", N])
        assert exc.value.code == 2
        assert f"argument --N: a cell size is at least 1, not {N}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_kick_is_the_shipped_one(self, tmp_path):
        # a double-well config without a kick starts from the shipped config's
        # kick, so its rows are that config's rows
        p = tmp_path / "cfg.yaml"
        p.write_text("model:\n  preset: square_double_well\nrun:\n  beta: [1.0, 2.0]\n")
        cfg = load_config(p)
        assert cfg.kick_site == (0, 0)
        assert cfg.kick_vector.tolist() == [0.15, 0.0]
        shipped = replace(load_config(CONFIGS / "square_double_well.yaml"), out=None)
        assert solve_row(cfg, 4) == solve_row(shipped, 4)

    def test_empty_run_section_takes_the_defaults(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("model:\n  preset: square_misfit\nrun:\n")
        assert load_config(p).N_list == [4, 6, 8, 12]

    def test_workers_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--config", str(CONFIGS / "square_misfit.yaml"),
                      "--workers", "2"])
        assert exc.value.code != 0
        assert "--workers" in capsys.readouterr().err

    def test_explicit_matches_preset_counterpart(self):
        cfg = load_config(CONFIGS / "explicit_example.yaml", out_override="/tmp/x")
        preset = preset_model("square_harmonic_defect")
        from latthermo import Supercell, relax_minimum
        a = relax_minimum(cfg.model, Supercell(cfg.model.spec, 4)).energy
        b = relax_minimum(preset, Supercell(preset.spec, 4)).energy
        assert abs(a - b) < 1e-12


def tiny_sweep(tmp_path, N_list=(4, 5, 6), saddle="off"):
    model = preset_model("square_misfit")
    cfg = RunConfig(model=model, N_list=list(N_list), out=tmp_path, saddle=saddle)
    return sweep(cfg)


class TestSweep:
    def test_error_columns_and_fits(self, tmp_path):
        table = tiny_sweep(tmp_path, N_list=(4, 5, 6, 8, 10))
        ok = table.ok_rows()
        assert len(ok) == 5
        assert "E_min" in table.limits
        errs = [r["err_E"] for r in ok]
        assert all(e is not None and e >= 0 for e in errs)
        assert "E_min" in table.fits and table.fits["E_min"]["exponent"] < -1.0

    def test_homogeneous_degenerate_rows_flagged(self, tmp_path):
        model = preset_model("square_anharmonic")
        cfg = RunConfig(model=model, N_list=[4, 5, 6], out=None, saddle="off")
        table = sweep(cfg)
        assert all(r["E_min"] == 0.0 for r in table.rows)
        assert table.limits["E_min"]["degenerate"]
        assert "E_min" not in table.fits

    def test_row_failure_recorded_and_sweep_continues(self, tmp_path):
        model = preset_model("square_misfit")   # no mirror, no kick: saddle fails
        cfg = RunConfig(model=model, N_list=[4, 5, 6], out=None, saddle="on",
                        max_iter=10)
        table = sweep(cfg)
        assert all(r["status"].startswith("error") for r in table.rows)
        assert len(table.rows) == 3

    def test_saddle_row_evaluates_the_pair_once(self, monkeypatch):
        # every latthermo binding of a counted function is wrapped, as an outside tracer would
        calls = Counter()
        assembled = Counter()

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        hessian = assembly.hessian

        def keyed_hessian(model, u):
            assembled[(u.cell.N, model.name, u.values.tobytes())] += 1
            return hessian(model, u)

        for fn, wrapper in [(hessian, keyed_hessian)] + [
                (fn, counted(fn)) for fn in (thermo.entropy_total, thermo.site_entropies,
                                             thermo.delta_S_saddle, spectral.generalized_eigen)]:
            for name, mod in list(sys.modules.items()):
                if mod is not None and name.split(".")[0] == "latthermo":
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            monkeypatch.setattr(mod, attr, wrapper)
        init = spectral.FApplier.__init__

        def counted_init(self, *args, **kwargs):
            calls["FApplier"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(spectral.FApplier, "__init__", counted_init)
        cfg = RunConfig(model=preset_model("square_double_well"), N_list=[4], beta=[1.0, 2.0],
                        kick_site=(0, 0), kick_vector=np.array([0.15, 0.0]))
        row = solve_row(cfg, 4)
        assert row["status"] == "ok" and row["K_beta_2"] > 0
        # one F_N applier and one F_N H F_N solve per point, no Hessian input
        # assembled twice, and no site profile: the splitting needs only the
        # saddle's site sum
        assert calls == {"entropy_total": 2, "delta_S_saddle": 1, "generalized_eigen": 2,
                         "FApplier": 2}
        assert assembled and max(assembled.values()) == 1

    def test_unstable_model_refused(self):
        model = preset_model("square_unstable")
        cfg = RunConfig(model=model, N_list=[4, 5, 6], saddle="off")
        with pytest.raises(RuntimeError):
            sweep(cfg)

    def test_determinism_and_resume(self, tmp_path):
        t1 = tiny_sweep(tmp_path, (4, 5, 6))
        emit(t1, tmp_path)
        b1 = (tmp_path / "table.csv").read_bytes()
        t2 = tiny_sweep(tmp_path, (4, 5, 6))   # resumes from persisted points
        emit(t2, tmp_path)
        b2 = (tmp_path / "table.csv").read_bytes()
        assert b1 == b2
        for r1, r2 in zip(t1.rows, t2.rows):
            assert abs(r1["E_min"] - r2["E_min"]) < 1e-12

    def test_saddle_sweeps_repeat_byte_for_byte(self, tmp_path):
        # two fresh sweeps and one resumed from the first's saved points write
        # the same bytes. N=8 (512 dofs) takes the LOBPCG route, where the
        # saddle search carries its block from step to step; the certificate
        # starts from the seed block, which a resumed point has too
        def run(name):
            out = tmp_path / name
            cfg = RunConfig(model=preset_model("square_double_well"), N_list=[4, 6, 8],
                            beta=[1.0, 2.0], out=out, saddle="auto", kick_site=(0, 0),
                            kick_vector=np.array([0.15, 0.0]))
            table = sweep(cfg)
            assert [r["status"] for r in table.rows] == ["ok"] * 3
            emit(table, out)
            return [(out / f).read_bytes() for f in ("table.csv", "table.json")]

        first = run("first")
        assert run("second") == first
        assert run("first") == first       # resumed from the saved points


def dwell_config(out) -> RunConfig:
    return RunConfig(model=preset_model("square_double_well"), N_list=[4, 5, 6], out=out,
                     kick_site=(0, 0), kick_vector=np.array([0.15, 0.0]))


@pytest.fixture(scope="module")
def chained_and_kicked(tmp_path_factory):
    """A chained double-well sweep and the same rows solved each from the kick."""
    chained_out = tmp_path_factory.mktemp("chained")
    kicked_out = tmp_path_factory.mktemp("kicked")
    table = sweep(dwell_config(chained_out))
    kicked = [solve_row(dwell_config(kicked_out), N) for N in (4, 5, 6)]
    return table, kicked, chained_out / "points", kicked_out / "points"


class TestChain:
    def test_chained_rows_match_rows_from_the_kick(self, chained_and_kicked):
        table, kicked, _, _ = chained_and_kicked
        assert [r["status"] for r in table.rows] == ["ok"] * 3
        # rows solved alone have no Richardson limit, hence no err_* columns
        assert_tables_close(table.rows, kicked, rtol=1e-9, atol=1e-9,
                            skip=[err for _, err in harness.ERROR_COLUMNS])

    def test_chained_rows_take_fewer_iterations(self, chained_and_kicked):
        _, _, chained, kicked = chained_and_kicked
        for name in ("min_N5", "min_N6", "saddle_N6"):
            n_chained = json.loads((chained / f"{name}.json").read_text())["n_iter"]
            n_kicked = json.loads((kicked / f"{name}.json").read_text())["n_iter"]
            assert n_chained < n_kicked, name

    def test_failed_row_seeds_nothing(self, monkeypatch):
        # the N=5 minimum, then the N=5 saddle, fails: the status names the
        # stage, and N=6 starts from the N=4 points
        relax_minimum, find_saddle = harness.relax_minimum, harness.find_saddle
        for failing, stage in (("minimum", "relax"), ("saddle", "saddle")):
            solved, guesses = {}, {}

            def recording(fn, kind):
                def wrapper(model, cell, **kwargs):
                    guesses[(kind, cell.N)] = kwargs.get("initial_guess")
                    if kind == failing and cell.N == 5:
                        raise RuntimeError("forced failure")
                    solved[(kind, cell.N)] = point = fn(model, cell, **kwargs)
                    return point
                return wrapper

            monkeypatch.setattr(harness, "relax_minimum", recording(relax_minimum, "minimum"))
            monkeypatch.setattr(harness, "find_saddle", recording(find_saddle, "saddle"))
            cfg = dwell_config(None)
            table = sweep(cfg)
            assert [r["status"] == "ok" for r in table.rows] == [True, False, True]
            assert table.rows[1]["status"] == f"error: {stage}: RuntimeError: forced failure"
            cell6 = Supercell(cfg.model.spec, 6)
            for kind in ("minimum", "saddle"):
                expected = harness.continue_in_N(cfg.model, solved[(kind, 4)], cell6)
                assert np.array_equal(guesses[(kind, 6)].values, expected.values), kind


class TestEmit:
    def test_empty_table_header_only(self, tmp_path):
        table = ConvergenceTable(rows=[], fits={}, limits={}, meta={"schema_version": 1})
        text = table_to_csv(table)
        lines = text.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("N,")

    def test_csv_roundtrip_idempotent(self, tmp_path):
        table = tiny_sweep(None, (4, 5, 6))
        text = table_to_csv(table)
        rows = list(csv.DictReader(io.StringIO(text)))
        # rebuild row dicts (floats via repr) and re-serialize
        rebuilt = []
        for raw, orig in zip(rows, table.rows):
            row = dict(orig)
            for k, v in raw.items():
                if v == "":
                    assert orig.get(k) in (None, "")
                elif isinstance(orig.get(k), float):
                    assert repr(orig[k]) == v
            rebuilt.append(row)
        table2 = ConvergenceTable(rows=rebuilt, fits=table.fits, limits=table.limits,
                                  meta=table.meta)
        assert table_to_csv(table2) == text

    def test_json_schema_valid(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        table = tiny_sweep(None, (4, 5, 6))
        files = emit(table, tmp_path)
        payload = json.loads((tmp_path / "table.json").read_text())
        schema_path = Path(__file__).resolve().parent.parent / "src" / "latthermo" / \
            "schemas" / "table.schema.json"
        schema = json.loads(schema_path.read_text())
        jsonschema.validate(payload, schema)

    def test_plotdata_positive_errors_only(self, tmp_path):
        table = tiny_sweep(None, (4, 5, 6, 8))
        emit(table, tmp_path)
        with open(tmp_path / "plotdata.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(float(r["error"]) > 0 for r in rows)


class TestCLI:
    def test_check_command(self, capsys):
        rc = cli_main(["check", "--config", str(CONFIGS / "square_misfit.yaml"),
                       "--out", "/tmp/cli_t1"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_fit_command(self, tmp_path, capsys):
        table = tiny_sweep(None, (4, 5, 6, 8))
        emit(table, tmp_path)
        rc = cli_main(["fit", "--table", str(tmp_path / "table.json"),
                       "--column", "err_E"])
        assert rc == 0
        assert "exponent" in capsys.readouterr().out

    @pytest.mark.parametrize("column", ["N", "err_Q"])
    def test_fit_column_must_be_an_error_column(self, tmp_path, capsys, column):
        # N was fitted against itself (exponent +1); a typo read as "no positive errors"
        table = tiny_sweep(None, (4, 5, 6, 8))
        emit(table, tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["fit", "--table", str(tmp_path / "table.json"), "--column", column])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{column}'" in err
        assert all(f"'{errcol}'" in err for _, errcol in harness.ERROR_COLUMNS)

    def test_sweep_command_exit_code(self, tmp_path, capsys):
        # the benchmark's argv: the seed labels the table, both formats are written
        cfg_text = (CONFIGS / "square_misfit.yaml").read_text().replace(
            "[6, 8, 10, 12, 16]", "[4, 5, 6]")
        p = tmp_path / "cfg.yaml"
        p.write_text(cfg_text)
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--config", str(p), "--out", str(out),
                       "--seed", "1", "--format", "both"])
        assert rc == 0
        assert all((out / nm).exists() for nm in ("table.csv", "plotdata.csv", "table.json"))
        assert json.loads((out / "table.json").read_text())["meta"]["seed"] == 1

    @pytest.mark.parametrize("argv", [["relax", "--seed", "1"], ["entropy", "--format", "json"],
                                      ["check", "--seed", "1"]])
    def test_seed_and_format_are_sweep_flags(self, capsys, argv):
        # only sweep writes tables; the other commands refuse both flags
        with pytest.raises(SystemExit) as exc:
            cli_main([argv[0], "--config", str(CONFIGS / "square_misfit.yaml"), *argv[1:]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_cli_renormalised_entropy(tmp_path, capsys):
    cfg_text = """
model:
  preset: square_misfit
run:
  N_list: [4, 5, 6]
  saddle: "off"
  N_ref: 12
  R_sum: 3
"""
    p = tmp_path / "cfg.yaml"
    p.write_text(cfg_text)
    rc = cli_main(["entropy", "--config", str(p), "--out", str(tmp_path / "out"),
                   "--N", "6", "--renormalised"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "renormalised S" in out
    assert "tail_estimate=" in out
    assert "tail<=" not in out


def test_cli_renormalised_entropy_refuses_a_small_N_ref_before_solving(tmp_path, capsys,
                                                                        monkeypatch):
    # N_ref < 4 R_sum failed in renormalised_entropy, after the --N point and the
    # N_ref point were solved
    p = tmp_path / "cfg.yaml"
    p.write_text("model:\n  preset: square_misfit\nrun:\n  N_list: [4]\n"
                 "  saddle: \"off\"\n  N_ref: 8\n  R_sum: 4\n")

    def refused(*args, **kwargs):
        raise AssertionError("a point was solved")

    monkeypatch.setattr(harness, "relax_minimum", refused)
    rc = cli_main(["entropy", "--config", str(p), "--out", str(tmp_path / "out"),
                   "--N", "4", "--renormalised"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "run.N_ref (8) must be at least 4 run.R_sum (16)" in err
    assert not (tmp_path / "out").exists()


def test_cli_renormalised_entropy_defect_free(tmp_path, capsys):
    # every renormalised term vanishes, so no decay is fitted and none is printed
    cfg_text = """
model:
  preset: square_anharmonic
run:
  N_list: [4]
  N_ref: 8
  R_sum: 2
"""
    p = tmp_path / "cfg.yaml"
    p.write_text(cfg_text)
    rc = cli_main(["entropy", "--config", str(p), "--out", str(tmp_path / "out"),
                   "--renormalised"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "renormalised S (N_ref=8, R_sum=2.0)" in out
    assert "decay=" not in out


def test_cli_entropy_sites_profile(tmp_path, capsys):
    # the printed S_N and the written site profile are two routes to one number
    cfg_text = """
model:
  preset: square_misfit
run:
  N_list: [5]
  saddle: "off"
"""
    p = tmp_path / "cfg.yaml"
    p.write_text(cfg_text)
    out_dir = tmp_path / "out"
    rc = cli_main(["entropy", "--config", str(p), "--out", str(out_dir), "--sites"])
    out = capsys.readouterr().out
    assert rc == 0
    S = float(re.search(r"S_N at minimum, N=5: (\S+)", out).group(1))
    rows = (out_dir / "site_entropy_N5.csv").read_text().splitlines()
    assert rows[0] == "site_index,radius,value"
    values = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert len(values) == 100
    assert abs(values.sum() - S) < 1e-8
    payload = json.loads((out_dir / "site_entropy_N5.json").read_text())
    assert payload["info"]["method"] == "chebyshev"
    assert payload["values"] == values.tolist()
    # the D4-symmetric minimum runs its 21 orbits, not its 100 sites
    assert payload["info"]["symmetry_order"] == 8
    assert payload["info"]["orbit_sites"] == 21
    assert 0.0 < payload["info"]["symmetry_residual"] < 1e-13
