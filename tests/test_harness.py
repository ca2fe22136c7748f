import csv
import io
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from latthermo.cli import main as cli_main
from latthermo.config import load_config
from latthermo.fitting import fit_rate
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


class TestConfigLoading:
    def test_preset_config(self):
        cfg = load_config(CONFIGS / "square_double_well.yaml", out_override="/tmp/x")
        assert cfg.model.name == "square_double_well"
        assert cfg.wants_saddle
        assert cfg.kick_site == (0, 0)

    def test_explicit_model_config(self):
        cfg = load_config(CONFIGS / "explicit_example.yaml", out_override="/tmp/x")
        assert cfg.model.has_defect
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
        cfg = RunConfig(model=preset_model("square_double_well"), N_list=[4], beta=[1.0, 2.0],
                        kick_site=(0, 0), kick_vector=np.array([0.15, 0.0]))
        row = solve_row(cfg, 4)
        assert row["status"] == "ok" and row["K_beta_2"] > 0
        # one F_N H F_N solve per point, no Hessian input assembled twice, and
        # no site profile: the splitting needs only the saddle's site sum
        assert calls == {"entropy_total": 2, "delta_S_saddle": 1, "generalized_eigen": 2}
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
        solved, guesses = {}, {}

        def recording(fn, kind):
            def wrapper(model, cell, **kwargs):
                guesses[(kind, cell.N)] = kwargs.get("initial_guess")
                if kind == "minimum" and cell.N == 5:
                    raise RuntimeError("forced failure")
                solved[(kind, cell.N)] = point = fn(model, cell, **kwargs)
                return point
            return wrapper

        monkeypatch.setattr(harness, "relax_minimum",
                            recording(harness.relax_minimum, "minimum"))
        monkeypatch.setattr(harness, "find_saddle", recording(harness.find_saddle, "saddle"))
        cfg = dwell_config(None)
        table = sweep(cfg)
        assert [r["status"] == "ok" for r in table.rows] == [True, False, True]
        assert "forced failure" in table.rows[1]["status"]
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

    def test_sweep_command_exit_code(self, tmp_path, capsys):
        cfg_text = (CONFIGS / "square_misfit.yaml").read_text().replace(
            "[6, 8, 10, 12, 16]", "[4, 5, 6]")
        p = tmp_path / "cfg.yaml"
        p.write_text(cfg_text)
        rc = cli_main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "table.csv").exists()


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
