import json
import logging

import numpy as np
import pytest

from latthermo import DisplacementField, RunConfig, Supercell, preset_model, sweep
from latthermo.serialize import (
    certificate_hash,
    load_field_csv,
    load_point,
    save_field_csv,
    save_point,
)
from latthermo.stationary import find_saddle, relax_minimum


def test_field_csv_roundtrip(tmp_path):
    model = preset_model("square_misfit")
    cell = Supercell(model.spec, 3)
    rng = np.random.default_rng(0)
    u = DisplacementField(cell, rng.standard_normal((cell.n, 2)))
    save_field_csv(tmp_path / "u.csv", u)
    v = load_field_csv(tmp_path / "u.csv", cell)
    assert np.array_equal(u.values, v.values)      # repr floats round-trip exactly


def test_point_roundtrip_and_model_guard(tmp_path):
    model = preset_model("square_misfit")
    cell = Supercell(model.spec, 3)
    pt = relax_minimum(model, cell)
    save_point(tmp_path, "min_N3", pt)
    back = load_point(tmp_path, "min_N3", model, cell)
    assert back is not None
    assert back.energy == pt.energy
    assert np.array_equal(back.u.values, pt.u.values)
    assert back.route is None
    # revalidated, not parsed back: the record is rebuilt from the field
    assert back.H is not None
    assert back.sigma == pt.sigma
    assert certificate_hash(back.certificate) == certificate_hash(pt.certificate)
    other = preset_model("square_anharmonic")
    assert load_point(tmp_path, "min_N3", other, cell) is None


def _double_well_pair(N=4):
    model = preset_model("square_double_well")
    cell = Supercell(model.spec, N)
    kick = np.zeros((cell.n, 2))
    kick[cell.index((0, 0))] = [0.15, 0.0]
    minimum = relax_minimum(model, cell, initial_guess=kick)
    act, u = cell.symmetry(model.mirror).act, minimum.u.values
    saddle = find_saddle(model, cell, initial_guess=0.5 * (u + act(u)))
    return model, cell, minimum, saddle


def test_resumed_point_off_its_gradient_tolerance_is_rejected(tmp_path, caplog):
    model = preset_model("square_misfit")
    cell = Supercell(model.spec, 4)
    save_point(tmp_path, "min_N4", relax_minimum(model, cell))
    field_path = tmp_path / "min_N4.csv"
    u = load_field_csv(field_path, cell)
    values = u.values.copy()
    values[cell.index((1, 0))] += [1e-3, 0.0]
    save_field_csv(field_path, DisplacementField(cell, values))
    with caplog.at_level(logging.WARNING, logger="latthermo.serialize"):
        assert load_point(tmp_path, "min_N4", model, cell) is None
    assert "gradient check" in caplog.text


def test_resumed_saddle_with_edited_lam_is_rejected(tmp_path, caplog):
    model, cell, _, saddle = _double_well_pair()
    save_point(tmp_path, "saddle_N4", saddle)
    back = load_point(tmp_path, "saddle_N4", model, cell)
    assert back is not None and back.lam == saddle.lam and back.mu == saddle.mu
    meta_path = tmp_path / "saddle_N4.json"
    meta = json.loads(meta_path.read_text())
    meta["lam"] = repr(saddle.lam * (1 + 1e-6))
    meta_path.write_text(json.dumps(meta))
    with caplog.at_level(logging.WARNING, logger="latthermo.serialize"):
        assert load_point(tmp_path, "saddle_N4", model, cell) is None
    assert "lam check" in caplog.text


def test_rate_report_json_fields(tmp_path):
    from latthermo import htst_rate
    model, cell, minimum, saddle = _double_well_pair()
    rep = htst_rate(model, minimum, saddle, beta=1.0)
    payload = rep.to_json_dict()
    text = json.dumps(payload)      # must be JSON-serializable
    assert payload["model_hash"] == model.model_hash()
    assert payload["N"] == 4
    assert payload["certificates"]["minimum"]
    assert payload["certificates"]["saddle"]
    assert len(payload["sigma_saddle"]) == 2
    save_point(tmp_path, "saddle_N4", saddle)
    assert load_point(tmp_path, "saddle_N4", model, cell).route == "follow"
    meta_path = tmp_path / "saddle_N4.json"
    meta = json.loads(meta_path.read_text())
    del meta["route"]                   # a point written before routes were recorded
    meta_path.write_text(json.dumps(meta))
    assert load_point(tmp_path, "saddle_N4", model, cell).route is None


def test_field_file_listing_a_site_twice_is_refused(tmp_path, caplog):
    # one site written twice and another left out: the row count still matches
    model = preset_model("square_misfit")
    cell = Supercell(model.spec, 4)
    save_point(tmp_path, "min_N4", relax_minimum(model, cell))
    field_path = tmp_path / "min_N4.csv"
    header, first, second, *rest = field_path.read_text().splitlines()
    second = ",".join(first.split(",")[:2] + second.split(",")[2:])
    field_path.write_text("\n".join([header, first, second, *rest]) + "\n")
    with pytest.raises(ValueError, match="63 distinct sites in 64 rows"):
        load_field_csv(field_path, cell)
    with caplog.at_level(logging.WARNING, logger="latthermo.serialize"):
        assert load_point(tmp_path, "min_N4", model, cell) is None
    assert "field check" in caplog.text


def test_sweep_resolves_a_malformed_resumed_field(tmp_path, caplog):
    # an extra column in one row of a persisted field: the resumed sweep logs
    # the failed field check and solves that point again
    def run():
        return sweep(RunConfig(model=preset_model("square_misfit"), N_list=[4, 5, 6],
                               out=tmp_path, saddle="off"))

    fresh = run()
    field_path = tmp_path / "points" / "min_N5.csv"
    lines = field_path.read_text().splitlines()
    lines[3] += ",0.0"
    field_path.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.WARNING, logger="latthermo.serialize"):
        resumed = run()
    assert "min_N5 failed its field check" in caplog.text
    assert [r["status"] for r in resumed.rows] == ["ok"] * 3
    for a, b in zip(fresh.rows, resumed.rows):
        assert a["E_min"] == b["E_min"] and a["S_min"] == b["S_min"]
