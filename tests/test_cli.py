import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lambda_tree import cli, solver
from lambda_tree.cli import build_parser, main
from oracles import bisect_cubic_root, sweep_to_csv_by_cell, sweep_to_jsonl_by_cell


def _run_json(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return json.loads(captured.out)


def test_classify_interior_point(capsys):
    payload = _run_json(capsys, ["classify", "--a", "0", "--b", "1", "--c", "2"])
    assert payload == {"regions": ["A1"], "minimal_energy": 0.0,
                       "boundary": False}


def test_classify_boundary_point(capsys):
    payload = _run_json(capsys, ["classify", "--a", "1", "--b", "1", "--c", "2"])
    assert payload["regions"] == ["A1", "A2", "A4"]
    assert payload["boundary"] is True
    assert payload["minimal_energy"] == 1.0


def test_classify_rejects_bad_values(capsys):
    assert main(["classify", "--a", "abc", "--b", "0", "--c", "0"]) == 2
    assert main(["classify", "--a", "nan", "--b", "0", "--c", "0"]) == 2
    assert main(["classify", "--b", "0", "--c", "0"]) == 2
    err = capsys.readouterr().err
    assert "--a" in err


def test_tolerance_must_be_a_number_at_least_zero(capsys):
    # each command reads --tol; NaN used to pass it and call every ball minimal
    couplings = ["--a", "-1", "--b", "0", "--c", "0"]
    for command in (["classify", *couplings], ["ground", "--region", "A1"],
                    ["ground", *couplings], ["consistency", *couplings]):
        for tol, shown in (("nan", "nan"), ("-1", "-1.0")):
            assert main([*command, "--tol", tol]) == 2, command
            err = capsys.readouterr().err
            assert f"tol must be >= 0, got {shown}" in err, (command, err)
    payload = _run_json(capsys, ["ground", "--region", "A1", "--tol", "inf"])
    assert all(g["ground_state"] for g in payload["catalogs"][0]["generators"])


def test_ground_from_params(capsys):
    payload = _run_json(capsys, ["ground", "--a", "-1", "--b", "0", "--c", "0",
                                 "--depth", "2"])
    assert payload["regions"] == ["A1"]
    gens = payload["catalogs"][0]["generators"]
    assert [g["entries"] for g in gens] == [[1, 3], [3, 1]]
    assert all(g["ground_state"] for g in gens)
    assert all(g["witness"] is None for g in gens)
    assert payload["catalogs"][0]["checked_depth"] == 2


def test_ground_by_region_name(capsys):
    payload = _run_json(capsys, ["ground", "--region", "A6"])
    gens = payload["catalogs"][0]["generators"]
    assert len(gens) == 3
    assert all(g["period"] == 1 and g["ground_state"] for g in gens)


def test_ground_samples(capsys):
    payload = _run_json(capsys, ["ground", "--region", "A5", "--samples", "5",
                                 "--depth", "4", "--seed", "7"])
    samples = payload["samples"]
    assert len(samples) == 5
    assert all(s["ground_state"] for s in samples)
    assert all(len(s["levels"]) == 5 and s["levels"][0] == 2 for s in samples)


def test_ground_samples_need_region(capsys):
    rc = main(["ground", "--a", "0", "--b", "-1", "--c", "-1",
               "--samples", "3"])
    assert rc == 2
    assert "--region" in capsys.readouterr().err


def test_solve_symmetric_point(capsys):
    payload = _run_json(capsys, ["solve", "--xw", "1", "--yw", "1", "--zw", "1"])
    ti = payload["translation_invariant"]
    assert ti["roots"] == [1.0]
    assert ti["regime"] == "unique"
    assert ti["thresholds"] is None
    assert ti["phase_transition"] is False
    per = payload["two_periodic"]
    assert (per["A"], per["B"], per["C"]) == (9.0, 36.0, 36.0)
    assert per["discriminant"] == 0.0
    assert per["proper_roots"] == []
    assert per["exists"] is False
    assert "invariant-line" in payload["note"]


def test_solve_small_equal_weights_cycle(capsys):
    payload = _run_json(capsys, ["solve", "--xw", "0.2", "--yw", "1",
                                 "--zw", "0.2"])
    assert payload["canonical"]["a_can"] == pytest.approx(250.0)
    assert payload["canonical"]["b_can"] == pytest.approx(0.04)
    assert payload["translation_invariant"]["regime"] == "unique"
    assert len(payload["translation_invariant"]["roots"]) == 1
    per = payload["two_periodic"]
    assert per["exists"] is True
    assert len(per["proper_roots"]) == 2
    r1, r2 = per["proper_roots"]
    assert 0 < r1 < 1 < r2


def test_solve_from_couplings(capsys):
    payload = _run_json(capsys, ["solve", "--a", "0", "--b", "0", "--c", "0"])
    assert payload["weights"] == {"xw": 1.0, "yw": 1.0, "zw": 1.0}


def test_solve_rejects_mixed_inputs(capsys):
    rc = main(["solve", "--a", "0", "--b", "0", "--c", "0", "--xw", "1",
               "--yw", "1", "--zw", "1"])
    assert rc == 2
    assert "not both" in capsys.readouterr().err


def test_solve_rejects_nonpositive_weight(capsys):
    assert main(["solve", "--xw", "0", "--yw", "1", "--zw", "1"]) == 2


def test_solve_cycle_far_from_one(capsys):
    # the 2-cycle runs between u ~ 1e-12 and u ~ 1e12, so residuals are
    # judged relative to the root's size
    payload = _run_json(capsys, ["solve", "--xw", "1e-3", "--yw", "1e3",
                                 "--zw", "1e-3"])
    assert len(payload["translation_invariant"]["roots"]) == 1
    per = payload["two_periodic"]
    assert per["exists"] is True
    r1, r2 = per["proper_roots"]
    assert r1 == pytest.approx(1e-12, rel=1e-5)
    assert r2 == pytest.approx(1e12, rel=1e-5)


def test_two_periodic_fields_past_float_range(tmp_path, capsys):
    # xw ~ 2.7e43: existence is decided in integers, only D (~1e349) has
    # no float; it prints as null, and as an empty cell in a sweep CSV
    payload = _run_json(capsys, ["solve", "--a", "0", "--b", "0", "--c", "100"])
    per = payload["two_periodic"]
    assert per["discriminant"] is None
    assert per["A"] > 1e173 and per["B"] > 1e173 and per["C"] > 1e173
    assert per["exists"] is False
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "axes": [{"name": "c", "start": 99.0, "stop": 100.0, "step": 1.0}],
        "fixed": {"a": 0.0, "b": 0.0},
    }))
    assert main(["sweep", "--config", str(config)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    d_col = header.split(",").index("D")
    assert [row.split(",")[d_col] for row in rows] == ["", ""]
    assert main(["sweep", "--config", str(config), "--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["D"] for row in rows] == [None, None]
    assert all(row["B"] > 0 for row in rows)


def test_solve_rejects_weights_out_of_float_range(capsys):
    for argv in (["--a", "0", "--b", "0", "--c", "1000"],
                 ["--xw", "1e-300", "--yw", "1", "--zw", "1"],
                 ["--xw", "1e300", "--yw", "1", "--zw", "1"]):
        assert main(["solve", *argv]) == 2
        assert "error:" in capsys.readouterr().err


def test_sweep_csv_roundtrip(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "axes": [{"name": "c", "start": 0.0, "stop": 1.0, "step": 0.5}],
        "fixed": {"a": 0.0, "b": 0.0},
    }))
    out1 = tmp_path / "rows1.csv"
    out2 = tmp_path / "rows2.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(out2)]) == 0
    assert capsys.readouterr().out == ""
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "a" and "phase_transition" in header


def test_sweep_weight_alias(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "axes": [{"name": "xw", "start": 0.2, "stop": 0.4, "step": 0.1}],
        "fixed": {"yw": 1.0, "zw": "xw"},
    }))
    assert main(["sweep", "--config", str(config), "--format", "json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    rows = [json.loads(line) for line in lines]
    for row in rows:
        assert row["zw"] == row["xw"]
        assert row["a"] is None
    assert rows[0]["two_periodic"] is True


def test_sweep_axis_order(tmp_path, capsys):
    # the first axis is outermost; no axes give the one fixed point
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "axes": [{"name": "c", "start": 0.0, "stop": 1.0, "step": 0.5},
                 {"name": "a", "start": 0.0, "stop": 0.1, "step": 0.1}],
        "fixed": {"b": 0.0},
    }))
    assert main(["sweep", "--config", str(config), "--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["c"], row["a"]) for row in rows] == [
        (0.0, 0.0), (0.0, 0.1), (0.5, 0.0), (0.5, 0.1), (1.0, 0.0), (1.0, 0.1)]
    config.write_text(json.dumps({"axes": [],
                                  "fixed": {"a": 0.1, "b": 0.2, "c": 0.3}}))
    assert main(["sweep", "--config", str(config), "--format", "json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["a"], row["b"], row["c"]) for row in rows] == [(0.1, 0.2, 0.3)]


def _banded_sweep_configs(rng: random.Random, count: int) -> list:
    """One-axis sweep configs whose edge weights stay in [e^-3, e^3]."""
    configs = []
    for i in range(count):
        n = rng.randint(1, 30)
        if i % 4 == 0:
            axis = rng.choice(("xw", "yw", "zw"))
            step = rng.uniform(0.01, 0.5)
            start = rng.uniform(math.exp(-3), math.exp(3) - (n - 1) * step)
            fixed = {name: math.exp(rng.uniform(-3, 3))
                     for name in ("xw", "yw", "zw") if name != axis}
        else:
            beta = rng.uniform(0.1, 1.5)
            axis = rng.choice("abc")
            step = rng.uniform(0.01, 4.0 / beta / 30)
            start = rng.uniform(-3.0 / beta, 3.0 / beta - (n - 1) * step)
            fixed = {name: rng.uniform(-3.0 / beta, 3.0 / beta)
                     for name in "abc" if name != axis}
            fixed["beta"] = beta
        configs.append({"axes": [{"name": axis, "start": start,
                                  "stop": start + (n - 1) * step, "step": step}],
                        "fixed": fixed})
    return configs


def test_sweep_output_matches_the_oracle_path(tmp_path, monkeypatch):
    # the shipped bisection and row writers against the oracles, in one
    # run: byte-identical files, with no stored digest to depend on libm
    configs = _banded_sweep_configs(random.Random(11), 40)

    def outputs(tag):
        texts = []
        for i, config in enumerate(configs):
            path = tmp_path / f"grid{i}.json"
            path.write_text(json.dumps(config))
            for fmt in ("csv", "json"):
                out = tmp_path / f"{tag}{i}.{fmt}"
                assert main(["sweep", "--config", str(path), "--format", fmt,
                             "--out", str(out)]) == 0
                texts.append(out.read_bytes())
        return texts

    shipped = outputs("shipped")
    monkeypatch.setattr(solver, "_bisect_cubic_root", bisect_cubic_root)
    monkeypatch.setattr(cli, "sweep_to_csv", sweep_to_csv_by_cell)
    monkeypatch.setattr(cli, "sweep_to_jsonl", sweep_to_jsonl_by_cell)
    assert outputs("oracle") == shipped
    rows = sum(text.count(b"\n") - 1 for text in shipped[::2])
    assert rows > 400


def test_sweep_empty_grid(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "axes": [{"name": "c", "start": 1.0, "stop": 0.0, "step": 0.5}],
        "fixed": {"a": 0.0, "b": 0.0},
    }))
    assert main(["sweep", "--config", str(config)]) == 2
    assert "empty" in capsys.readouterr().err


def test_sweep_grid_cap(tmp_path, capsys):
    # both grids are refused from their point counts alone
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "axes": [{"name": "c", "start": 0.0, "stop": 1.0, "step": 1e-300}],
        "fixed": {"a": 0.0, "b": 0.0},
    }))
    assert main(["sweep", "--config", str(config)]) == 3
    config.write_text(json.dumps({
        "axes": [{"name": "b", "start": 0.0, "stop": 1000.0, "step": 1.0},
                 {"name": "c", "start": 0.0, "stop": 1000.0, "step": 1.0}],
        "fixed": {"a": 0.0},
    }))
    assert main(["sweep", "--config", str(config)]) == 3
    assert "points" in capsys.readouterr().err


def test_sweep_rejects_mixed_families(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "axes": [{"name": "c", "start": 0.0, "stop": 1.0, "step": 0.5}],
        "fixed": {"xw": 1.0, "yw": 1.0},
    }))
    assert main(["sweep", "--config", str(config)]) == 2


def test_consistency_pass_and_perturb(capsys):
    payload = _run_json(capsys, ["consistency", "--a", "0.5", "--b", "-0.3",
                                 "--c", "1.2"])
    assert payload["pass"] is True
    assert payload["max_deviation"] < 1e-10

    payload = _run_json(capsys, ["consistency", "--a", "0.5", "--b", "-0.3",
                                 "--c", "1.2", "--perturb", "0.5"])
    assert payload["pass"] is False
    assert payload["max_deviation"] > 1e-3


def test_consistency_depth_capacity(capsys):
    # depth 4 would enumerate the 3^15 states of V_3; deeper requests are
    # refused before any field is built
    for depth in ("4", "18", "1000000000"):
        start = time.perf_counter()
        assert main(["consistency", "--a", "0", "--b", "0", "--c", "0",
                     "--depth", depth]) == 3
        assert time.perf_counter() - start < 2.0
        assert "error:" in capsys.readouterr().err


def test_float_flags_take_negative_forms(capsys):
    # argparse alone reads -1e-3 or -inf after a flag as another option
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    checked = 0
    for name, sub in commands.items():
        required = ["--config", "x.json"] if name == "sweep" else []
        for action in sub._actions:
            if action.type is not float:
                continue
            for text in ("-1e-3", "-1.5E+2", "-inf", "-.5", "-7"):
                args = parser.parse_args([name, *required, action.option_strings[0], text])
                assert getattr(args, action.dest) == float(text)
            args = parser.parse_args([name, *required, action.option_strings[0], "-nan"])
            assert math.isnan(getattr(args, action.dest))
            checked += 1
    assert checked == 27  # a/b/c/beta on five commands, weights, tol x3, perturb
    payload = _run_json(capsys, ["consistency", "--a", "0.5", "--b", "-0.3",
                                 "--c", "1.2", "--perturb", "-1e-3"])
    assert payload["pass"] is False
    payload = _run_json(capsys, ["consistency", "--a", "-5e-1", "--b", "-3e-1",
                                 "--c", "1.2", "--perturb", "-inf"])
    assert payload["pass"] is False


def test_consistency_depth_three(capsys):
    # enumerates the 3^7 states of V_2, twice
    argv = ["consistency", "--a", "0.5", "--b", "-0.3", "--c", "1.2",
            "--depth", "3"]
    payload = _run_json(capsys, argv)
    assert payload["pass"] is True
    assert payload["max_deviation"] < 1e-10
    payload = _run_json(capsys, argv + ["--perturb", "0.5"])
    assert payload["pass"] is False
    assert payload["max_deviation"] > 1e-3


def test_consistency_verdict_when_partition_overflows(capsys):
    # the perturbed field alone puts Z past the float range; the verdict
    # needs only normalized probabilities
    payload = _run_json(capsys, ["consistency", "--a", "0.5", "--b", "-0.3",
                                 "--c", "1.2", "--perturb", "800"])
    assert payload["pass"] is False
    assert payload["max_deviation"] > 0.1


def test_consistency_rejects_non_finite_fields(capsys):
    for bump in ("nan", "inf"):
        assert main(["consistency", "--a", "0.5", "--b", "-0.3", "--c", "1.2",
                     "--perturb", bump]) == 2
        captured = capsys.readouterr()
        assert "NaN or +inf" in captured.err
        assert captured.out == ""


def test_measure_stdout(capsys):
    assert main(["measure", "--a", "0", "--b", "0", "--c", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "configuration,probability"
    assert len(lines) == 28
    probs = [float(row.split(",")[1]) for row in lines[1:]]
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
    assert all(p == pytest.approx(1 / 27, rel=1e-12) for p in probs)


def test_measure_with_field_file(tmp_path, capsys):
    fields = tmp_path / "fields.json"
    fields.write_text(json.dumps({"1": [5.0, 0.0, 0.0],
                                  "2": [5.0, 0.0, 0.0]}))
    assert main(["measure", "--a", "0", "--b", "0", "--c", "0",
                 "--fields", str(fields)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    best = max(lines[1:], key=lambda row: float(row.split(",")[1]))
    # the strong field pins both outer spins to 1
    assert best.split(",")[0] in ("111", "211", "311")


def test_measure_capacity(capsys):
    # refused before any field is built, without writing out q^|V|
    for flags in (["--depth", "5"], ["--depth", "13"], ["--depth", "1000000000"],
                  ["--depth", "1", "--k", "1000000000"]):
        start = time.perf_counter()
        assert main(["measure", "--a", "0", "--b", "0", "--c", "0", *flags]) == 3
        assert time.perf_counter() - start < 2.0
        assert "enumeration bound" in capsys.readouterr().err


def test_ground_capacity(capsys):
    # certification checks at most 2^20 level pairs (generators x depth)
    # and a family draw realizes at most 2^20 spins; both are refused from
    # the flags before anything is built
    for flags, message in ((["--max-period", "1000000000000"], "level pairs"),
                           (["--depth", "1000000000000"], "level pairs"),
                           (["--depth", "174763"], "level pairs"),  # 6 generators
                           (["--samples", "100000", "--depth", "10"], "spins")):
        start = time.perf_counter()
        assert main(["ground", "--region", "A2", *flags]) == 3
        assert time.perf_counter() - start < 2.0
        assert message in capsys.readouterr().err
    # catalogs past the former 2^20-spin bound now answer
    for flags in (["--max-period", "15"], ["--depth", "19"]):
        payload = _run_json(capsys, ["ground", "--region", "A2", *flags])
        assert all(g["ground_state"] for g in payload["catalogs"][0]["generators"])


def test_ground_depth_errors(capsys):
    for depth, message in (("0", "depth must be >= 1 to form balls"),
                           ("-1", "depth must be >= 0, got -1")):
        assert main(["ground", "--region", "A2", "--depth", depth]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_consistency_depth_zero(capsys):
    # the perturbation targets level depth - 1, so the depth is checked first
    for extra in ([], ["--perturb", "0.1"]):
        assert main(["consistency", "--a", "0.5", "--b", "-0.3", "--c", "1.2",
                     "--depth", "0", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: consistency needs depth >= 1\n"
        assert captured.out == ""


def test_measure_partition_out_of_float_range(capsys):
    # log Z is about +-2e6: the partition function overflows, or underflows
    for couplings in (["--a", "0", "--b", "0", "--c", "1"],
                      ["--a", "-1", "--b", "-1", "--c", "-1"]):
        assert main(["measure", *couplings, "--beta", "1e6", "--depth", "1"]) == 2
        assert "partition" in capsys.readouterr().err


def test_measure_rejects_a_non_finite_log_weight(tmp_path, capsys):
    # 1e308 + 1e308 is +inf; a sum of fields at -inf everywhere gives Z = 0
    fields = tmp_path / "fields.json"
    for raw, message in (
            ({"1": [1e308, 1e308, 0], "2": [1e308, 0, 0]},
             "a log weight is NaN or +inf: a boundary field is NaN or +inf, "
             "or a sum of fields leaves the float range"),
            ({"1": [-1e308] * 3, "2": [-1e308] * 3},
             "the partition function is out of float range: log Z = -inf")):
        fields.write_text(json.dumps(raw))
        assert main(["measure", "--a", "0", "--b", "0", "--c", "0",
                     "--fields", str(fields)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_malformed_input_files_exit_2(tmp_path, capsys):
    # each file is read into the wrong JSON shape; the error names the key
    axis = {"name": "c", "start": 0.0, "stop": 1.0, "step": 0.5}
    cases = [
        (["measure", "--a", "0", "--b", "0", "--c", "0", "--fields"],
         [({"1": 3}, "--fields entry '1': expected a list of numbers, got 3"),
          ([1, 2], "--fields: expected an object mapping vertices to field "
                   "vectors, got [1, 2]"),
          ({"1": [None, 0, 0], "2": [0, 0, 0]},
           "--fields entry '1': expected a number, got null"),
          # JSON booleans are not numbers, though bool is an int in Python
          ({"1": [True, 0, 0], "2": [0, 0, 0]},
           "--fields entry '1': expected a number, got true"),
          # keys outside the k=2, depth-1 truncation; inner "0" is a vertex
          ({"0": [0, 0, 0], "1": [0, 0, 0], "2": [0, 0, 0], "7.7": [9, 9, 9]},
           "--fields entry '7.7': not a vertex of the k=2, depth-1 truncation"),
          ({"1": [0, 0, 0], "2": [0, 0, 0], "1.1.1": [1, 2, 3]},
           "--fields entry '1.1.1': not a vertex of the k=2, depth-1 "
           "truncation")]),
        (["sweep", "--config"],
         [([], "sweep config: expected an object with 'axes' and 'fixed', got []"),
          ({"axes": 3, "fixed": {}},
           "sweep config 'axes': expected a list of objects, got 3"),
          ({"axes": [3], "fixed": {"a": 0.0, "b": 0.0}},
           "sweep config 'axes': expected a list of objects, got [3]"),
          ({"axes": [axis], "fixed": 3},
           "sweep config 'fixed': expected an object, got 3"),
          ({"axes": [dict(axis, start=None)], "fixed": {"a": 0.0, "b": 0.0}},
           "axis 'c' start: expected a number, got null"),
          ({"axes": [dict(axis, name=["c"])], "fixed": {"a": 0.0, "b": 0.0}},
           "sweep axis 'name': expected a string, got [\"c\"]"),
          ({"axes": [axis], "fixed": {"a": [0.0], "b": 0.0}},
           "fixed entry 'a': expected a number, got [0.0]"),
          ({"axes": [dict(axis, step=True)], "fixed": {"a": 0.0, "b": 0.0}},
           "axis 'c' step: expected a number, got true"),
          ({"axes": [axis], "fixed": {"a": False, "b": 0.0}},
           "fixed entry 'a': expected a number, got false"),
          ({"axes": [axis, axis], "fixed": {"a": 0.0, "b": 0.0}},
           "sweep axis 'c' is given more than once")]),
    ]
    path = tmp_path / "input.json"
    for argv, inputs in cases:
        for raw, message in inputs:
            path.write_text(json.dumps(raw))
            assert main([*argv, str(path)]) == 2, raw
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_runtime_import_leaves_poly_to_the_oracles():
    # the CLI never loads poly, yet the benchmark's tracer still wraps it:
    # deleting poly.py needs a matching benchmark change
    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "import lambda_tree.cli\n"
            "assert 'lambda_tree.poly' not in sys.modules, 'poly imported'\n"
            "from tracing import Tracer\n"
            "Tracer().install('lambda_tree')\n"
            "print('ok')\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
