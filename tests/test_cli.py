import argparse
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from lambda_tree import cli, ground, solver
from lambda_tree.cli import build_parser, main
from lambda_tree.errors import InternalConsistencyError
from oracles import (bisect_cubic_root, clear_caches, sweep_to_csv_by_cell,
                     sweep_to_jsonl_by_cell, ti_polynomial_root_count)


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


def test_ground_catalog_json(capsys):
    payload = _run_json(capsys, ["ground", "--region", "A5", "--max-period", "3"])
    assert list(payload) == ["params", "regions", "catalogs"]
    [entry] = payload["catalogs"]
    assert list(entry) == ["region", "generators", "families", "verified_depth",
                           "checked_depth"]
    assert entry["region"] == "A5"
    assert {"period": 1, "entries": [2], "ground_state": True,
            "witness": None} in entry["generators"]
    assert all(list(g) == ["period", "entries", "ground_state", "witness"]
               for g in entry["generators"])
    [family] = entry["families"]
    assert list(family) == ["alphabet", "anchor", "adjacent_must_differ", "label"]
    assert family["alphabet"] == [2, 3]
    assert entry["verified_depth"] >= 3
    assert entry["checked_depth"] == entry["verified_depth"]


def test_ground_region_excludes_couplings(capsys):
    # the region's representative coupling and beta would silently replace
    # them
    for couplings in (["--a", "5", "--b", "5", "--c", "5"], ["--c", "0"],
                      ["--beta", "7"]):
        assert main(["ground", "--region", "A1", *couplings, "--depth", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            "error: give either --region or --a/--b/--c/--beta, not both\n"
        assert captured.out == ""


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


def test_solve_ignores_a_common_factor_of_the_weights(capsys):
    # all three weights e^300 (or e^-300) give the verdicts of e^0; A, B, C
    # and D stay those of the weights given, here out of float range
    plain = _run_json(capsys, ["solve", "--a", "0", "--b", "0", "--c", "0"])
    for shift in ("300", "-300"):
        payload = _run_json(capsys, ["solve", "--a", shift, "--b", shift, "--c", shift])
        assert payload["canonical"] == {"a_can": 2.0, "b_can": 1.0}
        assert payload["translation_invariant"] == plain["translation_invariant"]
        per = payload["two_periodic"]
        assert per["exists"] is False and per["proper_roots"] == []
        assert per["discriminant"] == 0.0
        assert (per["A"], per["B"], per["C"]) == \
            ((None,) * 3 if shift == "300" else (0.0,) * 3)


def test_solve_rejects_mixed_inputs(capsys):
    for flags, message in (
            (["--a", "0", "--b", "0", "--c", "0", "--xw", "1", "--yw", "1", "--zw", "1"],
             "not both"),
            (["--xw", "1", "--yw", "1"], "all three of --xw --yw --zw are required"),
            # the weights already hold beta, which would be dropped unread
            (["--xw", "1", "--yw", "2", "--zw", "3", "--beta", "7"],
             "give either --xw/--yw/--zw or --a/--b/--c/--beta, not both")):
        assert main(["solve", *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


def test_spin_count_flag_is_gone(capsys):
    # the spins are (1, 2, 3); no command takes --q
    for command in ("consistency", "measure"):
        assert main([command, "--a", "0", "--b", "0", "--c", "0", "--q", "3"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --q 3" in captured.err
        assert captured.out == ""


def test_branching_order_flag_is_gone(capsys):
    # the tree is the Cayley tree of order two; no command takes --k
    for command in ("consistency", "measure"):
        assert main([command, "--a", "0", "--b", "0", "--c", "0", "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --k 2" in captured.err
        assert captured.out == ""


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


def test_solve_keeps_the_bisection_point_at_a_tangency(capsys):
    # a_can sits 1.3e-13 relative below eps1, next to a tangency where
    # Newton's step once landed at residual 1.7e-3 (exit 4); every root
    # printed meets the gate
    xw, yw, zw = 1.0, 0.1727345328512528, 0.10808465425866465
    payload = _run_json(capsys, ["solve", "--xw", repr(xw), "--yw", repr(yw),
                                 "--zw", repr(zw)])
    w = solver.BoltzmannWeights(xw, yw, zw)
    roots = solver.count_ti_roots(w).ti_roots
    assert payload["translation_invariant"]["roots"] == \
        [float(format(u, ".15g")) for u in roots]
    assert roots
    for u in roots:
        assert abs(u - solver._line_map(u, xw, yw, zw)) <= 1e-9 * max(1.0, u), u


def test_solve_counts_exactly_next_to_a_threshold(capsys):
    # the same point, 1.3e-13 relative from eps1: it has one fixed point
    # exactly, and no tolerance band turns it into regime "two"
    xw, yw, zw = 1.0, 0.1727345328512528, 0.10808465425866465
    payload = _run_json(capsys, ["solve", "--xw", repr(xw), "--yw", repr(yw),
                                 "--zw", repr(zw)])
    assert ti_polynomial_root_count(solver.BoltzmannWeights(xw, yw, zw)) == 1
    ti = payload["translation_invariant"]
    assert ti["regime"] == "unique"
    assert ti["roots"] == [19.7860228148825]
    assert ti["phase_transition"] is False


def test_solve_prints_the_tangency_point_for_roots_floats_cannot_separate(capsys):
    # three fixed points exactly, two of them closer than the bisection's
    # sign test can tell apart, so the tangency point stands for both;
    # Newton steps off it, and the point itself, which meets the gate, is
    # printed. In the first, a_can is one ulp above eps1. In the second,
    # a_can is three ulps above the float eps2: the floats (a_can, b_can)
    # have one root, and the count is the weights' own
    for w, printed in (
            (solver.BoltzmannWeights(1.0, 0.16190538300905066, 0.0796367441077308),
             [0.40828842935344, 0.40828842935344, 23.9952813455985]),
            (solver.BoltzmannWeights(1.0, 0.07561048727600549, 2.3293272373093323),
             [0.00212113373928046, 43.4256141951587, 43.4256141951587])):
        payload = _run_json(capsys, ["solve", "--xw", "1", "--yw", repr(w.yw),
                                     "--zw", repr(w.zw)])
        assert ti_polynomial_root_count(w) == 3
        ti = payload["translation_invariant"]
        assert ti["regime"] == "three" and ti["phase_transition"] is True
        assert ti["roots"] == printed
        for u in solver.count_ti_roots(w).ti_roots:
            fu = solver._line_map(u, w.xw, w.yw, w.zw)
            assert abs(u - fu) <= 1e-9 * max(1.0, u), u


def test_solve_reports_both_points_of_a_narrow_cycle(capsys):
    # D ~ 1e-14: the cycle's two points lie 1.7e-7 apart, around the fixed
    # point; exact B < 0 < D makes both proper, with no gap asked of them
    w = solver.BoltzmannWeights(0.3235915534880761, 1.0, 0.3235915534880761)
    payload = _run_json(capsys, ["solve", "--xw", repr(w.xw), "--yw", "1",
                                 "--zw", repr(w.zw)])
    per = payload["two_periodic"]
    assert per["exists"] is True
    assert per["proper_roots"] == [1.41779049175744, 1.41779066621927]
    for r in solver.two_periodic_report(w).proper_roots:
        fr = solver._line_map(r, w.xw, w.yw, w.zw)
        assert abs(r - solver._line_map(fr, w.xw, w.yw, w.zw)) < 1e-9 * max(1.0, r)
        assert r != fr


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
    # beta*a overflows before exp does: the same error as exp's overflow
    assert main(["solve", "--a", "1e308", "--b", "0", "--c", "0", "--beta", "10"]) == 2
    assert capsys.readouterr().err == (
        "error: an edge weight exp(beta*coupling) overflows a float at "
        "LambdaParams(a=1e+308, b=0.0, c=0.0, beta=10.0)\n")


def test_solve_and_sweep_phase_transition_verdicts_differ(tmp_path, capsys):
    # solve's translation_invariant.phase_transition reads the TI regime
    # alone, while the sweep column also counts a 2-periodic solution on the
    # line: at this point solve prints false next to exists: true, and the
    # sweep row prints true
    weights = {"xw": 0.23539284063296795, "yw": 1.069988957376466,
               "zw": 0.5653020011674514}
    payload = _run_json(capsys, ["solve", *[x for name, value in weights.items()
                                            for x in (f"--{name}", repr(value))]])
    assert payload["translation_invariant"] == {
        "roots": [1.2726966748262], "regime": "unique", "thresholds": None,
        "phase_transition": False}
    assert payload["two_periodic"]["exists"] is True
    config = tmp_path / "point.json"
    config.write_text(json.dumps({"axes": [], "fixed": weights}))
    assert main(["sweep", "--config", str(config)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        ",,,,0.235392840632968,1.06998895737647,0.565302001167451,187.84002315726,"
        "0.0823136184876487,1,,,-2.32682330447488,1.05213693271742,true,true")


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
    # the shipped bisection and row writers (solver's CSV writer and
    # cli's JSON Lines writer) against the oracles, in one run:
    # byte-identical files, with no stored digest to depend on libm
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
    assert list(payload) == ["max_deviation", "pass"]
    assert payload["pass"] is True
    assert payload["max_deviation"] < 1e-10

    payload = _run_json(capsys, ["consistency", "--a", "0.5", "--b", "-0.3",
                                 "--c", "1.2", "--perturb", "0.5"])
    assert payload["pass"] is False
    assert payload["max_deviation"] > 1e-3


def test_consistency_depth_capacity(capsys):
    # depth 4 would enumerate the 3^15 states of V_3; deeper requests are
    # refused before any field is built
    for flags in (["--depth", "4"], ["--depth", "18"], ["--depth", "1000000000"]):
        start = time.perf_counter()
        assert main(["consistency", "--a", "0", "--b", "0", "--c", "0", *flags]) == 3
        assert time.perf_counter() - start < 2.0
        assert "enumeration bound 3^13" in capsys.readouterr().err


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


def test_consistency_weights_out_of_float_range(capsys):
    # exp(beta*a) overflows; every weight of spin 3 underflows to 0
    for couplings, message in (
            (["--a", "800", "--b", "1", "--c", "-2", "--beta", "4.26"],
             "an edge weight exp(beta*coupling) overflows a float at "
             "LambdaParams(a=800.0, b=1.0, c=-2.0, beta=4.26)"),
            # beta*a itself overflows to inf, as exp(beta*a) does above
            (["--a", "1e308", "--b", "0", "--c", "0", "--beta", "10"],
             "an edge weight exp(beta*coupling) overflows a float at "
             "LambdaParams(a=1e+308, b=0.0, c=0.0, beta=10.0)"),
            (["--a", "-800", "--b", "-800", "--c", "-800"],
             "a denominator of the level recursion underflows to 0 at "
             "LambdaParams(a=-800.0, b=-800.0, c=-800.0, beta=1.0)"),
            # a product over the 2 children leaves the float range
            (["--a", "400", "--b", "0", "--c", "-400", "--depth", "1"],
             "a product of the level recursion over 2 children leaves the "
             "float range at LambdaParams(a=400.0, b=0.0, c=-400.0, beta=1.0)")):
        assert main(["consistency", *couplings]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
    # only the weight exp(beta*a) underflows: a verdict as before
    payload = _run_json(capsys, ["consistency", "--a", "-800", "--b", "0", "--c", "0"])
    assert payload["pass"] is True


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
    # refused before any field is built, without writing out 3^|V|
    for flags in (["--depth", "5"], ["--depth", "13"], ["--depth", "1000000000"]):
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
          # keys outside the k=2, depth-1 truncation
          ({"1": [0, 0, 0], "2": [0, 0, 0], "7.7": [9, 9, 9]},
           "--fields entry '7.7': not a vertex of the k=2, depth-1 truncation"),
          # a vertex off the last level, whose field the measure never reads
          ({"0": [5, 0, 0], "1": [0, 0, 0], "2": [0, 0, 0]},
           "--fields entry '0': a vertex on level 0, but only fields on the "
           "last level 1 enter the measure"),
          ({"1": [0, 0, 0], "2": [0, 0, 0], "1.1.1": [1, 2, 3]},
           "--fields entry '1.1.1': not a vertex of the k=2, depth-1 "
           "truncation"),
          ({"1": [0, -10 ** 400, 0], "2": [0, 0, 0]},
           "--fields entry '1': a 401-digit integer is out of float range"),
          # two keys that name one vertex, whichever comes first
          ({"1": [0, 0, 0], " 01": [5, 0, 0], "2": [0, 0, 0]},
           "--fields entry ' 01': vertex 1 is given more than once"),
          ({" 01": [5, 0, 0], "1": [0, 0, 0], "2": [0, 0, 0]},
           "--fields entry '1': vertex 1 is given more than once")]),
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
          ({"axes": [{"name": "c", "start": 0.0, "stop": 1.0}], "fixed": {"a": 0.0, "b": 0.0}},
           "sweep axis missing 'step'"),
          ({"axes": [axis], "fixed": {"a": False, "b": 0.0}},
           "fixed entry 'a': expected a number, got false"),
          ({"axes": [axis, axis], "fixed": {"a": 0.0, "b": 0.0}},
           "sweep axis 'c' is given more than once"),
          ({"axes": [axis], "fixed": {"a": 0.0, "b": 0.0, "beta": 10 ** 400}},
           "fixed entry 'beta': a 401-digit integer is out of float range"),
          ({"axes": [dict(axis, start=1.7e308, stop=-1.7e308)],
            "fixed": {"a": 0.0, "b": 0.0}},
           "sweep grid is empty (an axis produced no values)"),
          # every point needs a, b and c, or xw, yw and zw
          ({"axes": [axis], "fixed": {"a": 0.0}}, "missing coupling parameter 'b'"),
          ({"axes": [dict(axis, name="xw", start=0.5)], "fixed": {"yw": 1.0}},
           "missing weight 'zw'"),
          ({"axes": [], "fixed": {}}, "missing weight 'xw'"),
          # an alias to an unknown name is reported before a missing name
          ({"axes": [axis], "fixed": {"a": "q"}},
           "fixed entry 'a' aliases unknown variable 'q'"),
          ({"axes": [axis], "fixed": {"b": "a", "a": 0.0}},
           "fixed entry 'b' aliases unknown variable 'a'")]),
    ]
    path = tmp_path / "input.json"
    for argv, inputs in cases:
        for raw, message in inputs:
            path.write_text(json.dumps(raw))
            assert main([*argv, str(path)]) == 2, raw
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""


def test_deep_json_files_exit_2(tmp_path, capsys):
    # too deep for the parser's recursion; the error names the file
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (["sweep", "--config", str(path)],
                 ["measure", "--a", "0", "--b", "0", "--c", "0", "--fields", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: JSON nested too deeply\n"
        assert captured.out == ""


def test_long_json_values_are_cut_in_error_messages(tmp_path, capsys):
    # the message shows a prefix of the value and its length, not 3 MB of it;
    # a --fields key or a sweep alias is cut the same way
    measure = ["measure", "--a", "0", "--b", "0", "--c", "0", "--fields"]
    cut = "... (100002 characters)"
    for content, argv, start, end in (
            ([0] * 10 ** 6, ["sweep", "--config"],
             "error: sweep config: expected an object with 'axes' and 'fixed', "
             "got [0, 0, ", "... (3000000 characters)\n"),
            ([0] * 10 ** 6, measure,
             "error: --fields: expected an object mapping vertices to field "
             "vectors, got [0, 0, ", "... (3000000 characters)\n"),
            ({"k" * 10 ** 5: 0}, measure, "error: --fields entry 'kkk",
             f"{cut}: expected a list of numbers, got 0\n"),
            ({"1" * 10 ** 5: [0, 0, 0]}, measure, "error: --fields entry '111",
             f"{cut}: not a valid vertex path\n"),
            ({"axes": [], "fixed": {"a": 0, "b": 0, "c": "k" * 10 ** 5}},
             ["sweep", "--config"],
             "error: fixed entry 'c' aliases unknown variable 'kkk", f"{cut}\n"),
            ({"axes": [], "fixed": {"k" * 10 ** 5: True}}, ["sweep", "--config"],
             "error: fixed entry 'kkk", f"{cut}: expected a number, got true\n")):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(content))
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(start), captured.err[:200]
        assert captured.err.endswith(end), captured.err[-200:]
        assert captured.err.count("\n") == 1
        assert len(captured.err.encode()) < 300
        assert captured.out == ""
    # an integer past Python's 4300-digit limit on int conversion is named
    # by the file and its length; up to the limit, by the entry it fills
    path = tmp_path / "digits.json"
    for digits, argv, text, where in (
            (4300, ["sweep", "--config"], '{"axes": [], "fixed": {"a": %s, "b": 0, "c": 0}}',
             "fixed entry 'a'"),
            (5000, ["sweep", "--config"], '{"axes": [], "fixed": {"a": %s, "b": 0, "c": 0}}',
             str(path)),
            (4301, measure, '{"1": [0, -%s, 0]}', str(path)),
            (10 ** 5, measure, '{"1": [0, %s, 0]}', str(path))):
        path.write_text(text % ("9" * digits))
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: {where}: a {digits}-digit integer is out of float range\n"
        assert captured.out == ""


def test_fields_keys_that_are_no_vertex_path(tmp_path, capsys):
    path = tmp_path / "fields.json"
    for key in ("x", "1.x", "1.0", "0.1", "1..2"):
        path.write_text(json.dumps({key: [0, 0, 0]}))
        assert main(["measure", "--a", "0", "--b", "0", "--c", "0",
                     "--fields", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"error: --fields entry {key!r}: not a valid vertex path\n"


# one run of each command; the tests below append --out
_OUT_COMMANDS = {
    "sweep csv": ["sweep", "--config", "{config}"],
    "sweep json": ["sweep", "--config", "{config}", "--format", "json"],
    "solve": ["solve", "--a", "0.5", "--b", "-0.3", "--c", "1.2"],
    "measure": ["measure", "--a", "0.5", "--b", "-0.3", "--c", "1.2"],
    "classify": ["classify", "--a", "1", "--b", "1", "--c", "2"],
    "ground": ["ground", "--region", "A2", "--samples", "2"],
    "consistency": ["consistency", "--a", "0.5", "--b", "-0.3", "--c", "1.2"],
}


def _out_argv(tmp_path, name: str) -> list:
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "axes": [{"name": "c", "start": 0.0, "stop": 1.0, "step": 0.25}],
        "fixed": {"a": 0.0, "b": 0.0}}))
    return [arg.format(config=config) for arg in _OUT_COMMANDS[name]]


def _printed(capsys, argv) -> bytes:
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.encode()


def test_out_overwrites_a_longer_file_in_place(tmp_path, capsys):
    # no byte of the old text survives, and the file keeps its inode
    old = "".join(random.Random(0).choice("xyz,\n") for _ in range(10_000))
    out = tmp_path / "out.txt"
    for name in _OUT_COMMANDS:
        argv = _out_argv(tmp_path, name)
        printed = _printed(capsys, argv)
        # each command returns exactly the text main writes
        args = build_parser().parse_args(argv)
        text = args.func(args)
        assert isinstance(text, str) and text.encode() == printed, name
        assert 0 < len(printed) < len(old), name
        out.write_text(old)
        inode = out.stat().st_ino
        assert _printed(capsys, [*argv, "--out", str(out)]) == b"", name
        assert out.read_bytes() == printed, name
        assert out.stat().st_ino == inode, name


def test_out_to_dev_null(tmp_path, capsys):
    # /dev/null is seekable, yet a device that cannot be truncated
    if not os.path.exists(os.devnull):
        pytest.skip(f"no {os.devnull}")
    for name in ("sweep csv", "measure"):
        argv = _out_argv(tmp_path, name)
        assert _printed(capsys, [*argv, "--out", os.devnull]) == b"", name


def test_out_through_a_symlink(tmp_path, capsys):
    argv = _out_argv(tmp_path, "sweep csv")
    printed = _printed(capsys, argv)
    target = tmp_path / "target.csv"
    target.write_text("old text\n" * 1000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    _printed(capsys, [*argv, "--out", str(link)])
    assert link.is_symlink()
    assert target.read_bytes() == printed


def test_new_out_file_has_the_mode_of_open(tmp_path, capsys):
    argv = _out_argv(tmp_path, "classify")
    old_umask = os.umask(0o022)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        _printed(capsys, [*argv, "--out", str(tmp_path / "new")])
    finally:
        os.umask(old_umask)
    assert ((tmp_path / "new").stat().st_mode
            == (tmp_path / "reference").stat().st_mode)


def test_sweep_out_over_its_own_config(tmp_path, capsys):
    # the config is read in full before the CSV replaces it
    argv = _out_argv(tmp_path, "sweep csv")
    printed = _printed(capsys, argv)
    config = argv[argv.index("--config") + 1]
    _printed(capsys, [*argv, "--out", config])
    assert Path(config).read_bytes() == printed


def test_internal_consistency_error_exits_4_and_writes_nothing(tmp_path, capsys,
                                                                monkeypatch):
    # solve: a map whose fixed points fail the residual check; sweep, which
    # never evaluates the map: the exact count of its third point failing
    quadratic_numerators, calls = solver._quadratic_numerators, []

    def fail_third(xw, yw, zw):
        calls.append((xw, yw, zw))
        if len(calls) == 3:
            raise InternalConsistencyError("third point")
        return quadratic_numerators(xw, yw, zw)

    out = tmp_path / "out.txt"
    for argv, name, patch, err in (
            (["solve", "--xw", "0.2", "--yw", "1", "--zw", "0.2"], "_line_map",
             lambda u, xw, yw, zw: u + 1.0, "error: fixed-point residual"),
            (_out_argv(tmp_path, "sweep csv"), "_quadratic_numerators",
             fail_third, "error: third point")):
        with monkeypatch.context() as m:
            m.setattr(solver, name, patch)
            for extra in ([], ["--out", str(out)]):
                out.write_text("old text\n")
                calls.clear()
                assert main([*argv, *extra]) == 4
                captured = capsys.readouterr()
                assert captured.err.startswith(err)
                assert captured.out == ""
                assert out.read_bytes() == b"old text\n"


def test_failed_catalog_and_periodic_checks_exit_4(capsys, monkeypatch):
    # a hand catalog certified at another region's coupling, and a quadratic
    # whose roots are half the true 2-periodic ones, each fail their own
    # check: the library raises and the command prints nothing on stdout
    quadratic_numerators = solver._quadratic_numerators

    def halved_roots(x, y, z):
        a, b, c, disc = quadratic_numerators(x, y, z)
        return 4 * a, 2 * b, c, 4 * disc

    w = solver.BoltzmannWeights(0.2, 1.0, 0.2)  # two proper 2-periodic roots
    for patch, call, argv, err in (
            (lambda m: m.setitem(ground.REPRESENTATIVE_PARAMS, "A2",
                                 ground.REPRESENTATIVE_PARAMS["A6"]),
             lambda: ground.generators_for("A2"), ["ground", "--region", "A2"],
             "error: catalog generator (1, 2) fails at ball"),
            (lambda m: m.setattr(solver, "_quadratic_numerators", halved_roots),
             lambda: solver.two_periodic_report(w),
             ["solve", "--xw", "0.2", "--yw", "1", "--zw", "0.2"],
             "error: 2-periodic residual too large")):
        with monkeypatch.context() as m:
            clear_caches()  # no catalog certified before the patch is read
            patch(m)
            with pytest.raises(InternalConsistencyError):
                call()
            assert main(argv) == 4
            captured = capsys.readouterr()
            assert captured.err.startswith(err)
            assert captured.out == ""
    clear_caches()


def test_sweep_finds_no_root(tmp_path, capsys, monkeypatch):
    # a sweep row prints counts, not roots: with the root finders and the
    # map failing on any call, both formats print the same bytes; the grid
    # holds one, three and two-periodic points
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "axes": [{"name": "xw", "start": 0.2, "stop": 3.0, "step": 0.4},
                 {"name": "yw", "start": 0.25, "stop": 1.0, "step": 0.25}],
        "fixed": {"zw": "xw"}}))
    argvs = [["sweep", "--config", str(config), "--format", fmt]
             for fmt in ("csv", "json")]
    printed = [_printed(capsys, argv) for argv in argvs]
    rows = [json.loads(line) for line in printed[1].splitlines()]
    assert {row["ti_count"] for row in rows} == {1, 3}
    assert {row["two_periodic"] for row in rows} == {True, False}

    def fail(*args):
        raise AssertionError("a sweep row needs no root")

    for name in ("_line_map", "_bisect_cubic_root", "_polish_fixed_point"):
        monkeypatch.setattr(solver, name, fail)
    assert [_printed(capsys, argv) for argv in argvs] == printed


def test_out_write_errors_exit_2(tmp_path, capsys):
    argv = _out_argv(tmp_path, "sweep csv")
    for out in (tmp_path, tmp_path / "missing" / "out.csv"):
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno ")
        assert captured.out == ""


def test_out_to_a_full_device_closes_the_file(tmp_path):
    # a leaked descriptor would print a ResourceWarning to stderr
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "lambda_tree.cli", *_out_argv(tmp_path, "sweep csv"),
         "--out", "/dev/full"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == "error: [Errno 28] No space left on device\n"
    assert done.stdout == ""


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


def test_package_root_names():
    # the public names of a fresh `import lambda_tree`, so that adding or
    # removing an export shows up here; the CLI imports warning-free too
    root = Path(__file__).resolve().parent.parent
    code = ("import lambda_tree\n"
            "print(' '.join(sorted(n for n in vars(lambda_tree) if not n.startswith('_'))))\n"
            "import lambda_tree.cli\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "BoltzmannWeights", "BoundaryFields", "CanonicalParams", "CapacityError",
        "Configuration", "ConsistencyReport", "DomainError", "FamilyDescriptor",
        "FieldRatios", "FiniteVolumeMeasure", "FixedPointReport", "GroundStateCatalog",
        "InternalConsistencyError", "LambdaParams", "LambdaTreeError", "LevelSequence",
        "PeriodicReport", "REPRESENTATIVE_PARAMS", "RegionReport", "SPINS", "SweepRow",
        "TreeCoord", "TreeShape", "boltzmann_matrix", "brute_force_minima",
        "check_enumerable", "classify_region", "count_ti_roots", "errors",
        "fields_from_ratios", "finite_volume_measure", "generators_for", "gibbs",
        "ground", "is_consistent", "is_ground_state", "measure_to_csv",
        "min_ball_energy", "model", "propagate_ratios", "push_forward", "realize",
        "sample_family", "solver", "successors", "sweep", "sweep_to_csv",
        "ti_thresholds", "tree", "two_periodic_report", "verify_generators",
        "weights_from"]
    assert done.stderr == ""


_FUZZ_NUMBERS = ("0", "1", "-1", "0.5", "1e308", "-1e308", "1.7e308", "-1.7e308",
                 "800", "-800", "1e-320", "-1e-320")
_FUZZ_NON_NUMBERS = ("nan", "inf", "-inf", "abc", "")
_FUZZ_ODD_JSON = (10 ** 400, -10 ** 400, "1e5", "x", None, True, [1])


def _fuzz_argv(rng: random.Random, write, odd_files: list, long_files: list) -> list:
    """One seeded call of any command, with numbers at the ends of the float
    range, non-numbers, and JSON files that are deep, hold huge integers or
    hold a 100,000-character key or alias (long_files, which get a share of
    their own). write(obj) saves obj as a JSON file and returns its path."""
    def number():
        return rng.choice(_FUZZ_NON_NUMBERS if rng.random() < 0.05 else _FUZZ_NUMBERS)

    def json_number():
        if rng.random() < 0.1:
            return rng.choice(_FUZZ_ODD_JSON)
        return float(rng.choice(_FUZZ_NUMBERS))

    def json_file(build):
        pick = rng.random()
        if pick < 0.05:
            return rng.choice(long_files)
        return rng.choice(odd_files) if pick < 0.2 else write(build())

    def sweep_config():
        family = rng.choice((("a", "b", "c", "beta"), ("xw", "yw", "zw")))
        names = rng.sample(family, len(family))
        n_axes = rng.randint(0, 2)
        axes = []
        for name in names[:n_axes]:
            start = json_number()
            step = rng.choice((0.5, 1, 100.0, 1e308, 1e-320, 0, -1, 10 ** 400))
            try:
                stop = start + step * rng.randint(0, 3)
            except (TypeError, OverflowError):
                stop = json_number()
            axes.append({"name": name, "start": start, "stop": stop, "step": step})
        fixed = {name: json_number() if rng.random() < 0.8
                 else rng.choice(family + ("q",))  # an alias
                 for name in names[n_axes:] if rng.random() < 0.9}
        return {"axes": axes, "fixed": fixed}

    def field_vectors():
        keys = rng.sample(("0", "1", "2", "1.1", "1.2", "2.1", "2.2"), rng.randint(1, 4))
        return {key: [json_number() for _ in range(3)] for key in keys}

    couplings = [x for flag in ("--a", "--b", "--c") if rng.random() < 0.95
                 for x in (flag, number())]
    if rng.random() < 0.5:
        couplings += ["--beta", rng.choice(("1", "4.26", "1e-320", "1e308", "0"))]
    command = rng.choice(("classify", "ground", "solve", "sweep", "consistency",
                          "measure"))
    if command == "classify":
        return ["classify", *couplings, "--tol", rng.choice(("0", "0.1", "1e308"))]
    if command == "ground":
        argv = ["ground"]
        if rng.random() < 0.5:
            argv += ["--region", rng.choice(("A1", "A2", "A3", "A4", "A5", "A6"))]
        if rng.random() < 0.3 or len(argv) == 1:
            argv += couplings
        return argv + ["--depth", str(rng.randint(0, 6)),
                       "--max-period", rng.choice(("1", "3", "8", "10000000")),
                       "--samples", rng.choice(("0", "0", "3")),
                       "--tol", rng.choice(("0", "0.25", "1e308"))]
    if command == "solve":
        if rng.random() < 0.5:
            return ["solve", *couplings]
        return ["solve", *[x for flag in ("--xw", "--yw", "--zw")
                           for x in (flag, rng.choice(("1", "0.2", "3", "1e-320", "1e-300",
                                                       "1e308", "1.7e308", "0", "inf")))]]
    if command == "consistency":
        # at most 3^7 states, or past the 3^13 bound
        return ["consistency", *couplings, "--depth", rng.choice(("0", "1", "2", "3", "9")),
                "--perturb", number(), "--seed", str(rng.randint(0, 9))]
    if command == "measure":
        argv = ["measure", *couplings, "--depth", rng.choice(("0", "1", "2"))]
        if rng.random() < 0.5:
            argv += ["--fields", json_file(field_vectors)]
        return argv
    return ["sweep", "--config", json_file(sweep_config),
            "--format", rng.choice(("csv", "json"))]


def test_seeded_cli_fuzz_ends_in_an_exit_code(tmp_path, capsys):
    # every call returns 0, 2 or 3 without raising, every error line stays
    # short, and no JSON output holds Infinity or NaN, which are not
    # standard JSON
    files = []

    def write(obj) -> str:
        path = tmp_path / f"input{len(files)}.json"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        files.append(path)
        return str(path)

    odd_files = [write("[" * 100_000 + "]" * 100_000),
                 write('{"1": ' + "[" * 100_000 + "]" * 100_000 + "}"),
                 write({"axes": [], "fixed": {"a": 10 ** 400, "b": 0, "c": 0}}),
                 write({"1": [0, 10 ** 400, 0], "2": [0, 0, 0]}),
                 write('{"axes": [], "fixed": {"xw": 1' + "0" * 5000 + "}}")]
    long_files = [write({"k" * 100_000: 0}),
                  write({"1" * 100_000: [0, 0, 0]}),
                  write({"axes": [], "fixed": {"xw": 1, "yw": 1, "zw": "k" * 100_000}})]
    odd_files += long_files
    # depths around the parser's recursion limit, wherever the stack stands
    for depth in range(850, 1010, 10):
        odd_files += [write("[" * depth + "]" * depth),
                      write('{"axes": ' + "[" * depth + "]" * depth + ', "fixed": {}}'),
                      write('{"1": ' + "[" * depth + "]" * depth + "}")]

    def reject(constant):
        raise AssertionError(f"{constant} in JSON output")

    rng = random.Random(20261018)
    codes = []
    # each long file once through the command that echoes its key or alias,
    # then the seeded draws
    couplings = ["--a", "0", "--b", "0", "--c", "0"]
    fixed = [["measure", *couplings, "--fields", long_files[0]],
             ["measure", *couplings, "--fields", long_files[1]],
             ["sweep", "--config", long_files[2]]]
    for argv in fixed + [_fuzz_argv(rng, write, odd_files, long_files)
                         for _ in range(1000)]:
        try:
            rc = main(argv)
        except Exception as e:  # noqa: BLE001 - the failure names the call
            pytest.fail(f"{argv} raised {e!r}")
        out, err = capsys.readouterr()
        assert rc in (0, 2, 3), argv
        # an error names what it refuses in a line, however long the input
        assert all(len(line.encode()) < 300 for line in err.splitlines()
                   if line.startswith("error:")), argv
        codes.append(rc)
        if rc == 0 and argv[0] not in ("measure", "sweep"):
            json.loads(out, parse_constant=reject)
        elif rc == 0 and argv[-1] == "json":
            for line in out.splitlines():
                json.loads(line, parse_constant=reject)
    # the draws reach every exit code
    assert all(codes.count(rc) >= 10 for rc in (0, 2, 3)), Counter(codes)


_README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # every lambda-tree line of README's "Command line" block exits 0, with
    # README's sweep config as its grid.json, and classify prints what its
    # "# ->" line shows
    text = _README.read_text()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    (tmp_path / "grid.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    lines = block.splitlines()
    commands = [(i, line) for i, line in enumerate(lines) if line.startswith("lambda-tree ")]
    assert len(commands) == 8
    for i, line in commands:
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        out = capsys.readouterr().out
        if argv[0] == "classify":
            shown = lines[i + 1]
            assert shown.startswith("# -> ")
            assert json.loads(out) == json.loads(shown[len("# -> "):])
    # a header and one row per xw in 0.05, 0.10, ..., 1.0
    assert len((tmp_path / "rows.csv").read_text().splitlines()) == 21
