"""The benchmark's three workloads: input generation, the timed program
calls of one item, and the checks of that item's outputs.

A workload is a fixed, seeded mix of items, produced one round at a time
from random.Random seeded by the workload name, the benchmark seed and the
round index, so a seed gives the same inputs on every run and no item of
phase_sweep or finite_volume is repeated. The program receives only
the generated inputs; every call into it goes through a module attribute
looked up at call time, so a tracer installed on the modules sees it.

The checks compare each output with bench/reference.py, never with stored
output, and return a list of messages (empty when the item is correct).
"""

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

from lambda_tree import cli, gibbs, ground, model, tree

import reference as ref

ROUND_SIZE = 8  # phase_sweep and finite_volume items per round

# Couplings and beta are multiples of 1/64, and |beta * coupling| <= 3, so
# every edge weight exp(beta * coupling) lies in the band [e^-3, e^3] and
# every grid value prints exactly in the sweep CSV.
GRID = 64
BAND_UNITS = 3 * GRID * GRID  # |beta_units * coupling_units| bound

SLICE_POINTS = 25
SWEEP_AXES = ("a", "b", "c", "beta")

FV_DEPTH = 2  # the depth-2 binary truncation: 3^7 states per enumeration
Z_REL_TOL = 1e-9
PROB_TOL = 1e-9
CONSISTENCY_TOL = 1e-10     # is_consistent's default
DEVIATION_TOL = 1e-12       # absolute, on probabilities of 27 inner states

GROUND_INT_RANGE = (-2, 2)
GROUND_FLOAT_UNITS = 2 ** 20  # float couplings are k / 2^20 in [-2, 2]
FAMILY_REGIONS = ("A2", "A5")
FAMILY_SAMPLES = 4
FAMILY_DEPTH = 6
BRUTE_FORCE_DEPTH = 2


class ProgramFailure(Exception):
    """The program refused an item (a non-zero exit code)."""


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable    # (seed, round index) -> list of item inputs
    prepare: Callable       # (item, workdir) -> program input; untimed
    run: Callable           # program input -> output; the timed part
    check: Callable         # (item, output) -> list of error messages


def _as_is(item, workdir: str):
    return item


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _banded_couplings(rng: random.Random, beta_units: int, count: int) -> list:
    limit = BAND_UNITS // beta_units
    return [rng.randint(-limit, limit) for _ in range(count)]


# --- phase_sweep ---------------------------------------------------------------

def _sweep_slice(rng: random.Random, axis: str) -> dict:
    """A SLICE_POINTS-point sweep config along one axis, all in grid units."""
    if axis == "beta":
        units = [rng.randint(-3 * GRID, 3 * GRID) for _ in range(3)]
        while not any(units):
            units = [rng.randint(-3 * GRID, 3 * GRID) for _ in range(3)]
        top = BAND_UNITS // max(abs(u) for u in units)  # beta_units <= top
        step = rng.randint(1, (top - 1) // (SLICE_POINTS - 1))
        start = rng.randint(1, top - step * (SLICE_POINTS - 1))
        fixed = dict(zip("abc", (u / GRID for u in units)))
    else:
        beta_units = rng.randint(16, 128)
        limit = BAND_UNITS // beta_units
        others = [n for n in "abc" if n != axis]
        fixed = {n: u / GRID for n, u in
                 zip(others, _banded_couplings(rng, beta_units, 2))}
        fixed["beta"] = beta_units / GRID
        step = rng.randint(1, 2 * limit // (SLICE_POINTS - 1))
        start = rng.randint(-limit, limit - step * (SLICE_POINTS - 1))
    return {"axes": [{"name": axis, "start": start / GRID,
                      "stop": (start + step * (SLICE_POINTS - 1)) / GRID,
                      "step": step / GRID}],
            "fixed": fixed}


def make_phase_sweep(seed: int, index: int) -> list:
    rng = round_rng("phase_sweep", seed, index)
    axes = [SWEEP_AXES[i % len(SWEEP_AXES)] for i in range(ROUND_SIZE)]
    rng.shuffle(axes)
    return [_sweep_slice(rng, axis) for axis in axes]


def prepare_phase_sweep(config: dict, workdir: str) -> tuple:
    """Write the config file; the CSV goes to a file beside it."""
    config_path = os.path.join(workdir, "sweep.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    return config_path, os.path.join(workdir, "sweep.csv")


def run_phase_sweep(paths: tuple) -> str:
    """One `sweep` command in-process; returns the CSV path."""
    config_path, out_path = paths
    code = cli.main(["sweep", "--config", config_path, "--format", "csv",
                     "--out", out_path])
    if code != 0:
        raise ProgramFailure(f"sweep exited {code}")
    return out_path


def _slice_points(config: dict) -> list:
    axis = config["axes"][0]
    start, step = axis["start"], axis["step"]
    points = []
    for i in range(SLICE_POINTS):
        point = dict(config["fixed"])
        point[axis["name"]] = start + i * step
        points.append(point)
    return points


def _optional_float(cell: str):
    return float(cell) if cell else None


def _check_sweep_row(point: dict, row: dict) -> list:
    errors = []
    for name in ("a", "b", "c", "beta"):
        if float(row[name]) != point[name]:
            errors.append(f"{name}={row[name]} but the grid gives {point[name]}")
    beta = point["beta"]
    weights = tuple(math.exp(beta * point[n]) for n in ("c", "b", "a"))
    for name, w in zip(("xw", "yw", "zw"), weights):
        if not math.isclose(float(row[name]), w, rel_tol=1e-13):
            errors.append(f"{name}={row[name]} but exp(beta*coupling)={w!r}")
    count = ref.ti_fixed_point_count(*weights)
    b_quad, disc, exists = ref.two_periodic(*weights)
    if int(row["ti_count"]) != count:
        errors.append(f"ti_count={row['ti_count']} but exactly {count} fixed points")
    for name, exact in (("B", b_quad), ("D", disc)):
        got = float(row[name])
        if (got > 0) != (exact > 0) or (got < 0) != (exact < 0):
            errors.append(f"{name}={row[name]} has the wrong sign")
        elif not math.isclose(got, float(exact), rel_tol=1e-9):
            errors.append(f"{name}={row[name]} but the closed form gives {float(exact)!r}")
    if (row["two_periodic"] == "true") != exists:
        errors.append(f"two_periodic={row['two_periodic']} but B<0 and D>0 is {exists}")
    transition = count > 1 or exists
    if (row["phase_transition"] == "true") != transition:
        errors.append(f"phase_transition={row['phase_transition']} but expected {transition}")
    eps1, eps2 = _optional_float(row["eps1"]), _optional_float(row["eps2"])
    has_thresholds = ref.b_can(*weights) > 9
    if (eps1 is not None and eps2 is not None) != has_thresholds:
        errors.append(f"eps1/eps2 present={eps1 is not None} but b_can > 9 is {has_thresholds}")
    elif has_thresholds:
        a_can = float(row["a_can"])
        bracketed = min(eps1, eps2) < a_can < max(eps1, eps2)
        if bracketed != (count == 3):
            errors.append(f"eps1<a_can<eps2 is {bracketed} with {count} fixed points")
    return errors


def check_phase_sweep(config: dict, out_path: str) -> list:
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    points = _slice_points(config)
    if len(rows) != len(points):
        return [f"{len(rows)} CSV rows for {len(points)} grid points"]
    errors = []
    for point, row in zip(points, rows):
        errors += [f"at {point}: {e}" for e in _check_sweep_row(point, row)]
    return errors


# --- finite_volume -------------------------------------------------------------

@dataclass(frozen=True)
class FiniteVolumeItem:
    params: model.LambdaParams
    shape: tree.TreeShape
    leaf: gibbs.FieldRatios
    perturb_at: tree.TreeCoord
    perturb_component: int
    perturb_by: float
    # vertices of the last two levels, listed here so that the checks call
    # no program code (a traced pass would count it)
    leaves: tuple
    inner: tuple


def make_finite_volume(seed: int, index: int) -> list:
    rng = round_rng("finite_volume", seed, index)
    shape = tree.TreeShape(2, FV_DEPTH)
    leaves = tuple(shape.level_vertices(FV_DEPTH))
    inner = tuple(shape.level_vertices(FV_DEPTH - 1))
    items = []
    for _ in range(ROUND_SIZE):
        beta_units = rng.randint(16, 128)
        a, b, c = (u / GRID for u in _banded_couplings(rng, beta_units, 3))
        leaf = gibbs.FieldRatios(3, {
            x: (math.exp(rng.uniform(-1.0, 1.0)), math.exp(rng.uniform(-1.0, 1.0)))
            for x in leaves})
        items.append(FiniteVolumeItem(
            model.LambdaParams(a, b, c, beta_units / GRID), shape, leaf,
            rng.choice(inner), rng.randrange(3), rng.uniform(0.25, 1.0),
            leaves, inner))
    return items


def run_finite_volume(item: FiniteVolumeItem) -> dict:
    p, shape = item.params, item.shape
    ratios = gibbs.propagate_ratios(item.leaf, shape, p, 3)
    fields = gibbs.fields_from_ratios(ratios)
    consistent = gibbs.is_consistent(p, 3, shape, fields)
    bumped = dict(fields.fields)
    vec = list(bumped[item.perturb_at])
    vec[item.perturb_component] += item.perturb_by
    bumped[item.perturb_at] = tuple(vec)
    perturbed = gibbs.is_consistent(p, 3, shape, gibbs.BoundaryFields(3, bumped))
    measure = gibbs.finite_volume_measure(p, 3, shape, fields)
    return {"fields": fields, "consistent": consistent, "perturbed": perturbed,
            "perturbed_fields": bumped, "partition": measure.partition,
            "csv": gibbs.measure_to_csv(measure)}


def _perturbed_deviation(item: FiniteVolumeItem, fields: dict, bumped: dict) -> float:
    """max over V_{n-1} configurations of |P(sigma) under the recursion-built
    fields - P(sigma) under the perturbed ones|. With compatible fields the
    first equals the marginal of the depth-n measure, so this is the
    deviation is_consistent must report."""
    p = item.params
    depth = FV_DEPTH - 1
    exact = ref.configuration_probabilities(
        p.a, p.b, p.c, p.beta, depth, {x.path: fields[x] for x in item.inner})
    moved = ref.configuration_probabilities(
        p.a, p.b, p.c, p.beta, depth, {x.path: bumped[x] for x in item.inner})
    return max(abs(exact[s] - moved[s]) for s in exact)


def check_finite_volume(item: FiniteVolumeItem, out: dict) -> list:
    errors = []
    if not (out["consistent"].passed and out["consistent"].max_deviation <= CONSISTENCY_TOL):
        errors.append(f"recursion-built fields judged inconsistent: {out['consistent']}")
    fields = out["fields"].fields
    expected = _perturbed_deviation(item, fields, out["perturbed_fields"])
    if out["perturbed"].passed or not expected > CONSISTENCY_TOL:
        errors.append(f"perturbed fields not rejected: {out['perturbed']}")
    if not abs(out["perturbed"].max_deviation - expected) <= DEVIATION_TOL:
        errors.append(f"perturbed max_deviation {out['perturbed'].max_deviation!r}"
                      f" but the exact deviation is {expected!r}")

    p = item.params
    log_z, marginal = ref.sum_product(p.a, p.b, p.c, p.beta, FV_DEPTH,
                                      {x.path: fields[x] for x in item.leaves})
    z = math.exp(log_z)
    if not abs(out["partition"] - z) <= Z_REL_TOL * z:
        errors.append(f"Z={out['partition']!r} but sum-product gives {z!r}")

    lines = out["csv"].splitlines()
    if lines[0] != "configuration,probability":
        return errors + [f"bad CSV header {lines[0]!r}"]
    nverts = 2 ** (FV_DEPTH + 1) - 1
    seen, probs, root = set(), [], [[], [], []]
    for line in lines[1:]:
        cfg, prob = line.split(",")
        if len(cfg) != nverts or not set(cfg) <= set("123"):
            return errors + [f"bad configuration {cfg!r}"]
        seen.add(cfg)
        probs.append(float(prob))
        root[int(cfg[0]) - 1].append(float(prob))
    if len(seen) != 3 ** nverts or len(probs) != 3 ** nverts:
        errors.append(f"{len(seen)} distinct of {len(probs)} rows, expected {3 ** nverts}")
    if abs(math.fsum(probs) - 1.0) > PROB_TOL:
        errors.append(f"probabilities sum to {math.fsum(probs)!r}")
    for s, (rows, expect) in enumerate(zip(root, marginal), start=1):
        if abs(math.fsum(rows) - expect) > PROB_TOL:
            errors.append(f"P(root={s})={math.fsum(rows)!r} but sum-product gives {expect!r}")
    return errors


# --- ground_states -------------------------------------------------------------

INTEGER_TRIPLES = list(product(range(GROUND_INT_RANGE[0], GROUND_INT_RANGE[1] + 1),
                               repeat=3))


def make_ground_states(seed: int, index: int) -> list:
    """All 125 integer triples (region-boundary ties) in a seeded order,
    alternating with as many random float triples, float first.

    Every round holds each integer triple once, so the share of costly
    all-tied triples is the same in every run; the float triples cost
    about the same as one another."""
    rng = round_rng("ground_states", seed, index)
    integers = list(INTEGER_TRIPLES)
    rng.shuffle(integers)
    lo, hi = GROUND_INT_RANGE
    units = GROUND_FLOAT_UNITS
    floats = [tuple(rng.randint(lo * units, hi * units) / units for _ in range(3))
              for _ in integers]
    return [(model.LambdaParams(*t), rng.randrange(2 ** 31))
            for pair in zip(floats, integers) for t in pair]


def run_ground_states(item) -> dict:
    p, seed = item
    regions = model.classify_region(p).active_regions
    catalogs = []
    for region in regions:
        catalog = ground.generators_for(region)
        checked = []
        for g in catalog.generators:
            cfg = ground.realize(g, catalog.verified_depth)
            checked.append((g, cfg, ground.is_ground_state(cfg, p)))
        catalogs.append((region, checked))
    samples = {region: ground.sample_family(region, FAMILY_SAMPLES, seed, FAMILY_DEPTH)
               for region in regions if region in FAMILY_REGIONS}
    minima = ground.brute_force_minima(p, BRUTE_FORCE_DEPTH)
    return {"regions": regions, "catalogs": catalogs, "samples": samples,
            "minima": minima}


def _family_ok(region: str, levels: list) -> bool:
    if region == "A2":
        return levels[0] == 1 and all(s != t for s, t in zip(levels, levels[1:]))
    return levels[0] == 2 and set(levels) <= {2, 3}


def check_ground_states(item, out: dict) -> list:
    p, _ = item
    errors = []
    expected = ref.active_regions(p.a, p.b, p.c)
    if tuple(out["regions"]) != expected:
        return [f"regions {out['regions']} but exact catalogue minima give {expected}"]
    allowed = ref.minimal_balls(p.a, p.b, p.c)
    for region, checked in out["catalogs"]:
        for g, cfg, (ok, witness) in checked:
            levels = ref.level_values(cfg.spins)
            period = g.period or len(g.entries)
            if levels is None or any(s != g.entries[m % period] for m, s in enumerate(levels)):
                errors.append(f"{region} generator {g.entries} realized wrongly")
            if not ref.is_ground_configuration(cfg.spins, allowed):
                errors.append(f"{region} generator {g.entries} is no ground state")
            if not ok:
                errors.append(f"{region} generator {g.entries} rejected at ball {witness}")
    for region, drawn in out["samples"].items():
        if len({c.spins for c in drawn}) != min(FAMILY_SAMPLES, 2 ** FAMILY_DEPTH):
            errors.append(f"{region} family: {len(drawn)} samples, not distinct or too few")
        for cfg in drawn:
            levels = ref.level_values(cfg.spins)
            if (levels is None or len(levels) != FAMILY_DEPTH + 1
                    or not _family_ok(region, levels)
                    or not ref.is_ground_configuration(cfg.spins, allowed)):
                errors.append(f"{region} family sample {cfg} is not a family ground state")
    minima = out["minima"]
    count = ref.minimal_configuration_count(p.a, p.b, p.c, BRUTE_FORCE_DEPTH)
    if len(minima) != count:
        errors.append(f"brute force found {len(minima)} minima, the DP counts {count}")
    nverts = 2 ** (BRUTE_FORCE_DEPTH + 1) - 1
    if any(len(c.spins) != nverts or not ref.is_ground_configuration(c.spins, allowed)
           for c in minima):
        errors.append("brute force returned a configuration that is not minimal")
    return errors


WORKLOADS = {w.name: w for w in (
    Workload("phase_sweep", make_phase_sweep, prepare_phase_sweep, run_phase_sweep,
             check_phase_sweep),
    Workload("finite_volume", make_finite_volume, _as_is, run_finite_volume,
             check_finite_volume),
    Workload("ground_states", make_ground_states, _as_is, run_ground_states,
             check_ground_states),
)}
