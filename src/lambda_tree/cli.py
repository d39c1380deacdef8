"""Command-line front end: classify, ground, solve, sweep, consistency, measure.

Exit codes: 0 success, 2 usage/parse error, 3 capacity error, 4 internal
consistency failure. All floating-point output is printed with 15
significant digits so reruns diff cleanly.
"""

import argparse
import functools
import itertools
import json
import math
import random
import re
import sys

from .errors import CapacityError, InternalConsistencyError, LambdaTreeError
from .ground import (REPRESENTATIVE_PARAMS, generators_for, is_ground_state,
                     sample_family, verify_generators)
from .gibbs import (BoundaryFields, FieldRatios, check_enumerable,
                    fields_from_ratios, finite_volume_measure, is_consistent,
                    measure_to_csv, propagate_ratios)
from .model import LambdaParams, classify_region
from .solver import (BoltzmannWeights, INVARIANT_LINE_NOTE, count_ti_roots,
                     sweep, sweep_to_csv, sweep_to_jsonl, two_periodic_report,
                     weights_from)
from .tree import TreeCoord, TreeShape

_PARAM_NAMES = ("a", "b", "c", "beta")
_WEIGHT_NAMES = ("xw", "yw", "zw")
_MAX_SWEEP_POINTS = 10 ** 6


def _round15(obj):
    """Round every float in a JSON-ready structure to 15 significant digits."""
    if isinstance(obj, float):
        return float(format(obj, ".15g"))
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(_round15(obj), indent=2) + "\n", out)


def _json_float(value, what: str) -> float:
    """A number read from a JSON file (a numeric string passes too, as
    float() takes it); anything else, true and false included, is a
    ValueError that names `what`."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"{what}: expected a number, got {json.dumps(value)}")


def _params_from_args(args) -> LambdaParams:
    missing = [n for n in ("a", "b", "c") if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing coupling flags: {', '.join('--' + n for n in missing)}")
    return LambdaParams(args.a, args.b, args.c, args.beta)


def _weights_from_args(args) -> BoltzmannWeights:
    """Weights either directly (--xw/--yw/--zw) or via couplings and beta."""
    have_w = [n for n in _WEIGHT_NAMES if getattr(args, n) is not None]
    have_p = [n for n in ("a", "b", "c") if getattr(args, n) is not None]
    if have_w and have_p:
        raise ValueError("give either --xw/--yw/--zw or --a/--b/--c, not both")
    if have_w:
        if len(have_w) != 3:
            raise ValueError("all three of --xw --yw --zw are required")
        return BoltzmannWeights(args.xw, args.yw, args.zw)
    return weights_from(_params_from_args(args))


def cmd_classify(args) -> int:
    report = classify_region(_params_from_args(args), tol=args.tol)
    _emit_json({"regions": list(report.active_regions),
                "minimal_energy": report.minimal_energy,
                "boundary": report.boundary}, args.out)
    return 0


def cmd_ground(args) -> int:
    if args.region:
        regions = [args.region]
        params = REPRESENTATIVE_PARAMS[args.region]
    else:
        params = _params_from_args(args)
        regions = list(classify_region(params, tol=args.tol).active_regions)

    catalogs = []
    for region in regions:
        catalog = generators_for(region, max_period=args.max_period)
        depth = args.depth if args.depth is not None else catalog.verified_depth
        entry = catalog.to_json()
        entry["generators"] = []
        verdicts = verify_generators(catalog.generators, params, depth, args.tol)
        for g, (ok, witness) in zip(catalog.generators, verdicts):
            entry["generators"].append({
                "period": g.period, "entries": list(g.entries),
                "ground_state": ok,
                "witness": str(witness) if witness else None,
            })
        entry["checked_depth"] = depth
        catalogs.append(entry)

    result = {"params": {"a": params.a, "b": params.b, "c": params.c,
                         "beta": params.beta},
              "regions": regions, "catalogs": catalogs}

    if args.samples:
        if not args.region:
            raise ValueError("--samples requires --region (A2 or A5)")
        depth = args.depth if args.depth is not None else 3
        drawn = sample_family(args.region, args.samples, args.seed, depth)
        result["samples"] = [{
            "levels": list(cfg.level_spins()),
            "ground_state": is_ground_state(cfg, params, tol=args.tol)[0],
        } for cfg in drawn]
    _emit_json(result, args.out)
    return 0


def cmd_solve(args) -> int:
    w = _weights_from_args(args)
    fp = count_ti_roots(w)
    can = fp.canonical
    pr = two_periodic_report(w)
    _emit_json({
        "weights": {"xw": w.xw, "yw": w.yw, "zw": w.zw},
        "canonical": {"a_can": can.a_can, "b_can": can.b_can},
        "translation_invariant": {
            "roots": list(fp.ti_roots),
            "regime": fp.regime,
            "thresholds": list(fp.thresholds) if fp.thresholds else None,
            "phase_transition": fp.phase_transition,
        },
        "two_periodic": {
            "A": pr.quad[0], "B": pr.quad[1], "C": pr.quad[2],
            "discriminant": pr.discriminant,
            "proper_roots": list(pr.proper_roots),
            "exists": pr.two_periodic_exists,
        },
        "note": INVARIANT_LINE_NOTE,
    }, args.out)
    return 0


def _axis_count(axis: dict) -> tuple[float, float, int]:
    """(start, step, n) for the grid values start + i*step, i < n, that do
    not pass stop; n is worked out without building the values."""
    for key in ("name", "start", "stop", "step"):
        if key not in axis:
            raise ValueError(f"sweep axis missing {key!r}")
    start, stop, step = (_json_float(axis[key], f"axis {axis['name']!r} {key}")
                         for key in ("start", "stop", "step"))
    if not step > 0:
        raise ValueError(f"axis {axis['name']!r} needs step > 0, got {step}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"axis {axis['name']!r} needs a finite start and stop")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_SWEEP_POINTS:  # also an infinite span from a tiny step
        raise CapacityError(
            f"axis {axis['name']!r} has more than {_MAX_SWEEP_POINTS} points")
    return start, step, max(0, math.floor(span) + 1)


def _sweep_points(config: dict):
    if not isinstance(config, dict):
        raise ValueError(f"sweep config: expected an object with 'axes' and "
                         f"'fixed', got {json.dumps(config)}")
    axes = config.get("axes", [])
    fixed = config.get("fixed", {})
    if not (isinstance(axes, list) and all(isinstance(ax, dict) for ax in axes)):
        raise ValueError(f"sweep config 'axes': expected a list of objects, "
                         f"got {json.dumps(axes)}")
    if not isinstance(fixed, dict):
        raise ValueError(f"sweep config 'fixed': expected an object, "
                         f"got {json.dumps(fixed)}")
    for ax in axes:
        if not isinstance(ax.get("name", ""), str):
            raise ValueError(f"sweep axis 'name': expected a string, "
                             f"got {json.dumps(ax['name'])}")
    # a string is an alias, resolved per point; anything else must be a number
    fixed = {name: value if isinstance(value, str)
             else _json_float(value, f"fixed entry {name!r}")
             for name, value in fixed.items()}
    names = [ax["name"] for ax in axes if "name" in ax] + list(fixed)
    families = {frozenset(_PARAM_NAMES): "params", frozenset(_WEIGHT_NAMES): "weights"}
    family = None
    for keys, label in families.items():
        if all(n in keys for n in names):
            family = label
    if family is None:
        raise ValueError(
            f"sweep variables must all come from {_PARAM_NAMES} or {_WEIGHT_NAMES}")

    counts = [_axis_count(ax) for ax in axes]
    if any(n == 0 for _, _, n in counts):
        raise ValueError("sweep grid is empty (an axis produced no values)")
    if math.prod(n for _, _, n in counts) > _MAX_SWEEP_POINTS:
        raise CapacityError(f"sweep grid has more than {_MAX_SWEEP_POINTS} points")
    axis_names = [ax["name"] for ax in axes]
    for i, name in enumerate(axis_names):
        if name in axis_names[:i]:
            raise ValueError(f"sweep axis {name!r} is given more than once")
    grids = [[start + i * step for i in range(n)] for start, step, n in counts]

    def build(combo: tuple):
        resolved = dict(zip(axis_names, combo))
        for name, value in fixed.items():
            if isinstance(value, str):
                if value not in resolved:
                    raise ValueError(
                        f"fixed entry {name!r} aliases unknown variable {value!r}")
                resolved[name] = resolved[value]
            else:
                resolved[name] = value
        if family == "params":
            return LambdaParams.from_mapping(resolved)
        return BoltzmannWeights.from_mapping(resolved)

    # the first axis outermost; no axes give the one point of fixed values
    return [build(combo) for combo in itertools.product(*grids)]


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    rows = sweep(_sweep_points(config))
    text = sweep_to_csv(rows) if args.format == "csv" else sweep_to_jsonl(rows)
    _emit(text, args.out)
    return 0


def cmd_consistency(args) -> int:
    p = _params_from_args(args)
    shape = TreeShape(args.k, args.depth)
    q = args.q
    # is_consistent enumerates V_{depth-1}; refuse before any field is built
    check_enumerable(q, TreeShape(shape.k, max(0, shape.depth - 1)))
    if shape.depth < 1:  # before --perturb reaches for level depth - 1
        raise ValueError("consistency needs depth >= 1")
    rng = random.Random(args.seed)
    leaf = FieldRatios(q, {x: tuple(math.exp(rng.uniform(-1.0, 1.0))
                                    for _ in range(q - 1))
                           for x in shape.level_vertices(shape.depth)})
    ratios = propagate_ratios(leaf, shape, p, q)
    h = fields_from_ratios(ratios, gauge=0.0)
    if args.perturb:
        target = shape.level_vertices(shape.depth - 1)[0]
        hv = list(h.fields[target])
        hv[0] += args.perturb
        fields = dict(h.fields)
        fields[target] = tuple(hv)
        h = BoundaryFields(q, fields)
    report = is_consistent(p, q, shape, h, tol=args.tol)
    _emit_json(report.to_json(), args.out)
    return 0


def _read_fields(path: str, shape: TreeShape) -> dict[TreeCoord, tuple[float, ...]]:
    """The --fields file: a JSON object mapping vertex paths of the
    truncation to lists of numbers."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"--fields: expected an object mapping vertices to "
                         f"field vectors, got {json.dumps(raw)}")
    fields = {}
    for key, vec in raw.items():
        if not isinstance(vec, list):
            raise ValueError(f"--fields entry {key!r}: expected a list of numbers, "
                             f"got {json.dumps(vec)}")
        x = TreeCoord.parse(key)
        if not shape.contains(x):
            raise ValueError(f"--fields entry {key!r}: not a vertex of the "
                             f"k={shape.k}, depth-{shape.depth} truncation")
        fields[x] = tuple(_json_float(v, f"--fields entry {key!r}") for v in vec)
    return fields


def cmd_measure(args) -> int:
    p = _params_from_args(args)
    shape = TreeShape(args.k, args.depth)
    q = args.q
    check_enumerable(q, shape)
    if args.fields:
        fields = _read_fields(args.fields, shape)
    else:
        fields = {x: (0.0,) * q for x in shape.level_vertices(shape.depth)}
    measure = finite_volume_measure(p, q, shape, BoundaryFields(q, fields))
    _emit(measure_to_csv(measure), args.out)
    return 0


def _add_param_flags(sp, with_weights: bool = False) -> None:
    sp.add_argument("--a", type=float, default=None, help="coupling at spin distance 2")
    sp.add_argument("--b", type=float, default=None, help="coupling at spin distance 1")
    sp.add_argument("--c", type=float, default=None, help="coupling at spin distance 0")
    sp.add_argument("--beta", type=float, default=1.0, help="inverse temperature")
    if with_weights:
        sp.add_argument("--xw", type=float, default=None, help="edge weight exp(beta*c)")
        sp.add_argument("--yw", type=float, default=None, help="edge weight exp(beta*b)")
        sp.add_argument("--zw", type=float, default=None, help="edge weight exp(beta*a)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e-3, -inf and -nan as option values.

    argparse takes a token that starts with '-' for an option unless it
    looks like -12 or -1.5; this CLI has no option that starts with a
    digit, '.', 'inf' or 'nan', so such tokens are always values.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lambda-tree",
        description="Three-spin interactions on the rooted binary tree: "
                    "regions, ground states, boundary-field measures, and "
                    "fixed-point phase analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="active coupling regions at a triple")
    _add_param_flags(sp)
    sp.add_argument("--tol", type=float, default=0.0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("ground", help="ground-state catalog and verification")
    _add_param_flags(sp)
    sp.add_argument("--region", choices=sorted(REPRESENTATIVE_PARAMS))
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--max-period", type=int, default=7)
    sp.add_argument("--samples", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=0.0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_ground)

    sp = sub.add_parser("solve", help="fixed-point and 2-periodic analysis")
    _add_param_flags(sp, with_weights=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="phase-diagram table over a parameter grid")
    sp.add_argument("--config", required=True, help="JSON sweep description")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("consistency",
                        help="marginalization check for recursion-built fields")
    _add_param_flags(sp)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--q", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--perturb", type=float, default=0.0)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_consistency)

    sp = sub.add_parser("measure", help="finite-volume distribution as CSV")
    _add_param_flags(sp)
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--q", type=int, default=3)
    sp.add_argument("--fields", default=None,
                    help="JSON file mapping vertex (e.g. '1.2') to a field vector")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_measure)
    return parser


# parsing leaves the parser unchanged, so one instance serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InternalConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (LambdaTreeError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
