"""Command-line front end: classify, ground, solve, sweep, consistency, measure.

Each command maps its parsed flags to its output text and writes nothing;
main parses the flags, writes the text to stdout or --out, and maps errors
to exit codes: 0 success, 2 usage/parse error, 3 capacity error, 4 internal
consistency failure. Nothing is written unless the command returns. All
floating-point output is printed with 15 significant digits so reruns diff
cleanly.
"""

import argparse
import functools
import itertools
import json
import math
import os
import random
import re
import stat
import sys

from .errors import CapacityError, InternalConsistencyError, LambdaTreeError, _cut
from .ground import (REPRESENTATIVE_PARAMS, generators_for, is_ground_state,
                     sample_family, verify_generators)
from .gibbs import (BoundaryFields, FieldRatios, check_enumerable,
                    fields_from_ratios, finite_volume_measure, is_consistent,
                    measure_to_csv, propagate_ratios)
from .model import LambdaParams, classify_region
from .solver import (BoltzmannWeights, INVARIANT_LINE_NOTE, SWEEP_COLUMNS,
                     count_ti_roots, sweep, sweep_to_csv, two_periodic_report,
                     weights_from)
from .tree import TreeCoord, TreeShape

_PARAM_NAMES = ("a", "b", "c", "beta")
_WEIGHT_NAMES = ("xw", "yw", "zw")
# a sweep point's names, its class, and what a missing name is called; the
# first three names are required (beta defaults to 1)
_SWEEP_FAMILIES = ((_PARAM_NAMES, LambdaParams, "coupling parameter"),
                   (_WEIGHT_NAMES, BoltzmannWeights, "weight"))
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


def _open_in_place(path: str, flags: int) -> int:
    """The opener of _emit: open()'s own flags less O_TRUNC, and its mode."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _emit(text: str, out: str | None) -> None:
    """Print text, or write it over the file `out` and cut the file to its
    length. On ext4, a rewrite that first truncates the file to zero starts
    a flush when it is closed; writing in place does not. The file keeps its
    inode, mode and any symlink, but an interrupted write can leave old
    bytes after the new ones."""
    if out:
        with open(out, "w", opener=_open_in_place) as fh:
            fh.write(text)
            # a device such as /dev/null is seekable but cannot be truncated
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(_round15(obj), indent=2) + "\n"


def _read_json(path: str):
    """json.load of a file; nesting too deep to parse is a ValueError, and
    so is an integer past Python's limit on digits converted to int (4300
    by default), which no float holds either."""

    def parse_int(text: str) -> int:
        try:
            return int(text)
        except ValueError:  # json hands over only digits, so past the limit
            raise ValueError(f"{path}: a {len(text.lstrip('-'))}-digit integer "
                             f"is out of float range") from None

    with open(path) as fh:
        try:
            return json.load(fh, parse_int=parse_int)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _json_echo(value) -> str:
    return _cut(json.dumps(value))


def _json_float(value, what: str) -> float:
    """A number read from a JSON file (a numeric string passes too, as
    float() takes it); anything else, true and false included, and an
    integer past the float range, is a ValueError that names `what`."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
        except OverflowError:
            raise ValueError(f"{what}: a {len(str(abs(value)))}-digit integer "
                             f"is out of float range") from None
    raise ValueError(f"{what}: expected a number, got {_json_echo(value)}")


def _params_from_args(args) -> LambdaParams:
    missing = [n for n in ("a", "b", "c") if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing coupling flags: {', '.join('--' + n for n in missing)}")
    return LambdaParams(args.a, args.b, args.c, 1.0 if args.beta is None else args.beta)


def _weights_from_args(args) -> BoltzmannWeights:
    """Weights either directly (--xw/--yw/--zw) or via couplings and beta."""
    have_w = [n for n in _WEIGHT_NAMES if getattr(args, n) is not None]
    have_p = [n for n in _PARAM_NAMES if getattr(args, n) is not None]
    if have_w and have_p:
        raise ValueError("give either --xw/--yw/--zw or --a/--b/--c/--beta, not both")
    if have_w:
        if len(have_w) != 3:
            raise ValueError("all three of --xw --yw --zw are required")
        return BoltzmannWeights(args.xw, args.yw, args.zw)
    return weights_from(_params_from_args(args))


def cmd_classify(args) -> str:
    report = classify_region(_params_from_args(args), tol=args.tol)
    return _json_text({"regions": list(report.active_regions),
                       "minimal_energy": report.minimal_energy,
                       "boundary": report.boundary})


def cmd_ground(args) -> str:
    if args.region:
        if any(getattr(args, n) is not None for n in _PARAM_NAMES):
            raise ValueError("give either --region or --a/--b/--c/--beta, not both")
        regions = [args.region]
        params = REPRESENTATIVE_PARAMS[args.region]
    else:
        params = _params_from_args(args)
        regions = list(classify_region(params, tol=args.tol).active_regions)

    catalogs = []
    for region in regions:
        catalog = generators_for(region, max_period=args.max_period)
        depth = args.depth if args.depth is not None else catalog.verified_depth
        verdicts = verify_generators(catalog.generators, params, depth, args.tol)
        catalogs.append({
            "region": catalog.region,
            "generators": [{"period": g.period, "entries": list(g.entries),
                            "ground_state": ok,
                            "witness": str(witness) if witness else None}
                           for g, (ok, witness) in zip(catalog.generators, verdicts)],
            "families": [{"alphabet": list(f.alphabet), "anchor": f.anchor,
                          "adjacent_must_differ": f.adjacent_must_differ,
                          "label": f.label} for f in catalog.families],
            "verified_depth": catalog.verified_depth,
            "checked_depth": depth,
        })

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
    return _json_text(result)


def cmd_solve(args) -> str:
    w = _weights_from_args(args)
    fp = count_ti_roots(w)
    can = fp.canonical
    pr = two_periodic_report(w)
    return _json_text({
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
    })


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
    # a span of -inf, from stop - start past the float range, has no floor
    return start, step, math.floor(span) + 1 if span >= 0 else 0


def _sweep_points(config: dict):
    if not isinstance(config, dict):
        raise ValueError(f"sweep config: expected an object with 'axes' and "
                         f"'fixed', got {_json_echo(config)}")
    axes = config.get("axes", [])
    fixed = config.get("fixed", {})
    if not (isinstance(axes, list) and all(isinstance(ax, dict) for ax in axes)):
        raise ValueError(f"sweep config 'axes': expected a list of objects, "
                         f"got {_json_echo(axes)}")
    if not isinstance(fixed, dict):
        raise ValueError(f"sweep config 'fixed': expected an object, "
                         f"got {_json_echo(fixed)}")
    for ax in axes:
        if not isinstance(ax.get("name", ""), str):
            raise ValueError(f"sweep axis 'name': expected a string, "
                             f"got {_json_echo(ax['name'])}")
    # a string is an alias, resolved per point; anything else must be a number
    fixed = {name: value if isinstance(value, str)
             else _json_float(value, f"fixed entry {_cut(repr(name))}")
             for name, value in fixed.items()}
    names = {ax["name"] for ax in axes if "name" in ax} | fixed.keys()
    # the last family holding every name: with no names, the weights
    family = [f for f in _SWEEP_FAMILIES if names <= set(f[0])]
    if not family:
        raise ValueError(
            f"sweep variables must all come from {_PARAM_NAMES} or {_WEIGHT_NAMES}")
    family_names, point, kind = family[-1]

    counts = [_axis_count(ax) for ax in axes]
    if any(n == 0 for _, _, n in counts):
        raise ValueError("sweep grid is empty (an axis produced no values)")
    if math.prod(n for _, _, n in counts) > _MAX_SWEEP_POINTS:
        raise CapacityError(f"sweep grid has more than {_MAX_SWEEP_POINTS} points")
    axis_names = [ax["name"] for ax in axes]
    for i, name in enumerate(axis_names):
        if name in axis_names[:i]:
            raise ValueError(f"sweep axis {name!r} is given more than once")
    # every point has the same names, so an alias to a name not yet set,
    # then a missing name, is reported once, in that order
    known = set(axis_names)
    for name, value in fixed.items():
        if isinstance(value, str) and value not in known:
            raise ValueError(f"fixed entry {name!r} aliases unknown variable "
                             f"{_cut(repr(value))}")
        known.add(name)
    for name in family_names[:3]:
        if name not in known:
            raise ValueError(f"missing {kind} {name!r}")
    grids = [[start + i * step for i in range(n)] for start, step, n in counts]

    def build(combo: tuple):
        resolved = dict(zip(axis_names, combo))
        for name, value in fixed.items():
            resolved[name] = resolved[value] if isinstance(value, str) else value
        return point(**resolved)

    # the first axis outermost; no axes give the one point of fixed values
    return [build(combo) for combo in itertools.product(*grids)]


def sweep_to_jsonl(rows) -> str:
    """One JSON object per sweep row, its cells keyed by SWEEP_COLUMNS."""
    lines = [json.dumps(_round15(dict(zip(SWEEP_COLUMNS, row)))) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> str:
    rows = sweep(_sweep_points(_read_json(args.config)))
    return sweep_to_csv(rows) if args.format == "csv" else sweep_to_jsonl(rows)


def cmd_consistency(args) -> str:
    p = _params_from_args(args)
    shape = TreeShape(2, args.depth)
    # is_consistent enumerates V_{depth-1}, so depth is at most 3; refuse
    # before any field is built
    check_enumerable(TreeShape(2, max(0, shape.depth - 1)))
    if shape.depth < 1:  # before --perturb reaches for level depth - 1
        raise ValueError("consistency needs depth >= 1")
    rng = random.Random(args.seed)
    leaf = FieldRatios(3, {x: (math.exp(rng.uniform(-1.0, 1.0)),
                               math.exp(rng.uniform(-1.0, 1.0)))
                           for x in shape.level_vertices(shape.depth)})
    h = fields_from_ratios(propagate_ratios(leaf, shape, p))
    if args.perturb:
        target = shape.level_vertices(shape.depth - 1)[0]
        hv = list(h.fields[target])
        hv[0] += args.perturb
        fields = dict(h.fields)
        fields[target] = tuple(hv)
        h = BoundaryFields(3, fields)
    report = is_consistent(p, 3, shape, h, tol=args.tol)
    return _json_text({"max_deviation": report.max_deviation, "pass": report.passed})


def _read_fields(path: str, shape: TreeShape) -> dict[TreeCoord, tuple[float, ...]]:
    """The --fields file: a JSON object mapping vertex paths of the
    truncation's last level W_depth, the only fields the measure reads, to
    lists of numbers."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"--fields: expected an object mapping vertices to "
                         f"field vectors, got {_json_echo(raw)}")
    fields = {}
    for key, vec in raw.items():
        entry = f"--fields entry {_cut(repr(key))}"
        if not isinstance(vec, list):
            raise ValueError(f"{entry}: expected a list of numbers, got {_json_echo(vec)}")
        try:
            x = TreeCoord.parse(key)
        except ValueError:  # its message is int()'s, or echoes the key a second time
            raise ValueError(f"{entry}: not a valid vertex path") from None
        if not shape.contains(x):
            raise ValueError(f"{entry}: not a vertex of the "
                             f"k={shape.k}, depth-{shape.depth} truncation")
        if x.level != shape.depth:
            raise ValueError(f"{entry}: a vertex on level {x.level}, but only fields "
                             f"on the last level {shape.depth} enter the measure")
        if x in fields:  # " 01" and "1" both parse to vertex 1
            raise ValueError(f"{entry}: vertex {x} is given more than once")
        fields[x] = tuple(_json_float(v, entry) for v in vec)
    return fields


def cmd_measure(args) -> str:
    p = _params_from_args(args)
    shape = TreeShape(2, args.depth)
    check_enumerable(shape)
    if args.fields:
        fields = _read_fields(args.fields, shape)
    else:
        fields = {x: (0.0,) * 3 for x in shape.level_vertices(shape.depth)}
    measure = finite_volume_measure(p, 3, shape, BoundaryFields(3, fields))
    return measure_to_csv(measure)


def _add_param_flags(sp, with_weights: bool = False) -> None:
    sp.add_argument("--a", type=float, default=None, help="coupling at spin distance 2")
    sp.add_argument("--b", type=float, default=None, help="coupling at spin distance 1")
    sp.add_argument("--c", type=float, default=None, help="coupling at spin distance 0")
    sp.add_argument("--beta", type=float, default=None, help="inverse temperature")
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
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("ground", help="ground-state catalog and verification")
    _add_param_flags(sp)
    sp.add_argument("--region", choices=sorted(REPRESENTATIVE_PARAMS))
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--max-period", type=int, default=7)
    sp.add_argument("--samples", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=0.0)
    sp.set_defaults(func=cmd_ground)

    sp = sub.add_parser("solve", help="fixed-point and 2-periodic analysis")
    _add_param_flags(sp, with_weights=True)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="phase-diagram table over a parameter grid")
    sp.add_argument("--config", required=True, help="JSON sweep description")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("consistency",
                        help="marginalization check for recursion-built fields")
    _add_param_flags(sp)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--perturb", type=float, default=0.0)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=cmd_consistency)

    sp = sub.add_parser("measure", help="finite-volume distribution as CSV")
    _add_param_flags(sp)
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--fields", default=None,
                    help="JSON file mapping vertex (e.g. '1.2') to a field vector")
    sp.set_defaults(func=cmd_measure)

    for sp in sub.choices.values():  # last, so every --help lists it last
        sp.add_argument("--out", default=None)
    return parser


# parsing leaves the parser unchanged, so one instance serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        _emit(args.func(args), args.out)
    except (LambdaTreeError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return (3 if isinstance(e, CapacityError)
                else 4 if isinstance(e, InternalConsistencyError) else 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
