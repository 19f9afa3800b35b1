"""Command-line front end.

Subcommands: delta, shear, stretch, twist-width, sweep, envelope, cube,
oracle-check.  Numeric output uses 17 significant digits, CSV files use
'.' decimals and LF line endings, JSON keys are snake_case and sorted;
repeated runs with the same configuration are byte-identical.

Exit codes: 0 success, 1 computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, fields
from pathlib import Path

from . import bounds, cube, reconcile, stretch, torus
from .pants import PantsMetric, PantsTriangulation, delta_closed, delta_oracle, shear_coords
from .stretch import FNPoint, left_spec, right_spec, stretch_point, twist_width_closed

CONFIG_ENV = "THURSTON_KIT_CONFIG"
#: most t values a grid may hold; a finite but huge t_max / t_step would exhaust memory
MAX_T_VALUES = 10**6
#: largest slope denominator; the family has about 1.2 max_q^2 slopes, built in Python loops
MAX_Q = 400


class ConfigError(ValueError):
    pass


@dataclass
class Config:
    """Validated key=value configuration."""

    out_dir: str = "out"
    max_q: int = 30
    epsilon: float = bounds.DEFAULT_EPSILON
    l0_values: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 5.0)
    t_max: float = 8.0
    t_step: float = 0.25
    base_lengths: tuple[float, ...] = (1.0, 1.0, 1.0)
    base_twists: tuple[float, ...] = (0.0, 0.0, 0.0)
    tolerance: float = 1e-9

    def validate(self) -> None:
        if self.max_q < 1:
            raise ConfigError("max_q must be at least 1")
        if self.max_q > MAX_Q:
            raise ConfigError(f"max_q exceeds {MAX_Q}: max_q = {self.max_q}")
        if not 0.0 < self.epsilon <= math.log(2.0):
            raise ConfigError("epsilon must lie in (0, log 2]")
        if any(v <= 0 for v in self.l0_values):
            raise ConfigError("l0_values must be positive")
        if not (0.0 <= self.t_max < math.inf and 0.0 < self.t_step < math.inf):
            raise ConfigError("t_max must be finite and >= 0, and t_step finite and > 0")
        # the first test keeps the count finite, the second is exact
        if not (self.t_max / self.t_step < MAX_T_VALUES and t_count(self.t_max, self.t_step) <= MAX_T_VALUES):
            raise ConfigError(f"t grid exceeds {MAX_T_VALUES} values: t_max = {self.t_max!r}, t_step = {self.t_step!r}")
        if len(self.base_lengths) != 3 or len(self.base_twists) != 3:
            raise ConfigError("base point needs three lengths and three twists")
        if any(v <= 0 for v in self.base_lengths):
            raise ConfigError("base lengths must be positive")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        # the checks above already keep epsilon, t_max and t_step finite
        floats = {"l0_values": self.l0_values, "base_lengths": self.base_lengths,
                  "base_twists": self.base_twists, "tolerance": (self.tolerance,)}
        for key, values in floats.items():
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{key} must be finite")

    def t_values(self) -> tuple[float, ...]:
        return t_grid(self.t_max, self.t_step)


def t_count(t_max: float, t_step: float) -> int:
    """Number of t values of :func:`t_grid`: the step count rounds down, with
    a relative slack of 1e-9 that keeps a t_max that is a multiple of t_step
    up to round-off (0.3 / 0.1)."""
    return math.floor(t_max / t_step * (1.0 + 1e-9)) + 1


def t_grid(t_max: float, t_step: float) -> tuple[float, ...]:
    """0, t_step, 2 t_step, ... up to t_max."""
    return tuple(i * t_step for i in range(t_count(t_max, t_step)))


def load_config(path: str | None) -> Config:
    """The configuration in ``path`` (or ``$THURSTON_KIT_CONFIG``, or the
    defaults), validated as a whole: the only source of the commands' settings."""
    cfg = Config()
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if path is not None:
        _read_config(path, cfg)
    cfg.validate()
    return cfg


def _read_config(path: str, cfg: Config) -> None:
    defaults = {f.name: f.default for f in fields(Config)}
    seen: dict[str, int] = {}  # the line of each key read so far
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable or not UTF-8
        raise ConfigError(f"{path}: cannot read the configuration: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in defaults:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        default = defaults[key]
        try:
            # a tuple default is a comma-separated list of floats
            if isinstance(default, tuple):
                parsed: object = tuple(float(v) for v in value.split(","))
            else:
                parsed = type(default)(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        setattr(cfg, key, parsed)


def _parse_signs(text: str) -> tuple[int, ...]:
    if len(text) != 3 or any(ch not in "LR" for ch in text):
        raise ConfigError("signs must be three letters from {L, R}, e.g. LLR")
    return tuple(1 if ch == "L" else -1 for ch in text)


def _parse_lengths(text: str, n: int) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad length list {text!r}: {exc}") from exc
    if len(vals) != n:
        raise ConfigError(f"expected {n} comma-separated values, got {len(vals)}")
    return vals


def _triangulation(kind: str, cuff: int, signs: tuple[int, ...]) -> PantsTriangulation:
    """Type for the distinguished cuff: 3sym = (2,2,2); 2sym puts the four
    leaf ends at the cuff; asym puts one end there and four at the
    cyclically next cuff.  ``cuff`` is 0-based; argparse checks ``kind``."""
    if cuff not in (0, 1, 2):
        raise ConfigError("cuff must be 1, 2 or 3")
    if kind == "3sym":
        return PantsTriangulation((2, 2, 2), signs)
    four = cuff if kind == "2sym" else (cuff + 1) % 3
    return PantsTriangulation(tuple(4 if i == four else 1 for i in range(3)), signs)


def _pants_args(args: argparse.Namespace) -> tuple[PantsMetric, PantsTriangulation, int]:
    """The cuff lengths, triangulation and 0-based cuff of ``delta`` and ``shear``."""
    cuff = args.cuff - 1
    tri = _triangulation(args.type, cuff, _parse_signs(args.signs))
    return PantsMetric(*_parse_lengths(args.l, 3)), tri, cuff


def format_float(x: float) -> str:
    return format(x, ".17g")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, data: object) -> None:
    _write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, row_format: str, rows: Iterable[tuple]) -> None:
    """The header line, then ``row_format % row`` for each row: ``row_format``
    ends in a newline and gives a number ``%.17g``, as :func:`format_float` does."""
    _write(path, header + "\n" + "".join([row_format % row for row in rows]))


#: one entry of cube_points.json as json.dumps(indent=2, sort_keys=True) lays it out
_CUBE_POINT = '  {\n    "completion": "%s",\n    "d_twist": [\n      %r,\n      %r,\n      %r\n    ],\n    "extreme": %s\n  }'


def _cube_points_json(entries: list[dict]) -> str:
    """``json.dumps(entries, indent=2, sort_keys=True) + "\\n"`` for the cube's
    entries, one :data:`_CUBE_POINT` each (the pure-Python encoder that
    ``indent`` selects takes about four times as long).  Exact for a non-empty
    list with labels of printable ASCII other than ``"`` and ``\\``, twist
    vectors of three finite Python floats (``cube.cloud`` rejects any other)
    and bool flags: json.dumps would escape other labels and write inf and
    nan as Infinity and NaN."""
    return "[\n" + ",\n".join([_CUBE_POINT % (e["completion"], *e["d_twist"], "true" if e["extreme"] else "false")
                              for e in entries]) + "\n]\n"


def cmd_delta(args: argparse.Namespace, cfg: Config) -> int:
    pm, tri, cuff = _pants_args(args)
    closed = delta_closed(pm, tri, cuff)
    oracle = delta_oracle(pm, tri, cuff)
    print(f"delta_closed={format_float(closed)}")
    print(f"delta_oracle={format_float(oracle)}")
    print(f"abs_diff={format_float(abs(closed - oracle))}")
    return 0 if abs(closed - oracle) <= cfg.tolerance else 1


def cmd_shear(args: argparse.Namespace, cfg: Config) -> int:
    pm, tri, _ = _pants_args(args)
    for key, value in sorted(shear_coords(pm, tri).items()):
        print(f"{key}={format_float(value)}")
    return 0


def cmd_stretch(args: argparse.Namespace, cfg: Config) -> int:
    n = stretch.curve_count(args.surface)
    x = FNPoint(args.surface, _parse_lengths(args.l, n), _parse_lengths(args.tau, n))
    completion = left_spec if args.completion == "L" else right_spec
    y = stretch_point(x, completion(args.surface, direction=args.direction), args.t)
    for i, (l, th) in enumerate(zip(y.lengths, y.twists)):
        print(f"curve{i + 1}: length={format_float(l)} twist={format_float(th)}")
    return 0


def cmd_twist_width(args: argparse.Namespace, cfg: Config) -> int:
    val = twist_width_closed(args.l0, args.t)
    print(f"twist_width={format_float(val)}")
    return 0


def cmd_sweep(args: argparse.Namespace, cfg: Config) -> int:
    # only the sweep needs sorted l0 values; the envelope takes any order
    if list(cfg.l0_values) != sorted(cfg.l0_values):
        raise ConfigError("grid axes must be sorted ascending")
    rows, summary = bounds.run_sweep(cfg.l0_values, cfg.t_values(), cfg.epsilon, cfg.max_q)
    out = Path(cfg.out_dir)
    _write_csv(out / "sweep.csv", "l0,t,regime,bound_value", "%.17g,%.17g,%s,%.17g\n", rows)
    _write_json(out / "sweep_summary.json", summary)
    print(f"wrote {out / 'sweep.csv'} and {out / 'sweep_summary.json'}")
    return 0 if summary["global_bounded"] else 1


def cmd_envelope(args: argparse.Namespace, cfg: Config) -> int:
    t_values = cfg.t_values()
    cells = [(l0, t) for l0 in cfg.l0_values for t in t_values]
    widths = torus.envelope_cells([(stretch.width_point("S11", l0), t) for l0, t in cells], cfg.max_q)
    rows = [(l0, t, d_lr, d_rl) for (l0, t), (d_lr, d_rl) in zip(cells, widths)]
    sup = max([-math.inf, *(d for pair in widths for d in pair)])
    out = Path(cfg.out_dir)
    _write_csv(out / "envelope.csv", "l0,t,d_lr,d_rl", "%.17g,%.17g,%.17g,%.17g\n", rows)
    summary = {
        "empirical_bound": sup,
        "l0_values": list(cfg.l0_values),
        "t_max": cfg.t_max,
        "t_step": cfg.t_step,
        "max_q": cfg.max_q,
        "bounded": math.isfinite(sup),
    }
    _write_json(out / "envelope_summary.json", summary)
    print(f"wrote {out / 'envelope.csv'} and {out / 'envelope_summary.json'}")
    return 0 if math.isfinite(sup) else 1


def cmd_cube(args: argparse.Namespace, cfg: Config) -> int:
    result = cube.chamfered_cube_check(FNPoint("S2", cfg.base_lengths, cfg.base_twists))
    entries = result["entries"]
    rows = [(e["completion"], *e["d_twist"], e["extreme"]) for e in entries]
    n_vertices, n_edges, n_faces = result["hull_counts"]
    hull_info = {
        "n_vertices": n_vertices,
        "n_edges": n_edges,
        "n_faces": n_faces,
        "extreme_completions": result["extreme_completions"],
        "brute_force_agrees": result["agree"],
    }
    out = Path(cfg.out_dir)
    _write(out / "cube_points.json", _cube_points_json(entries))
    _write_csv(out / "cube_points.csv", "completion,d_twist_1,d_twist_2,d_twist_3,extreme",
               "%s,%.17g,%.17g,%.17g,%d\n", rows)
    _write_json(out / "cube_hull.json", hull_info)
    print(f"wrote cube outputs to {out}")
    return 0 if hull_info["brute_force_agrees"] else 1


def cmd_oracle_check(args: argparse.Namespace, cfg: Config) -> int:
    report = reconcile.build_report(cfg.tolerance)
    out = Path(cfg.out_dir)
    _write_json(out / "reconciliation.json", report)
    _write(out / "reconciliation.txt", reconcile.report_text(report))
    print(reconcile.report_text(report), end="")
    return 0 if report["ok"] else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="thurston-kit",
        description="Shear and twist computations on hyperbolic pairs of pants, "
        "stretch-path twist evolution, envelope bound sweeps, and the "
        "stretch-vector hull.",
    )
    parser.add_argument("--config", help=f"key=value config file (or ${CONFIG_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="closed-form vs constructive twist offset")
    p.add_argument("--type", required=True, choices=("3sym", "2sym", "asym"))
    p.add_argument("--l", required=True, help="three cuff lengths, e.g. 1,1,1")
    p.add_argument("--signs", required=True, help="twist directions, e.g. LLL")
    p.add_argument("--cuff", required=True, type=int, help="distinguished cuff (1-3)")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("shear", help="shear coordinates of a triangulation")
    p.add_argument("--type", required=True, choices=("3sym", "2sym", "asym"))
    p.add_argument("--l", required=True)
    p.add_argument("--signs", required=True)
    p.add_argument("--cuff", type=int, default=1)
    p.set_defaults(func=cmd_shear)

    p = sub.add_parser("stretch", help="stretch a Fenchel-Nielsen point")
    p.add_argument("--surface", choices=stretch.SURFACES, default="S11")
    p.add_argument("--l", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--completion", choices=("L", "R"), default="L")
    p.add_argument("--direction", choices=("forward", "backward"), default="backward")
    p.set_defaults(func=cmd_stretch)

    p = sub.add_parser("twist-width", help="closed-form twist width")
    p.add_argument("--l0", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=cmd_twist_width)

    p = sub.add_parser("sweep", help="bound-expression sweep over the (l0, t) grid")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("envelope", help="distance estimates between stretch endpoints")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("cube", help="stretch-vector cloud and hull on the genus-two surface")
    p.set_defaults(func=cmd_cube)

    p = sub.add_parser("oracle-check", help="write the convention reconciliation report")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
