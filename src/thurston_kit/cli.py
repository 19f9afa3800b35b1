"""Command-line front end.

Subcommands: delta, shear, stretch, twist-width, sweep, envelope, cube,
oracle-check.  Numeric output uses 17 significant digits, CSV files use
'.' decimals and LF line endings, JSON keys are snake_case and sorted;
repeated runs with the same configuration are byte-identical.

Exit codes: 0 success, 1 computational failure, 2 usage error.  The
arguments follow argparse's rules, and a value may start with one '-', with
or without '=': ``stretch --t -1e-05`` runs forward.  The command table
:data:`_COMMANDS` is their one description: an argv of exact option names
is read from it directly, and argparse, built from it, reads every other
and lays out the help and the usage errors.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import sys
from collections.abc import Iterable
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace

from . import bounds, cube, reconcile, stretch, torus
from .pants import PantsMetric, PantsTriangulation, delta_closed, delta_oracle, shear_coords
from .stretch import FNPoint, left_spec, right_spec, stretch_point, twist_width_closed

#: most t values a grid may hold; a finite but huge t_max / t_step would exhaust memory
MAX_T_VALUES = 10**6
#: largest slope denominator; the family has about 1.2 max_q^2 slopes, built in Python loops
MAX_Q = 400


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    """Validated key=value configuration."""

    out_dir: str = "out"
    max_q: int = 30
    l0_values: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 5.0)
    t_max: float = 8.0
    t_step: float = 0.25
    base_lengths: tuple[float, ...] = (1.0, 1.0, 1.0)
    base_twists: tuple[float, ...] = (0.0, 0.0, 0.0)

    def validate(self) -> None:
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")
        if self.max_q < 1:
            raise ConfigError("max_q must be at least 1")
        if self.max_q > MAX_Q:
            raise ConfigError(f"max_q exceeds {MAX_Q}: max_q = {self.max_q}")
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
        # the checks above already keep t_max and t_step finite
        floats = {"l0_values": self.l0_values, "base_lengths": self.base_lengths, "base_twists": self.base_twists}
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
    """The configuration in ``path`` (or the defaults), validated as a whole:
    the only source of the commands' settings."""
    if path is None:
        return _DEFAULT_CONFIG
    cfg = Config(**_read_config(path))
    cfg.validate()
    return cfg


#: the defaults, validated once: a Config is frozen, so every command may share it
_DEFAULT_CONFIG = Config()
_DEFAULT_CONFIG.validate()


def _read_config(path: str) -> dict[str, object]:
    """The values of the keys that ``path`` sets, parsed as their defaults' types."""
    defaults = {f.name: f.default for f in fields(Config)}
    seen: dict[str, int] = {}  # the line of each key read so far
    values: dict[str, object] = {}
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode()
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
        values[key] = parsed
    return values


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


@functools.cache
def _triangulation(kind: str, cuff: int, signs: str) -> PantsTriangulation:
    """Type for the distinguished cuff: 3sym = (2,2,2); 2sym puts the four
    leaf ends at the cuff; asym puts one end there and four at the
    cyclically next cuff.  ``cuff`` is 0-based; the parser checks ``kind``.
    The ``signs`` text is read first, then the cuff; each valid argument
    triple is built once per process."""
    signs = _parse_signs(signs)
    if cuff not in (0, 1, 2):
        raise ConfigError("cuff must be 1, 2 or 3")
    if kind == "3sym":
        return PantsTriangulation((2, 2, 2), signs)
    four = cuff if kind == "2sym" else (cuff + 1) % 3
    return PantsTriangulation(tuple(4 if i == four else 1 for i in range(3)), signs)


def _pants_args(args: SimpleNamespace) -> tuple[PantsMetric, PantsTriangulation, int]:
    """The cuff lengths, triangulation and 0-based cuff of ``delta`` and ``shear``."""
    cuff = args.cuff - 1
    tri = _triangulation(args.type, cuff, args.signs)
    return PantsMetric(*_parse_lengths(args.l, 3)), tri, cuff


def format_float(x: float) -> str:
    return format(x, ".17g")


def _write(path: Path, text: str) -> None:
    """Write the UTF-8 bytes of ``text`` to ``path``, making its directory only
    when the open fails for want of it, so a directory that cannot be made
    raises what ``mkdir`` raises."""
    data = text.encode()
    try:
        fh = open(path, "wb")
    except (FileNotFoundError, NotADirectoryError):
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "wb")
    with fh:
        fh.write(data)


def _write_json(path: Path, data: object) -> None:
    _write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, row_format: str, rows: Iterable[tuple]) -> None:
    """The header line, then ``row_format % row`` for each row: ``row_format``
    ends in a newline and gives a number ``%.17g``, as :func:`format_float` does."""
    _write(path, header + "\n" + "".join([row_format % row for row in rows]))


#: one entry of cube_points.json as json.dumps(indent=2, sort_keys=True) lays it out
_CUBE_POINT = '  {\n    "completion": "%s",\n    "d_twist": [\n      %s\n    ],\n    "extreme": %s\n  }'
#: the JSON and CSV texts of one twist vector, each ended by a NUL, which neither text holds
_TWIST_JSON = "%r,\n      %r,\n      %r\0"
_TWIST_CSV = "%.17g,%.17g,%.17g\0"
#: the bytes of a twist vector, which tell 0.0 from -0.0
_TWIST_BYTES = struct.Struct("3d")


def _cube_points(entries: list[dict]) -> tuple[str, str]:
    """cube_points.json and cube_points.csv of the cube's entries: the
    distinct twist vectors (80 of the cloud's 128) formatted by one ``%`` per
    file, then each file built by one ``%``.

    The JSON is ``json.dumps(entries, indent=2, sort_keys=True) + "\\n"``,
    one :data:`_CUBE_POINT` each (the pure-Python encoder that ``indent``
    selects takes about four times as long).  Exact for a non-empty list with
    labels of printable ASCII other than ``"`` and ``\\``, twist vectors of
    three finite Python floats (``cube.cloud`` rejects any other) and bool
    flags: json.dumps would escape other labels and write inf and nan as
    Infinity and NaN.  The CSV writes each component ``%.17g``, as
    :func:`format_float`.
    """
    keys = [_TWIST_BYTES.pack(*e["d_twist"]) for e in entries]
    distinct = dict(zip(keys, [e["d_twist"] for e in entries]))
    n, components = len(distinct), tuple([c for twist in distinct.values() for c in twist])
    texts = dict(zip(distinct, zip((_TWIST_JSON * n % components).split("\0"),
                                   (_TWIST_CSV * n % components).split("\0"))))
    json_args, csv_args = [], []
    for e, key in zip(entries, keys):
        label, flag, (json_twist, csv_twist) = e["completion"], e["extreme"], texts[key]
        json_args += (label, json_twist, "true" if flag else "false")
        csv_args += (label, csv_twist, flag)
    points_json = "[\n" + ",\n".join([_CUBE_POINT] * len(entries)) + "\n]\n"
    points_csv = "completion,d_twist_1,d_twist_2,d_twist_3,extreme\n" + "%s,%s,%d\n" * len(entries)
    return points_json % tuple(json_args), points_csv % tuple(csv_args)


def cmd_delta(args: SimpleNamespace, cfg: Config) -> int:
    pm, tri, cuff = _pants_args(args)
    closed = delta_closed(pm, tri, cuff)
    oracle = delta_oracle(pm, tri, cuff)
    print(f"delta_closed={format_float(closed)}\ndelta_oracle={format_float(oracle)}\n"
          f"abs_diff={format_float(abs(closed - oracle))}")
    return 0 if abs(closed - oracle) <= reconcile.TOLERANCE else 1


def cmd_shear(args: SimpleNamespace, cfg: Config) -> int:
    pm, tri, _ = _pants_args(args)
    for key, value in sorted(shear_coords(pm, tri).items()):
        print(f"{key}={format_float(value)}")
    return 0


def cmd_stretch(args: SimpleNamespace, cfg: Config) -> int:
    n = stretch.curve_count(args.surface)
    x = FNPoint(args.surface, _parse_lengths(args.l, n), _parse_lengths(args.tau, n))
    completion = left_spec if args.completion == "L" else right_spec
    y = stretch_point(x, completion(args.surface), args.t)
    for i, (l, th) in enumerate(zip(y.lengths, y.twists)):
        print(f"curve{i + 1}: length={format_float(l)} twist={format_float(th)}")
    return 0


def cmd_twist_width(args: SimpleNamespace, cfg: Config) -> int:
    val = twist_width_closed(args.l0, args.t)
    print(f"twist_width={format_float(val)}")
    return 0


def cmd_sweep(args: SimpleNamespace, cfg: Config) -> int:
    rows, summary = bounds.run_sweep(cfg.l0_values, cfg.t_values(), cfg.max_q)
    out = Path(cfg.out_dir)
    _write_csv(out / "sweep.csv", "l0,t,regime,bound_value", "%.17g,%.17g,%s,%.17g\n", rows)
    _write_json(out / "sweep_summary.json", summary)
    print(f"wrote {out / 'sweep.csv'} and {out / 'sweep_summary.json'}")
    return 0 if summary["global_bounded"] else 1


def cmd_envelope(args: SimpleNamespace, cfg: Config) -> int:
    t_values = cfg.t_values()
    cells = [(l0, t) for l0 in cfg.l0_values for t in t_values]
    widths = torus.envelope_widths([(stretch.width_point("S11", l0), t) for l0, t in cells], cfg.max_q)
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


def cmd_cube(args: SimpleNamespace, cfg: Config) -> int:
    result = cube.chamfered_cube_check(FNPoint("S2", cfg.base_lengths, cfg.base_twists))
    n_vertices, n_edges, n_faces = result["hull_counts"]
    hull_info = {
        "n_vertices": n_vertices,
        "n_edges": n_edges,
        "n_faces": n_faces,
        "extreme_completions": result["extreme_completions"],
        "brute_force_agrees": result["agree"],
    }
    out = Path(cfg.out_dir)
    points_json, points_csv = _cube_points(result["entries"])
    _write(out / "cube_points.json", points_json)
    _write(out / "cube_points.csv", points_csv)
    _write_json(out / "cube_hull.json", hull_info)
    print(f"wrote cube outputs to {out}")
    return 0


def cmd_oracle_check(args: SimpleNamespace, cfg: Config) -> int:
    report = reconcile.build_report()
    out = Path(cfg.out_dir)
    _write_json(out / "reconciliation.json", report)
    _write(out / "reconciliation.txt", reconcile.report_text(report))
    print(reconcile.report_text(report), end="")
    return 0 if report["ok"] else 1


#: marks an option of the command table that has no default
_REQUIRED = object()
_DESCRIPTION = ("Shear and twist computations on hyperbolic pairs of pants, stretch-path twist "
                "evolution, envelope bound sweeps, and the stretch-vector hull.")
_KINDS = ("3sym", "2sym", "asym")
#: the options before the command; each maps to (converter, default, help line), where a
#: converter is str, int, float or a tuple of choices and the default _REQUIRED makes it required
_TOP_OPTIONS = {"config": (str, None, "key=value config file")}
#: name -> (function, help line, options), the options as in _TOP_OPTIONS
_COMMANDS = {
    "delta": (cmd_delta, "closed-form vs constructive twist offset", {
        "type": (_KINDS, _REQUIRED, "triangulation type"),
        "l": (str, _REQUIRED, "three cuff lengths, e.g. 1,1,1"),
        "signs": (str, _REQUIRED, "twist directions, e.g. LLL"),
        "cuff": (int, _REQUIRED, "distinguished cuff (1-3)"),
    }),
    "shear": (cmd_shear, "shear coordinates of a triangulation", {
        "type": (_KINDS, _REQUIRED, "triangulation type"),
        "l": (str, _REQUIRED, "three cuff lengths, e.g. 1,1,1"),
        "signs": (str, _REQUIRED, "twist directions, e.g. LLL"),
        "cuff": (int, 1, "distinguished cuff (1-3)"),
    }),
    "stretch": (cmd_stretch, "stretch a Fenchel-Nielsen point", {
        "surface": (stretch.SURFACES, "S11", "surface"),
        "l": (str, _REQUIRED, "one length per curve, comma-separated"),
        "tau": (str, _REQUIRED, "one twist per curve, comma-separated"),
        "t": (float, _REQUIRED, "time; a negative t runs forward"),
        "completion": (("L", "R"), "L", "left or right completion"),
    }),
    "twist-width": (cmd_twist_width, "closed-form twist width", {
        "l0": (float, _REQUIRED, "alpha-length parameter"),
        "t": (float, _REQUIRED, "time; a negative t runs forward"),
    }),
    "sweep": (cmd_sweep, "bound-expression sweep over the (l0, t) grid", {}),
    "envelope": (cmd_envelope, "distance estimates between stretch endpoints", {}),
    "cube": (cmd_cube, "stretch-vector cloud and hull on the genus-two surface", {}),
    "oracle-check": (cmd_oracle_check, "write the convention reconciliation report", {}),
}
#: the defaults of the options before the command, and of each command's options
_TOP_DEFAULTS = {name: spec[1] for name, spec in _TOP_OPTIONS.items()}
_COMMAND_DEFAULTS = {command: {name: spec[1] for name, spec in options.items()}
                     for command, (_, _, options) in _COMMANDS.items()}


def _exact(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a canonical argv, which every argparse version reads
    alike, else None.

    A canonical argv is ``--config`` options, the command, then the
    command's options.  Each option is its exact name, as ``--opt value`` or
    ``--opt=value``; its value does not start with ``--`` and converts, or is
    one of its choices.  Every required option is given, and a repeated
    option keeps its last value.
    """
    values = _TOP_DEFAULTS.copy()
    options = _TOP_OPTIONS
    command = None
    tokens = iter(argv)
    for token in tokens:
        if token[:2] != "--":
            if command is not None or token not in _COMMANDS:
                return None
            command, options = token, _COMMANDS[token][2]
            values.update(_COMMAND_DEFAULTS[token])
            continue
        name, equals, value = token[2:].partition("=")
        if not equals:
            value = next(tokens, "--")  # a missing value reads as a non-canonical one
        if name not in options or value[:2] == "--":
            return None
        converter = options[name][0]
        if isinstance(converter, tuple):
            if value not in converter:
                return None
        else:
            try:
                value = converter(value)
            except ValueError:
                return None
        values[name] = value
    if command is None or _REQUIRED in values.values():
        return None
    return SimpleNamespace(command=command, func=_COMMANDS[command][0], **values)


@functools.cache
def _parser():
    """argparse's parser of the command table, built for the first argv that
    :func:`_exact` does not read."""
    import argparse

    top = argparse.ArgumentParser(prog="thurston-kit", description=_DESCRIPTION)
    commands = top.add_subparsers(dest="command", required=True)
    parsers = [(top, _TOP_OPTIONS)]
    for command, (func, line, options) in _COMMANDS.items():
        parser = commands.add_parser(command, help=line, description=line)
        parser.set_defaults(func=func)
        parsers.append((parser, options))
    for parser, options in parsers:
        for name, (converter, default, line) in options.items():
            kind = {"choices": converter} if isinstance(converter, tuple) else {"type": converter}
            required = default is _REQUIRED
            parser.add_argument(f"--{name}", required=required, default=None if required else default, help=line, **kind)
    return top


def _takes_a_value(token: str, options: dict) -> bool:
    """Whether argparse reads ``token`` as an option of ``options`` that takes
    the next token for its value: its exact name, or a prefix of it that
    matches no other option and not ``--help``, with no ``=value``."""
    if token[:2] != "--" or "=" in token:
        return False
    matches = [name for name in ("help", *options) if name.startswith(token[2:])]
    return token[2:] in options or len(matches) == 1 and matches[0] != "help"


def _parse(argv: list[str]) -> SimpleNamespace:
    """The namespace that the ``cmd_*`` functions read: ``config``,
    ``command``, ``func`` and one value per option of the command.

    :func:`_exact` reads a canonical argv and :func:`_parser` every other,
    so the rules, the help and the usage errors are argparse's, with one
    addition: a value may start with one ``-`` (``--t -1e-05``).  argparse
    takes such a token for an option, so it is first joined onto the option
    before it with ``=`` when that option takes a value.  The options are
    those of ``_TOP_OPTIONS`` up to the first command name that is not a
    value, then the command's; nothing is joined after a ``--``.
    """
    args = _exact(argv)
    if args is not None:
        return args
    tokens: list[str] = []
    options = _TOP_OPTIONS
    for arg in argv:
        if arg[:1] == "-" != arg[1:2]:
            if tokens and "--" not in tokens and _takes_a_value(tokens[-1], options):
                tokens[-1] += "=" + arg
                continue
        elif options is _TOP_OPTIONS and arg in _COMMANDS and not (tokens and _takes_a_value(tokens[-1], options)):
            options = _COMMANDS[arg][2]
        tokens.append(arg)
    return SimpleNamespace(**vars(_parser().parse_args(tokens)))


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
