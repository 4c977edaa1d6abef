"""Run configuration: plain-text key-value files that round-trip exactly.

Exponent fields are defined by expression strings over x (spatial) or t
(scale axis) in the closed grammar of exprgrammar; parse_config checks them,
and every number, which must be finite, before any work.
emit_config(parse_config(text)) reproduces the canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
import numpy as np

from .errors import AdmissibilityError, ParameterError
from .exprgrammar import ExprError, evaluate_text, parse_expression
from .exponents import ExponentField, make_exponent_field
from .grid import GridSpec, make_grid
from .luxemburg import ScaleLadder, make_ladder


class ConfigError(ParameterError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class RunConfig:
    dimension: int = 1
    box_length: float = 16.0
    points: int = 4096
    octaves: int = 8
    nodes_per_octave: int = 12
    p: str = "2"
    alpha: str = "0"
    q: str = "2"
    q0: float = 2.0
    profile_order: int = 6
    kernel_S: int = 2
    kernel_epsilon: float = 1.0
    peetre_a: float = 2.0
    form: str = "direct"
    member: str = "gauss_w1"
    atom_K: int = 2
    atom_L: int = 0
    atom_gamma: float = 3.0
    seed: int = 7
    out: str = "out"

    def grid(self) -> GridSpec:
        return make_grid(self.dimension, self.box_length, self.points)

    def ladder(self) -> ScaleLadder:
        return make_ladder(self.octaves, self.nodes_per_octave)

    def _spatial_values(self, expr: str, spec: GridSpec) -> np.ndarray:
        # expressions are functions of the first axis coordinate
        x = np.broadcast_to(spec.axes()[0], spec.shape).reshape(-1)
        return evaluate_text(expr, "x", x)

    def p_field(self, spec: GridSpec) -> ExponentField:
        return make_exponent_field(self._spatial_values(self.p, spec), "p",
                                   None, spec=spec)

    def alpha_field(self, spec: GridSpec) -> ExponentField:
        return make_exponent_field(self._spatial_values(self.alpha, spec),
                                   "alpha", None, spec=spec)

    def q_field(self, ladder: ScaleLadder) -> ExponentField:
        # q0 is the limit of q at t = 0; where the expression has a finite
        # value there, the two must agree (a non-finite one is not decided)
        with np.errstate(all="ignore"):
            at0 = float(evaluate_text(self.q, "t", np.zeros(1))[0])
        if np.isfinite(at0) and abs(at0 - self.q0) > 1e-12 * abs(self.q0):
            raise AdmissibilityError(f"q = {self.q} is {at0!r} at t = 0 but q0 = {self.q0!r}; "
                                     f"they must agree")
        vals = evaluate_text(self.q, "t", ladder.t)
        return make_exponent_field(vals, "q_of_t", self.q0, t_coords=ladder.t)


_FIELD_TYPES = {f.name: f.type for f in dc_fields(RunConfig)}
_STR_FIELDS = {"p", "alpha", "q", "form", "member", "out"}


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines; '#' starts a comment.  Errors carry
    line/column positions."""
    cfg = RunConfig()
    seen = set()
    where = {}  # key -> (line, column of its value)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno, 1)
        key, _, value = line.partition("=")
        key_s, value_s = key.strip(), value.strip()
        if key_s not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key_s!r}", lineno, 1 + len(key) - len(key.lstrip()))
        if key_s in seen:
            raise ConfigError(f"duplicate key {key_s!r}", lineno)
        seen.add(key_s)
        col = len(key) + 2
        where[key_s] = (lineno, col + len(value) - len(value.lstrip()))
        if key_s in _STR_FIELDS:
            setattr(cfg, key_s, value_s)
            continue
        try:
            current = getattr(cfg, key_s)
            if isinstance(current, int):
                setattr(cfg, key_s, int(value_s))
            else:
                setattr(cfg, key_s, float(value_s))
        except ValueError:
            raise ConfigError(f"cannot parse value {value_s!r} for {key_s}", lineno, col)
        if key_s == "seed" and cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}", *where[key_s])
        if isinstance(current, float) and not np.isfinite(getattr(cfg, key_s)):
            raise ConfigError(f"{key_s} must be finite, got {value_s}", *where[key_s])
    # expressions must at least parse now, not at first use
    for key in ("p", "alpha", "q"):
        try:
            parse_expression(getattr(cfg, key))
        except ParameterError as exc:
            line, col = where.get(key, (0, 1))
            if isinstance(exc, ExprError):
                col += exc.column - 1
            raise ConfigError(f"bad expression for {key}: {exc}", line, col)
    return cfg


def emit_config(cfg: RunConfig) -> str:
    lines = []
    for f in dc_fields(RunConfig):
        v = getattr(cfg, f.name)
        lines.append(f"{f.name} = {v!r}" if isinstance(v, float) else f"{f.name} = {v}")
    return "\n".join(lines) + "\n"
