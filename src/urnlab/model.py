"""Parameters and derived exponents for the two-species Ehrenfest urn.

The model: N balls split between two urns, m of them "heavy" and n = N - m
"regular".  Each regular ball carries an independent Poisson clock of rate 1,
each heavy ball a clock of rate alpha in (0, 1).  When a ball's clock rings it
is placed into a uniformly chosen urn (fair coin, so it may stay put).  The
state tracks the number of balls of each species in the left urn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALPHA_FLOOR = 1e-12


class CapacityError(RuntimeError):
    """Raised when an exact computation would exceed its guarded size budget."""


def check_time(t: float, name: str = "time") -> None:
    """Refuse a NaN, infinite or negative time (NaN fails every comparison)."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"{name} must be finite and non-negative")


def check_integer(name: str, value, low: int, high: float) -> None:
    """Refuse a bool, a non-integer (2.0 included) or a value outside [low, high];
    Python and numpy integers pass.  Every count, size, start and key is checked here."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (is_int and low <= value <= high):
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter triple (total_balls, heavy_count, heavy_rate).

    heavy_rate below ALPHA_FLOOR is rejected: the relaxation time 1/alpha
    would overflow any practical time grid long before that point.
    Degenerate configurations (heavy_count in {0, N} or heavy_rate == 1)
    collapse to the single-species urn; they are accepted because they make
    handy cross-checks, but they are flagged via `out_of_range`.  Counts are
    stored as Python ints: the exact rational arithmetic in the binomial
    tables would overflow on a numpy integer.
    """

    total_balls: int
    heavy_count: int
    heavy_rate: float

    def __post_init__(self) -> None:
        check_integer("total_balls", self.total_balls, 2, math.inf)
        check_integer("heavy_count", self.heavy_count, 0, self.total_balls)
        object.__setattr__(self, "total_balls", int(self.total_balls))
        object.__setattr__(self, "heavy_count", int(self.heavy_count))
        a = float(self.heavy_rate)
        if not math.isfinite(a) or a <= 0.0 or a > 1.0:
            raise ValueError("heavy_rate must lie in (0, 1]")
        if a < ALPHA_FLOOR:
            raise ValueError(f"heavy_rate below {ALPHA_FLOOR} is not supported")

    @property
    def regular_count(self) -> int:
        return self.total_balls - self.heavy_count

    @property
    def beta(self) -> float:
        """Size exponent of the heavy species: log(heavy_count) / log(total_balls).

        Equals -inf when there are no heavy balls (log 0 limit).
        """
        if self.heavy_count == 0:
            return float("-inf")
        return math.log(self.heavy_count) / math.log(self.total_balls)

    @property
    def relaxation_time(self) -> float:
        """Slowest timescale of the dynamics, 1 / heavy_rate."""
        return 1.0 / self.heavy_rate

    @property
    def out_of_range(self) -> bool:
        """True for the single-species reductions (m in {0, N} or alpha == 1)."""
        return not (
            1 <= self.heavy_count <= self.total_balls - 1 and self.heavy_rate < 1.0
        )

    @property
    def log_size(self) -> float:
        return math.log(self.total_balls)


@dataclass(frozen=True)
class InitialState:
    """Initial occupation of the left urn: (regular_left, heavy_left)."""

    regular_left: int
    heavy_left: int

    def validate(self, params: ModelParams) -> "InitialState":
        check_integer("regular_left", self.regular_left, 0, params.regular_count)
        check_integer("heavy_left", self.heavy_left, 0, params.heavy_count)
        return self

    @property
    def total_left(self) -> int:
        return self.regular_left + self.heavy_left


def gamma(params: ModelParams) -> float:
    """Observable delay exponent (2*beta - 1) / alpha - 1.

    Positive values mean the heavy species keeps the total-count observable
    out of equilibrium long after the relaxation time; negative values mean
    the observable mixes on the classical schedule.
    """
    return (2.0 * params.beta - 1.0) / params.heavy_rate - 1.0


def tilde_gamma(params: ModelParams) -> float:
    """Full-chain delay exponent beta - alpha."""
    return params.beta - params.heavy_rate


@dataclass(frozen=True)
class PredictedTimes:
    """Leading-order mixing-time predictions.

    regular_cutoff   : (1/2) log N, the single-species schedule
    heavy_cutoff     : (beta / (2 alpha)) log N, full-chain schedule with heavies
    delayed_cutoff   : ((1 + gamma) / 2) log N, observable schedule when gamma >= 0
    """

    regular_cutoff: float
    heavy_cutoff: float
    delayed_cutoff: float


def predicted_times(params: ModelParams) -> PredictedTimes:
    log_n = params.log_size
    beta = params.beta
    alpha = params.heavy_rate
    return PredictedTimes(
        regular_cutoff=0.5 * log_n,
        heavy_cutoff=(beta / (2.0 * alpha)) * log_n,
        delayed_cutoff=((1.0 + gamma(params)) / 2.0) * log_n,
    )


# ---------------------------------------------------------------------------
# Parameter families m(N), alpha(N) used by the regime classifier.
# ---------------------------------------------------------------------------

# kind -> (argument types, value at size N given the arguments)
_M_RULES = {
    "fixed": ((int,), lambda size, c: int(c)),
    "power": ((float,), lambda size, b: round(size**b)),
    "sqrtexp": (
        (float, float),
        lambda size, c, ell: round(c * math.sqrt(size) * math.exp(ell / 2.0)),
    ),
}
_ALPHA_RULES = {
    "const": ((float,), lambda size, a: float(a)),
    "invlog": ((float,), lambda size, a: float(a) / math.log(size)),
}

M_RULE_KINDS = tuple(_M_RULES)
ALPHA_RULE_KINDS = tuple(_ALPHA_RULES)


def _parse_rule(text: str, rules: dict, name: str) -> tuple:
    """'kind:arg1,arg2,...' -> (kind, *args), each argument cast to its type."""
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind not in rules:
        raise ValueError(f"unknown {name} kind {kind!r} (expected one of {tuple(rules)})")
    casts, parts = rules[kind][0], arg.split(",")
    try:  # the strict zip raises ValueError on a wrong argument count
        return (kind, *(cast(part) for cast, part in zip(casts, parts, strict=True)))
    except ValueError as exc:
        raise ValueError(f"malformed {name} argument in {text!r}") from exc


def parse_m_rule(text: str) -> tuple:
    """Parse 'fixed:5', 'power:0.75' or 'sqrtexp:c,ell' into a rule tuple.

    fixed:c       m(N) = c
    power:b       m(N) = round(N**b)
    sqrtexp:c,l   m(N) = round(c * sqrt(N) * exp(l / 2))
    """
    return _parse_rule(text, _M_RULES, "m-rule")


def parse_alpha_rule(text: str) -> tuple:
    """Parse 'const:0.2' or 'invlog:1.0' into a rule tuple.

    const:a    alpha(N) = a
    invlog:a   alpha(N) = a / log N
    """
    return _parse_rule(text, _ALPHA_RULES, "alpha-rule")


def _check_rule(rule: tuple, rules: dict, name: str) -> None:
    kind, *args = rule
    if kind not in rules:
        raise ValueError(f"unknown {name} kind {kind!r}")
    arity = len(rules[kind][0])
    if len(args) != arity:
        raise ValueError(f"{name} {kind!r} takes {arity} argument(s), got {len(args)}")
    if not all(math.isfinite(arg) for arg in args if isinstance(arg, float)):
        raise ValueError(f"{name} {kind!r} arguments must be finite, got {tuple(args)}")


@dataclass(frozen=True)
class ParamFamily:
    """A sequence of urn instances indexed by growing ball counts."""

    m_rule: tuple
    alpha_rule: tuple
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_rule(self.m_rule, _M_RULES, "m-rule")
        _check_rule(self.alpha_rule, _ALPHA_RULES, "alpha-rule")
        if len(self.sizes) == 0:
            raise ValueError("sizes must be non-empty")
        for size in self.sizes:
            check_integer("size", size, 2, math.inf)
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        for size in self.sizes:  # finite arguments can still overflow, as exp(1000) does
            try:
                self.m_of(size)
            except OverflowError as exc:
                raise ValueError(f"m-rule {self.m_rule} overflows at size {size}") from exc

    def m_of(self, size: int) -> int:
        return _M_RULES[self.m_rule[0]][1](size, *self.m_rule[1:])

    def alpha_of(self, size: int) -> float:
        return _ALPHA_RULES[self.alpha_rule[0]][1](size, *self.alpha_rule[1:])

    def instances(self) -> list[ModelParams]:
        return [
            ModelParams(size, self.m_of(size), self.alpha_of(size))
            for size in self.sizes
        ]
