"""Delayed spacing policies, their rows and relative degrees, and the
closed-form predicates.

Three policies are supported, each a function of current and predicted ego
states, Delta_ref = H x(t) + H_bar x(t + phi):

  constant ("constant"):          Delta_ref = q(t+phi) - q(t)
  constant headway ("dch"):       Delta_ref = h_v v(t+phi)
  extended headway ("ext"):       Delta_ref = h_v v(t) + h_a a(t+phi)

Properness (bounded spacing, matched steady-state velocities under perfect
tracking) and string stability are decided by the closed-form
characterizations; where the extended policy's sufficient pair fails, its
string stability is decided by a certified cell search on all of [0, inf)
(analysis.extended_string_stability).
"""

from __future__ import annotations

import enum
import math
import numbers

from ._record import Record
from .dynamics import VehicleParams

__all__ = [
    "PolicyKind",
    "SpacingPolicy",
    "PolicyRows",
    "StabilityVerdict",
    "SolvabilityResult",
    "policy_rows",
    "relative_degrees",
    "solvability_check",
    "is_proper",
    "is_string_stable",
]


class PolicyKind(enum.Enum):
    DELAYED_CONSTANT = "constant"
    DELAYED_CONSTANT_HEADWAY = "dch"
    DELAYED_EXTENDED_HEADWAY = "ext"

    @classmethod
    def parse(cls, token: str) -> "PolicyKind":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown policy kind {token!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


class SpacingPolicy(Record):
    """Policy kind with velocity headway h_v [s], acceleration headway
    h_a [s^2] and a standstill offset [m] (display only, removed before
    error math)."""

    kind: PolicyKind
    h_v: float = 0.0
    h_a: float = 0.0
    standstill: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, PolicyKind):
            raise ValueError(f"kind must be a PolicyKind, got {self.kind!r}")
        if not all(map(math.isfinite, (self.h_v, self.h_a, self.standstill))):
            raise ValueError("h_v, h_a and standstill must be finite")
        if self.standstill < 0.0:
            raise ValueError("standstill must be >= 0")
        if self.kind is PolicyKind.DELAYED_CONSTANT:
            if self.h_v != 0.0 or self.h_a != 0.0:
                raise ValueError("constant policy takes no headway parameters")
        elif self.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
            if self.h_v <= 0.0:
                raise ValueError("h_v must be > 0 for the constant headway policy")
            if self.h_a != 0.0:
                raise ValueError("h_a must be 0 for the constant headway policy")
        else:
            if self.h_v <= 0.0 or self.h_a <= 0.0:
                raise ValueError("h_v and h_a must be > 0 for the extended policy")


class PolicyRows(Record):
    """Row vectors of Delta_ref = H x(t) + H_bar x(t + phi)."""

    H: tuple[float, float, float]
    H_bar: tuple[float, float, float]

    def __post_init__(self):
        for row in (self.H, self.H_bar):
            if not (isinstance(row, tuple) and len(row) == 3 and all(
                    isinstance(x, numbers.Real) and math.isfinite(x) for x in row)):
                raise ValueError(f"H and H_bar must be 3-tuples of finite numbers, got {row!r}")


class SolvabilityResult(Record):
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


class StabilityVerdict(Record):
    """Outcome of a properness / string-stability check with its certificate.

    method is one of "closed-form", "sweep", "root-search".  Depending on the
    method, the certificate is a rightmost root, a peak (omega, |T|) pair, a
    witnessing frequency (for an unstable "sweep" verdict of
    is_string_stable, with |T| there as peak_magnitude), or inequality
    margins (positive = satisfied).
    """

    stable: bool
    method: str
    rightmost_root: complex | None = None
    peak_omega: float | None = None
    peak_magnitude: float | None = None
    witness_omega: float | None = None
    margins: tuple[float, ...] = ()


def policy_rows(policy: SpacingPolicy) -> PolicyRows:
    """(H, H_bar) representation of the policy."""
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        return PolicyRows((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        return PolicyRows((0.0, 0.0, 0.0), (0.0, policy.h_v, 0.0))
    return PolicyRows((0.0, policy.h_v, 0.0), (0.0, 0.0, policy.h_a))


def _relative_degree(row) -> float:
    for k, h in enumerate(reversed(row), start=1):
        if h != 0.0:
            return k
    return math.inf


def relative_degrees(rows: PolicyRows) -> tuple[float, float]:
    """(rho, rho_bar): smallest k with H A^{k-1} B != 0 (resp. H_bar), inf if none.

    For q' = v, v' = a, a' = (u - a)/tau, H A^{k-1} B = h_{3-k} / tau once
    the entries after h_{3-k} are 0, so rho is the position of the last
    nonzero entry of the row, counted from the end.  tau > 0 only scales the
    products, so the rows alone decide and no vehicle parameter is read.
    """
    return _relative_degree(rows.H), _relative_degree(rows.H_bar)


def solvability_check(rows: PolicyRows) -> SolvabilityResult:
    """Whether a decentralized tracking controller exists for these rows.

    True iff rho_bar < rho, or rho_bar == 3 with H x = -q (H = [-1, 0, 0]).
    """
    rho, rho_bar = relative_degrees(rows)
    if rho_bar < rho:
        return SolvabilityResult(True, f"rho_bar = {rho_bar} < rho = {rho}")
    if rho_bar == 3 and rows.H == (-1.0, 0.0, 0.0):
        return SolvabilityResult(True, "rho_bar = 3 and H x = -q")
    return SolvabilityResult(
        False, f"rho_bar = {rho_bar} not < rho = {rho} and H x != -q"
    )


def _extended_properness_margin(policy: SpacingPolicy, params: VehicleParams):
    """Clearance below the properness boundary curve at the policy's abscissa.

    In the (h_v/h_a, 1/h_a) plane the boundary is the curve
    (w sin(w phi), w^2 cos(w phi)); since its abscissa is strictly
    increasing, properness is decided pointwise below the curve: solve
    omega sin(omega) = phi h_v / h_a for the unique omega in (0, pi/2) and
    require phi^2 / h_a < omega^2 cos(omega).  (The curve is the locus of
    imaginary-axis characteristic roots, so satisfying both inequalities at
    some unrelated larger omega is not sufficient.)
    """
    phi = params.phi
    s = phi * policy.h_v / policy.h_a
    y = phi * phi / policy.h_a
    if s >= 0.5 * math.pi:
        return None, 0.5 * math.pi - s, 0.0  # no admissible frequency at all
    # w sin w - s is strictly increasing on (0, pi/2), and w^2 >= w sin w >=
    # 2 w^2 / pi there: bisect its sign change to relative width 1e-15
    lo, hi = math.sqrt(s), min(math.sqrt(0.5 * math.pi * s), 0.5 * math.pi)
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if mid * math.sin(mid) < s:
            lo = mid
        else:
            hi = mid
    w_star = 0.5 * (lo + hi)
    curve = w_star * w_star * math.cos(w_star)
    return w_star, curve - y, max(curve, y)


def is_proper(policy: SpacingPolicy, params: VehicleParams) -> StabilityVerdict:
    """Properness via the closed-form characterizations.

    Constant: always proper.  Constant headway: proper iff 2 phi < h_v pi
    (strict).  Extended: proper iff the headway point lies strictly below
    the boundary curve of the stability region (see
    _extended_properness_margin); the verdict carries the frequency at the
    policy's abscissa and the clearance margins.
    """
    phi = params.phi
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        return StabilityVerdict(True, "closed-form")
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        margin = policy.h_v * math.pi - 2.0 * phi
        return StabilityVerdict(
            bool(2.0 * phi < policy.h_v * math.pi), "closed-form", margins=(float(margin),)
        )
    if phi == 0.0:  # no delay: the extended policy is always proper
        return StabilityVerdict(True, "closed-form")
    w_star, m_star, scale = _extended_properness_margin(policy, params)
    if w_star is None:  # abscissa beyond the boundary curve's range
        return StabilityVerdict(False, "closed-form", margins=(m_star,))
    # strictly-inside test; the guard, 1e-12 of the larger compared value,
    # keeps points on the boundary curve (margin 0 up to rounding) not proper
    return StabilityVerdict(
        bool(m_star > 1e-12 * scale),
        "closed-form",
        witness_omega=float(w_star),
        margins=(float(0.5 * math.pi - phi * policy.h_v / policy.h_a), float(m_star)),
    )


def is_string_stable(policy: SpacingPolicy, params: VehicleParams) -> StabilityVerdict:
    """String stability of the closed loop under perfect tracking.

    Constant: unconditionally stable.  Constant headway: stable iff
    h_v >= 2 phi (boundary included).  Extended: the closed-form sufficient
    pair (h_a >= 2 h_v phi, h_v^2 >= 2 h_a) decides when it holds, so an
    inconclusive closed form is never reported as a failure; otherwise
    analysis.extended_string_stability decides, method "sweep": a proof that
    |T(i omega)| <= 1 + 1e-9 on all of [0, inf), or a witness frequency
    above it.  It raises RefinementError where it cannot decide.
    (analysis.string_stability_sweep compares the peak on its grid's range
    only.)
    """
    phi = params.phi
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        return StabilityVerdict(True, "closed-form", peak_magnitude=1.0)
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        return StabilityVerdict(
            bool(policy.h_v >= 2.0 * phi), "closed-form", margins=(float(policy.h_v - 2.0 * phi),)
        )
    m1 = float(policy.h_a - 2.0 * policy.h_v * phi)
    m2 = float(policy.h_v * policy.h_v - 2.0 * policy.h_a)
    if m1 >= 0.0 and m2 >= 0.0:
        return StabilityVerdict(True, "closed-form", margins=(m1, m2))
    from . import analysis  # deferred: analysis imports this module's types

    return analysis.extended_string_stability(policy, params).replace(margins=(m1, m2))
