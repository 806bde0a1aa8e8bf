"""Frequency-domain and quasi-polynomial stability machinery.

Covers the closed-loop velocity transfer magnitudes under perfect tracking
(one array kernel), the string-stability frequency sweep (its peak certified
between grid points by a cell bound on |1/T|^2, on the grid's range, from
cells graded around the Newton-polished best grid point), the
extended policy's string-stability verdict on all of [0, inf) (one
certified cell search on the factored margin (|T|^-2 - 1) / omega^2 up to
the frequency past which |T| <= 1), the rightmost root of the
one-delay internal dynamics p = a(lambda) + b(lambda) e^{-phi lambda}, deg b
< deg a, with every evaluation of p running Horner over one cached row table
(seeded in closed form on the branches of the Lambert W function for deg
a = 1, the DCH factor, and from a truncated quadratic, the Lambert-W chain
and the roots of a for deg a = 2, the extended factor; certified by an
adaptive argument-principle count over a box that the scalar modulus bound
R(s) sizes, against the roots found with the multiplicity a scalar Rouché
test proves for each, the box subdivided where the count exceeds them),
the properness root check (inconclusive where the root lies within
rounding of the axis), the properness region boundary, and the
time-domain L2 string-stability check.

numpy is imported by the functions that build or read an array (the
kernel, the sweeps and their cells, the region boundary and the L2 check),
not at module level.  The root search and properness_root_check's verdict
run on math and cmath alone, for any degree.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
from typing import TYPE_CHECKING

from ._record import Record
from .dynamics import VehicleParams, check_sample_count
from .errors import RefinementError
from .spacing import PolicyKind, SpacingPolicy, StabilityVerdict

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuasiPolynomial",
    "transfer_magnitude",
    "string_stability_sweep",
    "extended_string_stability",
    "rightmost_root",
    "properness_root_check",
    "stability_region_boundary",
    "l2_string_stability_check",
    "L2PairVerdict",
]

SWEEP_TOL = 1e-9  # sup |T| <= 1 + SWEEP_TOL counts as string stable
SWEEP_POINTS = 256  # points of the default sweep grid: refined_peak's first cells
OMEGA_CAP = 1e308  # largest top frequency of the default sweep grid
ROOT_STABLE_TOL = 1e-9  # |Re(rightmost)| <= ROOT_STABLE_TOL |rightmost| is inconclusive


class QuasiPolynomial(Record):
    """p(lambda) = a(lambda) + b(lambda) e^{-phi lambda}, deg b < deg a.

    a and b hold ascending coefficients.  The constructor divides both by
    a's leading coefficient, so a is monic of degree n >= 1 and b has n
    entries; with phi = 0 (or b = 0) it folds b into a and keeps phi = 0.
    The two instances arising here are the internal dynamics lambda +
    h_v^{-1} e^{-phi lambda} and h_a lambda^2 + (h_v lambda + 1) e^{-phi
    lambda}.  A neutral p (deg b >= deg a) and non-finite input are
    rejected; ratios to the leading coefficient may overflow to inf, which
    the root search reports as RefinementError.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    phi: float

    def __post_init__(self):
        a, b, phi = tuple(map(float, self.a)), tuple(map(float, self.b)), float(self.phi)
        if not all(map(math.isfinite, a + b + (phi,))):
            raise ValueError("quasi-polynomial coefficients and delay must be finite")
        if phi < 0.0:
            raise ValueError(f"delay must be >= 0, got {phi}")
        n = max((j for j, c in enumerate(a) if c != 0.0), default=0)
        if any(b[n:]):
            raise ValueError("neutral quasi-polynomial: deg b >= deg a")
        if n == 0:
            raise ValueError("a must have degree >= 1")
        b = b[:n] + (0.0,) * (n - len(b))
        if phi == 0.0 or not any(b):
            a, b, phi = tuple(x + y for x, y in zip(a, b + (0.0,))), (0.0,) * n, 0.0
        object.__setattr__(self, "a", tuple(c / a[n] for c in a[: n + 1]))
        object.__setattr__(self, "b", tuple(c / a[n] for c in b))
        object.__setattr__(self, "phi", phi)

    @classmethod
    def dch_internal(cls, h_v: float, phi: float) -> "QuasiPolynomial":
        """lambda + (1/h_v) e^{-phi lambda}: internal factor of the DCH loop.

        Built as h_v lambda + e^{-phi lambda}, so that the constructor's
        division makes 1/h_v, and an overflow to inf reaches the root search
        as RefinementError rather than failing validation.
        """
        return cls((0.0, h_v), (1.0,), phi)

    @classmethod
    def extended_internal(cls, h_v: float, h_a: float, phi: float) -> "QuasiPolynomial":
        """h_a lambda^2 + (h_v lambda + 1) e^{-phi lambda}."""
        return cls((0.0, 0.0, h_a), (1.0, h_v), phi)

    @functools.cached_property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """Horner rows from degree n - 1 down: a_j, b_j, |a_j|, |b_j|, the
        coefficients (j + 1) |a_{j+1}| and (j + 1) |b_{j+1}| + phi |b_j| of
        the bound |p'| <= sum_j (j + 1) |a_{j+1}| r^j + e^{-phi Re} sum_j
        ((j + 1) |b_{j+1}| + phi |b_j|) r^j at |lambda| <= r, and the
        coefficients (j + 2) (j + 1) |a_{j+2}| and (j + 2) (j + 1) |b_{j+2}|
        + 2 phi (j + 1) |b_{j+1}| + phi^2 |b_j| of the same bound on |p''| =
        |a'' + (b'' - 2 phi b' + phi^2 b) e^{-phi lambda}|.  Every evaluation
        of p runs Horner over these rows from a_n = 1 and b_n = 0.
        """
        a, b, phi = self.a + (0.0,), self.b + (0.0, 0.0), self.phi
        return tuple(
            (a[j], b[j], abs(a[j]), abs(b[j]), (j + 1) * abs(a[j + 1]),
             (j + 1) * abs(b[j + 1]) + phi * abs(b[j]), (j + 2) * (j + 1) * abs(a[j + 2]),
             (j + 2) * (j + 1) * abs(b[j + 2]) + 2.0 * phi * (j + 1) * abs(b[j + 1])
             + phi * phi * abs(b[j]))
            for j in reversed(range(len(a) - 2))
        )

    def newton_terms(self, lam: complex) -> tuple[complex, complex, float]:
        """(p(lam), p'(lam), residual scale) in one pass.

        The scale, the reference for |p| residuals, sums the monomial
        magnitudes |a_j| |lam|^j + |b_j| |lam|^j e^{-phi Re(lam)}: per
        monomial, so it stays above the rounding error of p where b(lam)
        cancels.  OverflowError where an exp overflows.
        """
        r = abs(lam)
        fa, dfa, fb, dfb, ma, mb = 1.0 + 0.0j, 0.0j, 0.0j, 0.0j, 1.0, 0.0
        for aj, bj, maj, mbj, _, _, _, _ in self.rows:
            dfa = dfa * lam + fa
            fa = fa * lam + aj
            dfb = dfb * lam + fb
            fb = fb * lam + bj
            ma = ma * r + maj
            mb = mb * r + mbj
        e = cmath.exp(-lam * self.phi)
        p = fa + fb * e
        dp = dfa + (dfb - self.phi * fb) * e
        scale = ma + mb * math.exp(-lam.real * self.phi)
        return p, dp, max(scale, 1e-300)


def magnitude_kernel(policy: SpacingPolicy, params: VehicleParams):
    """(parts, curvature, slopes) of the velocity transfer T of a headway policy.

    parts(w) is (Re, Im) of 1/T(i w) on arrays, (w h_v - sin(w phi), cos(w
    phi)) or (1 - h_a w^2 cos(w phi), h_v w - h_a w^2 sin(w phi)), so |T| =
    1 / hypot(*parts(w)) cannot overflow where |T| is representable (an
    overflowing h_a w^2 gives 0).  curvature(w), nondecreasing, bounds |D''|
    on [0, w] term by term (|sin|, |cos| <= 1) for D = |1/T|^2 = w^2 h_v^2 -
    2 w h_v sin + 1, resp. 1 - 2 h_a w^2 cos + h_a^2 w^4 + h_v^2 w^2 - 2 h_v h_a w^3 sin.
    slopes(w) is (D, D', D'') = (X^2 + Y^2, 2 (X X' + Y Y'), 2 (X'^2 + X X''
    + Y'^2 + Y Y'')) at one float w with a finite phase w phi, (X, Y) =
    parts(w) evaluated with math, several times faster than numpy on a
    scalar.  curvature and slopes multiply h_a and phi by w before pairing
    them with another coefficient ((h_a w)^2, h_v (h_a w), phi (phi w)), so
    no product of two tiny coefficients underflows to 0 where the whole
    term is representable.
    """
    import numpy as np

    phi, hv, ha = params.phi, policy.h_v, policy.h_a
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        def parts(w):
            wp = w * phi
            return w * hv - np.sin(wp), np.cos(wp)

        def curvature(w):
            return 2.0 * hv * (hv + 2.0 * phi + phi * (phi * w))

        def taylor(w):
            s, c = math.sin(w * phi), math.cos(w * phi)
            return w * hv - s, c, hv - phi * c, -phi * s, phi * (phi * s), -phi * (phi * c)
    else:
        def parts(w):
            wp = w * phi
            return 1.0 - ha * w * w * np.cos(wp), hv * w - ha * w * w * np.sin(wp)

        def curvature(w):
            wp, haw = w * phi, ha * w
            return (2.0 * ha * (2.0 + 4.0 * wp + wp * wp) + 12.0 * haw * haw
                    + 2.0 * hv * hv + 2.0 * hv * haw * (6.0 + 6.0 * wp + wp * wp))

        def taylor(w):
            wp, haw = w * phi, ha * w
            s, c = math.sin(wp), math.cos(wp)
            return (1.0 - haw * w * c, hv * w - haw * w * s,
                    -haw * (2.0 * c - wp * s), hv - haw * (2.0 * s + wp * c),
                    -ha * (2.0 * c - 4.0 * wp * s - wp * wp * c),
                    -ha * (2.0 * s + 4.0 * wp * c - wp * wp * s))

    def slopes(w):
        x, y, dx, dy, ddx, ddy = taylor(w)
        return x * x + y * y, 2.0 * (x * dx + y * dy), 2.0 * (dx * dx + x * ddx + dy * dy + y * ddy)

    return parts, curvature, slopes


def _frequencies(params: VehicleParams, omega) -> np.ndarray:
    """omega as an array; ValueError unless omega >= 0 and omega phi is finite."""
    import numpy as np

    w = np.asarray(omega, dtype=float)
    if w.size and not (0.0 <= w.min() and w.max() * max(params.phi, 1.0) < math.inf):
        raise ValueError("omega must be >= 0, and omega and omega phi finite")  # nan fails
    return w


def transfer_magnitude(policy: SpacingPolicy, params: VehicleParams, omega):
    """|T(i omega)| at every omega >= 0 with a finite phase omega phi."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # h_a w^2 overflowing gives |T| = 0
        w = _frequencies(params, omega)
        if policy.kind is PolicyKind.DELAYED_CONSTANT:
            out = np.ones_like(w)
        else:
            out = 1.0 / np.hypot(*magnitude_kernel(policy, params)[0](w))
        return float(out) if w.ndim == 0 else out


def default_sweep_grid(policy: SpacingPolicy, params: VehicleParams, n_grid: int = SWEEP_POINTS):
    """n_grid log-spaced points on [omega_min, omega_max], ascending.

    omega_max = max(10/h_v, 20 pi/phi) capped at OMEGA_CAP / max(1, phi):
    finite where a bound overflows (h_v or phi below about 5.6e-308), and so
    is omega phi.  omega_min = min(1e-3, 1e-3 omega_max, 1e-3/sqrt(h_a)),
    the last term for h_a > 0: the extended policy's band of |T| > 1 at low
    frequency, where h_v^2 < 2 h_a, lies near 1/sqrt(h_a).  omega_min is
    1e-3, and the grid the same, whenever h_a <= 1 and omega_max >= 1.

    The default SWEEP_POINTS only seeds refined_peak's cells, which split
    where their bound needs it; ``sweep`` passes its --points (4,096 by
    default) for the plotted grid.  ValueError, before any allocation,
    unless 2 <= n_grid <= MAX_SAMPLES.
    """
    check_sample_count("n_grid", n_grid)
    import numpy as np

    bounds = []
    if policy.h_v > 0.0:
        bounds.append(10.0 / policy.h_v)
    if params.phi > 0.0:
        bounds.append(20.0 * math.pi / params.phi)
    omega_max = min(max(bounds), OMEGA_CAP / max(1.0, params.phi)) if bounds else 1e3
    lows = [1e-3, 1e-3 * omega_max]
    if policy.h_a > 0.0:
        lows.append(1e-3 / math.sqrt(policy.h_a))
    return np.logspace(math.log10(min(lows)), math.log10(omega_max), n_grid)


PEAK_TOL = 1e-12  # refined_peak certifies D = |1/T|^2 >= (1 - PEAK_TOL) of its best
PEAK_EVAL_CAP = 50000  # points beyond the grid before refined_peak stops; flat tops take up to half
_SPLIT = tuple(k / 16.0 for k in range(1, 16))  # interior points of a cell split into 16


def _graded_mesh(slopes, curvature, left, w, right):
    """Sorted points in (left, right) that grade refined_peak's cells around
    the minimum of D = |1/T|^2 near w, or None.

    Newton on D' from w, at most 8 steps, finds w*; it must keep D'' > 0
    and stay inside (left, right), else None.  With M = curvature(right),
    the points are w* and w* +- delta rho^j, delta = c sqrt(2 PEAK_TOL D(w*)
    / M) and rho = 1 + c sqrt(4 D''(w*) / M), c = 0.9, at most 200 a side:
    where D is D(w*) + D''(w*) (w - w*)^2 / 2, each of these cells passes
    the cell bound at once.  The points only place the first cells; the
    bound alone certifies them.
    """
    import numpy as np

    m = curvature(right)
    if not 0.0 < m < math.inf:
        return None
    for _ in range(8):
        d, d1, d2 = slopes(w)
        if not d2 > 0.0:  # also nan
            return None
        step = d1 / d2
        w -= step
        if not left < w < right:
            return None
        delta = 0.9 * math.sqrt(2.0 * PEAK_TOL * d / m)
        if abs(step) < delta:  # the next step would be about step^2 / width
            break
    growth = 0.9 * math.sqrt(4.0 * d2 / m)
    if not (0.0 < delta < math.inf and 0.0 < growth < math.inf):
        return None
    count = math.log(max(w - left, right - w) / delta) / math.log1p(growth)
    radii = delta * (1.0 + growth) ** np.arange(int(min(count, 198.0)) + 2)
    points = np.concatenate((w - radii[::-1], [w], w + radii))
    return points[(left < points) & (points < right)]


def refined_peak(policy: SpacingPolicy, params: VehicleParams, grid: np.ndarray):
    """(peak_omega, peak_magnitude, grid magnitudes) of |T| on [grid[0], grid[-1]].

    On a cell [a, b], D = |1/T|^2 >= min(D(a), D(b)) - curvature(b) (b -
    a)^2 / 8 (Piyavskii 1972; Shubert, SIAM J. Numer. Anal. 9, 1972).  Where
    the grid's smallest D lies at an interior point, _graded_mesh replaces
    its two cells with cells graded around the Newton-polished minimum, in
    one array evaluation, each wide enough to pass that bound where D keeps
    its local curvature (derivatives placing the cells, as in Sergeyev,
    Math. Programming 81, 1998).  From those cells on, every cell whose
    bound lies below (1 - PEAK_TOL) of the smallest D found so far is split
    into 16 at a + (b - a) t, one array evaluation per level, until none
    is; the peak is the point of that smallest D.  The graded cells only
    decide where the first cells lie, and the bound alone certifies the
    peak.  So the grid only seeds the cells: 256 points certify the same
    peak as 4,096, to PEAK_TOL, mostly within two array evaluations beyond
    the grid.  After PEAK_EVAL_CAP points beyond the grid, the graded ones
    included, a peak above 1 + SWEEP_TOL is returned as an unstable witness,
    a lower bound of the supremum, and a stable one raises RefinementError.
    Flat tops, where D - 1 ~ omega^4 at the grid's start (h_v = 2 phi for
    DCH, h_v^2 = 2 h_a for the extended policy), get no graded cells and
    take the most points: up to about 25,000 of the 50,000.
    """
    import numpy as np

    fractions = np.array(_SPLIT)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # 1/T = 0 gives |T| = inf
        grid = _frequencies(params, grid)
        parts, curvature, slopes = magnitude_kernel(policy, params)
        inv = np.hypot(*parts(grid))  # |1/T|: hypot, unlike x^2 + y^2, is inf at (-inf, nan)
        k = int(np.argmin(inv))
        best_w, best = float(grid[k]), inv[k]
        edges, inv_edges, evaluated = grid, inv, 0
        if 0 < k < grid.size - 1 and best > 0.0:
            mesh = _graded_mesh(slopes, curvature, *grid[k - 1 : k + 2].tolist())
            if mesh is not None and mesh.size <= PEAK_EVAL_CAP:
                inv_mesh = np.hypot(*parts(mesh))
                evaluated = mesh.size
                j = int(np.argmin(inv_mesh))
                if inv_mesh[j] < best:
                    best_w, best = float(mesh[j]), inv_mesh[j]
                edges = np.concatenate((grid[:k], mesh, grid[k + 1:]))
                inv_edges = np.concatenate((inv[:k], inv_mesh, inv[k + 1:]))
        lo, hi, inv_lo, inv_hi = edges[:-1], edges[1:], inv_edges[:-1], inv_edges[1:]
        while best > 0.0:  # else |T| = inf, the supremum
            sag = curvature(np.maximum(lo, hi)) * (hi - lo) ** 2 / 8.0  # a grid may descend
            floor = np.minimum(inv_lo, inv_hi) ** 2 - sag
            split = floor < best * best * (1.0 - PEAK_TOL)
            if not split.any():
                break
            lo, hi, inv_lo, inv_hi = lo[split], hi[split], inv_lo[split], inv_hi[split]
            if evaluated + lo.size * fractions.size > PEAK_EVAL_CAP:
                if 1.0 / best > 1.0 + SWEEP_TOL:
                    break
                raise RefinementError(f"peak not certified within {PEAK_EVAL_CAP} points")
            points = lo[:, None] + (hi - lo)[:, None] * fractions
            inv_points = np.hypot(*parts(points))
            evaluated += inv_points.size
            k = int(np.argmin(inv_points))
            if inv_points.flat[k] < best:
                best_w, best = float(points.flat[k]), inv_points.flat[k]
            edges = np.column_stack((lo, points, hi))
            inv_edges = np.column_stack((inv_lo, inv_points, inv_hi))
            lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
            inv_lo, inv_hi = inv_edges[:, :-1].ravel(), inv_edges[:, 1:].ravel()
        return best_w, float(1.0 / best), 1.0 / inv


def string_stability_sweep(policy: SpacingPolicy, params: VehicleParams) -> StabilityVerdict:
    """sup_omega |T(i omega)| on the default grid's range, from refined_peak.

    refined_peak's cells start from the SWEEP_POINTS = 256 log-spaced points
    of default_sweep_grid on [omega_min, omega_max], omega_max = max(10 /
    h_v, 20 pi / phi), at most OMEGA_CAP / max(1, phi), and omega_min at most
    1e-3, and split only where the cell bound needs it.  The peak is
    certified to PEAK_TOL between the grid's ends, except for refined_peak's
    unstable witness where the grid aliases |T| and the PEAK_EVAL_CAP
    budget runs out.  ``stable`` is that peak <= 1 + 1e-9, so it compares
    the peak on the grid's range only: |T| may exceed 1 beyond omega_max
    (extended tunings with h_v^2 > 10 h_a peak near h_v / h_a).
    spacing.is_string_stable decides on all of [0, inf) instead, through
    extended_string_stability.
    """
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        return StabilityVerdict(True, "sweep", peak_omega=0.0, peak_magnitude=1.0)  # |T| = 1
    best_w, best_m, _ = refined_peak(policy, params, default_sweep_grid(policy, params))
    return StabilityVerdict(
        bool(best_m <= 1.0 + SWEEP_TOL), "sweep", peak_omega=best_w, peak_magnitude=best_m
    )


def extended_string_stability(policy: SpacingPolicy, params: VehicleParams) -> StabilityVerdict:
    """String stability of the extended policy on all of [0, inf), certified.

    |T(i w)|^-2 - 1 = w^2 g(w), with the factored margin g = h_v^2 - 2 h_a
    cos(w phi) + h_a^2 w^2 - 2 h_v h_a w sin(w phi).  For w >= w_t = (h_v +
    sqrt(2 h_a)) / h_a, g >= (h_a w - h_v)^2 - 2 h_a >= 0, so |T| <= 1
    there, and the tuning is stable iff w^2 g >= C = (1 + SWEEP_TOL)^-2 - 1
    on [0, w_t], string_stability_sweep's threshold.  With s = h_v +
    sqrt(2 h_a), g is evaluated as G = g / s^2 = v^2 - beta^2 cos(kappa u) +
    u^2 - 2 v u sin(kappa u) at u = h_a w / s in [0, 1], where v = h_v / s,
    beta = sqrt(2 h_a) / s and kappa = w_t phi: every term is at most 1, so
    no h_a from 1e-300 to 1e305 overflows, and the rule reads u^2 G >= C /
    lam^2, lam = s^2 / h_a.  |G''| <= M(u) = 2 + 4 v kappa + kappa^2 (beta^2
    + 2 v u), nondecreasing (M(w) = 2 h_a phi^2 + 2 h_a^2 + 2 h_v h_a (2 phi
    + w phi^2) on g).  From 16 uniform cells, a cell [a, b] is certified
    when min(G(a), G(b)) - M(b) (b - a)^2 / 8 - rounding >= C / (lam b)^2
    (Piyavskii 1972; Shubert, SIAM J. Numer. Anal. 9, 1972), the rounding
    _COUNT_ROUNDING times G's term magnitudes at u = 1, widened by the phase
    kappa as _root_count widens its own; every other cell is split into 16.
    Once all are certified, the answer is stable with |T(0)| = 1 at omega 0,
    a proof.  A point with u^2 G < C / lam^2 at which transfer_magnitude
    confirms |T| > 1 + SWEEP_TOL is the unstable answer: witness_omega, with
    |T| there as peak_magnitude, a lower bound of the peak, not refined.
    The method is "sweep", as string_stability_sweep's.  RefinementError
    after PEAK_EVAL_CAP points beyond the first 17, which long tails reach
    (kappa above about 1e4; a proper tuning has kappa < 2.62), or where
    kappa is not finite.  The scalars are Python floats, which overflow to
    inf without a warning; an infinite curvature leaves every cell open.
    """
    if policy.kind is not PolicyKind.DELAYED_EXTENDED_HEADWAY:
        raise ValueError("the factored margin applies to the extended policy only")
    import numpy as np

    h_v, root_a, phi = policy.h_v, math.sqrt(policy.h_a), params.phi
    s = h_v + math.sqrt(2.0) * root_a
    v, beta2 = h_v / s, 2.0 * (root_a / s) ** 2
    t = s / root_a  # sqrt(lam) >= sqrt(2); inf where h_v / sqrt(h_a) overflows
    kappa, w_t = phi / root_a * t, t / root_a
    if not math.isfinite(kappa):
        raise RefinementError(f"peak not certified within {PEAK_EVAL_CAP} points")
    floor = ((1.0 + SWEEP_TOL) ** -2 - 1.0) / (t * t) / (t * t)  # C / lam^2, -0.0 past overflow
    rounding = _COUNT_ROUNDING * (1.0 + kappa) * ((v + 1.0) ** 2 + beta2)
    sag0 = (2.0 + 4.0 * v * kappa + kappa * kappa * beta2) / 8.0  # M(b) / 8 = sag0 + sag1 b
    sag1 = v * kappa * kappa / 4.0

    def margin(u):
        theta = kappa * u
        return v * v - beta2 * np.cos(theta) + u * (u - 2.0 * v * np.sin(theta))

    fractions = np.array(_SPLIT)
    points = np.arange(17.0) / 16.0
    values = margin(points)
    lo, hi, g_lo, g_hi = points[:-1], points[1:], values[:-1], values[1:]
    evaluated = 0
    while True:
        excess = points * points * values
        k = excess.argmin()
        if excess.flat[k] < floor:
            omega = float(points.flat[k]) * w_t
            if omega * max(phi, 1.0) < math.inf and (
                    magnitude := transfer_magnitude(policy, params, omega)) > 1.0 + SWEEP_TOL:
                return StabilityVerdict(False, "sweep", peak_magnitude=magnitude, witness_omega=omega)
        width = hi - lo
        bound = np.minimum(g_lo, g_hi) - (sag0 + sag1 * hi) * width * width - rounding
        open_cells = np.flatnonzero(bound < floor / (hi * hi))
        if not open_cells.size:
            return StabilityVerdict(True, "sweep", peak_omega=0.0, peak_magnitude=1.0)
        lo, hi, g_lo, g_hi = lo[open_cells], hi[open_cells], g_lo[open_cells], g_hi[open_cells]
        if evaluated + lo.size * fractions.size > PEAK_EVAL_CAP:
            raise RefinementError(f"peak not certified within {PEAK_EVAL_CAP} points")
        points = lo[:, None] + (hi - lo)[:, None] * fractions
        values = margin(points)
        evaluated += values.size
        edges = np.column_stack((lo, points, hi))
        g_edges = np.column_stack((g_lo, values, g_hi))
        lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        g_lo, g_hi = g_edges[:, :-1].ravel(), g_edges[:, 1:].ravel()


BOX_MARGIN = 0.01  # the box reaches _box_margin(s*, phi) left of the rightmost root s*


def _box_margin(s: float, phi: float) -> float:
    """BOX_MARGIN (1 + |s|) / max(1, phi).  The roots of p scale as 1 /
    phi (p is a function of lambda phi), so a long delay packs its chain
    roots 2 pi / phi apart; the division keeps the box from taking in
    thousands of them.  Nothing changes for phi <= 1."""
    return BOX_MARGIN * (1.0 + abs(s)) / max(1.0, phi)


def _disk_radius(r: complex, phi: float) -> float:
    """1e-5 (1 + |r|) / max(1, phi), the radius of the Rouché disk around r
    (_local_multiplicity, _recentred) and the smallest part that
    _missing_roots splits, scaled with p's roots as _box_margin is."""
    return 1e-5 * (1.0 + abs(r)) / max(1.0, phi)


def _root_bound(qp: QuasiPolynomial, s: float) -> float:
    """R(s) = 2 max_j c_j^{1/(n-j)}, c_j = |a_j| + e^{-phi s} |b_j|.

    A root with Re(lambda) >= s has |a(lambda)| <= |b(lambda)| e^{-phi s}
    (Michiels & Niculescu 2007, ch. 1), so |lambda|^n <= sum_j c_j
    |lambda|^j, and Fujiwara's bound gives |lambda| < R(s).  One float s,
    in logarithms (log c_j = logaddexp(log |a_j|, log |b_j| - phi s), with
    log 0 = -inf) so that e^{-phi s} cannot overflow; inf where R itself
    does, without a warning.
    """
    n, top = len(qp.b), -math.inf
    for j, (aj, bj) in enumerate(zip(qp.a, qp.b)):
        x = math.log(abs(aj)) if aj else -math.inf
        y = math.log(abs(bj)) - qp.phi * s if bj else -math.inf
        big = max(x, y)
        if big > -math.inf:  # c_j = 0 bounds nothing
            top = max(top, (big + math.log1p(math.exp(min(x, y) - big))) / (n - j))
    try:
        return 2.0 * math.exp(top)
    except OverflowError:
        return math.inf


ROOT_COUNT_CAP = 20000  # evaluations of p before _root_count gives up
_COUNT_ROUNDING = 8.0 * 2.0**-52  # rounding error of p, relative to the newton_terms scale
_TWO_PI = 2.0 * math.pi


def _reach(c: float, d: float, m: float) -> float:
    """The root t of d t + m t^2 / 2 = c, in the cancellation-free form 2 c
    / (d + sqrt(d^2 + 2 m c)); 0 where c <= 0 or the root is not finite."""
    if not c > 0.0:
        return 0.0
    den = d + math.sqrt(d * d + 2.0 * m * c)
    return 2.0 * c / den if den > 0.0 else 0.0  # nan or 0 reaches nothing


def _root_count(
    qp: QuasiPolynomial, left: float, right: float, bottom: float, top: float
) -> tuple[int, int]:
    """(roots in the box Re in [left, right], Im in [bottom, top], with
    their multiplicities; points evaluated).

    The argument principle, adaptively (Ying & Katz, Numer. Math. 53,
    1988).  A box symmetric about the real axis (bottom = -top) is walked
    on the upper half of its boundary only: p has real coefficients, so
    p(conj z) = conj p(z), and the lower half changes arg p by as much as
    the upper half, the path (right, 0) -> (right, top) -> (left, top) ->
    (left, 0).  Its change is therefore pi times the count (a single real
    root gives pi, not a whole turn).  Any other box, such as a part above
    the axis that _missing_roots counts, is walked all round from (right,
    bottom), and its change is 2 pi times the count.  Each
    point runs Horner for p and p' and for the monomial bounds of the rows
    table.  A segment [z0, z1] is accepted by a Taylor model at each end
    (Kravanja & Van Barel, Computing the Zeros of Analytic Functions, LNM
    1727, 2000): with M2 the bound on |p''| over the segment, the monomial
    magnitudes at the larger |z| and e^{-phi Re} at the smaller Re,
    |p(z) - p(z_i)| <= |p'(z_i)| t + M2 t^2 / 2 at distance t from z_i.
    With c_i = |p(z_i)| less its rounding and d_i = |p'(z_i)| plus its
    own, that stays below |p(z_i)| for t < t_i = 2 c_i / (d_i + sqrt(d_i^2
    + 2 M2 c_i)), and the segment is accepted once t_0 + t_1 > |z1 - z0|.
    Two discs then carry it: every point of it lies within t_0 of z0 or
    within t_1 of z1, and the two pieces overlap, so p stays in the disc of
    radius |p(z0)| around p(z0) or in that of radius |p(z1)| around p(z1),
    neither of which holds 0.  At a point of the overlap arg p is within
    pi/2 of both end values, so the change of arg p along the segment is
    the principal argument of p(z1) / p(z0); a segment that fails the test
    is bisected.  Near a root of multiplicity m, |p'| shrinks with |p|, so
    the segments shrink like the distance to the root, not like its m-th
    power.  Real roots sit strictly inside a symmetric box, off the path.
    RefinementError where p is not finite or 0 on the path, or after
    ROOT_COUNT_CAP evaluations.
    """
    phi, rows = qp.phi, qp.rows

    def point(z: complex):
        r = abs(z)
        fa, dfa, fb, dfb = 1.0 + 0.0j, 0.0j, 0.0j, 0.0j
        ma, mb, sa, sb, ca, cb = 1.0, 0.0, 0.0, 0.0, 0.0, 0.0
        for aj, bj, maj, mbj, saj, sbj, caj, cbj in rows:
            dfa = dfa * z + fa
            fa = fa * z + aj
            dfb = dfb * z + fb
            fb = fb * z + bj
            ma = ma * r + maj
            mb = mb * r + mbj
            sa = sa * r + saj
            sb = sb * r + sbj
            ca = ca * r + caj
            cb = cb * r + cbj
        try:
            decay = math.exp(-phi * z.real)
            e = cmath.exp(-phi * z)
        except OverflowError:
            raise RefinementError("quasi-polynomial is not finite on the winding contour") from None
        f = fa + fb * e
        # newton_terms' monomial scales of p and p', their delayed parts widened
        # by phi r: the rounded exponent -phi z perturbs e^{-phi z} by about
        # phi |z| ulps
        widen = decay * (1.0 + phi * r)
        scale = ma + mb * widen
        if not (cmath.isfinite(f) and math.isfinite(scale)):
            raise RefinementError("quasi-polynomial is not finite on the winding contour")
        if f == 0.0:
            raise RefinementError("root on the winding contour")
        slope = abs(dfa + (dfb - phi * fb) * e) + _COUNT_ROUNDING * (sa + sb * widen)
        return z, cmath.phase(f), abs(f) - _COUNT_ROUNDING * scale, slope, ca, cb, decay

    symmetric = bottom == -top  # walk the upper half only
    low = 0.0 if symmetric else bottom
    corners = [point(complex(right, low)), point(complex(right, top)),
               point(complex(left, top)), point(complex(left, low))]
    if not symmetric:
        corners.append(corners[0])
    evaluations = 4
    swept = 0.0  # change of arg p along the path so far
    for k in range(len(corners) - 1):
        z0, arg0, c0, d0, ca0, cb0, e0 = corners[k]
        pending = [corners[k + 1]]
        while pending:
            z1, arg1, c1, d1, ca1, cb1, e1 = pending[-1]
            curve = max(ca0, ca1) + max(cb0, cb1) * max(e0, e1)
            if _reach(c0, d0, curve) + _reach(c1, d1, curve) > abs(z1 - z0):
                step = arg1 - arg0  # wrapped below: the principal arg of p(z1) / p(z0)
                swept += step - _TWO_PI * round(step / _TWO_PI)
                z0, arg0, c0, d0, ca0, cb0, e0 = pending.pop()
            elif evaluations >= ROOT_COUNT_CAP:
                raise RefinementError(
                    f"root count did not converge within {ROOT_COUNT_CAP} evaluations"
                )
            else:
                pending.append(point(0.5 * (z0 + z1)))
                evaluations += 1
    return round(swept / (math.pi if symmetric else _TWO_PI)), evaluations


def _newton_polish(qp: QuasiPolynomial, lam0: complex) -> complex | None:
    """The first point of damped Newton from lam0 with |p| <= 1e-13 of the
    newton_terms scale, within 80 steps, or None.  Beside a multiple root
    Newton creeps and may stop short of it; _recentred moves such a stop."""
    lam = complex(lam0)
    try:
        fval, dval, scale = qp.newton_terms(lam)
    except OverflowError:
        return None
    for _ in range(80):
        if abs(fval) <= 1e-13 * scale:
            return lam
        if dval == 0.0:
            return None
        delta = fval / dval
        # damped step: back off until |p| decreases
        step = 1.0
        for _ in range(25):
            cand = lam - step * delta
            try:
                terms = qp.newton_terms(cand)
            except OverflowError:
                step *= 0.5
                continue
            if abs(terms[0]) < abs(fval):
                lam, (fval, dval, scale) = cand, terms
                break
            step *= 0.5
        else:
            break
    return None


_BRANCH_CAP = 24  # Lambert-W branches past W_0 that one listing of the box takes


def _fold(lam: complex) -> complex:
    """lam folded into the upper half plane (p has real coefficients, so
    its roots come in conjugate pairs) and snapped onto the real axis where
    |Im| <= 1e-9 |lam|.  The snap is relative, so a small complex pair (h_a
    lambda^2 + (h_v - phi) lambda + 1 at h_a = 1e20: -4.25e-21 +- 1e-10 i)
    keeps its imaginary part."""
    lam = complex(lam.real, abs(lam.imag))
    return complex(lam.real, 0.0) if lam.imag <= 1e-9 * abs(lam) else lam


def _lambert_w(x: float, k: int) -> complex:
    """W_k(x), the branch k of the Lambert function (w e^w = x), at a real x;
    x != 0 unless k = 0.

    Halley's iteration on f(w) = w e^w - x (Corless, Gonnet, Hare, Jeffrey
    & Knuth, Adv. Comput. Math. 5, 1996), from the branch-point series -1 +
    p - p^2/3 + 11 p^3/72, p = +-sqrt(2 (e x + 1)), near -1/e on k = 0 and
    -1; from log(1 + x) on k = 0 for small or moderate x; elsewhere from L -
    log L, L = log x + 2 pi i k.  f is divided by e^w on k = 0 (the terms
    stay near w, and exactly w - x where x underflows) and by x on the
    other branches (the terms stay near 1, however far left W_k lies), so
    no term overflows for any finite x.  The iteration stops at the first
    step that does not halve the last: Halley's steps shrink cubically
    until rounding.  Where |e x + 1| <= 1e-13, -1 solves w e^w = x to
    1e-13 relative (f(-1) = -(e x + 1) / e), the residual at which
    _newton_polish accepts a root, and W_0 = W_-1 = -1, the double root:
    the pair -1 +- sqrt(2 (e x + 1)) would lie closer than the Rouché test
    of _local_multiplicity resolves a pair at its rounding.
    """
    t = math.e * x + 1.0
    if k in (0, -1) and abs(t) < 0.25:
        if abs(t) <= 1e-13:
            return complex(-1.0)
        p = cmath.sqrt(2.0 * t) if k == 0 else -cmath.sqrt(2.0 * t)
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    elif k == 0 and -0.3 < x < math.e:
        w = complex(math.log1p(x))
    else:
        big = cmath.log(x) + complex(0.0, _TWO_PI * k)
        w = big - cmath.log(big)
    log_x = cmath.log(x) if k else 0.0
    last = math.inf
    while True:
        if k:
            s = cmath.exp(w - log_x)  # e^w / x
            r, d = w * s - 1.0, s * (w + 1.0)  # f / x, f' / x
        else:
            r, d = w - x * cmath.exp(-w), w + 1.0  # f / e^w, f' / e^w
        step = r / (d - (w + 2.0) * r / (2.0 * w + 2.0))  # f'' / f' = (w + 2) / (w + 1)
        w -= step
        if not abs(step) < 0.5 * last:
            return w
        last = abs(step)


def _lambert_roots(qp: QuasiPolynomial) -> list[complex]:
    """Distinct roots of lambda + a_0 + b_0 e^{-phi lambda} (deg a = 1) in
    closed form, the rightmost first, down to the left edge of the box that
    _certified_top counts over.

    With mu = lambda + a_0, phi mu e^{phi mu} = x = -phi b_0 e^{phi a_0}, so
    the roots are W_k(x) / phi - a_0 on the branches k of the Lambert
    function, and the principal one W_0 is the rightmost (Shinozaki & Mori,
    Automatica 42, 2006); the DCH factor has x = -phi / h_v.  Since W e^W
    = x, W_0 / phi = y e^{-W_0} with y = -b_0 e^{phi a_0}, the form used:
    it keeps y's precision where x = phi y underflows.  W_-1 joins it where
    x lies in (-1/e, 0) and it is real, unless it is W_0 (the double root
    at the branch point); then W_1, W_2, ..., whose real parts decrease,
    until one lies left of lo = s* - _box_margin(s*, phi) (the other
    branches are their conjugates).  Each root is folded and snapped
    (_fold).  Distinct branches are distinct roots, so none is merged into
    a close neighbour: the Rouché disk around one would have to hold both,
    and at phi = 100 it is 1e-7 wide.  With phi = 0 the constructor
    has folded b into a, and the one root is -a_0.  RefinementError where
    x overflows, and where more than _BRANCH_CAP branches past W_0 reach
    the box, more than the box subdivision would find in reasonable time:
    h_v / phi below about 1.4e-36 where phi <= 1, and some 1e5 branches at
    h_v = 1e-308, phi = 0.15.
    """
    a0, b0, phi = qp.a[0], qp.b[0], qp.phi
    if phi == 0.0:
        return [complex(-a0)]
    try:
        y = -b0 * math.exp(phi * a0)
    except OverflowError:
        y = math.inf
    x = phi * y
    if not math.isfinite(x):
        raise RefinementError("Lambert-W argument -phi b_0 e^{phi a_0} is not finite")
    w0 = _lambert_w(x, 0)
    roots = [_fold(y * cmath.exp(-w0) - a0)]
    if -1.0 / math.e < x < 0.0 and (lower := _lambert_w(x, -1)) != w0:
        roots.append(_fold(lower / phi - a0))
    if x == 0.0:  # W_k(0) = -inf off the principal branch
        return roots
    lo = roots[0].real - _box_margin(roots[0].real, phi)
    for k in range(1, _BRANCH_CAP + 1):
        lam = _lambert_w(x, k) / phi - a0
        if not lam.real >= lo:  # also nan
            return roots
        roots.append(_fold(lam))
    raise RefinementError(f"more than {_BRANCH_CAP} Lambert-W branches reach the box")


def _quadratic_roots(c2: float, c1: float, c0: float) -> list[complex]:
    """The finite roots of c2 x^2 + c1 x + c0, with the coefficients scaled
    to at most 1 (no product overflows) and in the cancellation-free form
    q / c2, c0 / q, q = -(c1 + sign(c1) sqrt(c1^2 - 4 c2 c0)) / 2."""
    scale = max(abs(c2), abs(c1), abs(c0))
    if not 0.0 < scale < math.inf:  # also nan
        return []
    c2, c1, c0 = c2 / scale, c1 / scale, c0 / scale
    q = -0.5 * (c1 + math.copysign(1.0, c1) * cmath.sqrt(c1 * c1 - 4.0 * c2 * c0))
    if q == 0.0:  # c1 = c0 = 0
        return [0j]
    return [r for r in ([q / c2] if c2 else []) + [c0 / q] if cmath.isfinite(r)]


def _closed_form_roots(qp: QuasiPolynomial) -> list[complex]:
    """Distinct roots of a degree-2 p = lambda^2 + a_1 lambda + a_0 + (b_1
    lambda + b_0) e^{-phi lambda}, Newton-polished from seeds in closed
    form, down to the left edge of the box that _certified_top counts over
    (the seeding of rightmost_root for the extended factor).

    The small roots are seeded by those of the quadratic that truncating
    e^{-phi lambda} after phi^2 lambda^2 / 2 gives, (1 - b_1 phi + b_0
    phi^2 / 2) lambda^2 + (a_1 + b_1 - b_0 phi) lambda + a_0 + b_0, exact at
    phi = 0 (_quadratic_roots).  Where lambda^2 outweighs a and b_1 lambda
    outweighs b_0, lambda e^{phi lambda} ~ -b_1: the chain of roots near
    W_k(-phi b_1) / phi on the branches of the Lambert function (Corless et
    al. 1996), as for the DCH factor (_lambert_roots).  Its seeds are W_0,
    where that asymptotic form holds ((|a_1| + |b_0 / b_1| + |a_0| / |s|) /
    |s| < 1 at the seed s; elsewhere Newton from it wanders, along the real
    axis for a real seed), and W_-1 where it is real, the form holds and
    one Newton step from it lies right of lo = s* - _box_margin(s*, phi), s* the rightmost
    root so far; then W_1, W_2, ..., whose real parts decrease, until one
    Newton step from one lies left of lo (the other branches are their
    conjugates).  The step matters: the asymptotic seed misplaces a chain
    root by about |b_0 / (b_1 lambda)| / phi, more than the box margin at
    h_a / (h_v phi) ~ 1e-7.  Where a_0 or a_1 is not 0, the roots of a(lambda)
    = lambda^2 + a_1 lambda + a_0 seed last, so they move no stop of the
    chain: where |e^{-phi lambda}| is small, roots lie near them, off the
    chain and off the quadratic's roots (at a = (79.8, 0, 1), b = (0.101,
    27.2), phi = 6.07 the rightmost pair, 0.530 +- 8.823i, lies 0.54 from
    a's roots +- 8.933i).  Newton polishes each seed (_newton_polish), and
    the root it reaches is folded (_fold); a stop beside a multiple root is
    left for _recentred to move.  A root within 1e-6 (u + |r|) of a root r
    found before is dropped, u the largest modulus of the quadratic's
    roots (1 without any): the distance scales with p's own, so the real
    pair of h_a lambda^2 + (h_v - phi) lambda + 1 at h_a = 1e30, 2e-15
    apart, stays two roots.  At most _BRANCH_CAP branches past W_0 are
    seeded, the cap of _lambert_roots; the box count finds what the seeds
    miss (_certified_top).  RefinementError where -phi b_1 is not finite.
    """
    (a0, a1, _), (b0, b1), phi = qp.a, qp.b, qp.phi
    small = _quadratic_roots(1.0 - b1 * phi + b0 * phi * phi / 2.0, a1 + b1 - b0 * phi, a0 + b0)
    unit = max(map(abs, small), default=1.0)
    roots: list[complex] = []

    def polish(seed: complex) -> None:
        if (lam := _newton_polish(qp, seed)) is not None:
            lam = _fold(lam)
            if not any(abs(lam - r) <= 1e-6 * (unit + abs(r)) for r in roots):
                roots.append(lam)

    def in_box(seed: complex) -> bool:
        """Whether one Newton step from seed lies right of lo."""
        if not roots:
            return True
        with contextlib.suppress(OverflowError, ZeroDivisionError):
            fval, dval, _ = qp.newton_terms(seed)
            seed -= fval / dval
        right = max(r.real for r in roots)
        return seed.real >= right - _box_margin(right, phi)  # nan is not

    def asymptotic(seed: complex) -> bool:
        """Whether b_1 lambda outweighs b_0, and lambda^2 outweighs a, at seed."""
        r = abs(seed)
        return r > 0.0 and (abs(a1) + abs(b0 / b1) + abs(a0) / r) / r < 1.0

    for seed in small:
        if seed.imag >= 0.0:  # a complex pair seeds once
            polish(seed)
    if phi and b1:
        x = -phi * b1
        if not math.isfinite(x):
            raise RefinementError("Lambert-W argument -phi b_1 is not finite")
        w0 = _lambert_w(x, 0)
        seed = -b1 * cmath.exp(-w0)  # W_0 / phi, kept where x underflows
        if asymptotic(seed):
            polish(seed)
        if (-1.0 / math.e < x < 0.0 and (lower := _lambert_w(x, -1)) != w0
                and asymptotic(seed := lower / phi) and in_box(seed)):
            polish(seed)
        for k in range(1, _BRANCH_CAP + 1):
            if not x or not in_box(seed := _lambert_w(x, k) / phi):  # W_k(0) = -inf off W_0
                break
            polish(seed)
    # last, so that they move no stop of the chain listing above
    for seed in _quadratic_roots(1.0, a1, a0) if a0 or a1 else ():
        if seed.imag >= 0.0:
            polish(seed)
    return roots


def _scaled_taylor(
    coeffs: tuple[float, ...], center: complex, radius: float
) -> tuple[list[complex], float]:
    """Ascending coefficients of u -> c(center + radius u) for the ascending
    coefficients of c, by repeated synthetic division (Horner), and a
    running bound of the sum of their rounding errors, in units of
    _COUNT_ROUNDING (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, Alg. 5.1): each step rest[j] += center
    rest[j-1] adds |center| times the bound of rest[j-1] and |rest[j]|, and
    each coefficient its own magnitude for the scaling by radius^k."""
    rest, out, bound = list(reversed(coeffs)), [], 0.0
    error = [0.0] * len(rest)
    r = abs(center)
    while rest:
        for j in range(1, len(rest)):
            rest[j] += center * rest[j - 1]
            error[j] += r * error[j - 1] + abs(rest[j])
        scale = radius ** len(out)
        value = rest.pop()
        out.append(value * scale)
        bound += (error.pop() + abs(value)) * scale
    return out, bound


def _local_multiplicity(qp: QuasiPolynomial, root: complex, roots: list[complex]) -> int:
    """Multiplicity of a root, by Rouché's theorem on the disk |h| <= rho
    around it, rho = _disk_radius(root, phi) and at most a third
    of the distance to every other root of roots and every conjugate.

    On the disk p(root + rho u) = sum_k c_k u^k, the c_k the Taylor
    coefficients scaled by rho^k: a's (A_k) and b's (B_i) by synthetic
    division, b's multiplied by the series of e^{-phi (root + rho u)}.
    Beyond order m the remainder on |u| = 1 is at most sum_{k>m} |A_k|
    plus e^{-phi Re root} e^{phi rho} sum_i |B_i| (phi rho)^{m-i+1} /
    (m-i+1)!, with the whole e^{phi rho} |B_i| where i > m.  The
    multiplicity is the least m with |c_m| > sum_{k<m} |c_k| + remainder +
    rounding: then p - c_m u^m is smaller than c_m u^m on the circle, and p
    has m roots in the disk, as c_m u^m does.  m runs up to 2n >= deg a +
    deg b + 1, the most a root of a + b e^{-phi lambda} can have.  The
    rounding bounds the errors of the computed c_k: _COUNT_ROUNDING times
    the running bounds of the synthetic divisions (_scaled_taylor), b's
    widened by e^{-phi Re root} e^{phi rho} (1 + phi (|root| + rho)) as
    _root_count widens its own.  At the triple root of (lambda + 1)^3 it
    is 8 ulps times 3, below rho^3 = 8e-15.
    RefinementError where no m passes.
    """
    phi = qp.phi
    radius = _disk_radius(root, phi)
    for other in roots:
        for image in (other, other.conjugate()):
            dist = abs(root - image)
            if dist > 0.0:
                radius = min(radius, dist / 3.0)
    top = 2 * len(qp.b)
    a, a_error = _scaled_taylor(qp.a, root, radius)
    a += [0.0] * (top - len(qp.a) + 1)
    b, b_error = _scaled_taylor(qp.b, root, radius)
    t = phi * radius
    series = [1.0]  # e^{-t u} = sum_j series[j] u^j; |series[j]| = t^j / j!
    for j in range(1, top + 2):
        series.append(-series[-1] * t / j)
    try:
        delayed = cmath.exp(-phi * root)
        decay = math.exp(t - phi * root.real)  # max of |e^{-phi lambda}| on the disk
    except OverflowError:
        raise RefinementError(f"quasi-polynomial is not finite around root {root}") from None
    c = [a[k] + delayed * sum(b[i] * series[k - i] for i in range(min(k + 1, len(b))))
         for k in range(top + 1)]
    rounding = _COUNT_ROUNDING * (a_error + decay * (1.0 + phi * (abs(root) + radius)) * b_error)
    below = 0.0  # sum_{k<m} |c_k|
    for m in range(1, top + 1):
        below += abs(c[m - 1])
        tail = sum(map(abs, a[m + 1:])) + decay * sum(
            abs(bi * series[m - i + 1]) if i <= m else abs(bi) for i, bi in enumerate(b)
        )
        if abs(c[m]) > below + tail + rounding:
            return m
    raise RefinementError(f"could not certify the multiplicity of root {root}")


def _schroder(qp: QuasiPolynomial, lam: complex, m: int) -> complex:
    """The last point of Schröder's iteration lam <- lam - m p / p' (Math.
    Ann. 2, 1870) from lam while |p| decreases: quadratic at a root of
    multiplicity m, where Newton's (m = 1) creeps."""
    with contextlib.suppress(OverflowError, ZeroDivisionError):
        fval, dval, _ = qp.newton_terms(lam)
        for _ in range(80):
            cand = lam - m * fval / dval
            terms = qp.newton_terms(cand)
            if not abs(terms[0]) < abs(fval):
                break
            lam, (fval, dval, _) = cand, terms
    return lam


def _recentred(qp: QuasiPolynomial, root: complex, roots: list[complex]) -> tuple[complex, int]:
    """(centre, multiplicity) for a root that _local_multiplicity refuses,
    such as a Newton stop whose disk misses the multiple root beside it.

    Schröder's step for m = 2, 3, ..., 2n moves it (again from the real
    part of the point reached where that lies within 1e-6 of the axis
    relative to its modulus), and the Rouché test runs at the point
    reached.  The first that passes replaces root in roots, and drops the
    roots within twice its move plus the disk's radius: the other stops
    around the same multiple root.  This is the root search's one rescue
    beside a multiple root.  RefinementError where none passes."""
    radius = _disk_radius(root, qp.phi)
    for m in range(2, 2 * len(qp.b) + 1):
        lam = _fold(_schroder(qp, root, m))
        if 0.0 < lam.imag <= 1e-6 * abs(lam):
            lam = _fold(_schroder(qp, complex(lam.real), m))
        reach = 2.0 * abs(lam - root) + radius
        others = [lam if r is root else r for r in roots if r is root or abs(r - lam) > reach]
        with contextlib.suppress(RefinementError):
            multiplicity = _local_multiplicity(qp, lam, others)
            roots[:] = others
            return lam, multiplicity
    raise RefinementError(f"could not certify the multiplicity of root {root}")


def _weight(box: tuple[float, float, float, float], root: complex) -> int:
    """How often _root_count counts a simple root, root (Im >= 0), over box:
    with its conjugate where box is symmetric about the real axis."""
    left, right, bottom, top = box
    if not (left < root.real < right and root.imag < top):
        return 0
    if bottom == -top:
        return 2 if root.imag else 1
    return int(bottom < root.imag)


def _counted(
    qp: QuasiPolynomial, box: tuple[float, float, float, float], roots: list[complex]
) -> int:
    """What _root_count should count over box from roots: each with the
    multiplicity that _local_multiplicity proves, or _recentred where it
    refuses one (which updates roots)."""
    total = 0
    for root in list(roots):
        if root in roots and (weight := _weight(box, root)):  # else dropped by _recentred
            try:
                multiplicity = _local_multiplicity(qp, root, roots)
            except RefinementError:
                root, multiplicity = _recentred(qp, root, roots)
                weight = _weight(box, root)
            total += weight * multiplicity
    return total


def _missing_roots(
    qp: QuasiPolynomial, box: tuple[float, float, float, float], roots: list[complex]
) -> None:
    """Appends to roots those of box that they miss, in one pass (Delves &
    Lyness, Math. Comp. 21, 1967).

    The box is halved in Re and in Im: a box symmetric about the real axis
    into two symmetric parts and two above them, any other into quarters.
    Where the count of a part (_root_count) exceeds the roots found in it
    (_counted), Newton starts from its centre, or from that of its upper
    half (_newton_polish), and appends the folded root (_fold) unless it
    lies within 1e-6 (1 + |r|) of a root r found; a part whose count still
    exceeds its roots is split in turn, down to the Rouché disk's radius at
    its centre (_disk_radius)."""
    def centre(left: float, right: float, bottom: float, top: float) -> complex:
        return complex(0.5 * (left + right), 0.5 * (top + max(bottom, 0.0)))

    parts = [box]
    while parts:
        left, right, bottom, top = parts.pop()
        mid = centre(left, right, bottom, top)
        if right - left <= _disk_radius(mid, qp.phi):
            continue
        cut = mid.imag
        rows = ((-cut, cut), (cut, top)) if bottom == -top else ((bottom, cut), (cut, top))
        halves = ((left, mid.real), (mid.real, right))
        for part in [(lo, hi, b, t) for lo, hi in halves for b, t in rows]:
            count, _ = _root_count(qp, *part)
            if count <= _counted(qp, part, roots):
                continue
            if (lam := _newton_polish(qp, centre(*part))) is not None:
                lam = _fold(lam)
                if not any(abs(lam - r) <= 1e-6 * (1.0 + abs(r)) for r in roots):
                    roots.append(lam)
            if count > _counted(qp, part, roots):
                parts.append(part)


def _certified_top(qp: QuasiPolynomial, roots: list[complex], seeding: str) -> complex:
    """The rightmost of roots, once the box count certifies that no root of
    p lies right of it (rightmost_root); RefinementError otherwise.

    Where the count exceeds the roots found, _missing_roots finds the
    others, and the box is built around the new rightmost root and counted
    again, until the counts match or the roots repeat a list that did not
    match.  With no roots, the box [s, R(s)] x [-R(s), R(s)] is counted
    from s = delta = _box_margin(0, phi) leftward, s <- 2 s - 3 delta (its
    left edges miss 0, a root wherever a_0 = b_0 = 0), until its count is
    not 0."""
    roots, tried = list(roots), set()  # the lists of roots counted in vain
    lo = delta = _box_margin(0.0, qp.phi)
    while True:
        if roots:
            top = max(roots, key=lambda r: r.real)
            delta = _box_margin(top.real, qp.phi)
            lo = top.real - delta
        half = max(_root_bound(qp, lo), delta)
        if not math.isfinite(half):
            raise RefinementError(f"root bound is not finite at Re = {lo:g}")
        box = (lo, half, -half, half)
        winding, _ = _root_count(qp, *box)
        expected = _counted(qp, box, roots)
        if expected == winding:
            if roots:
                return max(roots, key=lambda r: r.real)
            lo = 2.0 * lo - 3.0 * delta
            continue
        if tuple(roots) in tried:
            raise RefinementError(
                f"winding count {winding} != {expected} roots found (conjugates included;"
                f" seeded from {seeding})"
            )
        tried.add(tuple(roots))
        if expected < winding:
            _missing_roots(qp, box, roots)


def rightmost_root(qp: QuasiPolynomial) -> complex:
    """The root of p with the largest real part, certified.

    Seeds: the Lambert-W branches for deg a = 1, the DCH factor
    (_lambert_roots); Newton from closed forms for deg a = 2, the extended
    factor (_closed_form_roots); none for deg a >= 3.  With s* the
    rightmost root found, the box [lo, R(lo)] x [-R, R], lo = s* -
    _box_margin(s*, phi), holds every root with Re >= lo, and its
    argument-principle count (_root_count) must equal the roots found in
    it, each with the multiplicity that Rouché's theorem proves
    (_local_multiplicity, after Schröder's step where a Newton stop lies
    beside a multiple root: _recentred).  Where the count is higher, the
    box is subdivided (_missing_roots) and counted again around the new
    rightmost root (_certified_top).  Over the paper's ranges the seeds
    match the first count.  RefinementError when the Lambert-W listing
    fails, when R or p is not finite on a box, when a count reaches its
    cap, or when the subdivision finds nothing that the count misses.
    """
    if len(qp.b) == 1:
        return _certified_top(qp, _lambert_roots(qp), "the Lambert-W branches")
    if len(qp.b) == 2:
        return _certified_top(qp, _closed_form_roots(qp), "the closed-form seeds")
    return _certified_top(qp, [], "the box count")


def properness_root_check(policy: SpacingPolicy, params: VehicleParams) -> StabilityVerdict:
    """Properness via the certified rightmost root of the internal dynamics.

    Builds the policy's one-delay quasi-polynomial and reports stable iff
    its rightmost root (rightmost_root: certified over a box that the bound
    R sizes, not over a heuristic rectangle) lies left of the imaginary
    axis.  The sign is read only outside the rounding band |Re| <= 1e-9
    |root| (a relative band: the DCH root near -1/h_v is stable for every
    h_v > 2 phi / pi, however large); a root inside it raises
    RefinementError, since Newton's stop does not resolve its real part.
    """
    phi = params.phi
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        qp = QuasiPolynomial.dch_internal(policy.h_v, phi)
    elif policy.kind is PolicyKind.DELAYED_EXTENDED_HEADWAY:
        qp = QuasiPolynomial.extended_internal(policy.h_v, policy.h_a, phi)
    else:
        raise ValueError("root check applies to the headway policies only")
    root = rightmost_root(qp)
    if abs(root.real) <= ROOT_STABLE_TOL * abs(root):
        raise RefinementError(f"rightmost root {root:.6g} is within rounding of the imaginary axis")
    return StabilityVerdict(bool(root.real < 0.0), "root-search", rightmost_root=root)


def stability_region_boundary(phi: float, n_points: int) -> np.ndarray:
    """Boundary of the extended-policy properness region in the
    (h_v/h_a, 1/h_a) plane: (w sin(w phi), w^2 cos(w phi)) for w in
    [0, pi/(2 phi)], sampled uniformly including the endpoint limits.
    Raises ValueError, before any allocation, unless 2 <= n_points <=
    MAX_SAMPLES, and for a phi so small that (pi/(2 phi))^2 overflows."""
    if not (math.isfinite(phi) and phi > 0.0):
        raise ValueError("phi must be finite and > 0")
    check_sample_count("n_points", n_points)
    w_max = 0.5 * math.pi / phi
    if not math.isfinite(w_max * w_max):
        raise ValueError(f"phi = {phi:g} is too small: the boundary overflows")
    import numpy as np

    w = np.linspace(0.0, w_max, n_points)
    return np.column_stack((w * np.sin(w * phi), w * w * np.cos(w * phi)))


class L2PairVerdict(Record):
    """Cumulative-energy comparison of follower i against predecessor i-1."""

    follower: int
    ok: bool
    max_violation: float


def l2_string_stability_check(velocity_logs, Ts: float) -> list[L2PairVerdict]:
    """Time-domain L2 string stability on logged velocities.

    velocity_logs is (n_samples, n_vehicles), column 0 the leader.  For each
    consecutive pair the cumulative trapezoidal integral of v^2 must satisfy
    E_i(T) <= E_{i-1}(T) at every sample time; a violation only counts if it
    exceeds 1e-9 of the pair's final cumulative energy.  Raises ValueError
    naming the first non-finite sample.
    """
    import numpy as np

    v = np.asarray(velocity_logs, dtype=float)
    if v.ndim != 2 or v.shape[1] < 2:
        raise ValueError("need a (n_samples, n_vehicles >= 2) velocity array")
    if not np.all(np.isfinite(v)):
        k, i = np.argwhere(~np.isfinite(v))[0].tolist()
        raise ValueError(f"velocity of vehicle {i} at sample {k} is not finite: {v[k, i]}")
    if not (math.isfinite(Ts) and Ts > 0.0):
        raise ValueError("Ts must be finite and > 0")
    # cumulative trapezoidal integral of v^2, 0 at the first sample
    energy = np.zeros_like(v)
    v2 = v * v
    energy[1:] = np.cumsum(Ts * (v2[1:] + v2[:-1]) / 2.0, axis=0)
    verdicts = []
    for i in range(1, v.shape[1]):
        excess = energy[:, i] - energy[:, i - 1]
        max_violation = float(np.max(excess))
        tol = 1e-9 * max(energy[-1, i], energy[-1, i - 1], 1e-300)
        verdicts.append(L2PairVerdict(i, bool(max_violation <= tol), max_violation))
    return verdicts
