"""Frequency-domain and quasi-polynomial stability machinery.

Covers the closed-loop velocity transfer magnitudes under perfect tracking,
the string-stability frequency sweep, rightmost-root search for the two
internal-dynamics quasi-polynomial families (one pass: Newton seeded by
pseudospectral generator eigenvalues, certified by one argument-principle
winding count; a mismatch raises RefinementError, it is not retried), the
properness region boundary, and the time-domain L2 string-stability check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import VehicleParams
from .errors import NoRootError, RefinementError
from .spacing import PolicyKind, SpacingPolicy, StabilityVerdict

__all__ = [
    "QuasiPolynomial",
    "SearchRegion",
    "transfer_magnitude",
    "string_stability_sweep",
    "rightmost_root",
    "properness_root_check",
    "stability_region_boundary",
    "l2_string_stability_check",
    "L2PairVerdict",
]

SWEEP_TOL = 1e-9  # sup |T| <= 1 + SWEEP_TOL counts as string stable
SWEEP_POINTS = 4096  # points of the default sweep grid
ROOT_STABLE_TOL = 1e-9  # Re(rightmost) < -ROOT_STABLE_TOL |rightmost| counts as stable


@dataclass(frozen=True)
class QuasiPolynomial:
    """p(lambda) = sum_k c_k(lambda) e^{-lambda theta_k}, delays theta_k >= 0.

    terms holds (coefficients ascending, delay) pairs.  The two instances
    arising here are lambda + h_v^{-1} e^{-phi lambda} and the extended
    internal dynamics h_a lambda^2 + (h_v lambda + 1) e^{-phi lambda} (the
    latter already normalized by e^{-phi lambda} so all delays are >= 0).
    """

    terms: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("quasi-polynomial needs at least one term")
        for coeffs, delay in self.terms:
            if not (math.isfinite(delay) and delay >= 0.0):
                raise ValueError(f"delays must be finite and >= 0, got {delay}")
            if not (all(map(math.isfinite, coeffs)) and any(c != 0.0 for c in coeffs)):
                raise ValueError("term coefficients must be finite and not all zero")

    @classmethod
    def dch_internal(cls, h_v: float, phi: float) -> "QuasiPolynomial":
        """lambda + (1/h_v) e^{-phi lambda}: internal factor of the DCH loop."""
        return cls((((0.0, 1.0), 0.0), ((1.0 / float(h_v),), float(phi))))

    @classmethod
    def extended_internal(cls, h_v: float, h_a: float, phi: float) -> "QuasiPolynomial":
        """h_a lambda^2 + (h_v lambda + 1) e^{-phi lambda}."""
        return cls((((0.0, 0.0, float(h_a)), 0.0), ((1.0, float(h_v)), float(phi))))

    @property
    def max_delay(self) -> float:
        return max(delay for _, delay in self.terms)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        total = np.zeros_like(lam)
        for coeffs, delay in self.terms:
            c = np.full_like(lam, coeffs[-1])
            for coef in reversed(coeffs[:-1]):
                c = c * lam + coef
            total += c * np.exp(-lam * delay) if delay else c
        return total

    def newton_terms(self, lam: complex) -> tuple[complex, complex, float]:
        """(p(lam), p'(lam), residual scale) in one pass over the terms.

        The scale, the reference for |p| residuals, sums the monomial
        magnitudes |c_kj| |lam|^j e^{-Re(lam) theta_k}: per monomial, not per
        term, so it stays above the rounding error of p where a coefficient
        polynomial c_k(lam) cancels.  OverflowError where an exp overflows.
        """
        r = abs(lam)
        p = dp = 0.0j
        scale = 0.0
        for coeffs, delay in self.terms:
            c = dc = 0.0j
            m = 0.0
            for coef in reversed(coeffs):
                dc = dc * lam + c
                c = c * lam + coef
                m = m * r + abs(coef)
            e = cmath.exp(-lam * delay)
            p += c * e
            dp += (dc - delay * c) * e
            scale += m * math.exp(-lam.real * delay)
        return p, dp, max(scale, 1e-300)


@dataclass(frozen=True)
class SearchRegion:
    """Rectangle Re in [re_lo, re_hi], Im in [0, im_hi] (symmetry gives Im < 0)."""

    re_lo: float
    re_hi: float
    im_hi: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.re_lo, self.re_hi, self.im_hi))):
            raise ValueError("search rectangle bounds must be finite")
        if self.re_hi <= self.re_lo or self.im_hi <= 0.0:
            raise ValueError("search rectangle is empty")

    @classmethod
    def default_for(cls, time_scale: float) -> "SearchRegion":
        return cls(-10.0 / time_scale, 5.0 / time_scale, 4.0 * math.pi / time_scale)


def transfer_magnitude(policy: SpacingPolicy, params: VehicleParams, omega):
    """|T(i omega)| of the velocity transfer under perfect tracking.

    Evaluated as 1 / hypot of the real and imaginary parts of 1/T, which
    cannot overflow where |T| is representable: for the constant headway
    policy (w h_v - sin(w phi)) + i cos(w phi), whose squared modulus is
    (w h_v)^2 - 2 w h_v sin(w phi) + 1; the extended denominator splits into
    (1 - h_a w^2 cos(w phi)) + i (h_v w - h_a w^2 sin(w phi)).  The constant
    policy has |T| = 1 at every frequency.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("omega must be >= 0")
    phi = params.phi
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        out = np.ones_like(w)
    elif policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        out = 1.0 / np.hypot(w * policy.h_v - np.sin(w * phi), np.cos(w * phi))
    else:
        hv, ha = policy.h_v, policy.h_a
        re = 1.0 - ha * w * w * np.cos(w * phi)
        im = hv * w - ha * w * w * np.sin(w * phi)
        out = 1.0 / np.hypot(re, im)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def default_sweep_grid(policy: SpacingPolicy, params: VehicleParams, n_grid: int = SWEEP_POINTS):
    """n_grid log-spaced points on [1e-3, omega_max], omega_max = max(10/h_v, 20 pi/phi)."""
    bounds = []
    if policy.h_v > 0.0:
        bounds.append(10.0 / policy.h_v)
    if params.phi > 0.0:
        bounds.append(20.0 * math.pi / params.phi)
    omega_max = max(bounds) if bounds else 1e3
    return np.logspace(-3.0, math.log10(omega_max), n_grid)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo, hi):
    """Maximize f on every bracket [lo[k], hi[k]] at once; returns (x, f(x)).

    Golden-section search (Kiefer 1953) on each bracket, all brackets shrunk
    in lockstep: f takes an array of abscissae and is called once per
    iteration on the new probe of every bracket still moving.  A bracket
    stops once its width is below 1e-10 relative to the magnitude of its
    abscissa (with an absolute floor for intervals at 0), so each bracket
    follows the iterates it would have on its own.  f is assumed unimodal
    on each bracket.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    width = b - a
    c = b - _INVPHI * width
    d = a + _INVPHI * width
    fc, fd = np.split(f(np.concatenate((c, d))), 2)
    x = np.empty_like(a)
    fx = np.empty_like(a)
    slot = np.arange(a.size)  # input position of each bracket still moving
    while slot.size:
        left = fc >= fd
        moving = width > 1e-10 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-30)
        if np.count_nonzero(moving) < slot.size:
            x[slot] = np.where(left, c, d)
            fx[slot] = np.where(left, fc, fd)
            slot, a, b, c, d, fc, fd, left = (
                v[moving] for v in (slot, a, b, c, d, fc, fd, left)
            )
            if not slot.size:
                break
        # fc >= fd keeps [a, d] and probes a new c; otherwise [c, b] and a new d
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        width = b - a
        step = _INVPHI * width
        probe = np.where(left, b - step, a + step)
        fp = f(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return x, fx


@np.errstate(over="ignore", invalid="ignore")  # h_a w^2 overflowing gives |T| = 0
def refined_peak(policy: SpacingPolicy, params: VehicleParams, grid: np.ndarray):
    """(peak_omega, peak_magnitude, grid magnitudes) of |T| on a grid.

    Every local maximum of the grid magnitudes, endpoints included, is
    golden-refined to relative width 1e-10 on the bracket of its two grid
    neighbours; all brackets are refined together in one lockstep pass, so
    |T| is evaluated once per iteration whatever the number of maxima.
    """
    mags = transfer_magnitude(policy, params, grid)
    n = len(grid)
    edged = np.concatenate(([-np.inf], mags, [-np.inf]))
    peaks = np.flatnonzero((edged[1:-1] >= edged[:-2]) & (edged[1:-1] >= edged[2:]))
    w_ref, m_ref = golden_section_max(
        lambda w: transfer_magnitude(policy, params, w),
        grid[np.maximum(peaks - 1, 0)],
        grid[np.minimum(peaks + 1, n - 1)],
    )
    k = int(np.argmax(mags))
    best_w, best_m = float(grid[k]), float(mags[k])
    better = np.flatnonzero(m_ref > best_m)
    if better.size:
        k = better[np.argmax(m_ref[better])]
        best_w, best_m = float(w_ref[k]), float(m_ref[k])
    return best_w, best_m, mags


def string_stability_sweep(policy: SpacingPolicy, params: VehicleParams) -> StabilityVerdict:
    """sup_omega |T(i omega)| over a refined log grid.

    Grid of SWEEP_POINTS log-spaced points on [1e-3, omega_max] with
    omega_max = max(10 / h_v, 20 pi / phi); every local maximum is refined by
    golden section to relative width 1e-10, all maxima in one lockstep pass
    (refined_peak).  Stable iff sup <= 1 + 1e-9.
    """
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        return StabilityVerdict(
            True, "sweep", peak_omega=0.0, peak_magnitude=1.0,
            detail="|T| = 1 identically",
        )
    grid = default_sweep_grid(policy, params)
    best_w, best_m, _ = refined_peak(policy, params, grid)
    return StabilityVerdict(
        bool(best_m <= 1.0 + SWEEP_TOL),
        "sweep",
        peak_omega=float(best_w),
        peak_magnitude=float(best_m),
    )


def _contour_values(qp: QuasiPolynomial, z: np.ndarray, contour: str) -> np.ndarray:
    """p on contour points; RefinementError where it is not finite or 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = qp(z)
    if not np.all(np.isfinite(f)):
        raise RefinementError(f"quasi-polynomial is not finite on the {contour}")
    if np.any(f == 0.0):
        raise RefinementError(f"root on the {contour}")
    return f


def _turns(f: np.ndarray) -> float:
    """Winding of the closed polygon f around 0, in turns."""
    return float(np.sum(np.angle(np.roll(f, -1) / f)) / (2.0 * math.pi))


def _winding_number(qp: QuasiPolynomial, region: SearchRegion) -> int:
    """Winding of p around 0 along the conjugate-symmetric rectangle boundary.

    The contour covers Im in [-im_hi, im_hi] so that real roots sit strictly
    inside it.  The count over 8192 points must lie within 1e-3 of an integer
    that the count over its 4096 even points rounds to as well; otherwise
    RefinementError.  Each side carries c0 + (c1 - c0) j / m, so the even
    points are bitwise the 4096 of the first pass and only the odd are new.
    """
    lo, hi = complex(region.re_lo, -region.im_hi), complex(region.re_hi, region.im_hi)
    corners = [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)]

    def evaluate(j: np.ndarray, m: int) -> np.ndarray:
        z = np.concatenate(
            [c0 + (c1 - c0) * (j / m) for c0, c1 in zip(corners, corners[1:] + corners[:1])]
        )
        return _contour_values(qp, z, "winding contour")

    coarse = evaluate(np.arange(1024), 1024)
    f = np.empty(8192, dtype=complex)
    f[0::2] = coarse
    f[1::2] = evaluate(np.arange(1, 2048, 2), 2048)
    winding = _turns(f)
    rounded = round(winding)
    if abs(winding - rounded) < 1e-3 and round(_turns(coarse)) == rounded:
        return rounded
    raise RefinementError("winding number did not stabilize")


def _newton_polish(qp: QuasiPolynomial, lam0: complex) -> complex | None:
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
    if abs(fval) <= 1e-11 * scale:
        return lam
    return None


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as RefinementError
def _generator_matrix(qp: QuasiPolynomial) -> np.ndarray:
    """Chebyshev pseudospectral generator of the delay equation behind p.

    With a (degree n) the sum of the delay-free terms and b_k the delayed
    ones, p is the characteristic function of a_n x^(n)(t) = -sum_j (a_j
    x^(j)(t) + sum_k b_kj x^(j)(t - theta_k)).  The state (x, ..., x^(n-1))
    on [-theta_max, 0] is collocated at 25 Chebyshev points (Breda,
    Maset & Vermiglio, SIAM J. Sci. Comput. 2005): the first block row is the
    DDE, with a barycentric interpolation row per delay; the others
    differentiate the interpolant.  Without delays it is the companion matrix
    of a.  Raises ValueError for a neutral p (a delayed term of degree >= n)
    and RefinementError when an entry overflows, since no eigenvalue can
    seed the search then.
    """
    delays = np.array([delay for _, delay in qp.terms])
    coeffs = np.zeros((len(delays), max(len(c) for c, _ in qp.terms)))
    for k, (c, _) in enumerate(qp.terms):
        coeffs[k, : len(c)] = c
    a = coeffs[delays == 0.0].sum(axis=0)
    n = max(np.flatnonzero(a), default=-1)
    if np.any(coeffs[delays > 0.0, max(n, 0):]):
        raise ValueError("neutral quasi-polynomial: a delayed term is not of lower degree")
    n_nodes = 24
    companion = np.eye(n, k=1)
    companion[-1:, :] = -a[:n] / a[n]
    matrix = companion
    if np.any(delays):
        theta = 0.5 * qp.max_delay * (np.cos(math.pi * np.arange(n_nodes + 1) / n_nodes) - 1.0)
        w = np.ones(n_nodes + 1)  # barycentric weights (-1)^j, halved at both ends
        w[[0, -1]] = 0.5
        w[1::2] *= -1.0
        diff = np.outer(1.0 / w, w) / (theta[:, None] - theta[None, :] + np.eye(n_nodes + 1))
        diff -= np.diag(diff.sum(axis=1))
        matrix = np.zeros(((n_nodes + 1) * n, (n_nodes + 1) * n))
        matrix[n:, :] = np.kron(diff[1:], np.eye(n))
        matrix[:n, :n] = companion
        for b, delay in zip(coeffs[delays > 0.0, :n] / a[n], delays[delays > 0.0]):
            offset = -delay - theta
            if np.any(offset == 0.0):
                interp = (offset == 0.0).astype(float)
            else:
                interp = w / offset
                interp /= interp.sum()
            matrix[n - 1, :] -= np.outer(interp, b).ravel()
    if not np.all(np.isfinite(matrix)):
        raise RefinementError("pseudospectral generator overflows: coefficient ratios too large")
    return matrix


def _polish_eigenvalues(
    qp: QuasiPolynomial, region: SearchRegion, generator: np.ndarray
) -> list[complex]:
    """Distinct roots inside the rectangle, Newton-polished from eigenvalues.

    Eigenvalues in the upper half of the rectangle padded by a tenth of its
    size seed damped Newton; a conjugate pair closer than the dedupe distance
    (as a double real root discretizes) seeds its real part first.  Roots
    are folded into the upper half plane and deduplicated.
    """
    pad_re, pad_im = 0.1 * (region.re_hi - region.re_lo), 0.1 * region.im_hi
    seeds: list[complex] = []
    for lam in np.linalg.eigvals(generator):
        if (region.re_lo - pad_re <= lam.real <= region.re_hi + pad_re
                and 0.0 <= lam.imag <= region.im_hi + pad_im):
            if 0.0 < lam.imag <= 0.5e-6 * (1.0 + abs(lam)):
                seeds.append(complex(lam.real))
            seeds.append(complex(lam))

    axis_tol = 1e-9
    roots: list[complex] = []
    for seed in seeds:
        lam = _newton_polish(qp, seed)
        if lam is None:
            continue
        if lam.imag < 0.0:  # conjugate symmetry: fold into the upper half plane
            lam = lam.conjugate()
        if abs(lam.imag) <= axis_tol * (1.0 + abs(lam)):
            lam = complex(lam.real, 0.0)
        if not (region.re_lo <= lam.real <= region.re_hi and lam.imag <= region.im_hi):
            continue
        if any(abs(lam - r) <= 1e-6 * (1.0 + abs(r)) for r in roots):
            continue
        roots.append(lam)
    return roots


def _local_multiplicity(qp: QuasiPolynomial, root: complex, roots: list[complex]) -> int:
    """Multiplicity of a root from the winding of p on a 256-point circle
    that keeps every other root of roots, and every conjugate, outside."""
    radius = 1e-5 * (1.0 + abs(root))
    for other in roots:
        for image in (other, other.conjugate()):
            dist = abs(root - image)
            if dist > 0.0:
                radius = min(radius, dist / 3.0)
    z = root + radius * np.exp(2j * math.pi * np.arange(256) / 256)
    winding = _turns(_contour_values(qp, z, f"circle around root {root}"))
    rounded = round(winding)
    if abs(winding - rounded) < 1e-3 and rounded >= 1:
        return rounded
    raise RefinementError(f"could not certify the multiplicity of root {root}")


def rightmost_root(qp: QuasiPolynomial, region: SearchRegion) -> complex:
    """Root with the largest real part inside the search rectangle.

    Seeds damped Newton iterations at the eigenvalues of a 24-node Chebyshev
    pseudospectral discretization of the delay equation's generator,
    deduplicates, and certifies the root count (with multiplicity) against
    an argument-principle winding integral over the conjugate-symmetric
    rectangle.  Raises ValueError for a neutral quasi-polynomial,
    NoRootError when the rectangle is certified empty and RefinementError
    when the certificate is not met.
    """
    generator = _generator_matrix(qp)
    winding = _winding_number(qp, region)
    roots = _polish_eigenvalues(qp, region, generator)
    # winding counts every root inside the mirrored rectangle with its
    # multiplicity, so complex roots found in the upper half count twice
    expected = sum(_local_multiplicity(qp, r, roots) * (2 if r.imag else 1) for r in roots)
    if expected != winding:
        raise RefinementError(
            f"winding count {winding} != {expected} roots found (conjugates included)"
        )
    if not roots:
        raise NoRootError("no quasi-polynomial root inside the search rectangle")
    return max(roots, key=lambda r: r.real)


def _extended_root_bound(policy: SpacingPolicy, phi: float, region: SearchRegion) -> SearchRegion:
    """The rectangle with re_hi doubled until no extended root of its strip
    lies beyond it.

    A root with Re = s >= 0 and |Im| <= im_hi has h_a s^2 <= |h_a lambda^2|
    = |h_v lambda + 1| e^{-phi s} <= (h_v (s + im_hi) + 1) e^{-phi s}.  The
    left side grows with s; the right side falls (phi im_hi >= 1) or, at
    phi = 0, grows linearly.  So once the inequality fails it fails for
    every larger s.  Small h_a puts roots near W_0(-phi h_v / h_a) / phi,
    beyond the default 5 / phi.
    """
    def room(s: float) -> bool:
        bound = (policy.h_v * (s + region.im_hi) + 1.0) * math.exp(-phi * s)
        return policy.h_a * s * s <= bound

    re_hi = region.re_hi
    while room(re_hi):
        re_hi *= 2.0
    return SearchRegion(region.re_lo, re_hi, region.im_hi)


def properness_root_check(policy: SpacingPolicy, params: VehicleParams) -> StabilityVerdict:
    """Properness via the rightmost root of the internal dynamics.

    Builds the policy's quasi-polynomial, searches the default rectangle
    (Re in [-10/phi, 5/phi], Im up to 4 pi / phi; for the extended policy
    Re reaches past every root of that strip) and reports stable iff the
    rightmost root lies left of the imaginary axis by more than 1e-9 of its
    modulus (a relative test: the DCH root near -1/h_v is stable for every
    h_v > 2 phi / pi, however large).
    """
    phi = params.phi
    if policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        qp = QuasiPolynomial.dch_internal(policy.h_v, phi)
        fallback_scale = policy.h_v
    elif policy.kind is PolicyKind.DELAYED_EXTENDED_HEADWAY:
        qp = QuasiPolynomial.extended_internal(policy.h_v, policy.h_a, phi)
        fallback_scale = math.sqrt(policy.h_a)
    else:
        raise ValueError("root check applies to the headway policies only")
    region = SearchRegion.default_for(phi if phi > 0.0 else fallback_scale)
    if policy.kind is PolicyKind.DELAYED_EXTENDED_HEADWAY:
        region = _extended_root_bound(policy, phi, region)
    root = rightmost_root(qp, region)
    return StabilityVerdict(
        bool(root.real < -ROOT_STABLE_TOL * abs(root)),
        "root-search",
        rightmost_root=root,
    )


def stability_region_boundary(phi: float, n_points: int) -> np.ndarray:
    """Boundary of the extended-policy properness region in the
    (h_v/h_a, 1/h_a) plane: (w sin(w phi), w^2 cos(w phi)) for w in
    [0, pi/(2 phi)], sampled uniformly including the endpoint limits.
    Raises ValueError for a phi so small that (pi/(2 phi))^2 overflows."""
    if not (math.isfinite(phi) and phi > 0.0):
        raise ValueError("phi must be finite and > 0")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    w_max = 0.5 * math.pi / phi
    if not math.isfinite(w_max * w_max):
        raise ValueError(f"phi = {phi:g} is too small: the boundary overflows")
    w = np.linspace(0.0, w_max, n_points)
    return np.column_stack((w * np.sin(w * phi), w * w * np.cos(w * phi)))


@dataclass(frozen=True)
class L2PairVerdict:
    """Cumulative-energy comparison of follower i against predecessor i-1."""

    follower: int
    ok: bool
    max_violation: float


def l2_string_stability_check(velocity_logs, Ts: float) -> list[L2PairVerdict]:
    """Time-domain L2 string stability on logged velocities.

    velocity_logs is (n_samples, n_vehicles), column 0 the leader.  For each
    consecutive pair the cumulative trapezoidal integral of v^2 must satisfy
    E_i(T) <= E_{i-1}(T) at every sample time; a violation only counts if it
    exceeds 1e-9 of the pair's final cumulative energy.
    """
    v = np.asarray(velocity_logs, dtype=float)
    if v.ndim != 2 or v.shape[1] < 2:
        raise ValueError("need a (n_samples, n_vehicles >= 2) velocity array")
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
