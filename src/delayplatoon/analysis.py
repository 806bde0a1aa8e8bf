"""Frequency-domain and quasi-polynomial stability machinery.

Covers the closed-loop velocity transfer magnitudes under perfect tracking,
the string-stability frequency sweep, rightmost-root search for the two
internal-dynamics quasi-polynomial families (Newton seeded by pseudospectral
generator eigenvalues, with an argument-principle winding certificate), the
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
ROOT_STABLE_TOL = 1e-9  # Re(rightmost) < -ROOT_STABLE_TOL counts as stable


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

    def eval_scalar(self, lam: complex) -> complex:
        total = 0.0j
        for coeffs, delay in self.terms:
            c = 0.0j
            for coef in reversed(coeffs):
                c = c * lam + coef
            total += c * cmath.exp(-lam * delay)
        return total

    def derivative_scalar(self, lam: complex) -> complex:
        total = 0.0j
        for coeffs, delay in self.terms:
            c = 0.0j
            dc = 0.0j
            for coef in reversed(coeffs):
                dc = dc * lam + c
                c = c * lam + coef
            total += (dc - delay * c) * cmath.exp(-lam * delay)
        return total

    def coefficient_scale(self, lam) -> float:
        """Sum of term magnitudes at lam; reference scale for |p| residuals."""
        lam = complex(lam)
        total = 0.0
        for coeffs, delay in self.terms:
            c = 0.0j
            for coef in reversed(coeffs):
                c = c * lam + coef
            total += abs(c) * math.exp(-lam.real * delay)
        return max(total, 1e-300)

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

    Evaluated from the expanded real forms: for the constant headway policy
    |T|^-2 = (omega h_v)^2 - 2 omega h_v sin(omega phi) + 1; the extended
    denominator splits into (1 - h_a w^2 cos(w phi)) + i (h_v w - h_a w^2
    sin(w phi)).  The constant policy has |T| = 1 at every frequency.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("omega must be >= 0")
    phi = params.phi
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        out = np.ones_like(w)
    elif policy.kind is PolicyKind.DELAYED_CONSTANT_HEADWAY:
        hv = policy.h_v
        inv_sq = (w * hv) ** 2 - 2.0 * w * hv * np.sin(w * phi) + 1.0
        out = 1.0 / np.sqrt(inv_sq)
    else:
        hv, ha = policy.h_v, policy.h_a
        re = 1.0 - ha * w * w * np.cos(w * phi)
        im = hv * w - ha * w * w * np.sin(w * phi)
        out = 1.0 / np.hypot(re, im)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def default_sweep_grid(policy: SpacingPolicy, params: VehicleParams, n_grid: int = 4096):
    """Log grid on [1e-3, omega_max], omega_max = max(10/h_v, 20 pi/phi)."""
    n_grid = max(int(n_grid), 4096)
    bounds = []
    if policy.h_v > 0.0:
        bounds.append(10.0 / policy.h_v)
    if params.phi > 0.0:
        bounds.append(20.0 * math.pi / params.phi)
    omega_max = max(bounds) if bounds else 1e3
    return np.logspace(-3.0, math.log10(omega_max), n_grid)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, rel_tol: float = 1e-10):
    """Maximize a unimodal f on [lo, hi]; returns (x, f(x)).

    The interval is shrunk until its width is below rel_tol relative to the
    magnitude of the abscissa (with an absolute floor for intervals at 0).
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * max(abs(a), abs(b), 1e-30):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def refined_peak(policy: SpacingPolicy, params: VehicleParams, grid: np.ndarray):
    """(peak_omega, peak_magnitude, grid magnitudes): every local maximum of
    |T| on the grid golden-refined to relative width 1e-10."""
    mags = transfer_magnitude(policy, params, grid)

    def mag(w: float) -> float:
        return transfer_magnitude(policy, params, w)

    n = len(grid)
    best_w = float(grid[int(np.argmax(mags))])
    best_m = float(np.max(mags))
    candidates = set(
        (np.flatnonzero((mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:])) + 1).tolist()
    )
    if mags[0] >= mags[1]:
        candidates.add(0)
    if mags[-1] >= mags[-2]:
        candidates.add(n - 1)
    for idx in candidates:
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, n - 1)]
        w_ref, m_ref = golden_section_max(mag, lo, hi, rel_tol=1e-10)
        if m_ref > best_m:
            best_w, best_m = w_ref, m_ref
    return best_w, best_m, mags


def string_stability_sweep(
    policy: SpacingPolicy,
    params: VehicleParams,
    n_grid: int = 4096,
) -> StabilityVerdict:
    """sup_omega |T(i omega)| over a refined log grid.

    Grid of n_grid (>= 4096) log-spaced points on [1e-3, omega_max] with
    omega_max = max(10 / h_v, 20 pi / phi); every local maximum is refined by
    golden section to relative width 1e-10.  Stable iff sup <= 1 + 1e-9.
    """
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        return StabilityVerdict(
            True, "sweep", peak_omega=0.0, peak_magnitude=1.0,
            detail="|T| = 1 identically",
        )
    grid = default_sweep_grid(policy, params, n_grid)
    best_w, best_m, _ = refined_peak(policy, params, grid)
    return StabilityVerdict(
        bool(best_m <= 1.0 + SWEEP_TOL),
        "sweep",
        peak_omega=float(best_w),
        peak_magnitude=float(best_m),
    )


def _winding_number(qp: QuasiPolynomial, region: SearchRegion) -> int:
    """Winding of p around 0 along the conjugate-symmetric rectangle boundary.

    The contour covers Im in [-im_hi, im_hi] so that real roots sit strictly
    inside it.  Segment count starts at 4096 and doubles until the winding
    number stabilizes on the same integer twice.
    """
    corners = [
        complex(region.re_lo, -region.im_hi),
        complex(region.re_hi, -region.im_hi),
        complex(region.re_hi, region.im_hi),
        complex(region.re_lo, region.im_hi),
    ]
    n = 4096
    previous = None
    while n <= 2**21:
        pts = []
        for c0, c1 in zip(corners, corners[1:] + corners[:1]):
            frac = np.arange(n // 4) / (n // 4)
            pts.append(c0 + (c1 - c0) * frac)
        z = np.concatenate(pts)
        with np.errstate(over="ignore", invalid="ignore"):
            f = qp(z)
        if not np.all(np.isfinite(f)):
            raise RefinementError("quasi-polynomial is not finite on the winding contour")
        if np.any(f == 0.0):
            raise RefinementError("root on the winding contour")
        ratios = np.roll(f, -1) / f
        winding = float(np.sum(np.angle(ratios)) / (2.0 * math.pi))
        rounded = round(winding)
        if abs(winding - rounded) < 1e-3 and previous == rounded:
            return rounded
        previous = rounded
        n *= 2
    raise RefinementError("winding number did not stabilize")


def _newton_polish(qp: QuasiPolynomial, lam0: complex, max_iter: int = 80) -> complex | None:
    lam = complex(lam0)
    try:
        fval = qp.eval_scalar(lam)
    except OverflowError:
        return None
    for _ in range(max_iter):
        if abs(fval) <= 1e-13 * qp.coefficient_scale(lam):
            return lam
        try:
            dval = qp.derivative_scalar(lam)
        except OverflowError:
            return None
        if dval == 0.0:
            return None
        delta = fval / dval
        # damped step: back off until |p| decreases
        scale = 1.0
        for _ in range(25):
            cand = lam - scale * delta
            try:
                fcand = qp.eval_scalar(cand)
            except OverflowError:
                scale *= 0.5
                continue
            if abs(fcand) < abs(fval):
                lam, fval = cand, fcand
                break
            scale *= 0.5
        else:
            break
    if abs(fval) <= 1e-11 * qp.coefficient_scale(lam):
        return lam
    return None


def _generator_matrix(qp: QuasiPolynomial, n_nodes: int) -> np.ndarray:
    """Chebyshev pseudospectral generator of the delay equation behind p.

    With a (degree n) the sum of the delay-free terms and b_k the delayed
    ones, p is the characteristic function of a_n x^(n)(t) = -sum_j (a_j
    x^(j)(t) + sum_k b_kj x^(j)(t - theta_k)).  The state (x, ..., x^(n-1))
    on [-theta_max, 0] is collocated at n_nodes + 1 Chebyshev points (Breda,
    Maset & Vermiglio, SIAM J. Sci. Comput. 2005): the first block row is the
    DDE, with a barycentric interpolation row per delay; the others
    differentiate the interpolant.  Without delays it is the companion matrix
    of a.  Raises ValueError for a neutral p (a delayed term of degree >= n).
    """
    delays = np.array([delay for _, delay in qp.terms])
    coeffs = np.zeros((len(delays), max(len(c) for c, _ in qp.terms)))
    for k, (c, _) in enumerate(qp.terms):
        coeffs[k, : len(c)] = c
    a = coeffs[delays == 0.0].sum(axis=0)
    n = max(np.flatnonzero(a), default=-1)
    if np.any(coeffs[delays > 0.0, max(n, 0):]):
        raise ValueError("neutral quasi-polynomial: a delayed term is not of lower degree")
    companion = np.eye(n, k=1)
    companion[-1:, :] = -a[:n] / a[n]
    if not np.any(delays):
        return companion
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


def _local_multiplicity(qp: QuasiPolynomial, root: complex, others: list[complex]) -> int:
    """Multiplicity of a root from the winding of p on a small circle."""
    radius = 1e-5 * (1.0 + abs(root))
    for other in others:
        for image in (other, other.conjugate()):
            dist = abs(root - image)
            if dist > 0.0:
                radius = min(radius, dist / 3.0)
    if root.imag > 0.0:
        radius = min(radius, 2.0 * root.imag / 3.0)  # keep the conjugate outside
    n = 256
    while n <= 4096:
        z = root + radius * np.exp(2j * math.pi * np.arange(n) / n)
        f = qp(z)
        if np.any(f == 0.0):
            break
        winding = float(np.sum(np.angle(np.roll(f, -1) / f)) / (2.0 * math.pi))
        rounded = round(winding)
        if abs(winding - rounded) < 1e-3 and rounded >= 1:
            return rounded
        n *= 2
    raise RefinementError(f"could not certify the multiplicity of root {root}")


def rightmost_root(qp: QuasiPolynomial, region: SearchRegion) -> complex:
    """Root with the largest real part inside the search rectangle.

    Seeds damped Newton iterations at the eigenvalues of a 24-node Chebyshev
    pseudospectral discretization of the delay equation's generator,
    deduplicates, and certifies the root count (with multiplicity) against
    an argument-principle winding integral over the conjugate-symmetric
    rectangle.  On a certificate mismatch the node count is doubled, up to
    96.  Raises ValueError for a neutral quasi-polynomial, NoRootError when
    the rectangle is certified empty and RefinementError when the
    certificate cannot be met.
    """
    n_nodes = 24
    generator = _generator_matrix(qp, n_nodes)
    winding = _winding_number(qp, region)
    expected = -1
    for _ in range(3):
        roots = _polish_eigenvalues(qp, region, generator)
        # winding counts every root inside the mirrored rectangle with its
        # multiplicity, so complex roots found in the upper half count twice
        expected = 0
        for r in roots:
            others = [o for o in roots if o is not r]
            expected += _local_multiplicity(qp, r, others) * (1 if r.imag == 0.0 else 2)
        if expected == winding:
            if not roots:
                raise NoRootError("no quasi-polynomial root inside the search rectangle")
            return max(roots, key=lambda r: r.real)
        n_nodes *= 2
        generator = _generator_matrix(qp, n_nodes)
    raise RefinementError(
        f"winding count {winding} != {expected} roots found (conjugates included)"
    )


def properness_root_check(
    policy: SpacingPolicy,
    params: VehicleParams,
    region: SearchRegion | None = None,
) -> StabilityVerdict:
    """Properness via the rightmost root of the internal dynamics.

    Builds the policy's quasi-polynomial, searches the default rectangle
    (Re in [-10/phi, 5/phi], Im up to 4 pi / phi), and reports stable iff
    the rightmost real part is below -1e-9.
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
    if region is None:
        region = SearchRegion.default_for(phi if phi > 0.0 else fallback_scale)
    root = rightmost_root(qp, region)
    return StabilityVerdict(
        bool(root.real < -ROOT_STABLE_TOL),
        "root-search",
        rightmost_root=root,
    )


def stability_region_boundary(phi: float, n_points: int) -> np.ndarray:
    """Boundary of the extended-policy properness region in the
    (h_v/h_a, 1/h_a) plane: (w sin(w phi), w^2 cos(w phi)) for w in
    [0, pi/(2 phi)], sampled uniformly including the endpoint limits."""
    if not (math.isfinite(phi) and phi > 0.0):
        raise ValueError("phi must be finite and > 0")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    w = np.linspace(0.0, 0.5 * math.pi / phi, n_points)
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
