"""A seeded census of the certified root search: `rightmost_root` on
families of random quasi-polynomials, against the independent oracles of
oracles.py.

Each family is drawn from its own fixed seed (`random.Random`), so a draw
is the same on every run and on every tree:

- paper: phi U(0.05, 0.3); even draws DCH with h_v log-uniform on [0.01,
  10], odd draws extended with h_v on [0.03, 3] and h_a on [1e-4, 1e3];
- wide: phi log-uniform on [1e-3, 1e3], h_v / phi on [1e-2, 1e2], two draws
  in three extended with h_a / (h_v phi) on [1e-3, 1e3];
- dch-double: DCH with h_v = e phi (1 +- 10^U(-12, -1)), phi log-uniform on
  [1e-2, 1e2], next to the double real root at h_v = e phi;
- dch-boundary: DCH with h_v = 2 phi / pi (1 + U(-1e-3, 1e-3)), phi as
  above, next to the properness boundary;
- ext-double: the extended policy's double-root curve, h_v / phi
  log-uniform on [6, 100], phi U(0.05, 0.3), either root of phi h_v
  lambda^2 + (h_v + phi) lambda + 2 = 0 and h_a = -(h_v lambda + 1)
  e^{-phi lambda} / lambda^2;
- huge-ha: extended with h_v log-uniform on [1e-3, 1e3], h_a = 10^U(16,
  305), phi U(0.05, 0.3);
- degree-2: lambda^2 + a_1 lambda + a_0 + (b_1 lambda + b_0) e^{-phi
  lambda}, each coefficient 0 with probability 0.1, else of either sign
  (positive twice as often) and log-uniform on [1e-2, 1e2] in magnitude,
  phi log-uniform on [1e-2, 10], so b_1 = 0 < phi about once in ten;
- degree-3: lambda^3 + a_2 lambda^2 + a_1 lambda + a_0 + (b_2 lambda^2 +
  b_1 lambda + b_0) e^{-phi lambda}, the coefficients and phi as for
  degree-2.

A draw is inconclusive where `rightmost_root` raises RefinementError.  A
certified root is checked against scipy's W_0 for the DCH factor
(dch_rightmost_root), the pair of h_a lambda^2 + (h_v - phi) lambda + 1 for
huge-ha (small_pair_root), and the 24-node generator's Newton-polished
eigenvalues elsewhere (generator_root).  It is wrong where it is no root
of p (is_root_reference), where a closed-form oracle differs from it by
more than 1e-6 relative, or where the generator's rightmost root lies
more than 1e-6 relative right of it.  Where the generator's rightmost
root lies left of it instead (the eigenvalues missed it), the draw is
unchecked; the box count and the residual check it alone.  The largest
disagreement is the largest relative distance to the oracle over the
other certified draws.

Run from the repository root; --write stores the counts in
census_counts.json, the first 100 draws of each family as well, and
--check compares each family with the stored counts by the rule that
test_census.py applies to the first 100 draws (mismatches), exiting 1 on
a mismatch:

    PYTHONPATH=src python tests/census.py --draws 3000 [--write | --check] [--roots PATH]
"""

import argparse
import json
import math
import random
import sys
from pathlib import Path

from oracles import dch_rightmost_root, generator_root, is_root_reference, small_pair_root

from delayplatoon.analysis import QuasiPolynomial, rightmost_root
from delayplatoon.errors import RefinementError

FAMILIES = (
    "paper", "wide", "dch-double", "dch-boundary", "ext-double", "huge-ha", "degree-2", "degree-3",
)
COUNTS = Path(__file__).with_name("census_counts.json")
FIRST = 100  # draws of each family that the Tier-1 test re-runs
TOL = 1e-6  # relative distance to an oracle beyond which a root is wrong


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _coefficient(rng: random.Random) -> float:
    if rng.random() < 0.1:
        return 0.0
    sign = 1.0 if rng.random() < 2.0 / 3.0 else -1.0
    return sign * _log_uniform(rng, 1e-2, 1e2)


def _double_root(rng: random.Random) -> tuple[float, float, float, float]:
    """(h_v, h_a, phi, lam) of one ext-double draw: lam is a root of phi h_v
    lambda^2 + (h_v + phi) lambda + 2 = 0, and h_a makes it a double root
    of the extended factor."""
    phi = rng.uniform(0.05, 0.3)
    h_v = phi * _log_uniform(rng, 6.0, 100.0)
    disc = (h_v + phi) ** 2 - 8.0 * phi * h_v
    lam = (-(h_v + phi) + rng.choice((-1.0, 1.0)) * math.sqrt(disc)) / (2.0 * phi * h_v)
    h_a = -(h_v * lam + 1.0) * math.exp(-phi * lam) / (lam * lam)
    return h_v, h_a, phi, lam


def double_roots(n: int):
    """The first n ext-double draws as (qp, lam), lam the double root that
    the draw builds h_a from."""
    rng = random.Random(FAMILIES.index("ext-double"))
    for _ in range(n):
        h_v, h_a, phi, lam = _double_root(rng)
        yield QuasiPolynomial.extended_internal(h_v, h_a, phi), lam


def draws(family: str, n: int):
    """The first n draws of a family: (qp, oracle, exact), oracle a
    callable that returns the reference root or None, exact whether it is
    a closed form rather than the generator's seeds."""
    rng = random.Random(FAMILIES.index(family))
    for k in range(n):
        if family in ("dch-double", "dch-boundary"):
            phi = _log_uniform(rng, 1e-2, 1e2)
            if family == "dch-double":
                offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -1.0)
                h_v = math.e * phi * (1.0 + offset)
            else:
                h_v = 2.0 * phi / math.pi * (1.0 + rng.uniform(-1e-3, 1e-3))
            h_a = None
        elif family == "paper":
            phi = rng.uniform(0.05, 0.3)
            if k % 2:
                h_v, h_a = _log_uniform(rng, 0.03, 3.0), _log_uniform(rng, 1e-4, 1e3)
            else:
                h_v, h_a = _log_uniform(rng, 0.01, 10.0), None
        elif family == "wide":
            phi = _log_uniform(rng, 1e-3, 1e3)
            h_v = phi * _log_uniform(rng, 1e-2, 1e2)
            h_a = h_v * phi * _log_uniform(rng, 1e-3, 1e3) if k % 3 else None
        elif family == "ext-double":
            h_v, h_a, phi, _ = _double_root(rng)
        elif family == "huge-ha":
            h_v, h_a, phi = _log_uniform(rng, 1e-3, 1e3), 10.0 ** rng.uniform(16.0, 305.0), rng.uniform(0.05, 0.3)
            qp = QuasiPolynomial.extended_internal(h_v, h_a, phi)
            yield qp, (lambda h_v=h_v, h_a=h_a, phi=phi: small_pair_root(h_v, h_a, phi)), True
            continue
        else:
            n_a = 2 if family == "degree-2" else 3
            a = tuple(_coefficient(rng) for _ in range(n_a)) + (1.0,)
            b = tuple(_coefficient(rng) for _ in range(n_a))
            qp = QuasiPolynomial(a, b, _log_uniform(rng, 1e-2, 10.0))
            yield qp, (lambda qp=qp: generator_root(qp)), False
            continue
        if h_a is None:
            qp = QuasiPolynomial.dch_internal(h_v, phi)
            yield qp, (lambda h_v=h_v, phi=phi: dch_rightmost_root(h_v, phi)), True
        else:
            qp = QuasiPolynomial.extended_internal(h_v, h_a, phi)
            yield qp, (lambda qp=qp: generator_root(qp)), False


def classify(qp, oracle, exact: bool) -> tuple[str, complex | None, float | None]:
    """(outcome, certified root or None, relative distance to the oracle or
    None) of one draw."""
    try:
        root = rightmost_root(qp)
    except RefinementError:
        return "inconclusive", None, None
    if not is_root_reference(qp, root):
        return "wrong", root, None
    want = oracle()
    if want is None:
        return "unchecked", root, None
    scale = max(abs(want), 1e-300)
    distance = abs(root - want) / scale
    if distance <= TOL:
        return "certified", root, distance
    if not exact and want.real <= root.real + TOL * scale:
        return "unchecked", root, None  # the eigenvalues missed the root
    return "wrong", root, distance


def summary(outcomes) -> dict:
    """Counts of (outcome, root, distance) triples and the largest distance
    of the certified ones; certified counts the unchecked draws too."""
    counts = {"certified": 0, "inconclusive": 0, "wrong": 0, "unchecked": 0}
    worst = 0.0
    for outcome, _, distance in outcomes:
        counts[outcome] += 1
        if outcome == "unchecked":
            counts["certified"] += 1
        elif outcome == "certified":
            worst = max(worst, distance)
    counts["max_disagreement"] = worst
    return counts


def mismatches(got: dict, want: dict) -> list[str]:
    """How the summary got departs from the committed want: a wrong draw,
    other certified or inconclusive counts, or a largest disagreement
    beyond ten times the committed one."""
    found = [f"{got['wrong']} wrong"] if got["wrong"] else []
    found += [f"{key} {got[key]} != {want[key]}" for key in ("certified", "inconclusive")
              if got[key] != want[key]]
    if got["max_disagreement"] > 10.0 * want["max_disagreement"]:
        found.append(f"max disagreement {got['max_disagreement']:.3g}"
                     f" > 10 x {want['max_disagreement']:.3g}")
    return found


def census(family: str, n: int) -> list:
    """The (outcome, root, distance) of each of the first n draws of a family."""
    return [classify(*draw) for draw in draws(family, n)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=3000)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="store the counts in census_counts.json")
    mode.add_argument("--check", action="store_true",
                      help="compare the counts with census_counts.json; exit 1 on a mismatch")
    parser.add_argument("--roots", type=Path, help="write each draw's certified root (repr) as JSON")
    args = parser.parse_args(argv)
    recorded = json.loads(COUNTS.read_text()) if args.check else None
    if recorded and recorded["draws"] != args.draws:
        parser.error(f"--check needs --draws {recorded['draws']}, the committed census")
    table, first, roots, failed = {}, {}, {}, False
    print(f"{'family':14s} {'certified':>9s} {'inconcl.':>9s} {'wrong':>6s} {'unchecked':>9s}  max disagreement")
    for family in FAMILIES:
        outcomes = census(family, args.draws)
        roots[family] = [None if root is None else repr(root) for _, root, _ in outcomes]
        table[family] = counts = summary(outcomes)
        first[family] = summary(outcomes[:FIRST])
        print(f"{family:14s} {counts['certified']:9d} {counts['inconclusive']:9d} {counts['wrong']:6d}"
              f" {counts['unchecked']:9d}  {counts['max_disagreement']:.3g}", flush=True)
        if recorded and (found := mismatches(counts, recorded["families"][family])):
            print(f"  {family} departs from {COUNTS.name}: {'; '.join(found)}", flush=True)
            failed = True
    if args.roots:
        args.roots.write_text(json.dumps(roots, indent=0))
    if args.write:
        COUNTS.write_text(json.dumps({"draws": args.draws, "families": table, "first": {
            "draws": FIRST, "families": first}}, indent=2) + "\n")
    return 1 if failed or any(counts["wrong"] for counts in table.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
