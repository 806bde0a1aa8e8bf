"""Command-line front end.

Subcommands: simulate (scenario -> trajectory CSV), analyze (policy
verdicts), region (properness boundary CSV), sweep (transfer magnitude CSV),
predict-demo (predictor exactness check).  Floating point output carries 17
significant digits so emitted CSVs round-trip exactly.

Exit codes: 0 success / affirmative verdict, 1 analytic negative, 2 usage or
parse error, 3 runtime error.  Each command builds its inputs (arguments,
scenario, input file) inside one _input_checked block, whose ValueError or
OSError exits 2; writing the output stays outside it, so a failed write
exits 3.

Start-up loads only what the command runs: this module imports spacing,
dynamics and errors; analyze, sweep and region import analysis, simulate
imports the scenario and simulator stack, and predict-demo the predictor.
Each package function a command calls is reached through a name of this
module (parse_scenario and predict are thin functions that import their
module on first call), so replacing that name redirects the command's call.
numpy too is imported by the functions that build an array (sweep and
predict-demo; region through analysis.stability_region_boundary), not at
module level.  ``simulate`` checks and writes the simulator's float columns
(``simulator.run_columns``) through the one 17-digit writer, so it loads
numpy only for the prediction weights of a constant-policy follower.  ``analyze`` on the DCH or constant policy never
loads it, nor on an extended tuning inside the closed-form sufficient pair:
the root search runs on math and cmath.  Other extended tunings load it
through analysis for the string-stability cells.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING

from .dynamics import InputHistory, VehicleParams, VehicleState, check_sample_count, delay_steps, discretize, step
from .errors import HistoryDepthError, RefinementError
from .spacing import PolicyKind, SpacingPolicy, is_proper, is_string_stable, policy_rows, relative_degrees, solvability_check

if TYPE_CHECKING:
    from .simulator import Columns

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def parse_scenario(path):
    """scenario.parse_scenario, its module imported on first call."""
    from .scenario import parse_scenario

    return parse_scenario(path)


def predict(model, x0, history):
    """predictor.predict, its module imported on first call."""
    from .predictor import predict

    return predict(model, x0, history)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class _RejectedInput(Exception):
    """An argument or input file the command cannot use; its cause says why."""


@contextlib.contextmanager
def _input_checked():
    """Report a ValueError or OSError raised while building a command's inputs
    as a usage error (exit 2) instead of a runtime error (exit 3)."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise _RejectedInput from exc


_CSV_BLOCK_ROWS = 4096  # rows per %-format: bounds the text held at once


def _write_values(path, width: int, values, header: str, footer: str = "") -> None:
    """One CSV: the header line, the values (floats, row by row) width to a
    line at 17 significant digits, then the footer line if any; the bytes
    of np.savetxt with fmt="%.17g", one %-format per block of rows.  The one
    writer of every CSV the commands emit."""
    line = ",".join(["%.17g"] * width) + "\n"
    values = iter(values)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        while block := tuple(islice(values, _CSV_BLOCK_ROWS * width)):
            fh.write(line * (len(block) // width) % block)
        if footer:
            fh.write(footer + "\n")


def _trajectory_columns(log: Columns) -> tuple[list[str], list]:
    """Names and columns of the trajectory CSV: t, per-vehicle q,v,a,u,
    per-follower e,delta,deltaref."""
    nv, nf = len(log.q), len(log.e)
    header = ["t"]
    header += [f"{c}{i}" for i in range(nv) for c in ("q", "v", "a", "u")]
    header += [f"{c}{f}" for f in range(1, nf + 1) for c in ("e", "delta", "deltaref")]
    columns = [log.t]
    for i in range(nv):
        columns += (log.q[i], log.v[i], log.a[i], log.u[i])
    for f in range(nf):
        columns += (log.e[f], log.delta[f], log.delta_ref[f])
    return header, columns


def write_csv(log: Columns, path) -> None:
    """Trajectory CSV of simulator.run_columns' float columns: t,
    per-vehicle q,v,a,u, per-follower e,delta,deltaref."""
    header, columns = _trajectory_columns(log)
    _write_values(path, len(columns), chain.from_iterable(zip(*columns)), ",".join(header))


def _require_finite(log: Columns) -> None:
    """RuntimeError naming the first non-finite sample, earliest in time and
    then first in CSV column order, so a diverging run writes no CSV."""
    header, columns = _trajectory_columns(log)
    first = None  # (sample, column)
    for c, column in enumerate(columns):
        if math.isfinite(sum(column)):  # then every value is finite
            continue
        # a non-finite value, or finite ones whose sum overflows
        for k, x in enumerate(column[:first[0]] if first else column):
            if not math.isfinite(x):
                first = k, c
                break
    if first:
        k, c = first
        raise RuntimeError(
            f"the run diverged: {header[c]} = {columns[c][k]} at t = {columns[0][k]:.17g} s "
            f"(sample {k}); no CSV written"
        )


def _policy_from_args(args) -> tuple[SpacingPolicy, VehicleParams]:
    kind = PolicyKind.parse(args.kind)
    policy = SpacingPolicy(
        kind=kind,
        h_v=args.hv if kind is not PolicyKind.DELAYED_CONSTANT else 0.0,
        h_a=args.ha if kind is PolicyKind.DELAYED_EXTENDED_HEADWAY else 0.0,
    )
    return policy, VehicleParams(tau=args.tau, phi=args.phi)


def cmd_simulate(args) -> int:
    from . import simulator

    with _input_checked():
        scenario = parse_scenario(args.scenario)
    columns = simulator.run_columns(scenario.config, scenario.profile)
    _require_finite(columns)
    write_csv(columns, args.out)
    print(f"wrote {len(columns.t)} samples for {len(columns.q)} vehicles to {args.out}")
    return EXIT_OK


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_analyze(args) -> int:
    from . import analysis

    with _input_checked():
        policy, params = _policy_from_args(args)
    rows = policy_rows(policy)
    rho, rho_bar = relative_degrees(rows)
    solvable = solvability_check(rows)
    proper = is_proper(policy, params)
    try:
        stable = is_string_stable(policy, params)
    except RefinementError as exc:  # an undecided cell search
        stable = exc

    print(f"policy: {policy.kind.value} (h_v={policy.h_v}, h_a={policy.h_a})")
    print(f"vehicle: tau={params.tau} s, phi={params.phi} s")
    print(f"relative degrees: rho={rho}, rho_bar={rho_bar}")
    print(f"solvable: {_yesno(solvable.ok)} ({solvable.reason})")
    detail = ""
    if proper.witness_omega is not None:
        detail = f" [witness omega={proper.witness_omega:.6g}, margins={proper.margins}]"
    elif proper.margins:
        detail = f" [margins={proper.margins}]"
    print(f"proper (closed form): {_yesno(proper.stable)}{detail}")
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        print("proper (root check): n/a (constant policy is always proper)")
    else:
        try:
            root_verdict = analysis.properness_root_check(policy, params)
        except RefinementError as exc:
            # the closed form has answered; an uncertified search only says so
            print(f"proper (root check): inconclusive [{type(exc).__name__}: {exc}]")
        else:
            print(
                f"proper (root check): {_yesno(root_verdict.stable)} "
                f"[rightmost root {root_verdict.rightmost_root:.6g}]"
            )
    if isinstance(stable, RefinementError):
        print(f"string stable: inconclusive [{type(stable).__name__}: {stable}]")
        if proper.stable:  # no verdict to give: a runtime error
            raise stable
        print("verdict: not proper")
        return EXIT_NEGATIVE
    if stable.method == "closed-form":
        print(f"string stable: {_yesno(stable.stable)} [closed form, margins={stable.margins}]")
    else:
        if stable.witness_omega is None:
            where = f"peak omega={stable.peak_omega:.6g}"
        else:
            where = f"witness omega={stable.witness_omega:.6g}"
        print(f"string stable: {_yesno(stable.stable)} [sweep, {where}, |T|={stable.peak_magnitude:.9g}]")
    if proper.stable and stable.stable:
        print("verdict: proper and string stable")
        return EXIT_OK
    failed = [
        name for name, ok in (("proper", proper.stable), ("string stable", stable.stable))
        if not ok
    ]
    print(f"verdict: not {', not '.join(failed)}")
    return EXIT_NEGATIVE


def cmd_region(args) -> int:
    from . import analysis

    phis = args.phi
    with _input_checked():
        check_sample_count("--points", args.points)
        curves = [analysis.stability_region_boundary(phi, args.points) for phi in phis]
    if len(phis) == 1:
        _write_values(args.out, 2, curves[0].ravel().tolist(), "hv_over_ha,one_over_ha")
    else:
        rows = ((phi, x, y) for phi, c in zip(phis, curves) for x, y in c.tolist())
        _write_values(args.out, 3, chain.from_iterable(rows), "phi,hv_over_ha,one_over_ha")
    print(f"wrote {sum(len(c) for c in curves)} boundary points to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    import numpy as np

    from . import analysis

    with _input_checked():
        policy, params = _policy_from_args(args)
        check_sample_count("--points", args.points)
        if args.omega_min is not None or args.omega_max is not None:
            lo = args.omega_min if args.omega_min is not None else 1e-3
            hi = args.omega_max if args.omega_max is not None else 1e3
            if not (0.0 < lo < hi < math.inf and hi * params.phi < math.inf):
                raise ValueError("need 0 < omega-min < omega-max < inf and omega-max phi < inf")
            grid = np.logspace(math.log10(lo), math.log10(hi), args.points)
        else:
            grid = analysis.default_sweep_grid(policy, params, args.points)
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        mags = np.ones_like(grid)
        peak_w, peak_m = 0.0, 1.0
    else:
        peak_w, peak_m, mags = analysis.refined_peak(policy, params, grid)
    peak = f"peak_omega = {_fmt(peak_w)}, peak_magnitude = {_fmt(peak_m)}"
    rows = zip(grid.tolist(), mags.tolist())
    _write_values(args.out, 2, chain.from_iterable(rows), "omega,magnitude", "# " + peak)
    print(peak)
    return EXIT_OK


def cmd_predict_demo(args) -> int:
    import numpy as np

    with _input_checked():
        params = VehicleParams(tau=args.tau, phi=args.phi)
        model = discretize(params, args.ts)
        values = [float(tok) for tok in Path(args.inputs).read_text().split()]
        if len(values) != (d := delay_steps(params, args.ts)):
            raise HistoryDepthError(f"{args.inputs} holds {len(values)} inputs, phi/Ts = {d}")
        history = InputHistory(tuple(values), args.ts)
        x0 = VehicleState(args.q0, args.v0, args.a0)
    # a huge Ts or state can overflow Phi^d or a step: VehicleState rejects
    # the non-finite result, reported as a runtime error with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            predicted = predict(model, x0, history)
            x = x0
            for u in history.samples:
                x = step(model, x, u)
        except ValueError as exc:
            raise RuntimeError(f"the state overflowed float64 ({exc})") from exc
    pairs = ((predicted.q, x.q), (predicted.v, x.v), (predicted.a, x.a))
    discrepancy = max(abs(p - s) for p, s in pairs)
    # exact up to rounding: each component within 1e-12 of its magnitude (at
    # least 1), since one ulp of q = 1e6 is already 1.2e-10
    exact = all(abs(p - s) <= 1e-12 * max(1.0, abs(p), abs(s)) for p, s in pairs)
    print(f"predicted : q={_fmt(predicted.q)} v={_fmt(predicted.v)} a={_fmt(predicted.a)}")
    print(f"simulated : q={_fmt(x.q)} v={_fmt(x.v)} a={_fmt(x.a)}")
    print(f"max discrepancy: {_fmt(discrepancy)}")
    return EXIT_OK if exact else EXIT_NEGATIVE


def _add_policy_args(p: argparse.ArgumentParser):
    p.add_argument("kind", choices=[k.value for k in PolicyKind], help="spacing policy")
    p.add_argument("--hv", type=float, default=0.0, help="velocity headway h_v [s]")
    p.add_argument("--ha", type=float, default=0.0, help="acceleration headway h_a [s^2]")
    p.add_argument("--tau", type=float, default=0.067, help="engine time constant [s]")
    p.add_argument("--phi", type=float, default=0.15, help="actuation delay [s]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayplatoon",
        description="Delay-aware spacing policies for vehicle platoons: "
        "simulation, stability analysis, and plot-ready data export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file and write the trajectory CSV")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("out", help="output CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="properness / string-stability report for a policy")
    _add_policy_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("region", help="properness region boundary CSV")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--phi", type=float, action="append", required=True,
                   help="actuation delay [s]; repeat for a family of curves")
    p.add_argument("--points", type=int, default=400, help="points per curve")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("sweep", help="transfer magnitude |T(i omega)| CSV")
    p.add_argument("out", help="output CSV path")
    _add_policy_args(p)
    p.add_argument("--points", type=int, default=4096, help="grid points")
    p.add_argument("--omega-min", type=float, default=None, help="grid lower bound [rad/s]")
    p.add_argument("--omega-max", type=float, default=None, help="grid upper bound [rad/s]")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "predict-demo",
        help="compare the delay-horizon predictor against d-step simulation",
    )
    p.add_argument("inputs", help="file listing the d buffered inputs, oldest first")
    p.add_argument("--tau", type=float, default=0.067)
    p.add_argument("--phi", type=float, default=0.15)
    p.add_argument("--ts", type=float, default=0.01)
    p.add_argument("--q0", type=float, default=0.0)
    p.add_argument("--v0", type=float, default=0.0)
    p.add_argument("--a0", type=float, default=0.0)
    p.set_defaults(func=cmd_predict_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # rejected input exits 2; a crash 3, never a verdict
        rejected = isinstance(exc, _RejectedInput)
        cause = exc.__cause__ if rejected else exc
        print(f"error: {type(cause).__name__}: {cause}", file=sys.stderr)
        return EXIT_USAGE if rejected else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
