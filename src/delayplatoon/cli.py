"""Command-line front end.

Subcommands: simulate (scenario -> trajectory CSV), analyze (policy
verdicts), region (properness boundary CSV), sweep (transfer magnitude CSV),
predict-demo (predictor exactness check).  Floating point output carries 17
significant digits so emitted CSVs round-trip exactly.

Exit codes: 0 success / affirmative verdict, 1 analytic negative, 2 usage or
parse error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, simulator
from .dynamics import InputHistory, VehicleParams, VehicleState, delay_steps, discretize, step
from .errors import DelayGranularityError, ScenarioError
from .predictor import predict
from .scenario import parse_scenario
from .simulator import TrajectoryLog
from .spacing import PolicyKind, SpacingPolicy, is_proper, is_string_stable, policy_rows, relative_degrees, solvability_check

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(log: TrajectoryLog, path) -> None:
    """Trajectory CSV: t, per-vehicle q,v,a,u, per-follower e,delta,deltaref."""
    nv = log.n_vehicles
    nf = log.n_followers
    header = ["t"]
    for i in range(nv):
        header += [f"q{i}", f"v{i}", f"a{i}", f"u{i}"]
    for f in range(1, nf + 1):
        header += [f"e{f}", f"delta{f}", f"deltaref{f}"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(len(log.t)):
            row = [_fmt(log.t[k])]
            for i in range(nv):
                row += [_fmt(log.q[k, i]), _fmt(log.v[k, i]), _fmt(log.a[k, i]), _fmt(log.u[k, i])]
            for f in range(nf):
                row += [_fmt(log.e[k, f]), _fmt(log.delta[k, f]), _fmt(log.delta_ref[k, f])]
            fh.write(",".join(row) + "\n")


def _policy_from_args(args) -> tuple[SpacingPolicy, VehicleParams]:
    kind = PolicyKind.parse(args.kind)
    policy = SpacingPolicy(
        kind=kind,
        h_v=args.hv if kind is not PolicyKind.DELAYED_CONSTANT else 0.0,
        h_a=args.ha if kind is PolicyKind.DELAYED_EXTENDED_HEADWAY else 0.0,
    )
    return policy, VehicleParams(tau=args.tau, phi=args.phi)


def cmd_simulate(args) -> int:
    try:
        scenario = parse_scenario(args.scenario)
    except (ScenarioError, DelayGranularityError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    log = simulator.run(scenario.config, scenario.profile)
    write_csv(log, args.out)
    print(f"wrote {len(log.t)} samples for {log.n_vehicles} vehicles to {args.out}")
    return EXIT_OK


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_analyze(args) -> int:
    try:
        policy, params = _policy_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = policy_rows(policy)
    rho, rho_bar = relative_degrees(rows, params)
    solvable = solvability_check(rows, params)
    proper = is_proper(policy, params)
    stable = is_string_stable(policy, params)

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
        root_verdict = analysis.properness_root_check(policy, params)
        print(
            f"proper (root check): {_yesno(root_verdict.stable)} "
            f"[rightmost root {root_verdict.rightmost_root:.6g}]"
        )
    if stable.method == "closed-form":
        print(f"string stable: {_yesno(stable.stable)} [closed form, margins={stable.margins}]")
    else:
        print(
            f"string stable: {_yesno(stable.stable)} [sweep, peak omega="
            f"{stable.peak_omega:.6g}, |T|={stable.peak_magnitude:.9g}]"
        )
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
    phis = args.phi
    try:
        curves = [analysis.stability_region_boundary(phi, args.points) for phi in phis]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with open(args.out, "w") as fh:
        if len(phis) == 1:
            fh.write("hv_over_ha,one_over_ha\n")
            for x, y in curves[0]:
                fh.write(f"{_fmt(x)},{_fmt(y)}\n")
        else:
            fh.write("phi,hv_over_ha,one_over_ha\n")
            for phi, curve in zip(phis, curves):
                for x, y in curve:
                    fh.write(f"{_fmt(phi)},{_fmt(x)},{_fmt(y)}\n")
    print(f"wrote {sum(len(c) for c in curves)} boundary points to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        policy, params = _policy_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.points < 2:
        print("error: --points must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.omega_min is not None or args.omega_max is not None:
        lo = args.omega_min if args.omega_min is not None else 1e-3
        hi = args.omega_max if args.omega_max is not None else 1e3
        if not (0.0 < lo < hi):
            print("error: need 0 < omega-min < omega-max", file=sys.stderr)
            return EXIT_USAGE
        grid = np.logspace(math.log10(lo), math.log10(hi), args.points)
    else:
        grid = analysis.default_sweep_grid(policy, params, args.points)
    if policy.kind is PolicyKind.DELAYED_CONSTANT:
        mags = np.ones_like(grid)
        peak_w, peak_m = 0.0, 1.0
    else:
        peak_w, peak_m, mags = analysis.refined_peak(policy, params, grid)
    with open(args.out, "w") as fh:
        fh.write("omega,magnitude\n")
        for w, m in zip(grid, mags):
            fh.write(f"{_fmt(w)},{_fmt(m)}\n")
        fh.write(f"# peak_omega = {_fmt(peak_w)}, peak_magnitude = {_fmt(peak_m)}\n")
    print(f"peak_omega = {_fmt(peak_w)}, peak_magnitude = {_fmt(peak_m)}")
    return EXIT_OK


def cmd_predict_demo(args) -> int:
    try:
        params = VehicleParams(tau=args.tau, phi=args.phi)
        d = delay_steps(params, args.ts)
        values = [float(tok) for tok in Path(args.inputs).read_text().split()]
    except (DelayGranularityError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if len(values) != d:
        print(
            f"error: input file lists {len(values)} samples, need d = phi/Ts = {d}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    model = discretize(params, args.ts)
    history = InputHistory(tuple(values), args.ts, d)
    x0 = VehicleState(args.q0, args.v0, args.a0)
    predicted = predict(model, x0, history)
    x = x0
    h = history
    for _ in range(d):
        x = step(model, x, h.oldest)
        h = h.push(0.0)
    discrepancy = max(
        abs(predicted.q - x.q), abs(predicted.v - x.v), abs(predicted.a - x.a)
    )
    print(f"predicted : q={_fmt(predicted.q)} v={_fmt(predicted.v)} a={_fmt(predicted.a)}")
    print(f"simulated : q={_fmt(x.q)} v={_fmt(x.v)} a={_fmt(x.a)}")
    print(f"max discrepancy: {_fmt(discrepancy)}")
    return EXIT_OK if discrepancy <= 1e-12 else EXIT_NEGATIVE


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
    except Exception as exc:  # a crash is a runtime error, never a verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
