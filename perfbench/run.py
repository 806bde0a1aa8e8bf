"""Benchmark of delayplatoon: closed-loop simulation, stability maps, the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload platoon_sim --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): platoon_sim, stability_map, cli_session.
Each is a closed loop: one client, one thread, the next op starts when the
previous one has finished, on one pinned CPU that the CLI children and set-up
probes share.  The timed phase runs whole passes of the seeded op list until
--seconds have elapsed and at least the workload's minimum number of passes
ran, so every run has the same op mix and enough ops for its tail
percentile.  BLAS thread pools are capped at 1.

--trace 0 reports the end-to-end metrics: setup_s (median of 3 fresh
processes that import delayplatoon, generate the inputs and run the same
warm-up ops for every seed), ops_per_s, op_p50_ms, op_tail_ms (the
workload's fixed percentile, chosen so that at least 10 ops lie above it)
and peak_rss_mb (cli_session: of the CLI child processes).  The timings are scaled to a reference host
speed measured by a calibration kernel that a separate process
(calibrate.py) runs between the ops (see Calibration); the unscaled values
are printed beside them and saved in the result file.  fail_ratio is
printed; the result line carries it as failed/attempted.

--trace 1 runs the ops in-process, alternating whole passes with and without
the span recorder (tracer.py) wrapped around the package's public functions
until --seconds have elapsed in both together, and reports per-layer calls
and self time, each per traced op, vehicle-steps/s by platoon size, CSV
rows/s, the median time of `import delayplatoon` in a bare fresh interpreter
and the tracing overhead.
The traced and untraced outputs must be identical.  Spans are written to
perfbench/out/trace-<workload>-s<seed>.json.

Every run checks every op's output against refs.json and independent closed
forms; regenerate the references with ``python3 perfbench/refs.py``.  The
last stdout line is the JSON result; the lines before it are a readable
report with the environment fingerprint, also saved under perfbench/out/.
"""

import os

BLAS_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_CAPS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
IMPORT_PROBES = 5
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import delayplatoon; "
                  "print(time.perf_counter() - t)")
# calibrate.kernel time on the 2-vCPU Intel Xeon host that recorded
# baseline.json when it was quiet; timings are reported scaled to this speed.
CALIBRATION_REF_S = 0.0075


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("platoon_sim", "stability_map", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare(name: str, seed: int):
    """Workload, seeded passes and references; runs the warm-up ops.

    The warm-up runs variant 0 of the first stratum of each policy kind,
    the same cases for every seed.
    """
    import workloads

    workload = workloads.WORKLOADS[name]()
    refs = workloads.load_refs()[name]
    passes = workloads.make_passes(workload, refs, seed)
    if workload.warm_up:
        seen = set()
        for stratum in workload.strata():
            params = workload.case_params(stratum, 0)
            if params["kind"] not in seen:
                seen.add(params["kind"])
                workload.op(workloads.Case(f"{stratum}/0", params, workload.build_inputs(params)))
    return workload, passes, refs


def probe(args) -> int:
    prepare(args.workload, args.seed)
    print("ready", flush=True)
    return 0


def measure_setup(args) -> float:
    """Seconds from process start until the first op can run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready


def measure_import() -> float:
    """Median seconds of `import delayplatoon` in a bare fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout
        times.append(float(out))
    return statistics.median(times)


class Calibration:
    """Host-speed probe run between the ops.

    The machine is shared, and its speed shifts by 20% for tens of seconds
    at a time.  A fixed kernel of interpreted float arithmetic (like the
    stepper) and vectorized complex exponentials (like the root scan) is
    timed after an op whenever ``interval`` seconds have passed since the
    last sample.  ``factor_at(t)`` = CALIBRATION_REF_S / the mean kernel
    time within ``window`` seconds of t rescales a timing taken at t to the
    reference host speed.  The kernel runs in a child process
    (calibrate.py) on the same pinned CPU, which never imports
    delayplatoon, so the package's interpreter state and allocator cannot
    move it.
    """

    interval = 0.25
    window = 1.0

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0
        self._last = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.__exit__(*exc)  # closes the pipes, so the child ends, and waits

    def sample(self) -> None:
        start = time.perf_counter()
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process ended with code {self.proc.wait()}")
        self._last = time.perf_counter()
        self.samples.append((start, float(line)))
        self.spent += self._last - start

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def factor_at(self, t: float) -> float:
        near = [dt for start, dt in self.samples if abs(start - t) <= self.window]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t))[1]]
        # the mean, as an op's time also averages the host's speed over it
        return CALIBRATION_REF_S / statistics.fmean(near)


class Record(NamedTuple):
    case: object
    latency: float  # seconds
    digest: dict | None
    error: str | None
    start: float  # perf_counter at the op's start


def run_phase(op, digest, passes, seconds: float, min_passes: int, calibration=None):
    """Closed loop over whole passes; returns (records, elapsed seconds).

    The elapsed time leaves out the calibration samples taken between ops.
    """
    records = []
    spent = calibration.spent if calibration else 0.0
    start = time.perf_counter()
    k = 0
    while k < min_passes or time.perf_counter() - start < seconds:
        for case in passes[k % len(passes)]:
            t0 = time.perf_counter()
            try:
                out = op(case)
                latency = time.perf_counter() - t0
                records.append(Record(case, latency, digest(case, out), None, t0))
            except Exception:
                latency = time.perf_counter() - t0
                records.append(Record(case, latency, None, traceback.format_exc(limit=3), t0))
            if calibration:
                calibration.maybe_sample()
        k += 1
    elapsed = time.perf_counter() - start
    if calibration:
        elapsed -= calibration.spent - spent
    return records, elapsed


def verify(workload, records, refs) -> list[tuple[str, list[str]]]:
    """(case id, problems) for every op whose output is wrong."""
    failures = []
    for record in records:
        case = record.case
        ref = refs.get(case.id)
        if record.error is not None:
            problems = [record.error]
        elif ref is None:
            problems = ["no reference"]
        elif ref["hash"] != case.params_hash:
            problems = ["inputs differ from the referenced ones; run perfbench/refs.py"]
        else:
            problems = workload.check(case, record.digest, ref["digest"])
        if problems:
            failures.append((case.id, problems))
    return failures


def tail(latencies: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank pct-th percentile and the number of samples above it."""
    ordered = sorted(latencies)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, the one calibrated."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fingerprint(nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    from delayplatoon import _accel

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "acceleration": "numba" if _accel.NUMBA_ENABLED else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": cpu_model,
        "blas_threads": {var: os.environ[var] for var in BLAS_CAPS},
    }


def end_to_end(args, workload, passes, refs, setups, calibration):
    records, elapsed = run_phase(workload.op, workload.digest, passes, args.seconds,
                                 workload.min_passes, calibration)
    failures = verify(workload, records, refs)
    latencies = [r.latency for r in records]
    tail_s, beyond = tail(latencies, workload.tail_pct)
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": len(records) / elapsed,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }
    scaled = [r.latency * calibration.factor_at(r.start) for r in records]
    scaled_tail, _ = tail(scaled, workload.tail_pct)
    setup = statistics.median(s * calibration.factor_at(t) for s, t in setups)
    # the phase is all ops, so its time scales like the summed latencies
    scaled_elapsed = elapsed * sum(scaled) / sum(latencies)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(records) / scaled_elapsed, "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (scaled_tail * 1e3, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    notes = {name: f"{value:.6g} unscaled" for name, value in raw.items()}
    notes["op_tail_ms"] += f"; p{workload.tail_pct} of {len(records)} ops, {beyond} above it"
    notes["setup_s"] += "; median of " + ", ".join(f"{s:.4f}" for s, _ in setups)
    speed = statistics.median(dt for _, dt in calibration.samples)
    notes["host_speed"] = (f"calibration kernel median {speed * 1e3:.3f} ms over "
                           f"{len(calibration.samples)} samples, reference "
                           f"{CALIBRATION_REF_S * 1e3:g} ms")
    details = {"fail_ratio": len(failures) / len(records), "ops": len(records),
               "elapsed_s": elapsed, "unscaled": raw,
               "calibration_median_s": speed}
    return metrics, notes, details, len(records), failures


def per_layer(args, workload, passes, refs):
    import tracer

    # each pass runs traced, then untraced, so that drift of the machine
    # cancels out of the overhead and the traced ops see cold caches
    recorder = tracer.SpanRecorder()
    traced_op = recorder.wrap("op", workload.op_inproc)
    traced, untraced = [], []
    t_traced = t_plain = 0.0
    k = 0
    while k < 1 or t_traced + t_plain < args.seconds:
        one_pass = [passes[k % len(passes)]]
        with recorder.installed():
            records, elapsed = run_phase(traced_op, workload.digest, one_pass, 0.0, 1)
        traced += records
        t_traced += elapsed
        records, elapsed = run_phase(workload.op_inproc, workload.digest, one_pass, 0.0, 1)
        untraced += records
        t_plain += elapsed
        k += 1
    records = untraced + traced
    failures = verify(workload, records, refs)
    plain = {r.case.id: r.digest for r in untraced}
    for r in traced:
        if r.case.id in plain and r.digest != plain[r.case.id]:
            failures.append((r.case.id, ["traced output differs from the untraced one"]))

    summary = recorder.summary()
    empty = {"calls": 0, "self_ms": 0.0, "errors": 0}
    # per traced op, so that the figures do not depend on how many ops ran
    n_ops = len(traced)
    metrics = {}
    notes = {}
    for layer in tracer.LAYERS:
        entry = summary.get(layer, empty)
        metrics[f"{layer}.calls"] = (entry["calls"] / n_ops, "count")
        metrics[f"{layer}.self_ms"] = (entry["self_ms"] / n_ops, "ms")
        notes[f"{layer}.self_ms"] = (f"per op; {entry['self_ms']:.3f} ms in {entry['calls']} "
                                     f"calls over {n_ops} ops, "
                                     f"{100.0 * entry['self_ms'] / (t_traced * 1e3):.2f}% of the phase")
    notes["op.self_ms"] = (f"{summary['op']['self_ms'] / n_ops:.3f} ms per op "
                           "(outside every wrapped function)")
    for bucket, lo, hi in (("nv_le4", 0, 4), ("nv_5to8", 5, 8), ("nv_ge9", 9, 10**9)):
        rate = recorder.rate("simulator.run", "vsteps", lambda a, lo=lo, hi=hi: lo <= a["nv"] <= hi)
        metrics[f"simulator.run.vsteps_per_s.{bucket}"] = (rate, "1/s")
    metrics["analysis.rightmost_root.errors"] = (
        summary.get("analysis.rightmost_root", empty)["errors"], "count")
    metrics["cli.write_csv.rows_per_s"] = (recorder.rate("cli.write_csv", "rows"), "1/s")
    metrics["cli.import_ms"] = (measure_import() * 1e3, "ms")
    plain_rate = len(untraced) / t_plain
    traced_rate = len(traced) / t_traced
    metrics["trace.overhead_pct"] = (100.0 * (plain_rate / traced_rate - 1.0), "%")
    notes["trace.overhead_pct"] = (
        f"in-process ops/s untraced {plain_rate:.4f}, traced {traced_rate:.4f}")

    (HERE / "out").mkdir(exist_ok=True)
    recorder.dump(HERE / "out" / f"trace-{args.workload}-s{args.seed}.json")
    details = {"fail_ratio": len(failures) / len(records), "ops": len(records),
               "traced_ops": len(traced), "untraced_ops": len(untraced)}
    return metrics, notes, details, len(records), failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delayplatoon" / "__init__.py").is_file():
        print(f"error: no delayplatoon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args)

    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    workload, passes, refs = prepare(args.workload, args.seed)
    if args.trace:
        outcome = per_layer(args, workload, passes, refs)
    else:
        with Calibration() as calibration:
            setups = []  # (seconds to ready, mid-time for the calibration)
            for _ in range(SETUP_PROBES):
                for _ in range(3):
                    calibration.sample()
                start = time.perf_counter()
                ready = measure_setup(args)
                setups.append((ready, start + ready / 2.0))
                for _ in range(3):
                    calibration.sample()
            outcome = end_to_end(args, workload, passes, refs, setups, calibration)
    metrics, notes, details, attempted, failures = outcome

    env = fingerprint(nproc, cpu)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name:<44} {value:>14.6g} {unit}" + (f"  ({note})" if note else ""))
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name:<44} {note}")
    print(f"{'fail_ratio':<44} {details['fail_ratio']:>14.6g} ({len(failures)} of {attempted} ops)")
    for case_id, problems in failures[:10]:
        print(f"FAILED {case_id}: {'; '.join(problems)}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump({**result, "env": env, "notes": notes, "details": details,
                   "failures": failures[:50]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
