"""Regenerate the benchmark's correctness references, perfbench/refs.json.

Run from the repository root:

    python3 perfbench/refs.py

For every stratum of every workload it generates variants 0, 1, 2 ... runs
each op in-process and keeps the first ``variants`` cases whose verdicts are
not within rounding of a decision threshold (an L2 energy excess or a sweep
peak at the tolerance), so that a reordering of floating-point sums cannot
flip them.  A case whose output already fails the independent closed-form
checks stops the regeneration: that is a defect of the package, not of the
case.  Each reference stores a hash of the generated inputs, which the
benchmark compares before it trusts the reference.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

MAX_TRIES = 4  # candidates per kept case before giving up on a stratum


def build(workload) -> dict:
    refs = {}
    for stratum in workload.strata():
        # a bundled scenario is the only input of its stratum
        n_keep = 1 if stratum.startswith("simulate_") else workload.variants
        kept = 0
        variant = 0
        while kept < n_keep:
            if variant >= MAX_TRIES * n_keep:
                raise SystemExit(f"{workload.name} {stratum}: too few robust cases")
            params = workload.case_params(stratum, variant)
            case = workloads.Case(f"{stratum}/{variant}", params, workload.build_inputs(params))
            digest = workload.digest(case, workload.op_inproc(case))
            variant += 1
            problems = workload.check(case, digest, digest)
            if problems:
                raise SystemExit(f"{case.id} fails the independent checks: {problems}")
            if workload.robust(digest):
                refs[case.id] = {"hash": case.params_hash, "digest": digest}
                kept += 1
        print(f"{workload.name} {stratum}: kept {kept} of {variant}", file=sys.stderr)
    return refs


def main() -> int:
    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        kwargs = {"out_dir": workloads.OUT_DIR / "refs"} if name == "cli_session" else {}
        refs[name] = build(cls(**kwargs))
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
