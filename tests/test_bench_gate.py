"""The benchmark's correctness gate, run in-process on one pass per workload.

perfbench/run.py checks every op's output against perfbench/refs.json and
rejects a run with failed ops.  This runs pass 0 of seed 1 of each workload
(27 platoon_sim, 32 stability_map and 9 cli_session ops) through the same
check, so a change that would fail the benchmark fails here first.  It only
reads perfbench/; the CLI ops write into the test's temporary directory.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize(
    "name,n_ops", [("platoon_sim", 27), ("stability_map", 32), ("cli_session", 9)]
)
def test_first_pass_passes_the_benchmark_check(workloads, tmp_path, name, n_ops):
    cls = workloads.WORKLOADS[name]
    workload = cls(out_dir=tmp_path) if name == "cli_session" else cls()
    refs = workloads.load_refs()[name]
    cases = workloads.make_passes(workload, refs, seed=1)[0]
    assert len(cases) == n_ops
    for case in cases:
        ref = refs[case.id]
        assert ref["hash"] == case.params_hash, case.id
        digest = workload.digest(case, workload.op_inproc(case))
        assert workload.check(case, digest, ref["digest"]) == [], case.id
