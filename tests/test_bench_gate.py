"""The benchmark's correctness gate, run in-process.

perfbench/run.py checks every op's output against perfbench/refs.json and
rejects a run with failed ops.  This runs seed 1 through the same check:
pass 0 of platoon_sim (27 ops), all four passes of stability_map, which
hold each of its 128 references once, since its rightmost roots move in
their last bits whenever the root search changes, and all eight passes of
cli_session, whose 72 ops hold each of its 51 references at least once,
since its printed sweep peaks move whenever the peak search changes.  So a
change that would fail the benchmark fails here first.  It only reads
perfbench/; the CLI ops write into the test's temporary directory.
"""

import pytest


@pytest.mark.parametrize(
    "name,n_passes,n_ops",
    [("platoon_sim", 1, 27), ("stability_map", 4, 128), ("cli_session", 8, 51)],
)
def test_passes_pass_the_benchmark_check(workloads, tmp_path, name, n_passes, n_ops):
    cls = workloads.WORKLOADS[name]
    workload = cls(out_dir=tmp_path) if name == "cli_session" else cls()
    refs = workloads.load_refs()[name]
    passes = workloads.make_passes(workload, refs, seed=1)
    assert len(passes) >= n_passes
    cases = {case.id: case for cases in passes[:n_passes] for case in cases}.values()
    assert len(cases) == n_ops
    if name != "platoon_sim":
        assert n_ops == len(refs)
    for case in cases:
        ref = refs[case.id]
        assert ref["hash"] == case.params_hash, case.id
        digest = workload.digest(case, workload.op_inproc(case))
        assert workload.check(case, digest, ref["digest"]) == [], case.id
