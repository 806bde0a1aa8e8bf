"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def refs():
    return workloads.load_refs()


def _ids(passes):
    return [[case.id for case in p] for p in passes]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, refs):
    workload = workloads.WORKLOADS[name]()
    first = workloads.make_passes(workload, refs[name], 7)
    second = workloads.make_passes(workload, refs[name], 7)
    assert _ids(first) == _ids(second)
    assert [[c.params for c in p] for p in first] == [[c.params for c in p] for p in second]
    assert _ids(workloads.make_passes(workload, refs[name], 8)) != _ids(first)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_passes_share_one_stratum_mix(name, refs):
    workload = workloads.WORKLOADS[name]()
    for seed in (1, 2):
        for one_pass in workloads.make_passes(workload, refs[name], seed):
            strata = sorted(case.stratum for case in one_pass)
            assert strata == sorted(workload.strata() * workload.per_pass)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_inputs_match_references(name, refs):
    workload = workloads.WORKLOADS[name]()
    for case_id, ref in refs[name].items():
        stratum, variant = case_id.rsplit("/", 1)
        params = workload.case_params(stratum, int(variant))
        assert workloads.params_hash(params) == ref["hash"], case_id


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for workload in SPEC["workloads"]:
        assert NAME.fullmatch(workload["name"])
        assert workload["why"] == workloads.WORKLOADS[workload["name"]].why


@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_reports_every_metric(trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads.StabilityMap, "min_passes", 1)
    argv = ["--workload", "stability_map", "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_calibration_runs_apart_from_the_package():
    with run.Calibration() as calibration:
        calibration.sample()
        calibration.sample()
    assert calibration.proc.returncode == 0
    assert all(dt > 0.0 for _, dt in calibration.samples)
    code = "import sys, calibrate; print(sorted(m for m in sys.modules if m.startswith('delayplatoon')))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def _record(workload, stratum):
    params = workload.case_params(stratum, 0)
    case = workloads.Case(f"{stratum}/0", params, workload.build_inputs(params))
    return case, workload.digest(case, workload.op_inproc(case))


def _fail_ratio(workload, case, digest, refs):
    records = [run.Record(case, 0.0, digest, None, 0.0)]
    return len(run.verify(workload, records, refs)) / len(records)


def test_flipped_verdict_fails(refs):
    workload = workloads.StabilityMap()
    case, digest = _record(workload, "dch/stable")
    assert _fail_ratio(workload, case, digest, refs["stability_map"]) == 0.0
    flipped = dict(digest, proper_root=not digest["proper_root"])
    assert _fail_ratio(workload, case, flipped, refs["stability_map"]) > 0.0


def test_shifted_checksum_fails(refs):
    workload = workloads.PlatoonSim()
    case, digest = _record(workload, "n3/dch/ideal")
    assert _fail_ratio(workload, case, digest, refs["platoon_sim"]) == 0.0
    shifted = copy.deepcopy(digest)
    shifted["sums"]["v"][0] += 1e-6 * shifted["sums"]["v"][1]
    assert _fail_ratio(workload, case, shifted, refs["platoon_sim"]) > 0.0
    flipped = copy.deepcopy(digest)
    flipped["l2"][0] = not flipped["l2"][0]
    assert _fail_ratio(workload, case, flipped, refs["platoon_sim"]) > 0.0


def test_wrong_exit_code_fails(refs, tmp_path):
    workload = workloads.CliSession(out_dir=tmp_path)
    case, digest = _record(workload, "analyze_neg")
    assert digest["exit"] == 1
    assert _fail_ratio(workload, case, digest, refs["cli_session"]) == 0.0
    wrong = dict(digest, exit=0)
    assert _fail_ratio(workload, case, wrong, refs["cli_session"]) > 0.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "platoon_sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
