"""Tests of the benchmark itself, at tiny problem sizes. They are not part of
the repository's default test run:

    python3 -m pytest perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import Call, Workload, ini, workloads  # noqa: E402

cli = worker.import_program()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _runner(workload, path):
    runner = worker.Runner(workload, str(path))
    runner.write_configs()
    for call in workload.warmups:
        runner.call(call, 99)
    return runner


def _failures(runner):
    return [c for c in runner.calls if not c["passed"]]


def _bindings():
    return {(name, attr): val
            for name, mod in list(sys.modules.items())
            if name == "homfield" or name.startswith("homfield.")
            for attr, val in vars(mod).items()}


@pytest.mark.parametrize("name", ["solve", "sample"])
def test_tiny_workload_passes_its_checks(name, tmp_path):
    runner = _runner(workloads(tiny=True)[name], tmp_path)
    passes = runner.passes(seed=1, seconds=0)
    assert len(passes) == worker.MIN_PASSES
    assert not _failures(runner)
    assert worker.mismatches(passes) == []


def test_checks_catch_a_wrong_output(tmp_path):
    workload = workloads(tiny=True)["solve"]
    runner = _runner(workload, tmp_path)
    runner.passes(seed=0, seconds=0, count=1)
    # rewrite the estimate far from sqrt 2: the check must flag it
    out = tmp_path / "out" / workload.calls[0].tag
    log = out / "runlog.jsonl"
    rec = json.loads(log.read_text())
    rec["ahom_mean"] = 1.6
    log.write_text(json.dumps(rec) + "\n")
    problems, _ = worker.check_call(workload.calls[0], str(out), 0)
    assert problems and "sqrt 2" in problems[0]


def test_fingerprint_mismatch_is_reported():
    assert worker.compare_fingerprint({"a": [1.0, 2.0]}, {"a": [1.0, 2.0]}, 1e-6) == []
    assert worker.compare_fingerprint({"a": [1.0, 2.1]}, {"a": [1.0, 2.0]}, 1e-6)
    assert worker.compare_fingerprint({}, {"a": [1.0]}, 1e-6)


def test_tracer_wraps_every_binding_and_restores_it():
    import homfield
    from homfield import environment, sampler, solver

    before = _bindings()
    original = environment.apply_operator
    with tracer.Tracer():
        wrapped = environment.apply_operator
        assert wrapped is not original
        assert solver.apply_operator is wrapped
        assert sampler.apply_operator is wrapped
        assert homfield.apply_operator is wrapped
        assert cli.main is not before[("homfield.cli", "main")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_outputs_are_bit_identical(tmp_path):
    before = _bindings()
    runner = _runner(workloads(tiny=True)["sample"], tmp_path)
    result = worker.traced_run(runner, seed=2, seconds=0, workdir=str(tmp_path))
    assert not _failures(runner)
    passes = result["passes"] + result["traced_passes"]
    assert len(result["traced_passes"]) == len(result["passes"])
    assert worker.mismatches(passes) == []
    digests = [[c["digest"] for c in p["calls"]] for p in passes]
    assert all(d == digests[0] for d in digests)
    assert list(result["layer"]) == list(tracer.PER_LAYER)
    # cov's 2 x 50 draws and the two sample calls, per pass
    assert result["layer"]["sampler.sample_gff.calls"] == 102
    assert result["layer"]["sampler.inv_sqrt.applies_per_draw.N16"] > 0
    assert result["layer"]["solver.converged_ratio"] == 1.0
    assert all(_bindings()[k] is v for k, v in before.items())


def test_forced_failures_are_counted_and_do_not_abort(tmp_path, monkeypatch):
    good = Call("good", "sample", ini(d=2, N=8, field="bilap", law="bernoulli(0.5,1,2)"))
    bad_config = Call("bad-config", "rates", ini(experiment="nope", N="8,16,32"))
    escapes = Call("escapes", "figure1", ini(N=8))

    def boom(args, cfg):
        raise RuntimeError("did not stabilize")

    monkeypatch.setitem(cli.COMMANDS, "figure1", boom)
    runner = _runner(Workload("forced", "test", (bad_config, escapes, good), ()),
                     tmp_path)
    runner.passes(seed=0, seconds=0, count=2)
    by_tag = {}
    for c in runner.calls:
        by_tag.setdefault(c["tag"], []).append(c)
    assert [c["rc"] for c in by_tag["bad-config"]] == [2, 2]
    assert all("RuntimeError" in c["error"] for c in by_tag["escapes"])
    assert all(c["passed"] for c in by_tag["good"])
    assert sum(not c["passed"] for c in runner.calls) == 4


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(workloads()) == list(run.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_manifest_matches_the_workloads():
    with open(os.path.join(BENCH, "manifest.json")) as fh:
        manifest = json.load(fh)
    for name, workload in workloads().items():
        entry = manifest["workloads"][name]
        for key, calls in (("calls", workload.calls), ("warmups", workload.warmups)):
            assert entry[key] == {c.tag: {"command": c.command, "flags": list(c.flags),
                                          "config": c.config} for c in calls}
        assert entry["why"] == workload.why
    mapped = set(manifest["layer_map"])
    families = {re.sub(r"\.N\d+$", ".N<side>", n) for n in tracer.PER_LAYER}
    assert mapped == families


def test_run_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "solve", "--seed", "1",
         "--seconds", "0.1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
