"""Self-tests of the benchmark: every workload runs at a tiny size, and each
output check is shown to trip on a planted fault.

    python3 -m pytest bench/selftest.py -q

The file name keeps it out of the package's own test collection; it takes
about two minutes and up to 1 GB of memory (the wide model).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run as bench  # noqa: E402
from reference import (FramingError, InstanceVerdict, attention_faults,  # noqa: E402
                       check_knowledge_framing, check_task_framing)
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = 1.0  # run length in seconds; sizes follow from workloads.Workload.sizes


def tiny(name, tmp_path, trace=False, tamper=None, **changes):
    w = dataclasses.replace(WORKLOADS[name], **changes)
    return bench.run_workload(w, seed=3, seconds=TINY, trace=trace,
                              workdir=tmp_path / "data", tamper=tamper)


def tripped(run, phase) -> bool:
    return bool(run["failures"][phase]) and run["failed"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_at_tiny_size(name, tmp_path):
    run = tiny(name, tmp_path)
    assert run["failures"]["eval"] == [] and run["failures"]["inspect"] == []
    assert set(run["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in run["metrics"].values())
    assert run["attempted"] == 1 + 2 * len(run["eval_chunk_s"])


def test_traced_run_reports_every_layer_metric(tmp_path):
    run = tiny("cip-mixed", tmp_path, trace=True)
    assert set(run["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(m["value"] > 0 for m in run["metrics"].values())
    tracer = run["tracer"]
    assert tracer.count("train.evaluate", under="train.fit") == WORKLOADS["cip-mixed"].epochs
    assert all(s.end >= s.start for s in tracer.spans)


def test_perturbed_parameter_trips(tmp_path):
    def negate_head(ref):
        ref.w["head.w"] = -ref.w["head.w"]

    run = tiny("alpha-desk", tmp_path, tamper={"reference": negate_head}, chunk=1)
    assert tripped(run, "eval") and tripped(run, "inspect")


def test_flipped_prediction_trips(tmp_path):
    def flip_first(test, decisive):
        first = dataclasses.replace(test[0], gold=3 - test[0].gold)
        return [first] + test[1:], decisive

    run = tiny("alpha-desk", tmp_path, tamper={"program": flip_first})
    assert run["failures"]["eval"][0].startswith("test[0]:")
    assert len(run["failures"]["eval"]) == 1


def test_wrong_top_rule_index_trips(tmp_path):
    clean = tiny("cip-mixed", tmp_path)
    assert clean["failures"]["inspect"] == []
    test_ids = [f"cip-{i}" for i in range(clean["sizes"]["train"] + clean["sizes"]["dev"],
                                          sum(clean["sizes"].values()))]
    k = next(i for i, v in enumerate(clean["verdicts"])
             if v.correct and v.decided and v.top_decided)
    target = clean["verdicts"][k]

    def mislabel(test, decisive):
        key = (test_ids[k], target.option)
        wrong = dict(decisive)
        # move the planted index onto, or off, the rule the model attends to most
        wrong[key] = target.top + 1 if decisive[key] == target.top else target.top
        return test, wrong

    run = tiny("cip-mixed", tmp_path, tamper={"program": mislabel})
    assert run["failures"]["eval"] == []
    assert [f.split(":")[0] for f in run["failures"]["inspect"]] == [
        f"test[{k // WORKLOADS['cip-mixed'].chunk}]"]


def test_attention_checks_trip():
    causal = np.tril(np.ones((1, 4, 4)))
    causal /= causal.sum(axis=-1, keepdims=True)
    assert attention_faults([(causal, True)]) == []
    leaky = causal.copy()
    leaky[0, 0, :2] = 0.5
    assert any("causal" in f for f in attention_faults([(leaky, True)]))
    assert attention_faults([(leaky, False)]) == []
    assert any("sum" in f for f in attention_faults([(causal * 1.01, False)]))


def test_framing_checks_trip():
    vocab = ["[CLS]", "[SEP]", "[PAD]", "[UNK]", "[NOKNOW]", "a", "b", "c"]
    check_task_framing([0, 5, 6, 1, 7, 1], vocab)
    for bad in ([5, 6, 1, 7, 1], [0, 5, 6, 7, 1], [0, 5, 2, 1, 7, 1]):
        with pytest.raises(FramingError):
            check_task_framing(bad, vocab)
    check_knowledge_framing([5, 6, 1, 7, 3], [(0, 2), (3, 5)], 2, vocab)
    check_knowledge_framing([4], [], 0, vocab)
    for ids, spans, n in (([5, 6, 1, 7], [(0, 2), (2, 4)], 2),
                          ([5, 6, 1, 7], [(0, 2)], 2),
                          ([5, 6, 5, 7], [(0, 2), (3, 4)], 2),
                          ([5, 6, 1, 7, 1], [(0, 2), (3, 4)], 2),
                          ([5], [], 0)):
        with pytest.raises(FramingError):
            check_knowledge_framing(ids, spans, n, vocab)


def test_count_checks_allow_only_rounding():
    sure = InstanceVerdict(correct=True, decided=True, top_hit=True, top_decided=True,
                           faults=[])
    close = dataclasses.replace(sure, decided=False)
    assert checks.eval_chunk(2, [sure, sure]) is None
    assert checks.eval_chunk(1, [sure, sure])
    assert checks.eval_chunk(1, [sure, close]) is None
    assert checks.eval_chunk(2, [sure, close]) is None
    assert checks.inspect_chunk({"correct_with_decisive": 2, "top_hits": 2}, [sure, sure]) is None
    assert checks.inspect_chunk({"correct_with_decisive": 2, "top_hits": 1}, [sure, sure])


def test_property_checks_trip():
    assert checks.loss_falls([0.69, 0.5]) is None
    assert checks.loss_falls([0.69, 0.7])
    assert checks.loss_falls([0.69])
    assert checks.above_chance(70, 100, 0.1) is None
    assert checks.above_chance(55, 100, 0.1)
    assert checks.above_chance(50, 100, None) is None


def test_command_prints_one_result_line(tmp_path):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "cip-mixed", "--seed", "2",
           "--seconds", str(TINY), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and isinstance(result["failed"], int)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "alpha-desk", "--seed", "1",
           "--seconds", "30", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0 and out.stdout.strip() == ""
