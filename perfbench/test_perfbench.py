"""Short-mode checks of the benchmark itself.

    python3 -m pytest perfbench -q

Each run uses ``--ops``, so it does a fixed number of ops and one set-up.
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OPS = {"ladder": 1, "rational": 2, "transform": 4}
SEED = 3
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def invoke(cwd, workload, trace, ops, seed=SEED):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--ops", str(ops), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@lru_cache(maxsize=None)
def run(workload, trace, repeat):
    """Result line and written record of one short run (``repeat`` only
    keys the cache, so two repeats are two separate runs)."""
    out = invoke(ROOT, workload, trace, OPS[workload])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    path = HERE / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, group):
    result, _ = run(workload, trace, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _counts(result):
    """The metrics that are counts or accuracies, not timings."""
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(".calls")
        or name in ("fail_frac", "ok_frac")
        or m["unit"] in ("fails/op", "dims/op", "atoms/op", "z/atom", "digits", "rel")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_counts_repeat_exactly_on_one_seed(workload, trace):
    (first, rec1), (second, rec2) = run(workload, trace, 0), run(workload, trace, 1)
    assert _counts(first)
    assert _counts(first) == _counts(second)
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert rec1["outcome"] == rec2["outcome"]
    assert rec1["records"] == rec2["records"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_gives_the_same_outcomes(workload):
    (_, plain), (_, traced) = run(workload, 0, 0), run(workload, 1, 0)
    assert traced["traced_records"] == plain["records"]
    assert traced["outcome"] == plain["outcome"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_cover_the_op_time(workload):
    result, record = run(workload, 1, 0)
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert record["absent"] == []
    assert record["spans"]


def test_missing_library_function_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracing

    spans = dict(tracing.SPANS, **{"krein.gone": ("krein", ("no_such_function",))})
    monkeypatch.setattr(tracing, "SPANS", spans)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from stieltjesmp import pipeline

        assert pipeline.analyze.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert tracer.absent == ["krein.no_such_function"]
    assert not hasattr(pipeline.analyze, "__wrapped__")


def test_failure_where_the_library_is_not_known_to_fail_is_a_regression(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run as bench
    import workloads

    def record(cell, fails, solvability="solvable"):
        N, m, count = (int(part[1:]) for part in cell.split("_"))
        rec = workloads.Record(cell, (N, m, count) in workloads.Ladder.KNOWN_FAILING)
        rec.verdict = {"solvability": solvability, "determinate": True}
        for kind in fails:
            rec.fail(kind)
        return rec.as_dict()

    out = bench.outcome([[
        record("N32_m9_a6", ["pipeline.gate_fail"]),
        record("N4_m3_a3", ["pipeline.verdict_wrong", "pipeline.gate_fail"]),
        record("N16_m5_a4", ["pipeline.verdict_wrong"], solvability="marginal"),
        record("N4_m5_a2", []),
    ]])
    assert (out["attempted"], out["failed"], out["known_failures"]) == (4, 1, 2)
    assert out["regressions"] == ["N4_m3_a3: pipeline.verdict_wrong, pipeline.gate_fail"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = invoke(tmp_path, "rational", 0, 1)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
