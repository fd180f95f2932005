"""Self-tests of the benchmark harness (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from e2ebench import run  # noqa: E402
from e2ebench.tracing import Tracer  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)


def _args(workload: str, trace: int, tmp_path: Path) -> Namespace:
    return Namespace(workload=workload, seed=11, seconds=0.0, trace=trace,
                     tiny=True, spans=tmp_path / f"{workload}.jsonl")


def self_time_check(spans: list[tuple]) -> tuple[float, float]:
    """(sum of self times, sum of root-span durations) recomputed from
    raw span records: equal when spans nest properly."""
    children: dict[int, float] = {}
    for _sid, parent, _name, start, end, _action in spans:
        if parent:
            children[parent] = children.get(parent, 0.0) + end - start
    total_self = roots = 0.0
    for sid, parent, _name, start, end, _action in spans:
        total_self += (end - start) - children.get(sid, 0.0)
        if not parent:
            roots += end - start
    return total_self, roots


def test_spec_lists_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(NAMES)


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_is_correct_with_spec_metrics(workload, tmp_path):
    line, report = run.measure(_args(workload, 0, tmp_path))
    assert line["correct"], report["failures"]
    assert line["failed"] == 0 and line["attempted"] > 0
    assert report["deterministic"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_per_layer_metrics(workload, tmp_path):
    line, report = run.measure(_args(workload, 1, tmp_path))
    assert line["correct"], report["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = line["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    # self times plus the unattributed rest account for the whole run
    self_ms = sum(metrics[name]["value"]
                  for name in run.SPAN_METRICS.values())
    total = metrics["trace.total_ms"]["value"]
    assert self_ms + metrics["util.unattributed_ms"]["value"] == \
        pytest.approx(total, rel=1e-9)
    assert metrics["util.unattributed_ms"]["value"] >= 0
    assert (tmp_path / f"{workload}.jsonl").stat().st_size > 0


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_mirror_counts_as_failure(workload):
    result = WORKLOADS[workload](tiny=True).episode(11, 0,
                                                    corrupt_mirror=True)
    assert result.failed >= 1
    assert any("mirror differs" in f for f in result.failures)


def test_write_that_never_reaches_the_screen_is_a_failure(monkeypatch):
    from repro.windows.server import DisplayServer
    adaptive = WORKLOADS["adaptive_links"](tiny=True)
    assert adaptive.episode(11, 0).failed == 0
    # the display recomposes nothing: no written widget ever changes
    monkeypatch.setattr(DisplayServer, "_recompose", lambda self, clip: None)
    result = adaptive.episode(11, 0)
    assert result.failed >= 1
    assert any("did not change" in f for f in result.failures)


@pytest.mark.parametrize("workload", NAMES)
def test_spans_nest_and_self_times_sum(workload):
    tracer = Tracer()
    with tracer:
        traced = WORKLOADS[workload](tiny=True).episode(11, 0, tracer=tracer)
    plain = WORKLOADS[workload](tiny=True).episode(11, 0)
    assert traced.digest() == plain.digest()  # tracing changes no output
    assert tracer.spans and not tracer.spans_dropped
    by_id = {span[0]: span for span in tracer.spans}
    for span_id, parent, _name, start, end, _action in tracer.spans:
        assert start <= end
        if parent:
            _, _, _, p_start, p_end, _ = by_id[parent]
            assert p_start <= start and end <= p_end
    total_self, roots = self_time_check(tracer.spans)
    assert total_self == pytest.approx(roots, rel=1e-9)
    assert sum(tracer.self_s.values()) == \
        pytest.approx(total_self, rel=1e-9)
    # the wrappers are gone again
    from repro.proxy.plugins import OutputPlugin
    assert not hasattr(OutputPlugin.process, "__wrapped__")


def test_misheard_power_off_leaves_no_unpowered_toggle():
    # seed 57, episode 13: a misheard word switches the amplifier off in
    # the kitchen; its mute switch must no longer be chosen as a target
    result = WORKLOADS["resident_roam"]().episode(57, 13)
    assert result.voice_misses >= 1
    assert result.failed == 0, result.failures


def test_same_seed_same_outputs_and_other_seed_differs():
    workload = WORKLOADS["resident_roam"](tiny=True)
    first = workload.episode(5, 0)
    again = workload.episode(5, 0)
    other = workload.episode(6, 0)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()


def test_cli_tiny_prints_result_last_and_leaves_baseline(tmp_path):
    baseline = HERE / "baseline.json"
    before = baseline.read_bytes() if baseline.exists() else None
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "adaptive_links",
         "--seed", "2", "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(done.stdout.strip().splitlines()[-2])["report"]
    for key in ("commit", "python", "numpy", "cpu", "nproc", "seed",
                "parameters"):
        assert key in report["provenance"]
    after = baseline.read_bytes() if baseline.exists() else None
    assert after == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "resident_roam",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
