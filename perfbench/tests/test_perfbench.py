"""The benchmark's own tests, at tiny sizes.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import threading
from pathlib import Path

import pytest

from perfbench import harness, run as cli
from perfbench.harness import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    WrongAnswer,
    run_end_to_end,
    run_traced,
)
from perfbench.host import host_stamp
from perfbench.inputs import Oracle, Traffic, initial_items
from perfbench.tracing import LAYERS, LayerTracer
from perfbench.workloads import WORKLOADS, setup as real_setup

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "basic-zipf": dict(keys=500, capacity=500),
    "basic-zipf-cached": dict(keys=500, capacity=500, cache_blocks=16),
    "dynamic-mixed": dict(keys=200, capacity=400),
    "basic-file": dict(keys=500, capacity=500),
}
QUICK = dict(setup_repeats=2, setup_seconds=0, warmup_units=2, count_units=5,
             min_p99_samples=1)


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def quick_run(workload, tmp_path, seed=3, **overrides):
    return run_end_to_end(
        workload, seed, 0.2, str(tmp_path), **{**QUICK, **overrides}
    )


# -- smoke: every workload, every metric -------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_smoke_reports_every_metric(name, tmp_path):
    result = quick_run(tiny(name), tmp_path)
    metrics = result["metrics"]
    expected = set(END_TO_END_UNITS)
    if not WORKLOADS[name].mputs:
        expected -= {"mput_p50_us", "mput_p99_us", "ios_per_write_key"}
    assert set(metrics) == expected
    for metric_name, m in metrics.items():
        assert m["unit"] == END_TO_END_UNITS[metric_name]
        assert m["samples"] >= 1
    assert set(cli.GATED) <= set(metrics)
    assert metrics["keys_per_s"]["value"] > 0
    assert result["attempted"] >= 1
    assert list(tmp_path.iterdir()) == []  # file-backed disks removed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_reports_every_layer_and_unwraps(name, tmp_path):
    result = run_traced(tiny(name), 3, 0.4, str(tmp_path), warmup_units=2)
    metrics = result["metrics"]
    assert set(metrics) == set(PER_LAYER_UNITS)
    for metric_name, m in metrics.items():
        assert m["unit"] == PER_LAYER_UNITS[metric_name]
    assert metrics["core.mget.self_us"]["value"] > 0
    for _, cls, funcs in LAYERS:
        for func in funcs:
            assert not hasattr(cls.__dict__[func], "__wrapped__")
    if WORKLOADS[name].file_backed:
        assert metrics["fs.blockfile.read_busy_us_per_block"]["value"] > 0
        assert metrics["fs.blockfile.log_bytes_per_key"]["value"] > 0
    if WORKLOADS[name].cache_blocks:
        assert metrics["pdm.cache.hit_ratio"]["value"] > 0


def test_counts_repeat_exactly_for_a_seed(tmp_path):
    for name in ("basic-zipf-cached", "dynamic-mixed"):
        first = quick_run(tiny(name), tmp_path, seed=11)
        second = quick_run(tiny(name), tmp_path, seed=11)
        assert first["attempted"] == second["attempted"]
        assert first["failed"] == second["failed"]
        first, second = first["metrics"], second["metrics"]
        for metric in ("ios_per_read_key", "ios_per_write_key",
                       "space_bits_per_key"):
            if metric in first:
                assert first[metric]["value"] == second[metric]["value"]
    assert "ios_per_write_key" in first


def test_timed_phase_is_a_fixed_unit_count():
    workload = WORKLOADS["dynamic-mixed"]
    units = workload.timed_units(20, 1000)
    assert units == max(20 * workload.units_per_s, 1000)
    # enough units for a p99 of every request kind, however short the run
    assert workload.timed_units(0.1, 1000) * workload.gets >= 1000
    assert workload.timed_units(0.1, 1000) >= 1000


def test_times_scale_by_the_host_speed_around_each_unit():
    reference = 2.0  # steps per ns
    # (keys, busy ns, get, mget, mput samples, speed ns, speed steps)
    marks = [(0, 0, 0, 0, 0, 0, 0)]
    for j in range(6):
        ns, steps = marks[-1][5], marks[-1][6]
        speed = 2.0 if j < 3 else 4.0  # the host doubles its speed
        marks.append((0, 0, 0, 0, 0, ns + 100, steps + round(100 * speed)))
    scales = harness._unit_scales(marks, reference)
    assert scales[0] == 1.0 and scales[-1] == 2.0
    assert all(a <= b for a, b in zip(scales, scales[1:]))


# -- the oracle and failure accounting ----------------------------------------

class _Stub:
    """Delegates to a real dictionary, corrupting or raising on cue."""

    def __init__(self, real, *, wrong_on_get=None, raise_every_mget=None):
        self.real = real
        self.wrong_on_get = wrong_on_get
        self.raise_every_mget = raise_every_mget
        self.gets = 0
        self.mgets = 0

    def lookup(self, key):
        self.gets += 1
        result = self.real.lookup(key)
        if self.gets == self.wrong_on_get:
            return dataclasses.replace(result, found=not result.found)
        return result

    def batch_lookup(self, keys):
        self.mgets += 1
        if self.raise_every_mget and self.mgets % self.raise_every_mget == 0:
            raise RuntimeError("stub failure")
        return self.real.batch_lookup(keys)

    def __getattr__(self, name):
        return getattr(self.real, name)


def _stubbed(monkeypatch, **stub_options):
    def setup(workload, items, workdir):
        system = real_setup(workload, items, workdir)
        system.dictionary = _Stub(system.dictionary, **stub_options)
        return system

    monkeypatch.setattr(harness, "setup", setup)


def test_one_wrong_answer_fails_the_run(monkeypatch, tmp_path):
    _stubbed(monkeypatch, wrong_on_get=50)
    with pytest.raises(WrongAnswer):
        quick_run(tiny("basic-zipf"), tmp_path)


def test_wrong_answer_exits_nonzero_with_correct_false(
    monkeypatch, tmp_path, capsys
):
    _stubbed(monkeypatch, wrong_on_get=50)
    monkeypatch.setitem(cli.WORKLOADS, "basic-zipf", tiny("basic-zipf"))
    monkeypatch.setattr(cli, "WORKDIR", tmp_path / "work")
    code = cli.main(["--workload", "basic-zipf", "--seconds", "0.2"])
    assert code == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_raising_call_counts_every_key_it_carried(monkeypatch, tmp_path):
    _stubbed(monkeypatch, raise_every_mget=3)
    workload = tiny("basic-zipf")
    result = quick_run(workload, tmp_path)
    assert result["failed"] > 0
    assert result["failed"] % workload.mget_keys == 0
    assert result["errors"]["RuntimeError"] >= 1
    frac = result["metrics"]["failed_frac"]
    assert frac["value"] == result["failed"] / result["attempted"]
    assert frac["samples"] == result["attempted"]


def test_failed_write_makes_its_keys_unknown():
    rng = random.Random(5)
    oracle = Oracle(initial_items(rng, 50), rng)

    class Raising:
        def batch_delete(self, keys):
            raise OSError("disk gone")

    client = harness.Client(Raising(), oracle)
    victim = oracle.live[0]
    client.mput([victim], {7: 1})
    assert client.failed == client.attempted == 2
    assert victim in oracle.unknown and victim not in oracle.values
    assert len(client.latency_ns["mput"]) == 0


# -- inputs -------------------------------------------------------------------

def test_traffic_is_a_function_of_the_seed():
    def stream(seed):
        rng = random.Random(seed)
        oracle = Oracle(initial_items(rng, 300), rng)
        traffic = Traffic(oracle, rng, gets=4, mget_keys=16, mputs=1,
                          mput_keys=4)
        units = []
        for _ in range(20):
            unit = traffic.unit()
            units.append(unit)
            _, deletes, inserts = unit[-1]
            for key in deletes:
                oracle.remove(key)
            for key, value in inserts.items():
                oracle.add(key, value)
        return units

    assert stream(4) == stream(4)
    assert stream(4) != stream(5)


def test_benchmark_does_not_use_the_programs_workload_helpers():
    for path in (ROOT / "perfbench").glob("*.py"):
        assert "repro.workloads" not in path.read_text(), path


# -- tracing --------------------------------------------------------------------

def test_blockfile_busy_counter_is_thread_safe(tmp_path):
    from repro.fs.blockfile import BlockLogFile

    threads, reads = 8, 400
    tracer = LayerTracer()
    with BlockLogFile(str(tmp_path / "d.blk")) as log:
        log.append_block(0, [(1, 0, 2)], 64, None)
        tracer.install()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [log.read_block(0) for _ in range(reads)]
                )
                for _ in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(old)
            tracer.uninstall()
    calls, busy = tracer.lane_busy()
    assert calls == threads * reads
    assert busy > 0


def test_self_times_must_add_up():
    tracer = LayerTracer()
    tracer.begin("get")
    tracer._op_self = 5  # a span that was never closed into its parent
    with pytest.raises(AssertionError):
        tracer.end(3)


# -- host stamp and the benchmark definition ----------------------------------

def test_speed_task_is_fixed_work():
    from perfbench.host import speed_steps

    assert speed_steps(1000) == speed_steps(1000) != speed_steps(999)


def test_host_stamp():
    stamp = host_stamp()
    assert set(stamp) == {"cpu_model", "nproc", "python", "numpy",
                          "splitmix64_mixes_per_s"}
    assert stamp["splitmix64_mixes_per_s"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert [m["name"] for m in spec["end_to_end"]] == list(cli.GATED)
    for m in spec["end_to_end"]:
        assert m["unit"] == END_TO_END_UNITS[m["name"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
