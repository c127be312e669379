"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import SpanTable, Tracer, self_times  # noqa: E402

TINY = workloads.Workload(
    "tiny", catalog_per_machine=3, train_per_machine=1, eval_per_machine=1,
    hyper=dict(workloads.STOCK_HYPER, env_count=2, horizon=16, minibatch_size=16, epochs=1),
    updates=2, eval_episodes_per_variant=2)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    a = workloads.set_up(w, workloads.derive_seeds(w, 7), tmp_path)
    b = workloads.set_up(w, workloads.derive_seeds(w, 7), tmp_path)
    c = workloads.set_up(w, workloads.derive_seeds(w, 8), tmp_path)
    assert a.variants == b.variants and a.hyper == b.hyper
    assert a.variants != c.variants and a.hyper.seed != c.hyper.seed
    assert len(a.variants) == 3 * w.catalog_per_machine
    assert len(a.train) == 3 * w.train_per_machine
    assert len(a.eval_set) == 3 * w.eval_per_machine
    assert {v.split for v in a.eval_set} == {"holdout"}


def test_workloads_draw_their_own_seeds():
    stock, wide = workloads.WORKLOADS["train_stock"], workloads.WORKLOADS["train_wide"]
    assert workloads.derive_seeds(stock, 1) != workloads.derive_seeds(wide, 1)


def test_self_time_on_a_hand_built_tree():
    #   0 [0, 10]
    #   |-- 1 [1, 4]
    #   |   `-- 2 [2, 3]
    #   `-- 3 [5, 9]
    #   4 [12, 13]  (second root)
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 12.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 13.0])
    assert self_times(parent, end - start).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]

    table = SpanTable(["a", "b"], np.array([0, 1, 1, 1, 0]), parent, start, end)
    assert table.calls("b") == 3
    assert table.calls("b", parent="a") == 2
    assert table.total("a") == 11.0
    assert table.self_total("a") == 4.0
    assert table.self_total("b", parent="b") == 1.0


def test_rates_take_unit_medians_and_normalize_by_the_reference():
    def rep(catalog_timings):
        seconds = {phase: [] for phase in workloads.RATES}
        seconds["catalog"] = catalog_timings
        work = {phase: [] for phase in workloads.RATES}
        work["catalog"] = [100, 100]
        return workloads.Checked(1, [], "", seconds, work, {})

    nominal = workloads.REFERENCE_NOMINAL
    # unit 0 timed at 1.0 s (twice) and 9.0 s (a slow sample); unit 1 at
    # 2.0 s on a host running at half the reference speed
    reps = [rep([[(1.0, nominal), (9.0, nominal)], [(2.0, 2 * nominal)]]),
            rep([[(1.0, nominal)], [(2.0, 2 * nominal)]])]
    assert workloads.phase_rates(reps)["catalog_variants_per_s"] == 200 / (1.0 + 1.0)
    assert workloads.phase_rates(reps, normalized=False)["catalog_variants_per_s"] == 200 / 3.0
    assert workloads.phase_rates(reps)["train_steps_per_s"] == 0.0


def test_tracer_records_parents_and_restores_patches():
    class Owner:
        @staticmethod
        def outer():
            time.sleep(0.002)
            return Owner.inner() + 1

        @staticmethod
        def inner():
            time.sleep(0.001)
            return 1

    original_outer = vars(Owner)["outer"]
    tracer = Tracer()
    tracer.patch(Owner, "outer", "outer")
    tracer.patch(Owner, "inner", "inner")
    assert Owner.outer() == 2
    tracer.unpatch()
    assert vars(Owner)["outer"] is original_outer

    spans = tracer.arrays()
    assert [tracer.names[i] for i in spans["name_id"]] == ["outer", "inner"]
    assert spans["parent"].tolist() == [-1, 0]
    table = SpanTable.from_tracer(tracer)
    assert 0.0 < table.self_total("outer") < table.total("outer")


def test_tiny_workload_passes_its_checks_and_repeats_its_digest(tmp_path):
    seeds = workloads.derive_seeds(TINY, 3)
    inputs = workloads.set_up(TINY, seeds, tmp_path)
    first = workloads.check(inputs, workloads.run_phases(inputs, tmp_path), tmp_path)
    repeated = workloads.run_phases(inputs, tmp_path, min_phase_seconds=0.05)
    second = workloads.check(inputs, repeated, tmp_path)
    assert first.failures == [] and first.attempted > 0
    assert second.failures == [] and len(repeated.seconds["catalog"][0]) > 1
    assert first.digest == second.digest
    rates = workloads.phase_rates([first, second])
    assert set(rates) == set(workloads.RATES.values())
    assert all(value > 0 for value in rates.values())


def test_a_witness_that_stops_short_is_a_failure(tmp_path):
    from motorgame.agents import oracle_shortest

    inputs = workloads.set_up(TINY, workloads.derive_seeds(TINY, 3), tmp_path)
    variant = next(v for v in inputs.variants
                   if oracle_shortest(v).shortest_steps not in (None, 0))
    result = oracle_shortest(variant)
    base = inputs.bases[variant.base_id]
    assert workloads.witness_replays(variant, result, base)
    assert not workloads.witness_replays(
        variant, replace(result, witness=result.witness[:-1]), base)


def test_traced_repetition_yields_every_layer_metric(tmp_path):
    inputs = workloads.set_up(TINY, workloads.derive_seeds(TINY, 3), tmp_path)
    tracer = Tracer()
    layers.install(tracer)
    try:
        outputs = workloads.run_phases(inputs, tmp_path)
    finally:
        tracer.unpatch()
    checked = workloads.check(inputs, outputs, tmp_path)
    metrics = layers.layer_metrics(SpanTable.from_tracer(tracer), [checked], inputs.hyper)
    assert metrics["neural.adam_step.calls"][0] == 2 * 2 * 2  # updates * minibatches * nets
    assert metrics["catalog.draw_accept_ratio"][0] <= 1.0
    assert all(value > 0 for value, _ in metrics.values())


def test_printed_names_and_units_are_declared():
    rep = workloads.Checked(
        attempted=1, failures=[], digest="",
        seconds={phase: [[(1.0, 1.0)]] for phase in workloads.RATES},
        work={phase: [1] for phase in workloads.RATES},
        quality={"holdout_win_rate": 1.0, "holdout_step_ratio": 1.0})
    e2e = workloads.end_to_end_metrics([rep], [(0.1, 0.001)], 40.0)
    assert {name: unit for name, (_, unit) in e2e.items()} == declared("end_to_end")

    hyper = workloads.ppo.Hyperparams()
    per_layer = layers.layer_metrics(SpanTable.from_tracer(Tracer()), [rep], hyper)
    names = {name: unit for name, (_, unit) in per_layer.items()}
    names.update({f"overhead.{rate}": "ratio" for rate in layers.OVERHEAD_RATES})
    assert names == declared("per_layer")


def test_workloads_are_declared():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
