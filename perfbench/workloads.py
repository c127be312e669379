"""Benchmark workloads: inputs made from a seed, one timed repetition of
the design loop, and the checks on what it produced.

Every workload runs the whole loop once per repetition, phase by phase:
catalog generation, BFS-oracle certification of every variant, one greedy
and one random episode per evaluation variant, PPO training, a checkpoint
round trip, and stochastic evaluation of the trained policy on the
evaluation variants (a holdout subset).  The
workloads differ in how much of each phase they run, which decides the
layer that dominates their wall time (see README.md).
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from motorgame import agents, catalog, ppo, surrogate
from motorgame.env import DesignEnv, RewardConfig, all_flags_zero
from motorgame.errors import TrainingDivergedError

# Every Hyperparams field except seed and total_steps, spelled out so a
# changed package default cannot change a workload.
STOCK_HYPER = dict(discount=0.99, gae_lambda=0.95, clip_ratio=0.2,
                   learning_rate=3e-4, epochs=4, minibatch_size=64,
                   horizon=1024, value_coef=0.5, entropy_coef=0.01,
                   env_count=8)
WIDE_HYPER = dict(STOCK_HYPER, env_count=64, horizon=128, minibatch_size=512)

REWARD = RewardConfig(right_direction_reward=1.0, wrong_direction_reward=-1.0,
                      revisit_penalty=-2.0, win_reward=100.0,
                      priority_weights=(5.0, 4.0, 3.0, 2.0, 1.0), max_steps=300)

# phase -> the end-to-end rate it gives
RATES = {
    "catalog": "catalog_variants_per_s",
    "oracle": "oracle_variants_per_s",
    "greedy": "greedy_steps_per_s",
    "random": "random_steps_per_s",
    "train": "train_steps_per_s",
    "eval": "eval_steps_per_s",
}

# On a shared host the CPU's speed drifts by 15-20% over seconds, so a
# phase shorter than this is repeated, whole pass after whole pass, to
# sample more of the run.  Traced repetitions make one pass, so their call
# counts repeat exactly.
MIN_PHASE_SECONDS = 0.5

# Every timing is paired with the time of a fixed reference computation
# run just before it, re-timed at most every REFERENCE_EVERY seconds.
# Rates divide each timing by its reference time and scale by
# REFERENCE_NOMINAL, about the reference's time on the 2-core Xeon the
# workloads were sized on, so they read as rates at that speed.  Host
# drift slows the reference and the package alike, so most of it drops
# out; without this, the run-to-run spread of the rates was 2-5 times wider.
REFERENCE_EVERY = 0.05
REFERENCE_NOMINAL = 0.001
_REFERENCE_MATRIX = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)


def reference_seconds() -> float:
    """Time of a fixed computation that does not use the package.

    It mixes the package's three kinds of work: interpreter-bound Python,
    numpy calls on small arrays, and one BLAS-bound product.  The host's
    drift slows the first kind most and the last least, and the phases mix
    them differently, so the reference sits between them.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
    a = np.full((8, 64), 0.5)
    for _ in range(60):
        a = np.tanh(a @ _REFERENCE_MATRIX)
    np.tanh(np.full((512, 64), 0.5) @ _REFERENCE_MATRIX)
    return time.perf_counter() - t0


class ReferenceClock:
    """The latest reference time, refreshed when older than REFERENCE_EVERY."""

    def __init__(self):
        self._at, self._seconds = -math.inf, 0.0

    def now(self) -> float:
        if time.perf_counter() - self._at > REFERENCE_EVERY:
            self._seconds = reference_seconds()
            self._at = time.perf_counter()
        return self._seconds


@dataclass(frozen=True)
class Workload:
    name: str
    catalog_per_machine: int     # variants generated, and certified by the oracle
    train_per_machine: int       # the first ones are the train split, the rest holdout
    eval_per_machine: int        # holdout variants given to the policy, greedy and random
    hyper: dict
    updates: int                 # PPO updates per training run
    eval_episodes_per_variant: int


# The oracle certifies 900 variants everywhere: its cost grows steeply with
# a variant's BFS depth, and fewer variants let the depth mix of one seed's
# catalog move its rate by a third.
WORKLOADS = {
    w.name: w for w in (
        Workload("train_stock", 300, 25, 50, STOCK_HYPER, updates=8,
                 eval_episodes_per_variant=10),
        Workload("train_wide", 300, 25, 50, WIDE_HYPER, updates=8,
                 eval_episodes_per_variant=10),
        Workload("baseline_sweep", 300, 25, 100, WIDE_HYPER, updates=8,
                 eval_episodes_per_variant=4),
    )
}


@dataclass(frozen=True)
class Seeds:
    catalog: int
    train: int
    eval: int
    random_agent: int


def derive_seeds(workload: Workload, workload_seed: int) -> Seeds:
    """Independent package seeds from the benchmark seed; each workload
    draws its own, so no two workloads train on the same catalog."""
    rng = random.Random(f"{workload.name}:{workload_seed}")
    return Seeds(*(rng.getrandbits(31) for _ in fields(Seeds)))


@dataclass
class Inputs:
    workload: Workload
    seeds: Seeds
    variants: list           # the loaded catalog, train split first per machine
    hyper: ppo.Hyperparams
    bases: dict = field(default_factory=dict)

    @property
    def train(self):
        return [v for v in self.variants if v.split == "train"]

    @property
    def eval_set(self):
        """The first eval_per_machine holdout variants of each machine."""
        w = self.workload
        return [v for i, v in enumerate(self.variants)
                if w.train_per_machine <= i % w.catalog_per_machine
                < w.train_per_machine + w.eval_per_machine]


def machine_catalog(w: Workload, seeds: Seeds, base) -> list:
    """One machine's variants, split as `motorgame catalog` splits them."""
    batch = catalog.generate_variants(base, w.catalog_per_machine, seeds.catalog)
    return [v if i < w.train_per_machine else catalog.with_split(v, "holdout")
            for i, v in enumerate(batch)]


def set_up(w: Workload, seeds: Seeds, workdir: Path) -> Inputs:
    """Cold start to a loaded catalog: empty lattice cache, generate, write
    and read back the catalog file (the `catalog` -> `train` hand-off)."""
    surrogate.evaluate_grid.cache_clear()
    path = workdir / f"catalog-{w.name}.txt"
    catalog.save_catalog([v for base in catalog.builtin_catalog()
                          for v in machine_catalog(w, seeds, base)], path)
    variants = catalog.load_catalog(path)
    hyper = ppo.Hyperparams(**w.hyper, seed=seeds.train,
                            total_steps=w.updates * w.hyper["horizon"] * w.hyper["env_count"])
    return Inputs(w, seeds, variants, hyper,
                  bases={m.id: m for m in catalog.builtin_catalog()})


@dataclass
class Outputs:
    """What one repetition produced.  ``seconds[phase][unit]`` lists, for
    each timing of one unit of work (a machine's catalog, a variant, a PPO
    update), its wall seconds and the reference seconds paired with it."""

    seconds: dict = field(default_factory=dict)
    repeats_agree: bool = True
    catalog: list = field(default_factory=list)
    oracle: list = field(default_factory=list)
    greedy: list = field(default_factory=list)
    random: list = field(default_factory=list)
    diverged: TrainingDivergedError | None = None
    checkpoint: object = None
    checkpoint_text: str = ""
    train_rows: list = field(default_factory=list)
    eval_rows: list = field(default_factory=list)


def run_phases(inp: Inputs, workdir: Path, min_phase_seconds: float = 0.0) -> Outputs:
    """One repetition of the loop, timed unit by unit."""
    clock = time.perf_counter
    ref = ReferenceClock()
    out = Outputs()
    bases = inp.bases
    bracket = list(enumerate(inp.eval_set))

    def passes(phase, fn, items):
        """Time fn on each item; repeat whole passes until the phase has
        run min_phase_seconds.  Returns the first pass's results."""
        times = out.seconds[phase] = [[] for _ in items]
        first, spent = None, 0.0
        while first is None or spent < min_phase_seconds:
            results = []
            for unit, item in enumerate(items):
                r = ref.now()
                t0 = clock()
                results.append(fn(item))
                times[unit].append((clock() - t0, r))
                spent += times[unit][-1][0]
            if first is None:
                first = results
            elif results != first:
                out.repeats_agree = False
        return first

    out.catalog = [v for batch in passes(
        "catalog", lambda base: machine_catalog(inp.workload, inp.seeds, base),
        catalog.builtin_catalog()) for v in batch]
    out.oracle = passes(
        "oracle", lambda v: agents.oracle_shortest(v, bases[v.base_id]), inp.variants)
    out.greedy = passes(
        "greedy", lambda iv: agents.greedy_agent(DesignEnv(iv[1], bases[iv[1].base_id], REWARD)),
        bracket)
    out.random = passes(
        "random", lambda iv: agents.random_agent(
            DesignEnv(iv[1], bases[iv[1].base_id], REWARD),
            np.random.default_rng([inp.seeds.random_agent, iv[0]])),
        bracket)

    # The reference runs between updates, outside the timed intervals; an
    # update's timing is paired with the mean of the references on both
    # sides of it.
    def between_updates():
        return statistics.median(reference_seconds() for _ in range(3))

    marks = [(None, between_updates(), clock())]  # (end, reference, next start)

    def update_done(row):
        end = clock()
        marks.append((end, between_updates(), clock()))

    try:
        ckpt, report = ppo.train(inp.train, inp.hyper, reward_config=REWARD,
                                 progress=update_done)
    except TrainingDivergedError as exc:
        out.diverged = exc
        return out
    out.seconds["train"] = [[(b[0] - a[2], (a[1] + b[1]) / 2)]
                            for a, b in zip(marks, marks[1:])]
    out.train_rows = report.rows

    path = workdir / "checkpoint.txt"
    ppo.save_checkpoint(ckpt, str(path))
    out.checkpoint_text = path.read_text()
    out.checkpoint = ppo.load_checkpoint(str(path))

    # One evaluate() call per holdout variant: the same episodes as one
    # call over the split (episode seeds depend on the variant only).
    per_variant = passes(
        "eval", lambda v: ppo.evaluate(
            out.checkpoint.actor, [v],
            episodes_per_variant=inp.workload.eval_episodes_per_variant,
            mode="stochastic", seed=inp.seeds.eval, reward_config=REWARD).rows,
        inp.eval_set)
    out.eval_rows = [row for rows in per_variant for row in rows]
    return out


def witness_replays(variant, result, base) -> bool:
    """The oracle's witness wins on DesignEnv in exactly shortest_steps steps
    (zero steps: the start is already feasible)."""
    env = DesignEnv(variant, base, REWARD)
    env.reset()
    if result.shortest_steps == 0:
        return all_flags_zero(env.flags) and not result.witness
    info = None
    for action in result.witness:
        if env.done:
            return False
        _, _, _, info = env.step(action)
    return (info is not None and info.win
            and env.steps == result.shortest_steps == len(result.witness))


def _row_finite(row) -> bool:
    """Every float of a metrics row is finite, except the NaN that marks an
    average over no episodes (or no wins) in that update."""
    no_data = set()
    if row.episodes == 0:
        no_data = {"mean_episode_reward", "win_rate", "mean_winning_steps"}
    elif row.win_rate == 0.0:
        no_data = {"mean_winning_steps"}
    for f in fields(row):
        value = getattr(row, f.name)
        if isinstance(value, float) and not math.isfinite(value) and not (
                f.name in no_data and math.isnan(value)):
            return False
    return True


@dataclass
class Checked:
    attempted: int
    failures: list
    digest: str
    seconds: dict              # phase -> per unit, its (seconds, reference) timings
    work: dict                 # phase -> per unit, what the phase's rate counts
    quality: dict              # holdout_win_rate, holdout_step_ratio


def check(inp: Inputs, out: Outputs, workdir: Path) -> Checked:
    """Count failed operations against attempted ones and hash the outputs."""
    attempted, failures = 0, []

    def expect(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    expect(out.catalog == inp.variants, "catalog not reproduced")
    expect(out.repeats_agree, "a repeated pass gave other results")
    optimum = {}
    for v, r in zip(inp.variants, out.oracle):
        key = (v.base_id, v.variant_seed)
        expect(r.shortest_steps is not None, f"oracle cannot certify {key}")
        if r.shortest_steps is not None:
            expect(witness_replays(v, r, inp.bases[v.base_id]),
                   f"oracle witness of {key} does not replay")
            optimum[key] = r.shortest_steps
    attempted += len(out.greedy) + len(out.random)

    expect(out.diverged is None, f"training diverged: {out.diverged}")
    for row in out.train_rows:
        expect(_row_finite(row), f"non-finite metrics row {row.update}")
    quality = {"holdout_win_rate": 0.0, "holdout_step_ratio": 0.0}
    if out.checkpoint is not None:
        again = workdir / "checkpoint-again.txt"
        ppo.save_checkpoint(out.checkpoint, str(again))
        expect(again.read_text() == out.checkpoint_text, "checkpoint round trip changed it")
        expected_rows = len(inp.eval_set) * inp.workload.eval_episodes_per_variant
        expect(len(out.eval_rows) == expected_rows, "evaluation row count")
        wins = [r for r in out.eval_rows if r.win]
        # an already-feasible start still takes one step to close
        best = sum(max(1, optimum[(r.machine_id, r.variant_seed)]) for r in wins)
        quality = {"holdout_win_rate": len(wins) / len(out.eval_rows),
                   "holdout_step_ratio": sum(r.steps for r in wins) / best if best else 0.0}

    digest = hashlib.sha256()
    for part in (out.checkpoint_text,
                 [(r.machine_id, r.variant_seed, r.steps, r.win) for r in out.eval_rows],
                 [r.shortest_steps for r in out.oracle],
                 out.greedy, out.random):
        digest.update(repr(part).encode())

    eps = inp.workload.eval_episodes_per_variant
    work = {
        "catalog": [inp.workload.catalog_per_machine] * len(out.seconds["catalog"]),
        "oracle": [1] * len(out.oracle),
        "greedy": [r.steps for r in out.greedy],
        "random": [r.steps for r in out.random],
        "train": [inp.hyper.horizon * inp.hyper.env_count] * len(out.train_rows),
        "eval": [sum(r.steps for r in out.eval_rows[i:i + eps])
                 for i in range(0, len(out.eval_rows), eps)],
    }
    return Checked(attempted, failures, digest.hexdigest(), out.seconds, work, quality)


def phase_rates(reps: list[Checked], normalized: bool = True) -> dict[str, float]:
    """End-to-end rates over repetitions of the same inputs.

    Each unit of work (a machine's catalog, a variant, a PPO update) is
    timed in every repetition and pass; its time is the median of those
    timings, so one slow sample does not move it.  A phase's rate is its
    work over the sum of its units' times.  ``normalized`` expresses each
    timing at the reference speed (see REFERENCE_NOMINAL).
    """
    rates = {}
    for phase, name in RATES.items():
        samples = [c.seconds[phase] for c in reps if c.seconds.get(phase)]
        if not samples:
            rates[name] = 0.0
            continue
        unit_seconds = [
            statistics.median(t * REFERENCE_NOMINAL / r if normalized else t
                              for rep in unit for t, r in rep)
            for unit in zip(*samples)]
        rates[name] = sum(reps[0].work[phase]) / sum(unit_seconds)
    return rates


def end_to_end_metrics(reps: list[Checked], setup_seconds: list[tuple[float, float]],
                       peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The untraced run's metrics: name -> (value, unit).  ``setup_seconds``
    pairs each set-up's time with the reference time taken before it."""
    metrics = {name: (value, "1/s") for name, value in phase_rates(reps).items()}
    # deterministic for a seed; repetitions agree (the digest checks it)
    metrics["holdout_win_rate"] = (reps[0].quality["holdout_win_rate"], "ratio")
    metrics["holdout_step_ratio"] = (reps[0].quality["holdout_step_ratio"], "ratio")
    metrics["setup_s"] = (
        statistics.median(t * REFERENCE_NOMINAL / r for t, r in setup_seconds), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics
