"""Where the traced run wraps the package, and the per-layer metrics it
derives from the recorded spans.

Each target is patched where its caller looks it up, so e.g. the dense
kernel's forward pass is timed as ``ppo.forward`` and the surrogate as
``env.evaluate`` (the environment's calls) and ``agents.evaluate`` (the
greedy agent's look-ahead).  The layers are synchronous: the metrics are
busy time and counts, there is no waiting to record.
"""

from __future__ import annotations

from motorgame import agents, catalog, env, neural, ppo

from spans import SpanTable, Tracer

# (owner, attribute, span name); the span name is "<module>.<function>" of
# the code that runs, whichever module the call goes through.
TARGETS = (
    (ppo, "train", "ppo.train"),
    (ppo, "collect_rollout", "ppo.collect_rollout"),
    (ppo, "gae", "ppo.gae"),
    (ppo, "ppo_update", "ppo.ppo_update"),
    (ppo, "evaluate", "ppo.evaluate"),
    (ppo, "save_checkpoint", "ppo.save_checkpoint"),
    (ppo, "load_checkpoint", "ppo.load_checkpoint"),
    (ppo.EnvPool, "step", "ppo.EnvPool.step"),
    (ppo, "forward", "neural.forward"),
    (ppo, "backward", "neural.backward"),
    (ppo, "clip_grad_norm", "neural.clip_grad_norm"),
    (ppo, "adam_step", "neural.adam_step"),
    (neural.Categorical, "sample", "neural.Categorical.sample"),
    (env.DesignEnv, "step", "env.DesignEnv.step"),
    (env.DesignEnv, "reset", "env.DesignEnv.reset"),
    (env, "evaluate", "surrogate.evaluate"),
    (agents, "evaluate", "surrogate.evaluate"),
    (agents, "oracle_shortest", "agents.oracle_shortest"),
    (agents, "greedy_agent", "agents.greedy_agent"),
    (agents, "random_agent", "agents.random_agent"),
    (catalog, "generate_variants", "catalog.generate_variants"),
    (catalog, "feasible_mask", "catalog.feasible_mask"),
)

# The traced run also times the end-to-end rates on untraced repetitions
# and reports traced / untraced for these.
OVERHEAD_RATES = ("train_steps_per_s", "eval_steps_per_s", "oracle_variants_per_s",
                  "greedy_steps_per_s", "random_steps_per_s")

# Spans whose mean time per call is reported; each also gets "<span>.calls".
COUNTED = ("neural.forward", "neural.backward", "neural.clip_grad_norm",
           "neural.adam_step", "neural.Categorical.sample", "ppo.EnvPool.step",
           "ppo.collect_rollout", "ppo.ppo_update", "ppo.gae",
           "ppo.save_checkpoint", "ppo.load_checkpoint", "env.DesignEnv.step",
           "env.DesignEnv.reset", "surrogate.evaluate", "agents.oracle_shortest",
           "catalog.feasible_mask")


def install(tracer: Tracer) -> None:
    for owner, attr, name in TARGETS:
        tracer.patch(owner, attr, name)


def layer_metrics(table: SpanTable, reps: list, hyper) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced repetitions ``reps`` (Checked).

    ``.us``/``.ms`` are mean self time per call (children excluded);
    ``us_per_*`` and shares use inclusive time; ``.calls`` are per
    repetition.
    """
    def per_call(name, scale, parent=None):
        n = table.calls(name, parent)
        return table.self_total(name, parent) / n * scale if n else 0.0

    def per_unit(name, units, scale=1e6):
        return table.total(name) / units * scale if units else 0.0

    def share(name):
        train = table.total("ppo.train")
        return table.total(name) / train if train else 0.0

    def units(phase):
        return sum(sum(c.work[phase]) for c in reps)

    us, ms = 1e6, 1e3
    env_steps = table.calls("ppo.EnvPool.step") * hyper.env_count
    samples = table.calls("ppo.ppo_update") * hyper.horizon * hyper.env_count
    variants = units("catalog")
    feasible_draws = table.calls("catalog.feasible_mask", "catalog.generate_variants")
    greedy_steps = units("greedy")
    m = {
        "neural.adam_step.us": (per_call("neural.adam_step", us), "us"),
        "neural.clip_grad_norm.us": (per_call("neural.clip_grad_norm", us), "us"),
        "neural.backward.us": (per_call("neural.backward", us), "us"),
        "neural.forward.rollout.us": (per_call("neural.forward", us, "ppo.collect_rollout"), "us"),
        "neural.forward.minibatch.us": (per_call("neural.forward", us, "ppo.ppo_update"), "us"),
        "neural.forward.single.us": (per_call("neural.forward", us, "ppo.evaluate"), "us"),
        "neural.Categorical.sample.us": (per_call("neural.Categorical.sample", us), "us"),
        "ppo.EnvPool.step.us_per_env_step": (per_unit("ppo.EnvPool.step", env_steps), "us"),
        "ppo.collect_rollout.self_ms": (per_call("ppo.collect_rollout", ms), "ms"),
        "ppo.ppo_update.self_ms": (per_call("ppo.ppo_update", ms), "ms"),
        "ppo.ppo_update.us_per_sample": (per_unit("ppo.ppo_update", samples), "us"),
        "ppo.train.collect_share": (share("ppo.collect_rollout"), "share"),
        "ppo.train.update_share": (share("ppo.ppo_update"), "share"),
        "ppo.gae.ms": (per_call("ppo.gae", ms), "ms"),
        "ppo.save_checkpoint.ms": (per_call("ppo.save_checkpoint", ms), "ms"),
        "ppo.load_checkpoint.ms": (per_call("ppo.load_checkpoint", ms), "ms"),
        "env.DesignEnv.step.us": (per_call("env.DesignEnv.step", us), "us"),
        "env.DesignEnv.reset.us": (per_call("env.DesignEnv.reset", us), "us"),
        "surrogate.evaluate.us": (per_call("surrogate.evaluate", us), "us"),
        "agents.greedy_agent.us_per_step": (per_unit("agents.greedy_agent", greedy_steps), "us"),
        "agents.evaluate_calls_per_greedy_step": (
            table.calls("surrogate.evaluate", "agents.greedy_agent") / greedy_steps
            if greedy_steps else 0.0, "ratio"),
        "agents.random_agent.us_per_step": (
            per_unit("agents.random_agent", units("random")), "us"),
        "agents.oracle_shortest.ms": (per_call("agents.oracle_shortest", ms), "ms"),
        "catalog.generate_variants.us_per_variant": (
            per_unit("catalog.generate_variants", variants), "us"),
        "catalog.feasible_mask.us": (per_call("catalog.feasible_mask", us), "us"),
        "catalog.draw_accept_ratio": (
            variants / feasible_draws if feasible_draws else 0.0, "ratio"),
    }
    for name in COUNTED:
        m[f"{name}.calls"] = (table.calls(name) / len(reps), "count")
    return m

