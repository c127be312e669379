"""The count rule: every entry point that takes a count checks it with
errors.check_count, so each rejects a bool, a float and a value below its
least with the one message."""

import numpy as np
import pytest

from motorgame.agents import play_greedy
from motorgame.catalog import generate_variants, machine_by_id, variant_seed_for
from motorgame.cli import RunConfig, cmd_eval
from motorgame.env import RewardConfig, walk
from motorgame.errors import ContractViolationError, check_count
from motorgame.ppo import (
    EnvPool,
    Hyperparams,
    collect_rollout,
    evaluate,
    evaluate_agent,
    new_checkpoint,
)

VARIANT = generate_variants(machine_by_id(1), 1, 0)[0]
NETS = new_checkpoint(Hyperparams())

# entry point -> (the count's name in the message, its least, a call passing it);
# a checkpoint's counts are text, which int() reads first (see test_ppo.py)
COUNTS = {
    "collect_rollout": ("horizon", 1, lambda n: collect_rollout(
        EnvPool([VARIANT], 1), NETS.actor, NETS.critic, n, np.random.default_rng(0))),
    **{f"Hyperparams.{name}": (name, 1, lambda n, name=name: Hyperparams(**{name: n}))
       for name in ("epochs", "minibatch_size", "horizon", "total_steps", "env_count")},
    "evaluate_agent": ("episodes_per_variant", 1, lambda n: evaluate_agent(
        play_greedy, [VARIANT], n, "greedy")),
    "evaluate": ("episodes_per_variant", 1, lambda n: evaluate(
        NETS.actor, [VARIANT], episodes_per_variant=n)),
    "RewardConfig": ("max_steps", 1, lambda n: RewardConfig(max_steps=n)),
    "walk": ("max_steps", 1, lambda n: walk(VARIANT, [], n)),
    "EnvPool": ("env_count", 1, lambda n: EnvPool([VARIANT], n)),
    "generate_variants.count": ("count", 1, lambda n: generate_variants(
        machine_by_id(1), n, 0)),
    "generate_variants.seed": ("catalog seed", 0, lambda n: generate_variants(
        machine_by_id(1), 1, n)),
    "variant_seed_for": ("catalog seed", 0, lambda n: variant_seed_for(n, 1, 0)),
    "cmd_eval": ("--episodes-per-variant", 1, lambda n: cmd_eval(
        RunConfig(episodes_per_variant=n))),
}


@pytest.mark.parametrize("bad", ["bool", "float", "below"])
@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_breaks_the_one_rule_with_the_one_message(entry, bad):
    name, least, call = COUNTS[entry]
    value = {"bool": True, "float": 1.0, "below": least - 1}[bad]
    with pytest.raises(ContractViolationError) as err:
        call(value)
    assert str(err.value) == f"{name} must be an integer >= {least}, got {value!r}"


def test_check_count_returns_a_python_int():
    for value in (3, np.int64(3), np.uint8(3)):
        count = check_count("n", value, least=3)
        assert count == 3 and type(count) is int
