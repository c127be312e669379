"""Command-line entry point: config resolution, the five subcommands,
and the machine-parseable exit codes (0 ok, 1 validation, 2 runtime)."""

import codecs
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from motorgame.catalog import (
    MachineVariant,
    TargetBands,
    generate_variants,
    load_catalog,
    machine_by_id,
    save_catalog,
)
from motorgame import agents, cli, ppo
from motorgame.cli import (
    RunConfig,
    build_parser,
    load_config_file,
    main,
    resolve_config,
)
from motorgame.env import NUM_ACTIONS, OBSERVATION_DIM, DesignEnv
from motorgame.errors import MotorGameError, TextFormatError, TrainingDivergedError
from motorgame.neural import AdamState, init
from motorgame.ppo import (
    Hyperparams,
    derive_seed,
    load_checkpoint,
    new_checkpoint,
    save_checkpoint,
    write_episode_csv,
)
from motorgame.surrogate import lattice_index


SMALL_TRAIN = ["--horizon", "16", "--env-count", "2", "--total-steps", "32",
               "--minibatch-size", "8", "--epochs", "2", "--seed", "5"]


def _make_catalog(tmp_path, extra=()):
    path = tmp_path / "catalog.txt"
    code = main(["catalog", "--catalog-path", str(path),
                 "--train-per-machine", "2", "--holdout-per-machine", "1",
                 *extra])
    assert code == 0
    return path


def _train_small(tmp_path, catalog):
    ckpt = tmp_path / "ckpt.txt"
    metrics = tmp_path / "metrics.txt"
    code = main(["train", "--catalog-path", str(catalog),
                 "--checkpoint-path", str(ckpt), "--metrics-path", str(metrics),
                 *SMALL_TRAIN])
    assert code == 0
    return ckpt, metrics


# --- config resolution -----------------------------------------------------------


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nseed = 3\nlearning_rate = 1e-3\n"
                    "agent = greedy\n")
    values = load_config_file(str(path))
    assert values == {"seed": 3, "learning_rate": 1e-3, "agent": "greedy"}


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("not_a_key = 1\n")
    with pytest.raises(TextFormatError, match=r":1: unknown config key 'not_a_key'"):
        load_config_file(str(path))


def test_config_file_rejects_duplicates_and_bad_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(TextFormatError, match=r":2: duplicate key 'seed'"):
        load_config_file(str(path))
    path.write_text("just some words\n")
    with pytest.raises(TextFormatError, match=r":1: expected key = value"):
        load_config_file(str(path))
    path.write_text("# run\nseed = abc\n")
    with pytest.raises(TextFormatError, match=r":2: bad value for seed: 'abc'"):
        load_config_file(str(path))


@pytest.mark.parametrize("key,value,reason", [
    ("learning_rate", "-1", "learning_rate -1.0 must be > 0"),
    ("discount", "nan", "discount nan is not finite"),
    ("horizon", "0", "horizon must be an integer >= 1, got 0"),
    ("right_direction_reward", "-1", "need right_direction_reward > 0 > wrong_direction_reward"),
    ("revisit_penalty", "0", "revisit_penalty must be negative"),
    ("win_reward", "inf", "reward values must be finite"),
    ("max_steps", "0", "max_steps must be an integer >= 1, got 0"),
])
def test_a_config_value_that_breaks_its_field_rule_fails_at_its_line(tmp_path, capsys,
                                                                     key, value, reason):
    """Each Hyperparams and RewardConfig rule of one field is checked at
    the config line, before any flag is merged in."""
    path = tmp_path / "run.cfg"
    path.write_text(f"# run\nseed = 3\n{key} = {value}\n")
    with pytest.raises(TextFormatError) as err:
        load_config_file(str(path))
    assert str(err.value) == f"{path}:3: bad value for {key}: {reason}"
    assert main(["--config", str(path), "train"]) == 1
    assert capsys.readouterr().err == f"error: {path}:3: bad value for {key}: {reason}\n"


def test_the_win_reward_rule_spans_keys_and_is_checked_after_the_flags(tmp_path, capsys):
    """A right_direction_reward too large for the default win_reward is no
    fault of its line: a flag may still raise win_reward."""
    path = tmp_path / "run.cfg"
    path.write_text("right_direction_reward = 10.0\n")
    assert load_config_file(str(path)) == {"right_direction_reward": 10.0}
    catalog = _make_catalog(tmp_path, extra=["--machines", "1"])
    args = ["--config", str(path), "train", "--catalog-path", str(catalog),
            "--checkpoint-path", str(tmp_path / "ckpt.txt"),
            "--metrics-path", str(tmp_path / "metrics.txt"), *SMALL_TRAIN]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: win_reward too small to dominate shaping rewards\n")
    assert main([*args, "--win-reward", "500"]) == 0


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nhorizon = 128\n")
    args = build_parser().parse_args(
        ["--config", str(path), "train", "--seed", "4"])
    config, set_by = resolve_config(args)
    assert config.seed == 4          # flag beats file
    assert config.horizon == 128     # file beats default
    assert set_by == {"seed": "--seed", "horizon": f"horizon in {path}"}


def test_print_config_echoes_resolved_values(tmp_path, capsys):
    _make_catalog(tmp_path)
    code = main(["--print-config", "catalog",
                 "--catalog-path", str(tmp_path / "catalog.txt"),
                 "--catalog-seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "catalog_seed = 2" in out
    assert "discount = 0.99" in out
    assert "agent = ppo" in out


def test_runconfig_defaults():
    config = RunConfig()
    assert config.total_steps == 400_000
    assert config.machines == "1,2,3"
    assert (config.train_per_machine, config.holdout_per_machine) == (25, 5)
    assert config.split == "holdout" and config.agent == "ppo"
    assert config.episodes_per_variant == 20


# --- catalog command --------------------------------------------------------------


def test_catalog_command_counts(tmp_path, capsys):
    path = tmp_path / "catalog.txt"
    assert main(["catalog", "--catalog-path", str(path)]) == 0
    out = capsys.readouterr().out
    for machine_id in (1, 2, 3):
        assert f"machine {machine_id}: 25 train + 5 holdout" in out
    assert "wrote 90 variants" in out
    variants = load_catalog(path)
    assert len(variants) == 90
    assert sum(v.split == "train" for v in variants) == 75
    assert sum(v.split == "holdout" for v in variants) == 15


@pytest.mark.parametrize("train,holdout", [("-1", "3"), ("2", "-1")])
def test_catalog_rejects_negative_counts(tmp_path, capsys, train, holdout):
    path = tmp_path / "catalog.txt"
    assert main(["catalog", "--catalog-path", str(path), "--train-per-machine", train,
                 "--holdout-per-machine", holdout]) == 1
    assert "must be >= 0" in capsys.readouterr().err
    assert not path.exists()


def test_catalog_rejects_zero_variants_per_machine(tmp_path, capsys):
    path = tmp_path / "catalog.txt"
    assert main(["catalog", "--catalog-path", str(path), "--train-per-machine", "0",
                 "--holdout-per-machine", "0"]) == 1
    err = capsys.readouterr().err
    assert "--train-per-machine" in err and "--holdout-per-machine" in err
    assert not path.exists()


def test_catalog_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["catalog", "--catalog-path", str(a)]) == 0
    assert main(["catalog", "--catalog-path", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_catalog_single_machine(tmp_path):
    path = tmp_path / "catalog.txt"
    assert main(["catalog", "--catalog-path", str(path), "--machines", "1"]) == 0
    variants = load_catalog(path)
    assert len(variants) == 30
    assert all(v.base_id == 1 for v in variants)


def test_catalog_rejects_unknown_machine(tmp_path, capsys):
    for machines in ("9", "1,1"):
        code = main(["catalog", "--catalog-path", str(tmp_path / "c.txt"),
                     "--machines", machines])
        assert code == 1
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "c.txt").exists()


# --- train command -----------------------------------------------------------------


def test_train_smoke_writes_checkpoint_and_metrics(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    ckpt_path, metrics_path = _train_small(tmp_path, catalog)
    out = capsys.readouterr().out
    assert "update=1" in out and "checkpoint written" in out
    ckpt = load_checkpoint(str(ckpt_path))
    assert ckpt.update_index == 1 and ckpt.env_steps == 32
    assert len(metrics_path.read_text().splitlines()) == 1


def test_train_progress_line_adds_steps_per_s_to_the_metrics_row(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    _, metrics_path = _train_small(tmp_path, catalog)
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("update=")]
    row, rate = printed[0].rsplit(" steps_per_s=", 1)
    assert metrics_path.read_text() == row + "\n"
    assert int(rate) > 0


def test_train_metrics_file(tmp_path):
    catalog = _make_catalog(tmp_path)
    metrics = tmp_path / "metrics.txt"
    assert main(["train", "--catalog-path", str(catalog),
                 "--checkpoint-path", str(tmp_path / "ckpt.txt"),
                 "--metrics-path", str(metrics), *SMALL_TRAIN,
                 "--total-steps", "64"]) == 0  # two updates
    lines = metrics.read_text().splitlines()
    assert len(lines) == 2
    first = dict(kv.split("=", 1) for kv in lines[0].split())
    assert first["update"] == "1" and first["env_steps"] == "32"
    float(first["policy_loss"])  # parses
    second = dict(kv.split("=", 1) for kv in lines[1].split())
    assert second["update"] == "2" and second["env_steps"] == "64"


@pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="the critic worker needs os.fork and 2 CPUs")
def test_train_with_the_worker_writes_the_files_of_the_in_process_run(tmp_path, monkeypatch):
    """`motorgame train` with one BLAS thread forks the critic worker; its
    checkpoint and metrics.txt are byte for byte the in-process run's.  Four
    updates of 3 epochs of 48-row minibatches, the last of each epoch short."""
    catalog = _make_catalog(tmp_path)

    def args(name):
        return ["train", "--catalog-path", str(catalog),
                "--checkpoint-path", str(tmp_path / f"{name}.ckpt"),
                "--metrics-path", str(tmp_path / f"{name}.metrics"),
                "--horizon", "64", "--env-count", "4", "--total-steps", "1024",
                "--minibatch-size", "48", "--epochs", "3", "--seed", "5"]

    monkeypatch.setattr(ppo, "_worker_can_run", lambda: False)
    assert main(args("in_process")) == 0
    done = _python("-c", "import sys; from motorgame import cli, ppo; "
                   "sys.exit(cli.main(sys.argv[1:]) if ppo._worker_can_run() else 99)",
                   *args("worker"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    assert done.returncode == 0, done.stderr
    for suffix in ("ckpt", "metrics"):
        assert (tmp_path / f"worker.{suffix}").read_bytes() == \
            (tmp_path / f"in_process.{suffix}").read_bytes()


@pytest.mark.skipif(not ppo._worker_can_run(),
                    reason="forks a worker: needs os.fork, 2 CPUs and one OS thread")
def test_critic_worker_that_dies_exits_one(tmp_path, monkeypatch, capsys):
    catalog = _make_catalog(tmp_path)
    parent = os.getpid()

    def dies(*args):
        assert os.getpid() != parent, "the critic ran in the parent"
        os._exit(3)

    monkeypatch.setattr(ppo, "_critic_loss", dies)
    capsys.readouterr()
    assert main(["train", "--catalog-path", str(catalog),
                 "--checkpoint-path", str(tmp_path / "ckpt.txt"),
                 "--metrics-path", str(tmp_path / "metrics.txt"), *SMALL_TRAIN]) == 1
    assert re.fullmatch(r"error: critic worker \d+ exited\n", capsys.readouterr().err)


def test_train_fresh_run_truncates_metrics(tmp_path):
    catalog = _make_catalog(tmp_path)
    for _ in range(2):
        _, metrics = _train_small(tmp_path, catalog)
    lines = metrics.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("update=1 ")


def test_train_resume_continues_numbering(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    ckpt_path, metrics_path = _train_small(tmp_path, catalog)
    capsys.readouterr()
    code = main(["train", "--catalog-path", str(catalog),
                 "--checkpoint-path", str(ckpt_path),
                 "--metrics-path", str(metrics_path),
                 "--total-steps", "64", "--resume"])
    assert code == 0
    out = capsys.readouterr().out
    assert "resuming from update 1 (32 env steps)" in out
    assert load_checkpoint(str(ckpt_path)).update_index == 2
    lines = metrics_path.read_text().splitlines()
    assert len(lines) == 2  # appended, not truncated
    assert "update=2" in lines[1]


def test_train_resume_drops_the_rows_an_interrupted_run_wrote(tmp_path, capsys):
    """An interrupted run has written rows past its checkpoint, the last one
    cut short: the resume keeps the rows up to the checkpoint and writes its
    own after them."""
    catalog = _make_catalog(tmp_path)
    ckpt_path, metrics_path = tmp_path / "ckpt.txt", tmp_path / "metrics.txt"
    args = ["train", "--catalog-path", str(catalog), "--checkpoint-path", str(ckpt_path),
            "--metrics-path", str(metrics_path)]
    assert main([*args, *SMALL_TRAIN, "--total-steps", "64"]) == 0
    kept = metrics_path.read_text()
    with open(metrics_path, "a") as metrics:
        metrics.write("update=3 env_steps=96 fake=1\nupdate=4 env_steps=128 fake=1\nupd")
    capsys.readouterr()
    assert main([*args, "--total-steps", "96", "--resume"]) == 0
    printed = [line.rsplit(" steps_per_s=", 1)[0]
               for line in capsys.readouterr().out.splitlines() if line.startswith("update=")]
    assert len(printed) == 1 and printed[0].startswith("update=3 env_steps=96 episodes=")
    assert metrics_path.read_text() == kept + printed[0] + "\n"
    assert [row.split()[0] for row in metrics_path.read_text().splitlines()] == [
        "update=1", "update=2", "update=3"]


@pytest.mark.parametrize("foreign", ["\n", "hello\n"], ids=["blank", "hello"])
def test_train_resume_rejects_a_line_that_is_not_a_metrics_row(tmp_path, capsys, foreign):
    """A whole line that is not ``update=N ...`` stops the resume before it
    trains or writes anything; a cut-short last line alone is dropped."""
    catalog = _make_catalog(tmp_path)
    ckpt_path, metrics_path = _train_small(tmp_path, catalog)
    metrics_path.write_text(metrics_path.read_text() + foreign + "upd")
    before = metrics_path.read_bytes(), ckpt_path.read_bytes()
    capsys.readouterr()
    assert main(["train", "--catalog-path", str(catalog), "--checkpoint-path", str(ckpt_path),
                 "--metrics-path", str(metrics_path), "--total-steps", "64", "--resume"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {metrics_path}:2: not a metrics row: {foreign.strip()!r}\n")
    assert "update=" not in captured.out
    assert (metrics_path.read_bytes(), ckpt_path.read_bytes()) == before


def test_train_resume_into_a_new_metrics_file(tmp_path):
    catalog = _make_catalog(tmp_path)
    ckpt_path, _ = _train_small(tmp_path, catalog)
    fresh = tmp_path / "fresh-metrics.txt"
    assert main(["train", "--catalog-path", str(catalog), "--checkpoint-path", str(ckpt_path),
                 "--metrics-path", str(fresh), "--total-steps", "64", "--resume"]) == 0
    assert [row.split()[0] for row in fresh.read_text().splitlines()] == ["update=2"]


@pytest.mark.parametrize("flag,value", [
    ("--learning-rate", "0.05"), ("--env-count", "4"), ("--seed", "6")])
def test_train_resume_rejects_changed_hyperparams(tmp_path, capsys, flag, value):
    catalog = _make_catalog(tmp_path)
    ckpt_path, metrics_path = _train_small(tmp_path, catalog)
    before = ckpt_path.read_text()
    capsys.readouterr()
    code = main(["train", "--catalog-path", str(catalog),
                 "--checkpoint-path", str(ckpt_path),
                 "--metrics-path", str(metrics_path),
                 "--total-steps", "64", flag, value, "--resume"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert ckpt_path.read_text() == before
    assert len(metrics_path.read_text().splitlines()) == 1


def test_train_resume_accepts_the_checkpoints_own_hyperparams(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    ckpt_path, metrics_path = _train_small(tmp_path, catalog)
    code = main(["train", "--catalog-path", str(catalog),
                 "--checkpoint-path", str(ckpt_path),
                 "--metrics-path", str(metrics_path),
                 *SMALL_TRAIN, "--total-steps", "64", "--resume"])
    assert code == 0
    assert load_checkpoint(str(ckpt_path)).update_index == 2


def test_train_resume_rejects_changed_hyperparams_from_the_config_file(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    ckpt_path, metrics_path = _train_small(tmp_path, catalog)
    before = ckpt_path.read_text()
    config = tmp_path / "run.cfg"
    config.write_text("learning_rate = 0.05\nhorizon = 16\n")
    capsys.readouterr()
    code = main(["--config", str(config), "train", "--catalog-path", str(catalog),
                 "--checkpoint-path", str(ckpt_path),
                 "--metrics-path", str(metrics_path),
                 "--total-steps", "64", "--resume"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: learning_rate in {config}:")
    assert "horizon" not in err  # the checkpoint's own value
    assert ckpt_path.read_text() == before
    assert len(metrics_path.read_text().splitlines()) == 1


def test_train_resume_accepts_a_config_file_of_the_checkpoints_values(tmp_path, capsys):
    """A file that repeats the checkpoint's hyperparameters is accepted, and
    its total_steps sets the new budget as --total-steps would."""
    catalog = _make_catalog(tmp_path)
    ckpt_path, metrics_path = _train_small(tmp_path, catalog)
    config = tmp_path / "run.cfg"
    pairs = zip(SMALL_TRAIN[::2], SMALL_TRAIN[1::2])
    config.write_text("".join(f"{flag[2:].replace('-', '_')} = {value}\n"
                              for flag, value in pairs if flag != "--total-steps")
                      + "total_steps = 64\n")
    code = main(["--config", str(config), "train", "--catalog-path", str(catalog),
                 "--checkpoint-path", str(ckpt_path),
                 "--metrics-path", str(metrics_path), "--resume"])
    assert code == 0
    ckpt = load_checkpoint(str(ckpt_path))
    assert ckpt.update_index == 2 and ckpt.hyper.total_steps == 64


def test_train_without_catalog_fails_validation(tmp_path, capsys):
    code = main(["train", "--catalog-path", str(tmp_path / "missing.txt"),
                 *SMALL_TRAIN])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_rejects_a_misspelled_split(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    catalog.write_text(catalog.read_text().replace("split = train", "split = trian", 1))
    capsys.readouterr()
    code = main(["train", "--catalog-path", str(catalog),
                 "--checkpoint-path", str(tmp_path / "ckpt.txt"),
                 "--metrics-path", str(tmp_path / "metrics.txt"), *SMALL_TRAIN])
    assert code == 1
    assert "split 'trian'" in capsys.readouterr().err
    assert not (tmp_path / "ckpt.txt").exists()


def test_failed_write_leaves_old_checkpoint_and_catalog(tmp_path, monkeypatch):
    """A failed rename leaves the old catalog, checkpoint and episodes.csv
    byte-unchanged."""
    catalog = _make_catalog(tmp_path)
    ckpt, _ = _train_small(tmp_path, catalog)
    assert main(_eval_args(tmp_path, catalog, ckpt, agent="greedy")) == 0
    episodes_csv = tmp_path / "episodes_greedy.csv"
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before[episodes_csv.name].startswith(b"episode_index,steps,win\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_catalog(load_catalog(catalog)[:1], catalog)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(new_checkpoint(Hyperparams(seed=9)), str(ckpt))
    with pytest.raises(OSError, match="disk full"):
        write_episode_csv(str(episodes_csv), [])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# --- eval command ------------------------------------------------------------------


def _eval_args(tmp_path, catalog, ckpt, agent="ppo", split="train", episodes=2):
    return ["eval", "--catalog-path", str(catalog),
            "--checkpoint-path", str(ckpt),
            "--episodes-csv", str(tmp_path / f"episodes_{agent}.csv"),
            "--split", split, "--agent", agent,
            "--episodes-per-variant", str(episodes)]


def test_eval_table_and_csv(tmp_path, capsys):
    catalog = _make_catalog(tmp_path, extra=["--machines", "1"])
    ckpt, _ = _train_small(tmp_path, catalog)
    capsys.readouterr()
    assert main(_eval_args(tmp_path, catalog, ckpt)) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    for column in ("machine", "power_kw", "voltage_v", "win_rate",
                   "mean_steps", "ref_steps"):
        assert column in header
    assert "agent=ppo" in out
    csv_lines = (tmp_path / "episodes_ppo.csv").read_text().splitlines()
    assert csv_lines[0] == "episode_index,steps,win"
    assert len(csv_lines) == 1 + 2 * 2  # 2 train variants x 2 episodes


def test_eval_baseline_agents_share_table_shape(tmp_path, capsys):
    catalog = _make_catalog(tmp_path, extra=["--machines", "1"])
    ckpt, _ = _train_small(tmp_path, catalog)
    capsys.readouterr()
    for agent in ("greedy", "random", "oracle"):
        assert main(_eval_args(tmp_path, catalog, ckpt, agent=agent)) == 0
        out = capsys.readouterr().out
        assert "machine" in out.splitlines()[0]
        assert f"agent={agent}" in out
        csv_lines = (tmp_path / f"episodes_{agent}.csv").read_text().splitlines()
        expected = 2 if agent == "oracle" else 4  # oracle: one row per variant
        assert len(csv_lines) == 1 + expected


@pytest.mark.parametrize("agent", ["random", "greedy", "oracle"])
def test_eval_seeds_a_generator_only_for_the_random_agent(tmp_path, capsys, monkeypatch, agent):
    """The random baseline seeds one generator per episode from (eval seed,
    variant seed, episode); greedy and the oracle draw nothing and seed none."""
    catalog = _make_catalog(tmp_path, extra=["--machines", "1"])
    seeded, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: seeded.append(s) or default_rng(s))
    assert main(_eval_args(tmp_path, catalog, tmp_path / "unused.txt", agent=agent)) == 0
    train = [v for v in load_catalog(catalog) if v.split == "train"]
    assert seeded == (agent == "random") * [
        derive_seed(1, v.variant_seed, ep) for v in train for ep in range(2)]


def test_eval_missing_checkpoint(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    code = main(_eval_args(tmp_path, catalog, tmp_path / "missing.txt"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_checkpoint_with_wrong_action_count(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    ckpt_path, _ = _train_small(tmp_path, catalog)
    ckpt = load_checkpoint(str(ckpt_path))
    ckpt.actor = init((OBSERVATION_DIM, 64, 64, NUM_ACTIONS + 1), seed=0)
    ckpt.actor_opt = AdamState.for_params(ckpt.actor)
    save_checkpoint(ckpt, str(ckpt_path))
    capsys.readouterr()
    assert main(_eval_args(tmp_path, catalog, ckpt_path)) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_checkpoint_with_a_nan_weight(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    ckpt_path, _ = _train_small(tmp_path, catalog)
    ckpt = load_checkpoint(str(ckpt_path))
    ckpt.actor.flat[7] = np.nan
    save_checkpoint(ckpt, str(ckpt_path))
    capsys.readouterr()
    flat = ckpt_path.read_text().splitlines().index("[actor]") + 3
    assert main(_eval_args(tmp_path, catalog, ckpt_path)) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt_path}:{flat}: bad value for flat: non-finite value at index 7\n")


def test_eval_rejects_checkpoint_with_a_nan_learning_rate(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    ckpt_path, _ = _train_small(tmp_path, catalog)
    text = ckpt_path.read_text()
    assert "learning_rate = 0.0003\n" in text
    ckpt_path.write_text(text.replace("learning_rate = 0.0003\n", "learning_rate = nan\n"))
    capsys.readouterr()
    line = ckpt_path.read_text().splitlines().index("learning_rate = nan") + 1
    assert main(_eval_args(tmp_path, catalog, ckpt_path)) == 1
    assert capsys.readouterr().err == (f"error: {ckpt_path}:{line}: bad value for learning_rate: "
                                       "learning_rate nan is not finite\n")


def test_v1_checkpoint_fails_eval_and_resume(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    ckpt_path, metrics_path = _train_small(tmp_path, catalog)
    ckpt_path.write_text(ckpt_path.read_text().replace(
        "motor-design-ckpt v2", "motor-design-ckpt v1", 1))
    capsys.readouterr()
    message = (f"error: {ckpt_path}:1: unsupported version 'motor-design-ckpt v1', "
               "expected 'motor-design-ckpt v2'\n")
    assert main(_eval_args(tmp_path, catalog, ckpt_path)) == 1
    assert capsys.readouterr().err == message
    assert main(["train", "--catalog-path", str(catalog),
                 "--checkpoint-path", str(ckpt_path),
                 "--metrics-path", str(metrics_path), "--resume"]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("flag", ["--right-direction-reward", "--wrong-direction-reward",
                                  "--revisit-penalty", "--win-reward"])
def test_eval_takes_no_reward_flags(capsys, flag):
    assert main(["eval", flag, "200"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("agent", ["ppo", "greedy", "random"])
def test_eval_outputs_do_not_depend_on_the_reward_values(tmp_path, capsys, agent):
    """A config file's reward values reach eval's env but change neither its
    table nor its episodes file, which is why eval takes no reward flags."""
    catalog = _make_catalog(tmp_path, extra=["--machines", "1"])
    ckpt, _ = _train_small(tmp_path, catalog)
    config = tmp_path / "rewards.cfg"
    config.write_text("right_direction_reward = 3.0\nwrong_direction_reward = -0.5\n"
                      "revisit_penalty = -7.0\nwin_reward = 500.0\n")
    outputs = []
    for extra in ([], ["--config", str(config)]):
        capsys.readouterr()
        assert main([*extra, *_eval_args(tmp_path, catalog, ckpt, agent=agent)]) == 0
        outputs.append((capsys.readouterr().out,
                         (tmp_path / f"episodes_{agent}.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_eval_into_a_directory_exits_one(tmp_path, capsys):
    catalog = _make_catalog(tmp_path, extra=["--machines", "1"])
    args = _eval_args(tmp_path, catalog, tmp_path / "none.txt", agent="greedy")
    args[args.index("--episodes-csv") + 1] = str(tmp_path)
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_rejects_unknown_agent(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    ckpt, _ = _train_small(tmp_path, catalog)
    capsys.readouterr()
    code = main(_eval_args(tmp_path, catalog, ckpt, agent="alphazero"))
    assert code == 1


@pytest.mark.parametrize("agent", ["ppo", "random", "greedy", "oracle"])
@pytest.mark.parametrize("flag, value", [("--eval-mode", "bogus"),
                                         ("--episodes-per-variant", "0")])
def test_eval_rejects_a_bad_mode_or_episode_count_for_every_agent(
        tmp_path, capsys, agent, flag, value):
    """The oracle plays one episode per variant and only ppo reads the mode,
    but every agent rejects both settings, ppo before it reads its checkpoint."""
    catalog = _make_catalog(tmp_path, extra=["--machines", "1"])
    args = _eval_args(tmp_path, catalog, tmp_path / "none.txt", agent=agent)
    assert main([*args, flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}" if value == "0"
                                              else f"error: unknown {flag}")


def test_eval_oracle_takes_one_step_on_a_feasible_start(tmp_path, capsys):
    # the start is inside every band: the oracle needs 0 moves, but every
    # agent plays one env step to win
    base = machine_by_id(1)
    feasible = MachineVariant(
        base=base, variant_seed=11, start=lattice_index(base, base.base_design),
        target_bands=TargetBands(b_gap=(0.9, 1.1), t_break=(0.9, 1.1),
                                 i_start=(0.9, 1.1), d_temp=(0.9, 1.1),
                                 tooth_tip=(1.0, 4.0)))
    catalog = tmp_path / "catalog.txt"
    save_catalog([feasible], catalog)
    assert main(["oracle", "--catalog-path", str(catalog), "--split", "train"]) == 0
    assert "shortest_steps=0 witness=-" in capsys.readouterr().out
    for agent in ("oracle", "greedy", "random"):
        assert main(_eval_args(tmp_path, catalog, tmp_path / "unused.txt", agent=agent)) == 0
        assert (tmp_path / f"episodes_{agent}.csv").read_text().splitlines()[1:] == (
            ["0,1,1"] if agent == "oracle" else ["0,1,1", "1,1,1"])


def test_eval_oracle_builds_no_env_and_greedy_plays_once_per_variant(
        tmp_path, capsys, monkeypatch):
    """On a stock catalog the oracle's rows come from oracle_shortest alone, and
    greedy, which draws nothing, plays one episode per holdout variant,
    whose row stands for each of the variant's episodes."""
    catalog = tmp_path / "catalog.txt"
    assert main(["catalog", "--catalog-path", str(catalog)]) == 0
    holdout = [v for v in load_catalog(catalog) if v.split == "holdout"]
    envs, played = [], []
    env_init, greedy_agent = DesignEnv.__init__, agents.greedy_agent
    monkeypatch.setattr(DesignEnv, "__init__",
                        lambda env, *a, **k: envs.append(env) or env_init(env, *a, **k))
    monkeypatch.setattr(agents, "greedy_agent",
                        lambda env, *a: played.append(env.variant) or greedy_agent(env, *a))
    episodes_csv = tmp_path / "episodes.csv"
    args = ["eval", "--catalog-path", str(catalog), "--episodes-csv", str(episodes_csv)]

    assert main([*args, "--agent", "oracle"]) == 0
    assert envs == []
    assert len(episodes_csv.read_text().splitlines()) == 1 + len(holdout)

    assert main([*args, "--agent", "greedy"]) == 0
    assert played == holdout and len(envs) == len(holdout)
    rows = [row.split(",", 1)[1] for row in episodes_csv.read_text().splitlines()[1:]]
    per_variant = RunConfig().episodes_per_variant
    assert len(rows) == per_variant * len(holdout)
    assert rows == [row for row in rows[::per_variant] for _ in range(per_variant)]


# --- oracle command ----------------------------------------------------------------


def test_oracle_command_lists_variants(tmp_path, capsys):
    catalog = _make_catalog(tmp_path, extra=["--machines", "2"])
    capsys.readouterr()
    assert main(["oracle", "--catalog-path", str(catalog),
                 "--split", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # 2 train + 1 holdout
    for line in lines:
        assert line.startswith("machine=2 variant_seed=")
        assert "shortest_steps=" in line and "witness=" in line


@pytest.mark.parametrize("command", [["oracle"], ["eval", "--agent", "oracle"]],
                         ids=["oracle", "eval"])
def test_oracle_flags_inconsistent_catalog(tmp_path, capsys, monkeypatch, command):
    """Both commands exit 2 with one error line; eval prints no table and
    writes no episodes.csv."""
    base = machine_by_id(1)
    bogus = MachineVariant(
        base=base, variant_seed=7, start=lattice_index(base, base.base_design),
        target_bands=TargetBands(b_gap=(0.05, 0.1), t_break=(0.2, 2.8),
                                 i_start=(0.2, 2.8), d_temp=(0.2, 2.8),
                                 tooth_tip=(1.0, 4.0)))  # has no feasible point
    path = tmp_path / "catalog.txt"
    save_catalog([bogus], path)
    monkeypatch.chdir(tmp_path)  # where eval would write episodes.csv
    code = main([*command, "--catalog-path", str(path), "--split", "train"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: 1 certified variants have no feasible path "
                            "(catalog inconsistency)\n")
    if command[0] == "oracle":
        assert "shortest_steps=-" in captured.out
    else:
        assert captured.out == "" and not (tmp_path / "episodes.csv").exists()


# --- inspect command ---------------------------------------------------------------


def test_inspect_base_design_all_flags_zero(tmp_path, capsys):
    assert main(["inspect", "1"]) == 0
    out = capsys.readouterr().out
    assert "machine 1: rated_power_kw=2500 line_voltage_v=10000" in out
    assert out.count("flag=0") == 5
    assert "feasible = yes" in out


def test_inspect_values_match_formulas(capsys):
    """Printed per-unit values agree with the closed-form couplings."""
    assert main(["inspect", "1", "--length", "1.32", "--turns", "21",
                 "--tooth-tip", "1.8"]) == 0
    out = capsys.readouterr().out
    printed = {}
    for line in out.splitlines():
        if "band=" in line:
            name, _, rest = line.partition(" = ")
            printed[name] = float(rest.split()[0])
    lam, nu, eta = 1.32 / 1.2, 21 / 20, 1.8 / 2.0
    sigma = 1.0 + 0.4 * (eta - 1.0)
    assert printed["b_gap"] == pytest.approx(1 / (nu * lam), abs=1e-12)
    assert printed["t_break"] == pytest.approx(lam / (nu**2 * sigma), abs=1e-12)
    assert printed["i_start"] == pytest.approx(1 / (nu**2 * lam * sigma), abs=1e-12)
    assert printed["d_temp"] == pytest.approx(
        0.7 * nu**2 + 0.3 / (nu**2 * lam**2), abs=1e-12)
    assert printed["tooth_tip"] == 1.8


def test_inspect_custom_bands_change_flags(capsys):
    assert main(["inspect", "1", "--bands",
                 "0.5,0.8,0.2,2.8,0.2,2.8,0.2,2.8,1.0,4.0"]) == 0
    out = capsys.readouterr().out
    assert "flag=1" in out  # unit flux sits above the 0.8 cap
    assert "feasible = no" in out


def test_inspect_out_of_bounds_length(capsys):
    assert main(["inspect", "1", "--length", "99.0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_inspect_bad_bands_count(capsys):
    assert main(["inspect", "1", "--bands", "1,2,3"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["inspect", "1", "--bands",
                 "nan,nan,0.2,2.8,0.2,2.8,0.2,2.8,1.0,4.0"]) == 1
    assert "not finite" in capsys.readouterr().err


# --- argparse error mapping -----------------------------------------------------------


def test_unknown_flag_exits_one(capsys):
    assert main(["train", "--bogus-flag", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1


def test_unknown_machine_id_inspect(capsys):
    assert main(["inspect", "9"]) == 1


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("error", [*_subclasses(MotorGameError), FileNotFoundError,
                                   IsADirectoryError, PermissionError],
                         ids=lambda cls: cls.__name__)
def test_exit_code_per_error_class(monkeypatch, capsys, error):
    """A diverged run exits 2 and names its update; every other package
    error and a file that cannot be read or written exit 1."""
    exc = error("boom")
    if error is TrainingDivergedError:
        exc.update_index = 7

    def fail(config):
        raise exc

    monkeypatch.setattr(cli, "cmd_oracle", fail)
    code = main(["oracle"])
    err = capsys.readouterr().err
    if error is TrainingDivergedError:
        assert code == 2 and "error: training diverged at update 7" in err
    else:
        assert code == 1 and err == "error: boom\n"


# --- file faults -------------------------------------------------------------------


def _spoil(path, pattern, new) -> int:
    """Replace the first line matching ``pattern`` in the file by ``new``;
    the number of that line."""
    text = path.read_text()
    match = re.search(pattern, text, flags=re.M)
    path.write_text(text[:match.start()] + new + text[match.end():])
    return text.count("\n", 0, match.start()) + 1


@pytest.mark.parametrize("command,name,pattern,new", [
    (["oracle"], "catalog.txt", r"^length = .*$", "length = x"),
    (["oracle"], "catalog.txt", r"^motor-design-catalog v2$", "motor-design-catalog v1"),
    (["eval"], "ckpt.txt", r"^\[actor\]$", "[actr]"),
    (["eval"], "ckpt.txt", r"^flat = \S+", "flat = nan"),
    (["eval"], "ckpt.txt", r"^motor-design-ckpt v2$", "motor-design-ckpt v1"),
    (["oracle"], "run.cfg", r"^eval_seed = .*$", "eval_seed = abc"),
    (["train", "--resume"], "metrics.txt", r"^update=1 .*$", "hello"),
], ids=["catalog-value", "catalog-v1", "checkpoint-section", "checkpoint-nan",
        "checkpoint-v1", "config-value", "metrics-row"])
def test_every_file_fault_names_its_file_and_line(tmp_path, capsys, command, name,
                                                  pattern, new):
    """A fault in any file the CLI reads exits 1 with ``error: PATH:LINE:``
    at the spoiled line."""
    catalog, ckpt, metrics, config = (
        tmp_path / n for n in ("catalog.txt", "ckpt.txt", "metrics.txt", "run.cfg"))
    save_catalog(generate_variants(machine_by_id(1), 2, 0), catalog)
    save_checkpoint(new_checkpoint(Hyperparams()), str(ckpt))
    metrics.write_text("update=1 env_steps=32\n")
    config.write_text(f"# the run's files\ncatalog_path = {catalog}\n"
                      f"checkpoint_path = {ckpt}\nmetrics_path = {metrics}\n"
                      f"episodes_csv = {tmp_path / 'episodes.csv'}\n"
                      "split = train\neval_seed = 1\n")
    path = tmp_path / name
    line = _spoil(path, pattern, new)
    capsys.readouterr()
    assert main(["--config", str(config), *command]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")


def test_a_file_that_is_not_utf8_names_its_line(tmp_path, capsys):
    catalog = tmp_path / "catalog.txt"
    for bom in (b"", codecs.BOM_UTF8):
        catalog.write_bytes(bom + b"motor-design-catalog v2\n\n[variant]\nsplit = \xff\n")
        assert main(["oracle", "--catalog-path", str(catalog)]) == 1
        assert capsys.readouterr().err == f"error: {catalog}:4: not UTF-8 text\n"


def test_a_leading_byte_order_mark_is_ignored(tmp_path):
    """Some editors save a UTF-8 BOM first; each file loads as without it."""
    def with_bom(path):
        copy = path.with_name(f"bom-{path.name}")
        copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        return str(copy)

    config = tmp_path / "run.cfg"
    config.write_text("seed = 3\nagent = greedy\n")
    assert load_config_file(with_bom(config)) == load_config_file(str(config))
    catalog = _make_catalog(tmp_path)
    assert load_catalog(with_bom(catalog)) == load_catalog(catalog)
    ckpt, again = tmp_path / "ckpt.txt", tmp_path / "again.txt"
    save_checkpoint(new_checkpoint(Hyperparams(seed=9)), str(ckpt))
    save_checkpoint(load_checkpoint(with_bom(ckpt)), str(again))
    assert again.read_bytes() == ckpt.read_bytes()


# --- python -m motorgame -----------------------------------------------------------


SRC = Path(__file__).resolve().parent.parent / "src"


def _python(*args, **env) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds the package under src/, with the
    environment variables ``env`` set."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p), **env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_python_dash_m_runs_the_cli():
    done = _python("-m", "motorgame", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: motorgame")


def test_each_module_imports_on_its_own():
    """`import motorgame` loads no submodule, and every module imports
    first in a fresh interpreter, so none leans on another's import order."""
    done = _python("-c", "import sys, motorgame; "
                   "print(sorted(m for m in sys.modules if m.startswith('motorgame.')))")
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
    names = sorted(p.stem for p in (SRC / "motorgame").glob("*.py")
                   if not p.stem.startswith("__"))
    assert len(names) == 9
    for name in names:
        done = _python("-c", f"import motorgame.{name}")
        assert done.returncode == 0, f"motorgame.{name}: {done.stderr}"
