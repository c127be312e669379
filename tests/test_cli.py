"""Command-line entry point: config resolution, the five subcommands,
and the machine-parseable exit codes (0 ok, 1 validation, 2 runtime)."""

import numpy as np
import pytest

from motorgame.catalog import (
    MachineVariant,
    TargetBands,
    load_catalog,
    machine_by_id,
    save_catalog,
)
from motorgame.cli import (
    RunConfig,
    build_parser,
    load_config_file,
    main,
    resolve_config,
)
from motorgame.env import NUM_ACTIONS, OBSERVATION_DIM
from motorgame.errors import ContractViolationError
from motorgame.neural import AdamState, init
from motorgame.ppo import load_checkpoint, save_checkpoint


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
    with pytest.raises(ContractViolationError):
        load_config_file(str(path))


def test_config_file_rejects_duplicates_and_bad_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ContractViolationError):
        load_config_file(str(path))
    path.write_text("just some words\n")
    with pytest.raises(ContractViolationError):
        load_config_file(str(path))
    path.write_text("seed = abc\n")
    with pytest.raises(ContractViolationError):
        load_config_file(str(path))


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nhorizon = 128\n")
    args = build_parser().parse_args(
        ["--config", str(path), "train", "--seed", "4"])
    config, overridden = resolve_config(args)
    assert config.seed == 4          # flag beats file
    assert config.horizon == 128     # file beats default
    assert "seed" in overridden and "horizon" not in overridden


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
    code = main(["catalog", "--catalog-path", str(tmp_path / "c.txt"),
                 "--machines", "9"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# --- train command -----------------------------------------------------------------


def test_train_smoke_writes_checkpoint_and_metrics(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    ckpt_path, metrics_path = _train_small(tmp_path, catalog)
    out = capsys.readouterr().out
    assert "update=1" in out and "checkpoint written" in out
    ckpt = load_checkpoint(str(ckpt_path))
    assert ckpt.update_index == 1 and ckpt.env_steps == 32
    assert len(metrics_path.read_text().splitlines()) == 1


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


def test_train_without_catalog_fails_validation(tmp_path, capsys):
    code = main(["train", "--catalog-path", str(tmp_path / "missing.txt"),
                 *SMALL_TRAIN])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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
    ckpt.actor_opt = AdamState.for_params(ckpt.actor, 1e-3)
    save_checkpoint(ckpt, str(ckpt_path))
    capsys.readouterr()
    assert main(_eval_args(tmp_path, catalog, ckpt_path)) == 1
    assert "error:" in capsys.readouterr().err


def test_eval_rejects_unknown_agent(tmp_path, capsys):
    catalog = _make_catalog(tmp_path)
    ckpt, _ = _train_small(tmp_path, catalog)
    capsys.readouterr()
    code = main(_eval_args(tmp_path, catalog, ckpt, agent="alphazero"))
    assert code == 1


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


def test_oracle_flags_inconsistent_catalog(tmp_path, capsys):
    base = machine_by_id(1)
    bogus = MachineVariant(
        base_id=1, variant_seed=7, initial_design=base.base_design,
        target_bands=TargetBands(b_gap=(0.05, 0.1), t_break=(0.2, 2.8),
                                 i_start=(0.2, 2.8), d_temp=(0.2, 2.8),
                                 tooth_tip=(1.0, 4.0)),
        feasible_exists=True)  # certified wrongly on purpose
    path = tmp_path / "catalog.txt"
    save_catalog([bogus], path)
    code = main(["oracle", "--catalog-path", str(path), "--split", "train"])
    assert code == 2
    captured = capsys.readouterr()
    assert "shortest_steps=-" in captured.out
    assert "catalog inconsistency" in captured.err


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
