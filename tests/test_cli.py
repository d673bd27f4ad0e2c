"""Command line behavior: flags, outputs, exit codes, determinism."""

import argparse
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from jcasbeam import covariance, manifold
from jcasbeam.channel import generate_rayleigh
from jcasbeam.cli import build_parser, main
from jcasbeam.config import SystemConfig, write_config
from jcasbeam.errors import SolverError
from jcasbeam.pipeline import eigen_stage, select_jcas_subcarriers

from conftest import SMALL


def read_table(path):
    """A CSV table's header and its rows, every value read as a float."""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, [{k: float(v) for k, v in row.items()} for row in reader]


@pytest.fixture
def small_config_file(tmp_path):
    path = tmp_path / "small.ini"
    write_config(SystemConfig(**SMALL), path)
    return path


def test_design_writes_outputs(small_config_file, tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["design", "--config", str(small_config_file), "--out-dir", str(out)])
    assert code == 0
    manifest = json.loads((out / "design_manifest.json").read_text())
    assert manifest["config"]["n_tx"] == SMALL["n_tx"]
    assert len(manifest["jcas_subcarriers"]) == SMALL["n_jcas"]
    assert manifest["beampattern_mse"] >= 0
    assert len(manifest["covariance"]) == SMALL["n_jcas"]
    for entry in manifest["covariance"].values():
        # converged below the tolerance, or accepted below the fallback at the cap
        assert 0 <= entry["residual"] < (covariance.TOL if entry["converged"] else covariance.FALLBACK_TOL)
        assert 0 <= entry["gap"] <= 1e-6  # 1.5e-7 and 2.3e-8 on this config's two carriers
    header, rows = read_table(out / "rates.csv")
    assert header == ["k", "rate"]
    assert len(rows) == SMALL["n_subcarriers"]
    header, rows = read_table(out / "beampattern.csv")
    assert header == ["theta", "gain", "rho", "J"]
    assert len(rows) == SMALL["grid_size"]
    captured = capsys.readouterr()
    assert "average rate" in captured.out


def test_design_overrides_reach_manifest(small_config_file, tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "design",
            "--config",
            str(small_config_file),
            "--out-dir",
            str(out),
            "--seed",
            "11",
            "--rho",
            "0.75",
            "--jcas",
            "1",
            "--snr",
            "3",
        ]
    )
    assert code == 0
    cfg = json.loads((out / "design_manifest.json").read_text())["config"]
    assert cfg["seed"] == 11
    assert cfg["rho"] == 0.75
    assert cfg["n_jcas"] == 1
    assert cfg["power_budget"] == pytest.approx(10.0 ** 0.3, rel=1e-12)


def test_design_without_sensing_skips_pattern(small_config_file, tmp_path):
    out = tmp_path / "nosense"
    code = main(
        ["design", "--config", str(small_config_file), "--out-dir", str(out), "--jcas", "0"]
    )
    assert code == 0
    assert not (out / "beampattern.csv").exists()
    manifest = json.loads((out / "design_manifest.json").read_text())
    assert manifest["beampattern_mse"] is None  # undefined without sensing carriers


@pytest.mark.parametrize(
    "flags, n_refined, strict",
    [(["--rho", "1"], SMALL["n_jcas"], True), (["--jcas", str(SMALL["n_subcarriers"])], SMALL["n_subcarriers"], False)],
    ids=["rho=1", "n_jcas=K"],
)
def test_design_edge_configurations(small_config_file, tmp_path, flags, n_refined, strict):
    # at rho = 1 (``strict``) every carrier starts at its closed-form strict design and stops there, at
    # iteration 0 on its gradient test
    out = tmp_path / "edge"
    assert main(["design", "--config", str(small_config_file), "--out-dir", str(out), *flags]) == 0
    manifest = json.loads((out / "design_manifest.json").read_text())
    assert len(manifest["refinement"]) == n_refined
    if strict:
        for rec in manifest["refinement"].values():
            assert (rec["iterations"], rec["stop_reason"], rec["converged"]) == (0, "gradient_norm", True)
            assert rec["grad_norm"] <= 1e-12
    _, rows = read_table(out / "rates.csv")
    rates = np.array([r["rate"] for r in rows])
    assert len(rates) == SMALL["n_subcarriers"]
    assert np.all(np.isfinite(rates)) and np.all(rates >= 0)


def test_missing_key_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    write_config(SystemConfig(**SMALL), path)
    text = "\n".join(
        l for l in path.read_text().splitlines() if not l.startswith("n_tx")
    )
    path.write_text(text + "\n")
    code = main(["design", "--config", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "n_tx" in capsys.readouterr().err


def test_oversized_sensing_count_exits_2(tmp_path, capsys):
    path = tmp_path / "big.ini"
    write_config(SystemConfig(**SMALL), path)
    code = main(
        ["design", "--config", str(path), "--out-dir", str(tmp_path / "o"), "--jcas", "7"]
    )
    assert code == 2
    assert "n_jcas" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    # an absent file, one that is not UTF-8 text and one that is not key/value
    # text: a config error naming the file, no traceback, no output directory
    (tmp_path / "binary.ini").write_bytes(b"\xff\xfe\x00bad")
    (tmp_path / "twice.ini").write_text("[run]\nseed = 1\nseed = 2\n")
    out = tmp_path / "never"
    for name in ("absent.ini", "binary.ini", "twice.ini"):
        for command in ("design", "sweep"):
            code = main([command, "--config", str(tmp_path / name), "--out-dir", str(out)])
            assert code == 2
            assert name in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("key", ["power_budget", "base_freq"])
def test_non_finite_config_value_exits_2(small_config_file, tmp_path, capsys, key):
    path = tmp_path / "inf.ini"
    lines = small_config_file.read_text().splitlines()
    path.write_text("\n".join(f"{key} = inf" if l.startswith(f"{key} =") else l for l in lines) + "\n")
    out = tmp_path / "never"
    assert main(["design", "--config", str(path), "--out-dir", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, line", [("rate_formula", "consistent 100%"), ("seed", "%(n_tx)s")])
def test_percent_sign_in_config_value_exits_2(small_config_file, tmp_path, capsys, key, line):
    # a % is read literally, so validation names the key instead of configparser interpolating
    path = tmp_path / "percent.ini"
    lines = small_config_file.read_text().splitlines()
    path.write_text("\n".join(f"{key} = {line}" if l.startswith(f"{key} =") else l for l in lines) + "\n")
    out = tmp_path / "never"
    assert main(["design", "--config", str(path), "--out-dir", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "sweep"])
def test_out_of_range_snr_exits_2(small_config_file, tmp_path, capsys, command):
    # 10 ** 400 overflows a float: no finite power budget gives this SNR
    out = tmp_path / "never"
    code = main([command, "--config", str(small_config_file), "--out-dir", str(out), "--snr", "4000"])
    assert code == 2
    assert "snr 4000 dB" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags", [("design", []), ("sweep", ["--rho", "0.5", "--realizations", "1"])]
)
def test_snr_whose_rcg_objective_overflows_exits_2(small_config_file, tmp_path, capsys, command, flags):
    # P = 1e200 is a finite power budget, but the RCG objective, of order P^2, overflows
    out = tmp_path / "never"
    argv = [command, "--config", str(small_config_file), "--out-dir", str(out), "--snr", "2000", "--jcas", "2"]
    assert main(argv + flags) == 2
    assert "power budget 1e+200" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags", [("design", []), ("sweep", ["--rho", "0.5", "--realizations", "1"])]
)
def test_snr_whose_link_rate_overflows_exits_2(small_config_file, tmp_path, capsys, command, flags):
    # P = 1e308 is a finite power budget, but P s^2 in the link rate overflows;
    # no sensing subcarrier, so no RCG objective overflows first
    out = tmp_path / "never"
    argv = [command, "--config", str(small_config_file), "--out-dir", str(out), "--snr", "3080", "--jcas", "0"]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert "power budget 1e+308 is too large: the link rate overflows" in err and "Traceback" not in err
    assert not out.exists()


def test_power_far_below_the_noise_still_designs(tmp_path):
    # every noise floor dwarfs the budget: each eigenmode precoder puts it all on one stream
    config, out = tmp_path / "faint.ini", tmp_path / "o"
    write_config(SystemConfig(**{**SMALL, "power_budget": 1e-300, "noise_power": 1e300}), config)
    assert main(["design", "--config", str(config), "--out-dir", str(out)]) == 0
    assert (out / "rates.csv").exists()


def test_sweep_mixing_an_overflowing_snr_with_finite_ones_exits_2(small_config_file, tmp_path, capsys):
    # the designs of every SNR share one RCG batch; the error names the overflowing power
    out = tmp_path / "never"
    argv = ["sweep", "--config", str(small_config_file), "--out-dir", str(out), "--snr", "0", "2000", "5",
            "--rho", "0.5", "--jcas", "2", "--realizations", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "power budget 1e+200 is too large" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, source", [("design", "flag"), ("sweep", "flag"), ("design", "file")])
def test_negative_seed_exits_2(small_config_file, tmp_path, capsys, command, source):
    # numpy's generators take no negative seed: rejected as a config error, before any run
    config, flags = small_config_file, ["--seed", "-1"]
    if source == "file":
        config, flags = tmp_path / "negative.ini", []
        write_config(SystemConfig(**SMALL), config)
        config.write_text(config.read_text().replace("seed = 3", "seed = -1"))
    out = tmp_path / "never"
    assert main([command, "--config", str(config), "--out-dir", str(out), *flags]) == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, via", [("design", "flag"), ("sweep", "env")])
def test_unusable_out_dir_exits_2_naming_it(small_config_file, tmp_path, monkeypatch, capsys, command, via):
    # an existing file where the directory goes, or on the path to it
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    argv = [command, "--config", str(small_config_file)]
    if command == "sweep":
        argv += ["--realizations", "1"]
    if via == "flag":
        target = blocker
        argv += ["--out-dir", str(target)]
    else:
        target = blocker / "sub"
        monkeypatch.setenv("JCASBEAM_OUT_DIR", str(target))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"cannot create output directory {target}" in err
    assert blocker.read_text() == "a file\n"


def test_huge_snr_without_sensing_still_designs(small_config_file, tmp_path):
    # no sensing subcarrier, no RCG objective to overflow
    out = tmp_path / "o"
    argv = ["design", "--config", str(small_config_file), "--out-dir", str(out), "--snr", "2000", "--jcas", "0"]
    assert main(argv) == 0
    assert (out / "rates.csv").exists()


README = Path(__file__).resolve().parents[1] / "README.md"
LONG_FLAG = re.compile(r"--[a-z][a-z-]*")


def _parser_flags():
    """The long flags each subcommand's parser accepts, ``--help`` aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag for action in p._actions for flag in action.option_strings if flag.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }


def test_readme_names_exactly_the_cli_flags():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    accepted = _parser_flags()
    for command, flags in accepted.items():
        # the command's entry in the README's flag list, continuation lines included
        (entry,) = re.findall(rf"^- `{command}`:.*(?:\n  .*)*", section, re.M)
        assert set(LONG_FLAG.findall(entry)) == flags, command
        for example in re.findall(rf"^jcasbeam {command}\b.*$", section, re.M):
            assert set(LONG_FLAG.findall(example)) <= flags, example
    # a flag named anywhere else in the section is one that some command accepts
    assert set(LONG_FLAG.findall(section)) <= set.union(*accepted.values())


def test_readme_solver_rules_match_the_module_constants():
    rules = README.read_text().split("Each solver has one fixed set of rules", 1)[1].split("\n## ", 1)[0]
    stated = {}
    for entry in re.findall(r"^- .*(?:\n  .*)*", rules, re.M):
        (module,) = re.findall(r"\(`jcasbeam\.(\w+)`\)", entry)
        for name, value in re.findall(r"`([A-Z_]+)` = (\d+(?:\.\d+)?(?:e-?\d+)?)", entry):
            stated[module, name] = float(value)
    want = {("covariance", name): getattr(covariance, name) for name in ("TOL", "FALLBACK_TOL", "MAX_ITER")}
    for name in ("GRAD_TOL", "PLATEAU_TOL", "PLATEAU_RUNS", "MAX_ITER"):
        want["manifold", name] = getattr(manifold, name)
    assert stated == want


def test_unknown_flag_exits_2(small_config_file):
    # the last two are flags that the commands no longer have
    for argv in (["design", "--config", str(small_config_file), "--frobnicate"],
                 ["design", "--dump-residuals"], ["sweep", "--fast"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_solver_failure_exits_3(small_config_file, tmp_path, monkeypatch, capsys):
    import jcasbeam.cli as cli_module

    def boom(cfg, **kwargs):
        raise SolverError("did not converge")

    monkeypatch.setattr(cli_module, "run_design", boom)
    code = main(
        ["design", "--config", str(small_config_file), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 3
    assert not (tmp_path / "o").exists()  # a failed design leaves no output directory
    assert "did not converge" in capsys.readouterr().err


def test_covariance_failure_exits_3_end_to_end(small_config_file, tmp_path, monkeypatch, capsys):
    # the real design, with covariance rules that no iterate can meet
    monkeypatch.setattr(covariance, "MAX_ITER", 2)
    monkeypatch.setattr(covariance, "FALLBACK_TOL", 1e-12)
    cfg = SystemConfig(**SMALL)
    channels = generate_rayleigh(cfg.n_subcarriers, cfg.n_rx, cfg.n_tx, cfg.seed)
    first = min(select_jcas_subcarriers(eigen_stage(cfg, channels)[1], cfg.n_jcas))  # solved in index order
    code = main(
        ["design", "--config", str(small_config_file), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 3
    assert f"solver error: subcarrier {first}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_degenerate_channel_exits_4(small_config_file, tmp_path, monkeypatch, capsys):
    import jcasbeam.pipeline as pipeline_module

    def zero_channels(n_subcarriers, n_rx, n_tx, seed):
        return np.zeros((n_subcarriers, n_rx, n_tx), dtype=complex)

    monkeypatch.setattr(pipeline_module, "generate_rayleigh", zero_channels)
    code = main(
        ["design", "--config", str(small_config_file), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 4
    assert not (tmp_path / "o").exists()  # a failed design leaves no output directory
    assert "degenerate channel" in capsys.readouterr().err


def test_out_dir_env_var(small_config_file, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("JCASBEAM_OUT_DIR", str(target))
    assert main(["design", "--config", str(small_config_file)]) == 0
    assert (target / "design_manifest.json").exists()


def test_out_dir_flag_beats_env(small_config_file, tmp_path, monkeypatch):
    monkeypatch.setenv("JCASBEAM_OUT_DIR", str(tmp_path / "ignored"))
    chosen = tmp_path / "chosen"
    code = main(
        ["design", "--config", str(small_config_file), "--out-dir", str(chosen)]
    )
    assert code == 0
    assert (chosen / "design_manifest.json").exists()
    assert not (tmp_path / "ignored").exists()


def _run_small_sweep(config_file, out):
    return main(
        [
            "sweep",
            "--config",
            str(config_file),
            "--out-dir",
            str(out),
            "--seed",
            "7",
            "--snr",
            "5",
            "--rho",
            "0.5",
            "--jcas",
            "2",
            "6",
            "--realizations",
            "2",
        ]
    )


def test_sweep_outputs_and_labels(small_config_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert _run_small_sweep(small_config_file, out) == 0
    header, rows = read_table(out / "rates.csv")
    assert header == ["snr", "rho", "J", "avg_rate", "avg_mse"]
    assert [(r["snr"], r["rho"], r["J"]) for r in rows] == [(5.0, 0.5, 2.0), (5.0, 0.5, 6.0)]
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert manifest["realizations"] == 2
    assert manifest["base_seed"] == 7
    labels = {p["n_jcas"]: p["label"] for p in manifest["points"]}
    assert labels == {2: "Prop.", 6: "Conv."}
    for name in ("beampattern_avg.csv", "beampattern_member.csv"):
        header, rows = read_table(out / name)
        assert header == ["theta", "gain", "rho", "J"]
        assert len(rows) == 2 * SMALL["grid_size"]
    assert "wrote results" in capsys.readouterr().out


@pytest.mark.parametrize("flag, name", [("--realizations", "n_realizations"), ("--jobs", "jobs")])
def test_sweep_rejects_counts_below_one_before_writing(small_config_file, tmp_path, capsys, flag, name):
    out = tmp_path / "never"
    code = main(["sweep", "--config", str(small_config_file), "--out-dir", str(out), flag, "0"])
    assert code == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_sweep_repeat_is_byte_identical(small_config_file, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert _run_small_sweep(small_config_file, out1) == 0
    assert _run_small_sweep(small_config_file, out2) == 0
    for name in ("rates.csv", "beampattern_avg.csv", "beampattern_member.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_design_repeat_is_byte_identical(small_config_file, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["design", "--config", str(small_config_file), "--out-dir", str(out)]) == 0
    for name in ("design_manifest.json", "rates.csv", "beampattern.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
