"""Configuration container and config-file round trips."""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcasbeam.config import RATE_FORMULAS, SPEED_OF_LIGHT, SystemConfig, load_config, write_config
from jcasbeam.errors import ConfigError


def test_defaults_are_valid():
    cfg = SystemConfig()
    assert cfg.n_tx == 8 and cfg.n_rx == 4 and cfg.n_streams == 4
    assert cfg.n_subcarriers == 64 and cfg.n_jcas == 16
    assert cfg.power_budget / cfg.noise_power == pytest.approx(10.0)  # 10 dB


def test_spacing_defaults_to_half_wavelength_at_top_carrier():
    cfg = SystemConfig()
    f_top = 2.0e9 + 63 * 100.0e3
    assert cfg.top_carrier == pytest.approx(f_top)
    assert cfg.spacing == pytest.approx(SPEED_OF_LIGHT / (2.0 * f_top))
    # explicit spacing wins over the automatic value
    cfg = SystemConfig(antenna_spacing=0.05)
    assert cfg.spacing == 0.05


def test_effective_units_consistent_mode():
    cfg = SystemConfig(power_budget=10.0, noise_power=1.0)
    assert cfg.effective_power == 10.0
    assert cfg.effective_noise == 1.0


def test_effective_units_literal_mode():
    # unit design power; the printed prefactor P/(sigma^2 Ns) moves into the noise
    cfg = SystemConfig(power_budget=10.0, noise_power=1.0, n_streams=4, rate_formula="literal")
    assert cfg.effective_power == 1.0
    assert cfg.effective_noise == pytest.approx(4.0 / 10.0)
    assert 1.0 / cfg.effective_noise == pytest.approx(10.0 / 4.0)


@pytest.mark.parametrize(
    "overrides, key",
    [
        (dict(n_tx=0), "n_tx"),
        (dict(n_streams=5), "n_streams"),          # exceeds min(n_tx=8, n_rx=4)
        (dict(n_jcas=65), "n_jcas"),               # exceeds n_subcarriers
        (dict(power_budget=0.0), "power_budget"),
        (dict(noise_power=-1.0), "noise_power"),
        (dict(rho=1.5), "rho"),
        (dict(subcarrier_spacing=0.0), "subcarrier_spacing"),
        (dict(antenna_spacing=-0.1), "antenna_spacing"),
        (dict(grid_size=0), "grid_size"),
        (dict(mainlobe_halfwidth=-1.0), "mainlobe_halfwidth"),
        (dict(target_angles=()), "target_angles"),
        (dict(target_angles=(120.0,)), "target_angles"),
        (dict(base_freq=0.0), "base_freq"),
        (dict(rate_formula="bogus"), "rate_formula"),
        (dict(power_budget=math.inf), "power_budget"),
        (dict(noise_power=math.inf), "noise_power"),
        (dict(base_freq=math.inf), "base_freq"),
        (dict(subcarrier_spacing=math.inf), "subcarrier_spacing"),
        (dict(antenna_spacing=math.inf), "antenna_spacing"),
        (dict(mainlobe_halfwidth=math.inf), "mainlobe_halfwidth"),
        (dict(power_budget=math.nan), "power_budget"),
        (dict(antenna_spacing=math.nan), "antenna_spacing"),
        (dict(mainlobe_halfwidth=math.nan), "mainlobe_halfwidth"),
        (dict(rho=math.nan), "rho"),
        (dict(target_angles=(math.nan,)), "target_angles"),
        (dict(seed=-1), "seed"),
    ],
)
def test_validation_names_offending_key(overrides, key):
    with pytest.raises(ConfigError, match=key):
        SystemConfig(**overrides)


def test_rho_endpoints_allowed():
    assert SystemConfig(rho=0.0).rho == 0.0
    assert SystemConfig(rho=1.0).rho == 1.0


def test_config_file_round_trip(tmp_path):
    cfg = SystemConfig(
        n_tx=4,
        n_rx=2,
        n_streams=2,
        n_subcarriers=6,
        n_jcas=3,
        power_budget=2.5,
        rho=0.25,
        target_angles=(-45.0, 10.0),
        antenna_spacing=0.07,
        rate_formula="literal",
        seed=11,
    )
    path = tmp_path / "run.ini"
    write_config(cfg, path)
    assert load_config(path) == cfg


def test_config_file_round_trip_with_auto_spacing(tmp_path):
    cfg = SystemConfig()
    path = tmp_path / "run.ini"
    write_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert loaded.antenna_spacing is None


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def valid_configs(draw):
    n_tx, n_rx = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    n_subcarriers = draw(st.integers(1, 128))
    return SystemConfig(
        n_tx=n_tx,
        n_rx=n_rx,
        n_streams=draw(st.integers(1, min(n_tx, n_rx))),
        n_subcarriers=n_subcarriers,
        n_jcas=draw(st.integers(0, n_subcarriers)),
        power_budget=draw(POSITIVE),
        noise_power=draw(POSITIVE),
        rho=draw(st.floats(0.0, 1.0)),
        base_freq=draw(POSITIVE),
        subcarrier_spacing=draw(POSITIVE),
        antenna_spacing=draw(st.none() | POSITIVE),
        grid_size=draw(st.integers(1, 1000)),
        mainlobe_halfwidth=draw(st.floats(min_value=0.0, allow_infinity=False)),
        target_angles=draw(st.lists(st.floats(-90.0, 90.0), min_size=1, max_size=6)),
        rate_formula=draw(st.sampled_from(RATE_FORMULAS)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=valid_configs())
def test_any_valid_config_round_trips(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "round_trip.ini"
    write_config(cfg, path)
    assert load_config(path) == cfg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_load_config_unknown_section(tmp_path):
    cfg_path = tmp_path / "run.ini"
    write_config(SystemConfig(), cfg_path)
    cfg_path.write_text(cfg_path.read_text() + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="extras"):
        load_config(cfg_path)


def test_load_config_unknown_key(tmp_path):
    cfg_path = tmp_path / "run.ini"
    write_config(SystemConfig(), cfg_path)
    cfg_path.write_text(cfg_path.read_text().replace("[run]", "[run]\nbogus_key = 3"))
    with pytest.raises(ConfigError, match="bogus_key"):
        load_config(cfg_path)


def test_load_config_rejects_removed_sensing_tolerance_key(tmp_path):
    # a key that older config files carried is now unknown, like any typo
    cfg_path = tmp_path / "run.ini"
    write_config(SystemConfig(), cfg_path)
    cfg_path.write_text(cfg_path.read_text().replace("[link]", "sensing_tolerance = auto\n\n[link]"))
    with pytest.raises(ConfigError, match="unknown config key 'sensing_tolerance' in section \\[sensing\\]"):
        load_config(cfg_path)


def test_load_config_missing_key_names_it(tmp_path):
    cfg_path = tmp_path / "run.ini"
    write_config(SystemConfig(), cfg_path)
    lines = [l for l in cfg_path.read_text().splitlines() if not l.startswith("n_tx")]
    cfg_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="n_tx"):
        load_config(cfg_path)


def test_load_config_bad_value(tmp_path):
    cfg_path = tmp_path / "run.ini"
    write_config(SystemConfig(), cfg_path)
    cfg_path.write_text(cfg_path.read_text().replace("rho = 0.5", "rho = lots"))
    with pytest.raises(ConfigError, match="rho"):
        load_config(cfg_path)


def test_config_is_frozen():
    cfg = SystemConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_tx = 2


def test_readme_config_example_loads_as_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert load_config(path) == SystemConfig()
    write_config(SystemConfig(), tmp_path / "written.ini")
    assert (tmp_path / "written.ini").read_text().strip() == block.strip()
