"""System configuration: the parameter container, validation, and config files.

The config file format is INI-style structured text: section headers with flat
``key = value`` pairs. Every known key maps to one :class:`SystemConfig` field
and unknown sections or keys are rejected, so a typo cannot silently fall back
to a default.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ConfigError

SPEED_OF_LIGHT = 3.0e8  # m/s

RATE_FORMULAS = ("consistent", "literal")


@dataclass(frozen=True)
class SystemConfig:
    """All scalar parameters of a design run.

    Defaults reproduce the evaluation setup: an 8x4 MIMO link, 64 subcarriers
    at 2 GHz with 100 kHz spacing, unit noise power, a 10 W power budget
    (10 dB SNR), and four sensing targets with 8-degree mainlobe halfwidths.
    """

    n_tx: int = 8
    n_rx: int = 4
    n_streams: int = 4
    n_subcarriers: int = 64
    n_jcas: int = 16
    power_budget: float = 10.0          # watts
    noise_power: float = 1.0            # watts
    rho: float = 0.5                    # sensing weight in [0, 1]
    base_freq: float = 2.0e9            # Hz
    subcarrier_spacing: float = 100.0e3  # Hz
    antenna_spacing: float | None = None  # meters; None = half wavelength at the top carrier
    grid_size: int = 181                # angular grid points over [-90, 90] degrees
    mainlobe_halfwidth: float = 8.0     # degrees
    target_angles: tuple[float, ...] = (-60.0, -30.0, 30.0, 60.0)
    rate_formula: str = "consistent"    # "consistent" or "literal"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "target_angles", tuple(float(t) for t in self.target_angles))
        self.validate()

    def validate(self):
        """Raise :class:`ConfigError` naming the offending key on any violation."""
        if self.n_tx < 1:
            raise ConfigError("n_tx must be a positive integer")
        if self.n_rx < 1:
            raise ConfigError("n_rx must be a positive integer")
        if self.n_streams < 1 or self.n_streams > min(self.n_tx, self.n_rx):
            raise ConfigError("n_streams must satisfy 1 <= n_streams <= min(n_tx, n_rx)")
        if self.n_subcarriers < 1:
            raise ConfigError("n_subcarriers must be a positive integer")
        if not 0 <= self.n_jcas <= self.n_subcarriers:
            raise ConfigError("n_jcas must satisfy 0 <= n_jcas <= n_subcarriers")
        # the chained comparisons reject nan as well as inf
        if not 0 < self.power_budget < math.inf:
            raise ConfigError("power_budget must be positive and finite")
        if not 0 < self.noise_power < math.inf:
            raise ConfigError("noise_power must be positive and finite")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError("rho must lie in [0, 1]")
        if not 0 < self.base_freq < math.inf:
            raise ConfigError("base_freq must be positive and finite")
        if not 0 < self.subcarrier_spacing < math.inf:
            raise ConfigError("subcarrier_spacing must be positive and finite")
        if self.antenna_spacing is not None and not 0 < self.antenna_spacing < math.inf:
            raise ConfigError("antenna_spacing must be positive and finite (or omitted for automatic)")
        if self.grid_size < 1:
            raise ConfigError("grid_size must be a positive integer")
        if not 0 <= self.mainlobe_halfwidth < math.inf:
            raise ConfigError("mainlobe_halfwidth must be nonnegative and finite")
        if len(self.target_angles) == 0:
            raise ConfigError("target_angles must list at least one angle")
        for angle in self.target_angles:
            if not -90.0 <= angle <= 90.0:
                raise ConfigError("target_angles entries must lie in [-90, 90] degrees")
        if self.rate_formula not in RATE_FORMULAS:
            raise ConfigError("rate_formula must be one of %s" % (RATE_FORMULAS,))
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

    def snr_power(self, snr_db: float) -> float:
        """Power budget (watts) that puts ``snr_db`` dB over this config's noise power.

        A budget that overflows raises :class:`ConfigError`; one that is zero,
        infinite or nan is rejected by :meth:`validate` where it is set.
        """
        try:
            return self.noise_power * 10.0 ** (snr_db / 10.0)
        except OverflowError:
            raise ConfigError(f"snr {snr_db:g} dB overflows the power budget") from None

    def to_dict(self) -> dict:
        """The fields as a JSON-ready dict, ``target_angles`` as a list."""
        fields = asdict(self)
        fields["target_angles"] = list(fields["target_angles"])
        return fields

    @property
    def top_carrier(self) -> float:
        """Highest subcarrier frequency (Hz)."""
        return self.base_freq + (self.n_subcarriers - 1) * self.subcarrier_spacing

    @property
    def spacing(self) -> float:
        """Antenna spacing in meters; half wavelength at the top carrier when unset."""
        if self.antenna_spacing is not None:
            return self.antenna_spacing
        return SPEED_OF_LIGHT / (2.0 * self.top_carrier)

    # The two rate conventions share one code path: "literal" evaluates the
    # printed per-stream rate prefactor P/(sigma^2*Ns) by moving the power
    # budget into the noise normalization, i.e. designing on a unit-power
    # sphere with an effective noise of sigma^2*Ns/P.
    @property
    def effective_power(self) -> float:
        """Power budget in the design domain (precoder sphere radius squared)."""
        if self.rate_formula == "literal":
            return 1.0
        return self.power_budget

    @property
    def effective_noise(self) -> float:
        """Noise power in the design domain; 1/effective_noise is the rate prefactor."""
        if self.rate_formula == "literal":
            return self.noise_power * self.n_streams / self.power_budget
        return self.noise_power


# Config file schema: section -> key -> converter. Optional keys may be
# omitted or set to "auto"/"none".
def _parse_angle_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


_SCHEMA = {
    "array": {
        "n_tx": int,
        "n_rx": int,
        "n_streams": int,
        "antenna_spacing": float,
    },
    "carrier": {
        "n_subcarriers": int,
        "base_freq": float,
        "subcarrier_spacing": float,
    },
    "sensing": {
        "n_jcas": int,
        "rho": float,
        "target_angles": _parse_angle_list,
        "mainlobe_halfwidth": float,
        "grid_size": int,
    },
    "link": {
        "power_budget": float,
        "noise_power": float,
        "rate_formula": str,
    },
    "run": {
        "seed": int,
    },
}

_OPTIONAL_KEYS = {"antenna_spacing"}


def load_config(path) -> SystemConfig:
    """Load a :class:`SystemConfig` from an INI-style file.

    Every non-optional key must be present; unknown sections or keys raise
    :class:`ConfigError` naming the offender.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"config file is not valid key/value text: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")
            if key in _OPTIONAL_KEYS and raw.strip().lower() in ("", "auto", "none"):
                values[key] = None
                continue
            try:
                values[key] = _SCHEMA[section][key](raw.strip())
            except ValueError as exc:
                raise ConfigError(f"invalid value for config key '{key}': {raw!r}") from exc

    for section, keys in _SCHEMA.items():
        for key in keys:
            if key not in values:
                if key in _OPTIONAL_KEYS:
                    values[key] = None
                else:
                    raise ConfigError(f"missing required config key '{key}' (section [{section}])")

    try:
        return SystemConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def write_config(cfg: SystemConfig, path) -> None:
    """Write ``cfg`` as a config file that :func:`load_config` round-trips."""
    parser = configparser.ConfigParser()
    for section, keys in _SCHEMA.items():
        parser.add_section(section)
        for key in keys:
            value = getattr(cfg, key)
            if value is None:
                parser.set(section, key, "auto")
            elif key == "target_angles":
                parser.set(section, key, ", ".join(repr(a) for a in value))
            else:
                parser.set(section, key, repr(value) if isinstance(value, float) else str(value))
    with open(path, "w") as fh:
        parser.write(fh)
