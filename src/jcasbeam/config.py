"""System configuration: the parameter container, validation, and config files.

The config file format is INI-style structured text: section headers with flat
``key = value`` pairs. Each key is one :class:`SystemConfig` field, and the field
table ``_SECTIONS`` names the section that holds it. The field's type annotation
says how its value is read and written, and a key may be left out only where
its field defaults to None. Unknown sections or keys are rejected, so a typo
cannot silently fall back to a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
        for key in ("n_tx", "n_rx", "n_subcarriers", "grid_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be a positive integer")
        if self.n_streams < 1 or self.n_streams > min(self.n_tx, self.n_rx):
            raise ConfigError("n_streams must satisfy 1 <= n_streams <= min(n_tx, n_rx)")
        if not 0 <= self.n_jcas <= self.n_subcarriers:
            raise ConfigError("n_jcas must satisfy 0 <= n_jcas <= n_subcarriers")
        # the chained comparisons reject nan as well as inf
        for key in ("power_budget", "noise_power", "base_freq", "subcarrier_spacing"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be positive and finite")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError("rho must lie in [0, 1]")
        if self.antenna_spacing is not None and not 0 < self.antenna_spacing < math.inf:
            raise ConfigError("antenna_spacing must be positive and finite (or omitted for automatic)")
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


def _read_floats(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


# Field annotation -> (read the value's text, write the value). An optional
# float reads "", "auto" or "none" (any case) as None and writes None as "auto".
_FORMATS = {
    "int": (int, str),
    "float": (float, str),
    "float | None": (lambda text: None if text.lower() in ("", "auto", "none") else float(text),
                     lambda value: "auto" if value is None else str(value)),
    "str": (str, str),
    "tuple[float, ...]": (_read_floats, lambda values: ", ".join(map(str, values))),
}

# Config file layout: section -> the SystemConfig fields it holds, in file order.
_SECTIONS = {
    "array": ("n_tx", "n_rx", "n_streams", "antenna_spacing"),
    "carrier": ("n_subcarriers", "base_freq", "subcarrier_spacing"),
    "sensing": ("n_jcas", "rho", "target_angles", "mainlobe_halfwidth", "grid_size"),
    "link": ("power_budget", "noise_power", "rate_formula"),
    "run": ("seed",),
}

_FIELDS = {f.name: f for f in fields(SystemConfig)}


def load_config(path) -> SystemConfig:
    """Load a :class:`SystemConfig` from an INI-style file.

    A key may be left out only where its field defaults to None. Unknown
    sections or keys, and a non-empty ``[DEFAULT]`` section, raise
    :class:`ConfigError` naming the offender. Values are read literally.
    """
    import configparser

    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8-sig") as fh:  # skips the BOM that some editors write
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"config file is not valid key/value text: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not {exc.encoding} text: {exc.reason}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    if parser.defaults():  # configparser would copy these keys into every section
        raise ConfigError("unknown config section [DEFAULT]")

    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")
            read, _ = _FORMATS[_FIELDS[key].type]
            try:
                values[key] = read(raw.strip())
            except ValueError as exc:
                raise ConfigError(f"invalid value for config key '{key}': {raw!r}") from exc

    for section, keys in _SECTIONS.items():
        for key in keys:
            if key not in values and _FIELDS[key].default is not None:
                raise ConfigError(f"missing required config key '{key}' (section [{section}])")
    return SystemConfig(**values)


def write_config(cfg: SystemConfig, path) -> None:
    """Write ``cfg`` as a config file that :func:`load_config` round-trips."""
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SECTIONS.items():
        parser[section] = {key: _FORMATS[_FIELDS[key].type][1](getattr(cfg, key)) for key in keys}
    with open(path, "w") as fh:
        parser.write(fh)
