"""The flat key=value schemas: the training configuration and the
synthetic data spec, the one typed reader that builds either from string
pairs, the file format, and round-tripping to the snapshot stored in
model bundles."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

from .eeg_io import read_file
from .errors import ConfigError, InvalidBand
from .filterbank import DEFAULT_BANDS, BandSpec


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    bands: tuple[tuple[float, float], ...] = DEFAULT_BANDS
    window_len: int = 125
    m: int = 5
    k_heads: int = 4
    conv_out: int = 64
    selection_max_iters: int = 20
    selection_tol: float = 1e-6
    channel_scoring: str = "row-norm"

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or not 0 < self.learning_rate < math.inf:
            raise ConfigError(
                "epochs >= 0, batch_size >= 1 and a finite learning_rate > 0 required"
            )
        if self.m < 1 or self.k_heads < 1 or self.window_len < 1:
            raise ConfigError("m, k_heads, window_len must be positive")
        if self.seed < 0 or self.conv_out < 1:
            raise ConfigError("seed >= 0 and conv_out >= 1 required")
        if self.selection_max_iters < 1 or not 0 < self.selection_tol < math.inf:
            raise ConfigError(
                "selection_max_iters >= 1 and a finite selection_tol > 0 required"
            )
        if self.channel_scoring not in ("row-norm", "argmax"):
            raise ConfigError("channel_scoring must be 'row-norm' or 'argmax'")
        try:
            self.band_spec()
        except InvalidBand as exc:
            raise ConfigError(str(exc)) from exc

    def band_spec(self) -> BandSpec:
        return BandSpec(self.bands)


def _parse_bands(text: str) -> tuple[tuple[float, float], ...]:
    bands = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split("-")
        if len(parts) != 2:
            raise ConfigError(f"band {chunk!r} must look like '8-12'")
        bands.append((float(parts[0]), float(parts[1])))
    if not bands:
        raise ConfigError("bands must list at least one band")
    return tuple(bands)


def _format_bands(bands) -> str:
    return ";".join(f"{lo:g}-{hi:g}" for lo, hi in bands)


@dataclass
class SyntheticSpec:
    """What ``spdbci gen-synthetic`` draws (see :mod:`spdbci.synth`).
    ``planted`` lists the channels that carry the class, distinct and in
    ``0..channels - 1``; empty means every channel."""

    channels: int
    samples_per_trial: int
    trials_per_class: int
    seed: int = 0
    sample_rate: float = 250.0
    separation: float = 2.0
    noise: float = 0.1
    planted: tuple[int, ...] = ()

    def __post_init__(self):
        for key in ("channels", "samples_per_trial", "trials_per_class"):
            if (value := getattr(self, key)) < 1:
                raise ConfigError(f"synthetic spec key {key!r} must be >= 1, got {value}")
        if self.seed < 0:
            raise ConfigError(f"synthetic spec key 'seed' must be >= 0, got {self.seed}")
        if not 0 <= self.noise < math.inf:
            raise ConfigError(
                f"synthetic spec key 'noise' must be finite and >= 0, got {self.noise}")
        if len(set(self.planted)) != len(self.planted) or not all(
            0 <= i < self.channels for i in self.planted
        ):
            raise ConfigError(
                f"synthetic spec key 'planted': indices {list(self.planted)} must be "
                f"distinct and lie in 0..{self.channels - 1}"
            )


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",")) if text.strip() else ()


#: How a value is read, by its field's annotation, which this module's
#: ``from __future__ import annotations`` keeps as source text.
_READERS = {"int": int, "float": float, "str": str,
            "tuple[tuple[float, float], ...]": _parse_bands, "tuple[int, ...]": _parse_ints}


def read_mapping(schema, items: dict[str, str], what: str):
    """Build the flat dataclass ``schema`` from string key=value pairs,
    reading each value by its field's type.  An unknown key, an
    unparsable value or a missing key without a default raises
    :class:`ConfigError` naming the key and ``what`` was being read;
    range checks are the dataclass's own."""
    known = {f.name: f for f in fields(schema)}
    kwargs = {}
    for key, value in items.items():
        if key not in known:
            raise ConfigError(f"unknown {what} key {key!r}")
        try:
            kwargs[key] = _READERS[known[key].type](value)
        except ValueError as exc:
            raise ConfigError(f"{what} key {key!r}: cannot parse {value!r}") from exc
    for key, f in known.items():
        if key not in kwargs and f.default is MISSING:
            raise ConfigError(f"{what} lacks the required key {key!r}")
    return schema(**kwargs)


def config_from_mapping(items: dict[str, str]) -> TrainConfig:
    """A TrainConfig from string key=value pairs (see :func:`read_mapping`)."""
    return read_mapping(TrainConfig, items, "config")


def config_to_mapping(config: TrainConfig) -> dict[str, str]:
    out = {}
    for f in fields(TrainConfig):
        value = getattr(config, f.name)
        out[f.name] = _format_bands(value) if f.name == "bands" else str(value)
    return out


def read_key_values(path) -> dict[str, str]:
    """Read a flat UTF-8 ``key = value`` file into a dict of strings.

    Blank lines and lines starting with ``#`` are ignored.  A line
    without ``=`` or a repeated key raises :class:`ConfigError`; a file
    that cannot be read raises :class:`IoFailure`.
    """
    try:
        text = read_file(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text") from exc
    items: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in items:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        items[key] = value
    return items


def load_config(path) -> TrainConfig:
    """Parse a ``key = value`` file (see :func:`read_key_values`);
    unknown keys are errors."""
    return config_from_mapping(read_key_values(path))
