"""The one file reader and writer, the binary trial format (EEGB v1),
and the model bundle container with bit-exact round-trip persistence.

EEGB v1 layout (little-endian):
    magic "EEGB" | version u32=1 | M u32 | samples_per_trial u32 |
    n_trials u32 | n_classes u32 | sample_rate f32 |
    per trial one record: label u32, then M x samples f32 channel-major |
    CRC-32 u32 over all preceding bytes.

Model bundles use an analogous container ("SBCM" v1): a JSON manifest of
named float64 arrays followed by their raw bytes and a trailing CRC-32.
Floats are stored verbatim, so load(save(b)) is bit-identical to b.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChecksumError,
    DimensionMismatch,
    IoFailure,
    MalformedHeader,
    NonFiniteValue,
    VersionMismatch,
)

EEGB_MAGIC = b"EEGB"
EEGB_VERSION = 1
#: magic, version, M, samples_per_trial, n_trials, n_classes, sample_rate
EEGB_HEADER = struct.Struct("<4sIIIIIf")
BUNDLE_MAGIC = b"SBCM"
BUNDLE_VERSION = 1


def read_file(path) -> bytes:
    """The bytes of the file at ``path``; a file that cannot be read
    raises :class:`IoFailure`."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def write_file(path, data: bytes) -> None:
    """Write ``data`` to the file at ``path``; a path that cannot be
    written raises :class:`IoFailure`."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _write_framed(payload: bytes, path) -> None:
    """Write ``payload`` followed by its CRC-32, the trailer of both
    containers."""
    write_file(path, payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _eegb_record(channels: int, samples: int) -> np.dtype:
    """The EEGB v1 trial record: a u32 label, then channel-major f32 samples."""
    return np.dtype([("label", "<u4"), ("samples", "<f4", (channels, samples))])


def _unframe(blob: bytes, what: str) -> bytes:
    """The payload of a CRC-framed ``blob`` of at least four bytes;
    a trailer that disagrees raises :class:`ChecksumError`."""
    payload, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ChecksumError(f"{what} checksum mismatch")
    return payload


@dataclass
class RawTrialSet:
    """Validated set of labeled raw trials.  ``n_classes`` is given, not
    inferred from the labels: at least 2, with every label in
    ``0..n_classes - 1``.  The sample rate must have an
    :func:`eegb_rate`, so every set can be saved and compared."""

    sample_rate_hz: float
    channels: int
    samples_per_trial: int
    trials: list[tuple[int, np.ndarray]]
    n_classes: int

    def __post_init__(self):
        eegb_rate(self.sample_rate_hz)
        if self.channels < 1 or self.samples_per_trial < 1:
            raise DimensionMismatch("channels and samples_per_trial must be positive")
        if self.n_classes < 2:
            raise DimensionMismatch("at least two classes are required")
        for label, data in self.trials:
            if data.shape != (self.channels, self.samples_per_trial):
                raise DimensionMismatch(
                    f"trial shape {data.shape} != "
                    f"({self.channels}, {self.samples_per_trial})"
                )
            if not np.all(np.isfinite(data)):
                raise NonFiniteValue("trial contains NaN or Inf")
            if not (0 <= label < self.n_classes):
                raise DimensionMismatch(f"label {label} outside 0..{self.n_classes - 1}")


def eegb_rate(rate: float) -> np.float32:
    """``rate`` as EEGB's float32 field stores it.  This is the one form
    in which sample rates are compared: two rates are the same rate iff
    their ``eegb_rate`` are equal, so a set matches its own EEGB round
    trip.  A rate whose float32 is not finite and positive could not be
    read back, and raises :class:`DimensionMismatch`."""
    with np.errstate(over="ignore"):
        stored = np.float32(rate)
    if not (np.isfinite(stored) and stored > 0):
        raise DimensionMismatch(f"sample rate {rate} does not fit EEGB's float32 field")
    return stored


def save_trials(trials: RawTrialSet, path) -> None:
    """Write a trial set in EEGB v1 format.  The sample rate is stored as
    its :func:`eegb_rate`, checked before the file is opened."""
    header = EEGB_HEADER.pack(
        EEGB_MAGIC, EEGB_VERSION, trials.channels, trials.samples_per_trial,
        len(trials.trials), trials.n_classes, eegb_rate(trials.sample_rate_hz),
    )
    record = _eegb_record(trials.channels, trials.samples_per_trial)
    _write_framed(header + np.array(trials.trials, dtype=record).tobytes(), path)


def load_trials(path) -> RawTrialSet:
    """Read and validate an EEGB v1 file.  A class count below 2, or
    above ``max(2, n_trials)``, more than the trials can back, raises
    :class:`MalformedHeader`.  The trials are views of one float64
    (n_trials, M, samples) array."""
    blob = read_file(path)

    head_len = EEGB_HEADER.size
    if len(blob) < head_len + 4 or blob[:4] != EEGB_MAGIC:
        raise MalformedHeader("not an EEGB file")
    _, version, m, samples, n_trials, n_classes, rate = EEGB_HEADER.unpack_from(blob)
    if version != EEGB_VERSION:
        raise VersionMismatch(f"unsupported EEGB version {version}")
    if not 2 <= n_classes <= max(2, n_trials):
        raise MalformedHeader(
            f"class count {n_classes} must lie in 2..max(2, trial count {n_trials})"
        )
    expected = head_len + n_trials * (4 + 4 * m * samples) + 4
    if len(blob) != expected:
        raise DimensionMismatch(
            f"file is {len(blob)} bytes, header implies {expected}"
        )
    payload = _unframe(blob, "EEGB payload")
    try:
        record = _eegb_record(m, samples)
    except ValueError as exc:  # a record past numpy's 2 GiB, e.g. in a file of no trials
        raise DimensionMismatch(f"a trial of {m} x {samples} samples is too large") from exc
    records = np.frombuffer(payload, dtype=record, offset=head_len)
    trials = list(zip(records["label"].tolist(), records["samples"].astype(np.float64)))
    return RawTrialSet(float(rate), m, samples, trials, n_classes)


@dataclass
class ModelBundle:
    """Everything needed to reconstruct a trained model.

    ``arrays`` maps the model's array names to float64 arrays in a fixed
    order; ``config`` is the flat key=value snapshot the model was built
    from.
    """

    config: dict[str, str]
    arrays: dict[str, np.ndarray]

    def __eq__(self, other):
        if not isinstance(other, ModelBundle):
            return NotImplemented
        if self.config != other.config:
            return False
        if list(self.arrays) != list(other.arrays):
            return False
        return all(
            a.shape == other.arrays[k].shape
            and a.tobytes() == other.arrays[k].tobytes()
            for k, a in self.arrays.items()
        )


def save_model(bundle: ModelBundle, path) -> None:
    """Persist a bundle; load(save(b)) is bit-identical to b."""
    manifest = {
        "config": bundle.config,
        "arrays": [
            {"name": name, "shape": list(arr.shape)} for name, arr in bundle.arrays.items()
        ],
    }
    meta = json.dumps(manifest, sort_keys=True).encode("utf-8")
    chunks = [BUNDLE_MAGIC, struct.pack("<II", BUNDLE_VERSION, len(meta)), meta]
    for arr in bundle.arrays.values():
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    _write_framed(b"".join(chunks), path)


def _array_entries(entries) -> list[tuple[str, tuple[int, ...]]]:
    """``(name, shape)`` of each manifest array entry, in payload order.
    Each entry must hold exactly a string ``name``, not repeated, and a
    ``shape`` list of nonnegative JSON integers; anything else raises
    :class:`MalformedHeader` rather than being coerced."""
    if not isinstance(entries, list):
        raise MalformedHeader("bundle manifest 'arrays' must be a list")
    out: dict[str, tuple[int, ...]] = {}
    for entry in entries:
        if not (isinstance(entry, dict) and sorted(entry) == ["name", "shape"]):
            raise MalformedHeader("a manifest array entry must hold exactly 'name' and 'shape'")
        name, shape = entry["name"], entry["shape"]
        if not isinstance(name, str):
            raise MalformedHeader(f"array name {name!r} is not a string")
        if name in out:
            raise MalformedHeader(f"array {name!r} is listed twice")
        # bool is an int subclass; JSON true must not pass as 1.
        if not (isinstance(shape, list) and all(type(d) is int for d in shape)):
            raise MalformedHeader(f"array {name!r} shape {shape!r} is not a list of integers")
        if any(d < 0 for d in shape):
            raise MalformedHeader(f"array {name!r} has a negative dimension")
        out[name] = tuple(shape)
    return list(out.items())


def load_model(path) -> ModelBundle:
    """Load a bundle written by :func:`save_model`.  A manifest that does
    not hold exactly ``config`` and ``arrays``, whose config does not
    map strings to strings, or whose array list is not exactly named,
    integer-shaped entries (see :func:`_array_entries`), raises
    :class:`MalformedHeader`."""
    blob = read_file(path)
    if len(blob) < 16 or blob[:4] != BUNDLE_MAGIC:
        raise MalformedHeader("not a model bundle")
    version, meta_len = struct.unpack("<II", blob[4:12])
    if version != BUNDLE_VERSION:
        raise VersionMismatch(f"unsupported bundle version {version}")
    payload = _unframe(blob, "model bundle")
    try:
        manifest = json.loads(payload[12 : 12 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeader("bad bundle manifest") from exc
    if not isinstance(manifest, dict) or sorted(manifest) != ["arrays", "config"]:
        raise MalformedHeader("bundle manifest must hold exactly 'config' and 'arrays'")
    config = manifest["config"]
    if not (isinstance(config, dict) and all(isinstance(v, str) for v in config.values())):
        raise MalformedHeader("bundle config must map strings to strings")
    entries = _array_entries(manifest["arrays"])
    offset = 12 + meta_len
    arrays: dict[str, np.ndarray] = {}
    for name, shape in entries:
        count = math.prod(shape)
        if offset + 8 * count > len(payload):
            raise DimensionMismatch(f"array {name!r} runs past the end of the payload")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        arrays[name] = arr.reshape(shape).copy()
        offset += 8 * count
    if offset != len(payload):
        raise DimensionMismatch("bundle payload size disagrees with manifest")
    return ModelBundle(config=config, arrays=arrays)
