"""Named trainable-parameter registry, seeded init, and checkpoints.

Initialization is a pure function of (name, shape, rng_seed): each
parameter gets its own RNG stream keyed by a stable hash of its name, so
adding or reordering parameters never reshuffles the others.

Checkpoint layout (little-endian, versioned):

    magic   4 bytes  b"BAPC"
    u32     format version (1)
    u64     rng seed of the store
    u32     parameter count
    then per parameter: u16 name length, utf-8 name, u8 ndim, u32 * ndim
    then, in the same order, each parameter's float64 values row-major.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptionError, GraphError
from .files import BlobReader, write_file
from .tensor import Tensor

_MAGIC = b"BAPC"
_VERSION = 1
# numpy 1.x arrays have at most 32 dimensions (numpy 2.x, 64); parameters here have 1 to 4.
_MAX_NDIM = 32
# The shape field of each ndim a checkpoint may hold: ndim little-endian u32s.
_SHAPES = [struct.Struct(f"<{ndim}I") for ndim in range(_MAX_NDIM + 1)]


def _name_key(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")


def _fan_in(shape) -> int:
    fan = 1
    for dim in shape[1:]:
        fan *= int(dim)
    return max(fan, 1)


def uniform_init(shape, rng_seed: int, name: str = "") -> Tensor:
    """Uniform values on [-b, b] with b = sqrt(1 / fan_in), fan_in = prod(shape[1:]).

    Deterministic per (name, shape, rng_seed).
    """
    shape = tuple(int(s) for s in shape)
    bound = float(np.sqrt(1.0 / _fan_in(shape)))
    rng = np.random.default_rng([int(rng_seed), _name_key(name)])
    t = Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
    return t


class ParamStore:
    """Uniquely named Tensors with grad slots, owned by one training run.

    A store built over `values` (name -> array, e.g. a loaded checkpoint)
    creates each parameter found there from its array, without a copy and
    without a grad buffer. `zero_grads` zeroes each grad buffer in place,
    so a run keeps one buffer per parameter; a parameter that has none yet
    gets one.
    """

    def __init__(self, rng_seed: int = 0, values: dict | None = None):
        self.rng_seed = int(rng_seed)
        self.entries: dict[str, Tensor] = {}
        self._values = values or {}

    def create(self, name: str, shape, init: str = "uniform") -> Tensor:
        """Register a new parameter; `init` is "uniform" or "zeros"."""
        if name in self.entries:
            raise GraphError(f"duplicate parameter name {name!r}")
        shape = tuple(int(s) for s in shape)
        if name in self._values:
            arr = self._values[name]
            if arr.shape != shape:
                raise CorruptionError(
                    f"checkpoint value for {name!r} has shape {arr.shape}, expected {shape}"
                )
            t = Tensor(arr)
        elif init == "uniform":
            t = uniform_init(shape, self.rng_seed, name=name)
        elif init == "zeros":
            t = Tensor(np.zeros(shape), requires_grad=True)
        else:
            raise GraphError(f"unknown init {init!r}")
        self.entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        return list(self.entries)

    def items(self):
        return self.entries.items()

    def zero_grads(self) -> None:
        for t in self.entries.values():
            t.zero_grad()

    def n_values(self) -> int:
        return sum(t.data.size for t in self.entries.values())

    def load_values(self, values: dict[str, np.ndarray]) -> int:
        """Overwrite matching entries in place; returns how many were set."""
        n = 0
        for name, arr in values.items():
            if name not in self.entries:
                continue
            t = self.entries[name]
            if t.data.shape != arr.shape:
                raise CorruptionError(
                    f"checkpoint value for {name!r} has shape {arr.shape}, "
                    f"expected {t.data.shape}"
                )
            t.data[...] = arr
            n += 1
        return n


def save_params(store: ParamStore, path) -> None:
    write_file(path, _checkpoint_chunks(store))


def _checkpoint_chunks(store: ParamStore):
    names = store.names()
    header = bytearray()
    header += _MAGIC
    header += struct.pack("<IQI", _VERSION, store.rng_seed, len(names))
    for name in names:
        raw = name.encode("utf-8")
        shape = store[name].data.shape
        header += struct.pack("<H", len(raw)) + raw
        header += struct.pack("<B", len(shape))
        header += struct.pack(f"<{len(shape)}I", *shape)
    yield bytes(header)
    for name in names:
        yield np.ascontiguousarray(store[name].data, dtype="<f8").tobytes()


def load_params(path) -> ParamStore:
    """Read a checkpoint written by `save_params`, into tensors without grad buffers.

    The header is read field by field, an entry's ndim and shape as plain
    bytes, with each field's name formatted only for an error; the values
    are read block by block into one buffer (`BlobReader.finite_floats`) of
    which the parameters are views, so the peak is about the value bytes.
    A file cut anywhere, a name that is not UTF-8 or that repeats, an ndim
    above 32, a value that is NaN or infinite, or bytes after the last
    value raise a CorruptionError that names the path, the field and the
    byte offset.
    """
    path = Path(path)
    with open(path, "rb") as f:
        reader = BlobReader(path, f)
        if reader.take(4, "magic") != _MAGIC:
            raise CorruptionError(f"{path}: not a parameter checkpoint (bad magic)")
        version, seed, count = reader.unpack("<IQI", "header")
        if version != _VERSION:
            raise CorruptionError(f"{path}: unsupported checkpoint version {version}")
        shapes = {}
        for _ in range(count):
            start = reader.offset
            name = reader.text("parameter name")
            if name in shapes:
                raise CorruptionError(
                    f"{path}: parameter name {name!r} repeated at byte offset {start}"
                )
            ndim = reader.take(1, lambda: f"ndim of {name!r}")[0]
            if ndim > _MAX_NDIM:
                raise CorruptionError(
                    f"{path}: ndim of {name!r} at byte offset {reader.offset - 1} is {ndim}, "
                    f"more than {_MAX_NDIM}"
                )
            shapes[name] = _SHAPES[ndim].unpack(
                reader.take(4 * ndim, lambda: f"shape of {name!r}")
            )
        arrays = reader.finite_floats(
            [(shape, lambda name=name: f"values of {name!r}") for name, shape in shapes.items()]
        )
        reader.finish("value")
        store = ParamStore(rng_seed=seed)
        for name, arr in zip(shapes, arrays):
            store.entries[name] = Tensor(arr)
    return store
