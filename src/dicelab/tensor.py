"""Dense batch/class/voxel tensors and reduction schemes.

The whole package works on one domain: a dense array indexed by
(batch element b, class c, voxel i), stored row-major with b outermost.
A reduction scheme names the axes the Dice sums pool over (the paper's Phi);
the four supported schemes pool the voxel axis only, class+voxel,
batch+voxel, or everything at once. Every index the pooled axes leave free
is one subset.
"""

from __future__ import annotations

import enum
import math
import struct

import numpy as np

from .errors import (InvalidConfigError, RangeViolationError, ShapeMismatchError,
                     TensorFileError, require_array, require_int)


class ReductionScheme(enum.Enum):
    """How far the Dice sums reach before scores are averaged.

    IMAGE_WISE: one subset per (batch element, class), size I.
    CLASS_WISE: one subset per batch element, size C*I.
    BATCH_WISE: one subset per class, size B*I.
    ALL_WISE:   a single subset covering everything, size B*C*I.
    """

    IMAGE_WISE = "image-wise"
    CLASS_WISE = "class-wise"
    BATCH_WISE = "batch-wise"
    ALL_WISE = "all-wise"

    @property
    def axes(self) -> tuple[int, ...]:
        """The (B, C, I) axes the Dice sums pool over; the free axes index subsets."""
        return _POOLED_AXES[self]

    @property
    def class_pure(self) -> bool:
        """True when every subset spans exactly one class."""
        return 1 not in self.axes


_POOLED_AXES = {
    ReductionScheme.IMAGE_WISE: (2,),
    ReductionScheme.CLASS_WISE: (1, 2),
    ReductionScheme.BATCH_WISE: (0, 2),
    ReductionScheme.ALL_WISE: (0, 1, 2),
}


def batch_dims(dims) -> tuple[int, int, int]:
    """(B, C, I) as three positive integers (bool excluded), else ShapeMismatchError."""
    try:
        dims = tuple(dims)
        if len(dims) == 3:
            for d in dims:
                require_int("a dim", d, 1)
            return tuple(int(d) for d in dims)
    except (TypeError, InvalidConfigError):  # not a sequence, or a dim is not an int >= 1
        pass
    raise ShapeMismatchError(f"(B, C, I) must be three positive integers, got {dims!r}")


def readonly(array: np.ndarray) -> np.ndarray:
    """array, made C-contiguous float64 if it is not, with writes refused from now on.

    Callers pass arrays they have just built, so freezing in place touches no
    one else's data.
    """
    out = np.ascontiguousarray(array, dtype=np.float64)
    out.flags.writeable = False
    return out


_MAGIC = b"DRT1"
_DTYPE_F64_LE = 1
_HEADER_BYTES = 18


def write_tensor(path, tensor: np.ndarray) -> None:
    """Write the portable tensor format: magic, dtype u8, ndim u8, dims u32 LE, f64 LE payload.

    tensor is a (B, C, I) array of finite real numbers.
    """
    tensor = require_array("tensor", tensor)
    B, C, I = batch_dims(tensor.shape)
    if not np.isfinite(tensor).all():
        raise RangeViolationError("tensor values must be finite")
    header = _MAGIC + struct.pack("<BB", _DTYPE_F64_LE, 3) + struct.pack("<III", B, C, I)
    payload = np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise TensorFileError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < _HEADER_BYTES:
        raise TensorFileError(f"{path}: header needs {_HEADER_BYTES} bytes, got {len(blob)}")
    dtype_code, ndim = struct.unpack_from("<BB", blob, 4)
    if dtype_code != _DTYPE_F64_LE:
        raise TensorFileError(f"{path}: unsupported dtype code {dtype_code}")
    if ndim != 3:
        raise TensorFileError(f"{path}: expected 3 dims, got {ndim}")
    dims = batch_dims(struct.unpack_from("<III", blob, 6))
    expected = _HEADER_BYTES + 8 * math.prod(dims)
    if len(blob) != expected:
        raise TensorFileError(f"{path}: expected {expected} bytes, got {len(blob)}")
    arr = np.frombuffer(blob, dtype="<f8", offset=_HEADER_BYTES).astype(np.float64)
    return readonly(arr.reshape(dims))
