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
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, RangeViolationError, TensorFileError


class Role(enum.Enum):
    GROUND_TRUTH = "ground_truth"
    PREDICTION = "prediction"


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


@dataclass(frozen=True)
class Shape:
    """Dimensions (B, C, I) of the tensor domain; all strictly positive."""

    batch: int
    classes: int
    voxels: int

    def __post_init__(self):
        for name in ("batch", "classes", "voxels"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v <= 0:
                raise LengthMismatchError(f"shape.{name} must be a positive integer, got {v!r}")

    @property
    def size(self) -> int:
        return self.batch * self.classes * self.voxels

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.batch, self.classes, self.voxels)


@dataclass(frozen=True)
class BatchTensor:
    """Immutable double-precision array over (B, C, I), row-major."""

    shape: Shape
    data: np.ndarray = field(repr=False)

    def flat(self) -> np.ndarray:
        return self.data.reshape(-1)


def _wrap(shape: Shape, array: np.ndarray) -> BatchTensor:
    """Internal constructor that skips role validation."""
    array = np.ascontiguousarray(array, dtype=np.float64).reshape(shape.as_tuple())
    array.flags.writeable = False
    return BatchTensor(shape=shape, data=array)


def make_batch(shape: Shape, values: Sequence[float] | np.ndarray, role: Role) -> BatchTensor:
    """Build a validated tensor from flat row-major values.

    Ground-truth tensors must be binary; prediction tensors must lie in [0, 1].
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size != shape.size:
        raise LengthMismatchError(
            f"expected {shape.size} values for shape {shape.as_tuple()}, got {arr.size}"
        )
    if role is Role.GROUND_TRUTH:
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise RangeViolationError("ground-truth values must be exactly 0 or 1")
    elif role is Role.PREDICTION:
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise RangeViolationError("prediction values must lie in [0, 1]")
    return _wrap(shape, arr.copy())


_MAGIC = b"DRT1"
_DTYPE_F64_LE = 1
_HEADER_BYTES = 18


def write_tensor(path, tensor: BatchTensor) -> None:
    """Write the portable tensor format: magic, dtype u8, ndim u8, dims u32 LE, f64 LE payload."""
    B, C, I = tensor.shape.as_tuple()
    header = _MAGIC + struct.pack("<BB", _DTYPE_F64_LE, 3) + struct.pack("<III", B, C, I)
    payload = np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_tensor(path) -> BatchTensor:
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
    B, C, I = struct.unpack_from("<III", blob, 6)
    shape = Shape(int(B), int(C), int(I))
    expected = _HEADER_BYTES + 8 * shape.size
    if len(blob) != expected:
        raise TensorFileError(f"{path}: expected {expected} bytes, got {len(blob)}")
    arr = np.frombuffer(blob, dtype="<f8", offset=_HEADER_BYTES).astype(np.float64)
    return _wrap(shape, arr)
