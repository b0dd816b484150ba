"""Compressed-at-rest dataset pipeline (the storage use case, end to end).

The paper motivates training-data compression with disk footprint: the
OPT-175B corpus is 800 GB while accelerator-adjacent storage is precious.
:class:`CompressedDataset` materialises any map-style dataset into DCZ
containers once, then serves decompressed samples on access — so the
training loop downstream is unchanged while the resident copy of the
dataset is ``ratio``x smaller.  ``storage`` chooses between an in-memory
blob store and an on-disk directory of ``.dcz`` files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core import container
from repro.core.api import Compressor, make_compressor
from repro.core.padded import PaddedCompressor
from repro.data.loader import Dataset
from repro.errors import ConfigError


class CompressedDataset(Dataset):
    """Wrap a dataset so samples are stored chop-compressed.

    Targets (labels/masks) are stored raw — they are small and often
    integer-valued.  Samples are compressed with one fixed-shape
    compressor built from the first sample's plane size (all samples in
    the paper's datasets share a shape; a mismatch raises at build time).

    Parameters
    ----------
    base:
        The source dataset; it is fully materialised once at build.
    cf, method:
        Compressor configuration.
    storage:
        ``"memory"`` (default) keeps blobs in RAM; a path-like stores one
        ``.dcz`` file per sample in that directory.
    """

    def __init__(
        self,
        base: Dataset,
        *,
        cf: int = 4,
        method: str = "dc",
        storage="memory",
    ) -> None:
        if len(base) == 0:
            raise ConfigError("cannot compress an empty dataset")
        first_x, _ = base[0]
        h, w = first_x.shape[-2:]
        if h % 8 or w % 8:
            self.compressor: Compressor = PaddedCompressor(h, w, method=method, cf=cf)
        else:
            self.compressor = make_compressor(h, w, method=method, cf=cf)
        self._dir: Path | None = None
        if storage != "memory":
            self._dir = Path(storage)
            self._dir.mkdir(parents=True, exist_ok=True)
        self._blobs: list[bytes | Path] = []
        self._targets: list[np.ndarray] = []
        self.raw_bytes = 0
        self.stored_bytes = 0
        for i in range(len(base)):
            x, y = base[i]
            x = np.asarray(x, dtype=np.float32)
            if x.shape[-2:] != (h, w):
                raise ConfigError(
                    f"sample {i} plane {x.shape[-2:]} differs from first sample {(h, w)}"
                )
            blob = container.pack(x, self.compressor)
            self.raw_bytes += x.nbytes
            self.stored_bytes += len(blob)
            if self._dir is not None:
                path = self._dir / f"sample_{i:06d}.dcz"
                path.write_bytes(blob)
                self._blobs.append(path)
            else:
                self._blobs.append(blob)
            self._targets.append(np.asarray(y))

    @property
    def storage_ratio(self) -> float:
        """Achieved at-rest compression over the raw FP32 samples."""
        return self.raw_bytes / self.stored_bytes

    def __len__(self) -> int:
        return len(self._blobs)

    def __getitem__(self, index: int):
        blob = self._blobs[index]
        if isinstance(blob, Path):
            blob = blob.read_bytes()
        x, _header = container.unpack(blob)
        return x, self._targets[index]
