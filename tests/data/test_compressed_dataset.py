"""Compressed-at-rest dataset pipeline."""

import numpy as np
import pytest

from repro.core import DCTChopCompressor
from repro.data import DataLoader, SyntheticCIFAR10
from repro.data.compressed import CompressedDataset
from repro.data.loader import Dataset
from repro.errors import ConfigError


class TestCompressedDataset:
    def test_samples_match_direct_roundtrip(self):
        base = SyntheticCIFAR10(n=6, resolution=32, seed=0)
        cds = CompressedDataset(base, cf=4)
        comp = DCTChopCompressor(32, cf=4)
        x0, y0 = base[3]
        xc, yc = cds[3]
        np.testing.assert_allclose(xc, comp.roundtrip(x0).numpy(), atol=1e-5)
        assert yc == y0

    def test_reads_return_owned_samples(self):
        """Three reads: later reads must not overwrite the first sample."""
        base = SyntheticCIFAR10(n=3, resolution=32, seed=0)
        cds = CompressedDataset(base, cf=4)
        samples = [cds[i][0] for i in range(3)]
        comp = DCTChopCompressor(32, cf=4)
        for (x, _), sample in zip((base[i] for i in range(3)), samples):
            assert sample.flags.writeable
            np.testing.assert_allclose(sample, comp.roundtrip(x).numpy(), atol=1e-5)
        assert not np.shares_memory(samples[0], samples[2])

    def test_storage_ratio(self):
        base = SyntheticCIFAR10(n=8, resolution=32, seed=0)
        cds = CompressedDataset(base, cf=2)
        # Nominal 16x minus per-sample header overhead.
        assert 10.0 < cds.storage_ratio <= 16.0

    def test_on_disk_storage(self, tmp_path):
        base = SyntheticCIFAR10(n=4, resolution=16, seed=0)
        cds = CompressedDataset(base, cf=4, storage=tmp_path / "store")
        files = sorted((tmp_path / "store").glob("*.dcz"))
        assert len(files) == 4
        x, _ = cds[2]
        assert x.shape == (3, 16, 16)

    def test_loader_integration(self):
        base = SyntheticCIFAR10(n=8, resolution=16, seed=0)
        cds = CompressedDataset(base, cf=4)
        x, y = next(iter(DataLoader(cds, 4)))
        assert x.shape == (4, 3, 16, 16)
        assert y.shape == (4,)

    def test_non_block_multiple_shapes_padded(self):
        class Odd(Dataset):
            def __len__(self):
                return 2

            def __getitem__(self, i):
                rng = np.random.default_rng(i)
                return rng.standard_normal((1, 20, 28)).astype(np.float32), np.int64(i)

        cds = CompressedDataset(Odd(), cf=4)
        x, _ = cds[0]
        assert x.shape == (1, 20, 28)

    def test_empty_dataset_rejected(self):
        class Empty(Dataset):
            def __len__(self):
                return 0

            def __getitem__(self, i):
                raise IndexError(i)

        with pytest.raises(ConfigError):
            CompressedDataset(Empty())

    def test_shape_mismatch_rejected(self):
        class Ragged(Dataset):
            def __len__(self):
                return 2

            def __getitem__(self, i):
                size = 16 if i == 0 else 24
                return np.zeros((1, size, size), np.float32), np.int64(0)

        with pytest.raises(ConfigError):
            CompressedDataset(Ragged())

    def test_training_on_compressed_dataset(self):
        """End to end: the trainer consumes a compressed-at-rest dataset
        with no changes (the decompressed samples are the lossy batch)."""
        from repro.harness import get_benchmark
        from repro.train import Trainer

        spec = get_benchmark("optical_damage", "tiny")
        base = spec.make_train_dataset(0)
        cds = CompressedDataset(base, cf=4)
        from repro.tensor.random import Generator

        model = spec.make_model(Generator(0))
        trainer = Trainer(model, spec.make_loss(), spec.train_config(1))
        loss = trainer.train_epoch(DataLoader(cds, spec.batch_size, shuffle=True))
        assert np.isfinite(loss)
