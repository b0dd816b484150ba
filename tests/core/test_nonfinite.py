"""Satellite: non-finite inputs must not break the fast≡dense contract.

The dense oracle realises the transform with block-diagonal operands, so
``0 * inf = nan`` poisons a whole plane row — an artifact the tiled
kernels do not reproduce.  The compressors therefore detect NaN/Inf and
pin those calls to the dense path, in both directions, for every method.
"""

import numpy as np
import pytest

from repro.core import has_nonfinite, make_compressor
from repro.tensor import Tensor, no_grad


def _poisoned(rng, n, kind):
    x = rng.standard_normal((2, n, n)).astype(np.float32)
    if kind == "nan":
        x[0, 3, 5] = np.nan
    elif kind == "inf":
        x[1, n - 1, 0] = np.inf
    else:
        x[0, 0, 0] = -np.inf
    return x


class TestHasNonfinite:
    def test_finite_clean(self, rng):
        assert not has_nonfinite(rng.standard_normal((8, 8)).astype(np.float32))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_detects_each_kind(self, value):
        x = np.zeros((4, 4), np.float32)
        x[2, 1] = value
        assert has_nonfinite(x)

    def test_empty_and_integer_arrays_clean(self):
        assert not has_nonfinite(np.zeros((0,), np.float32))
        assert not has_nonfinite(np.arange(10))

    def test_no_warning_emitted(self):
        x = np.full((4, 4), np.float32(3e38))  # min+max overflows f32
        with np.errstate(over="raise", invalid="raise"):
            assert has_nonfinite(x)  # near-overflow false positive is safe


@pytest.mark.parametrize("method", ["dc", "ps", "sg"])
@pytest.mark.parametrize("kind", ["nan", "inf", "-inf"])
class TestNonfiniteBitIdentity:
    def test_compress_matches_dense(self, method, kind, rng):
        n = 64
        fast = make_compressor(n, method=method, cf=4, fast=True)
        dense = make_compressor(n, method=method, cf=4, fast=False)
        x = Tensor(_poisoned(rng, n, kind))
        with no_grad():
            a = fast.compress(x).data
            b = dense.compress(x).data
        assert a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)

    def test_decompress_matches_dense(self, method, kind, rng):
        n = 64
        fast = make_compressor(n, method=method, cf=4, fast=True)
        dense = make_compressor(n, method=method, cf=4, fast=False)
        clean = Tensor(rng.standard_normal((2, n, n)).astype(np.float32))
        with no_grad():
            y = dense.compress(clean).data.copy()
            # Poison the *compressed* representation directly — models a
            # corrupted payload arriving at decompress.
            y[0, 1, 2] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
            a = fast.decompress(Tensor(y)).data
            b = dense.decompress(Tensor(y)).data
        assert np.array_equal(a, b, equal_nan=True)

    def test_guarded_fast_path_also_pins_to_dense(self, method, kind, rng):
        # Armed ABFT guards run on the same tiled kernels; a non-finite
        # plane still takes the dense oracle in both directions.
        from repro.integrity import IntegrityPolicy, integrity_guards

        n = 64
        fast = make_compressor(n, method=method, cf=4, fast=True)
        dense = make_compressor(n, method=method, cf=4, fast=False)
        x = Tensor(_poisoned(rng, n, kind))
        with no_grad(), integrity_guards(IntegrityPolicy()):
            a = fast.compress(x).data
            b = dense.compress(x).data
            ra = fast.decompress(Tensor(b)).data
            rb = dense.decompress(Tensor(b)).data
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(ra, rb, equal_nan=True)


def test_nonfinite_poisoning_is_contractual(rng):
    """Document the dense-oracle semantics the pin preserves: the dense
    operands multiply every value by every row, so one NaN poisons the
    entire compressed plane (``0 * nan = nan`` both sides)."""
    n = 64
    comp = make_compressor(n, method="dc", cf=4, fast=True)
    x = rng.standard_normal((n, n)).astype(np.float32)
    x[10, 10] = np.nan
    with no_grad():
        y = comp.compress(Tensor(x)).data
    assert np.isnan(y).all()


def test_finite_traffic_unaffected_by_detection(rng):
    """The detector must not perturb the clean-path bytes."""
    n = 64
    fast = make_compressor(n, method="dc", cf=4, fast=True)
    dense = make_compressor(n, method="dc", cf=4, fast=False)
    x = Tensor(rng.standard_normal((2, n, n)).astype(np.float32))
    with no_grad():
        assert np.array_equal(fast.compress(x).data, dense.compress(x).data)
