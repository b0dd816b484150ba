"""Batching equivalence: dynamic batching must not change a single bit.

Compressing N images one-by-one and as one dynamically batched run must
produce bit-identical per-image outputs — including images served from
a partial tail batch, which the device pads and the host computes
unpadded — across chop factors and PS subdivision factors.  This is the invariant that makes the serving layer transparent
to callers.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import make_compressor
from repro.serve import CompressionService, Request

RES = 16
CHANNELS = 1


def images(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, CHANNELS, RES, RES)).astype(np.float32)


def serve(imgs, *, method, cf, s, max_batch, platform="ipu"):
    """Run every image through one service; returns outputs by rid."""
    requests = [
        Request(rid=i, image=img, arrival=i * 1e-4, method=method, cf=cf, s=s)
        for i, img in enumerate(imgs)
    ]
    service = CompressionService((platform,), max_batch=max_batch, max_wait=0.01)
    responses, stats = service.process(requests)
    assert stats.n_failed == 0
    return {r.request.rid: r.output for r in responses}


def reference(imgs, *, method, cf, s):
    comp = make_compressor(RES, method=method, cf=cf, s=s)
    return [comp.compress(img[None]).numpy()[0] for img in imgs]


@pytest.mark.parametrize("cf", [2, 4, 7])
@pytest.mark.parametrize("method, s", [("dc", 2), ("ps", 1), ("ps", 2)])
class TestBatchingEquivalence:
    def test_batched_equals_one_by_one_including_padded_tail(self, cf, method, s):
        # 7 images at max_batch=4: one full batch plus a padded tail of 3.
        imgs = images(7, seed=cf * 10 + s)
        served = serve(imgs, method=method, cf=cf, s=s, max_batch=4)
        for i, ref in enumerate(reference(imgs, method=method, cf=cf, s=s)):
            assert np.array_equal(served[i], ref), f"image {i} differs"

    def test_single_request_tail_only(self, cf, method, s):
        # The degenerate trace: one request, fully padded batch.
        imgs = images(1, seed=cf * 100 + s)
        served = serve(imgs, method=method, cf=cf, s=s, max_batch=8)
        (ref,) = reference(imgs, method=method, cf=cf, s=s)
        assert np.array_equal(served[0], ref)


class TestBatchingEquivalenceProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(1, 9),
        max_batch=st.integers(1, 6),
        cf=st.sampled_from([2, 4, 7]),
        s=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_any_trace_shape(self, n, max_batch, cf, s, seed):
        imgs = images(n, seed)
        served = serve(imgs, method="ps", cf=cf, s=s, max_batch=max_batch)
        for i, ref in enumerate(reference(imgs, method="ps", cf=cf, s=s)):
            assert np.array_equal(served[i], ref)

    def test_sg_on_ipu_matches_too(self):
        # The scatter/gather variant only compiles on the IPU (paper 3.5.2).
        imgs = images(5, seed=99)
        served = serve(imgs, method="sg", cf=4, s=2, max_batch=2, platform="ipu")
        comp = make_compressor(RES, method="sg", cf=4)
        for i, img in enumerate(imgs):
            assert np.array_equal(served[i], comp.compress(img[None]).numpy()[0])
