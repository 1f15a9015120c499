"""``RegionUpdate`` against the parent's region re-encode, bit for bit.

``tests/_region_reference.py`` holds ``encode_region_update`` as it stood at
04affcf: a full-frame masked residual, a full-frame DCT and inverse per call.
``RegionUpdate`` transforms the region's macroblocks once, in a compact
plane, and quantises per QP; here its ``bits`` (and the repr of the float)
and ``apply`` bytes are compared with the reference on a hypothesis sweep —
planes with equal pixels, -0.0 and values outside [0, 255], masks and
sub-masks from empty to full, QPs from 0 to 51 with fractional ones, blocks
of 8 and 16 — under both kernel backends.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _region_reference as ref
from repro.codec import encoder
from repro.codec.encoder import RegionUpdate, encode_region_update

pytestmark = pytest.mark.kernels

QPS = (0.0, 6.0, 18.5, 30.0, 51.0)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def planes(rng, shape, style):
    """``(base, target)`` float32: a decode and the frame it approximates."""
    lo, hi = (-60.0, 320.0) if style == "out_of_range" else (0.0, 255.0)
    base = rng.uniform(lo, hi, shape)
    target = base + rng.normal(scale=rng.choice([1.5, 12.0, 90.0]), size=shape)
    if style == "equal":
        target = base.copy()
    else:
        same = rng.random(shape) < 0.3
        target[same] = base[same]
    for plane in (base, target):
        plane[rng.random(shape) < 0.05] = -0.0
    return base.astype(np.float32), target.astype(np.float32)


def sub_masks(rng, mask):
    """The whole region, none of it, and two random subsets."""
    subsets = [mask & (rng.random(mask.shape) < share) for share in (0.5, 0.2)]
    return [None, mask, np.zeros_like(mask), *subsets]


def assert_matches_reference(base, target, mask, qps, rng, block):
    update = RegionUpdate(base, target, mask, block=block)
    for qp in qps:
        for sub in sub_masks(rng, mask):
            want_bits, want_image = ref.encode_region_update(
                base, target, mask if sub is None else sub, qp=qp, block=block
            )
            got_bits = update.bits(qp, sub)
            assert type(got_bits) is float and repr(got_bits) == repr(want_bits), (qp, got_bits, want_bits)
            assert same_bytes(update.apply(qp, sub), want_image), qp
    bits, image = encode_region_update(base, target, mask, qp=qps[0], block=block)
    want_bits, want_image = ref.encode_region_update(base, target, mask, qp=qps[0], block=block)
    assert repr(bits) == repr(want_bits) and same_bytes(image, want_image)


@pytest.mark.usefixtures("kernel_backend")
class TestAgainstTheParent:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from([8, 16]),
        st.integers(1, 4),
        st.integers(1, 5),
        st.sampled_from(["natural", "out_of_range", "equal"]),
        st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        st.integers(0, 10_000),
    )
    def test_sweep(self, block, rows, cols, style, density, seed):
        rng = np.random.default_rng(seed)
        base, target = planes(rng, (rows * block, cols * block), style)
        mask = rng.random((rows, cols)) < density
        qps = (*QPS, float(rng.uniform(0.0, 51.0)))
        assert_matches_reference(base, target, mask, qps, rng, block)

    @pytest.mark.parametrize("block", [8, 16])
    def test_a_ruler_sized_frame(self, block):
        """320 x 192 — the fleet's frames — with a DDS-like region of boxes."""
        rng = np.random.default_rng(block)
        base, target = planes(rng, (192, 320), "natural")
        rows, cols = 192 // block, 320 // block
        mask = np.zeros((rows, cols), dtype=bool)
        for _ in range(4):
            r, c = int(rng.integers(0, rows - 2)), int(rng.integers(0, cols - 3))
            mask[r : r + int(rng.integers(1, 5)), c : c + int(rng.integers(1, 7))] = True
        assert_matches_reference(base, target, mask, (*QPS, 12.0, 24.0, 7.25), rng, block)

    def test_non_float32_and_strided_inputs(self):
        rng = np.random.default_rng(5)
        base, target = planes(rng, (64, 96), "natural")
        mask = rng.random((4, 6)) < 0.5
        wide_base = np.repeat(base.astype(np.float64), 2, axis=1)[:, ::2]
        for args in ((wide_base, target.tolist()), (base, np.asfortranarray(target))):
            update = RegionUpdate(*args, mask)
            want_bits, want_image = ref.encode_region_update(*args, mask, qp=10.0)
            assert update.bits(10.0) == want_bits and same_bytes(update.apply(10.0), want_image)


class TestOneTransform:
    def test_the_residual_is_transformed_once_over_the_region_only(self, monkeypatch):
        calls = {"dct": [], "idct": 0}
        dct, idct = encoder.dct_blocks, encoder.idct_blocks

        def counted_dct(plane):
            calls["dct"].append(plane.shape)
            return dct(plane)

        def counted_idct(coeffs):
            calls["idct"] += 1
            return idct(coeffs)

        monkeypatch.setattr(encoder, "dct_blocks", counted_dct)
        monkeypatch.setattr(encoder, "idct_blocks", counted_idct)
        rng = np.random.default_rng(0)
        base, target = planes(rng, (96, 160), "natural")
        mask = np.zeros((6, 10), dtype=bool)
        mask[1:4, 2:7] = True
        update = RegionUpdate(base, target, mask)
        for qp in (6.0, 12.0, 18.0, 24.0, 30.0):
            update.bits(qp)
        trimmed = np.zeros_like(mask)
        trimmed[2, 3:5] = True
        update.bits(30.0, trimmed)
        update.apply(30.0, trimmed)
        assert calls == {"dct": [(15 * 16, 16)], "idct": 1}

    def test_an_empty_region_transforms_nothing(self):
        base = np.full((32, 48), -0.0, dtype=np.float32)
        update = RegionUpdate(base, base + 7.0, np.zeros((2, 3), dtype=bool))
        assert update.bits(10.0) == 64.0
        assert same_bytes(update.apply(10.0), np.zeros((32, 48), dtype=np.float32))


class TestNamedErrors:
    def setup_method(self):
        self.base = np.zeros((32, 48), dtype=np.float32)
        self.mask = np.zeros((2, 3), dtype=bool)
        self.mask[0, :2] = True

    def test_a_mask_that_is_not_a_subset(self):
        update = RegionUpdate(self.base, self.base, self.mask)
        outside = self.mask.copy()
        outside[1, 2] = True
        for method in (update.bits, update.apply):
            with pytest.raises(ValueError, match="not a subset of the transformed region"):
                method(10.0, outside)

    def test_a_mask_of_the_wrong_grid(self):
        with pytest.raises(ValueError, match=r"region mask shape \(3, 3\) != macroblock grid \(2, 3\)"):
            RegionUpdate(self.base, self.base, np.zeros((3, 3), dtype=bool))
        update = RegionUpdate(self.base, self.base, self.mask)
        with pytest.raises(ValueError, match=r"region mask shape \(3, 2\) != macroblock grid \(2, 3\)"):
            update.bits(10.0, np.zeros((3, 2), dtype=bool))

    def test_a_plane_that_is_not_whole_macroblocks(self):
        with pytest.raises(ValueError, match=r"plane shape \(32, 40\) not a multiple of block 16"):
            RegionUpdate(np.zeros((32, 40)), np.zeros((32, 40)), self.mask)
        with pytest.raises(ValueError, match="not a multiple of block 16"):
            encode_region_update(np.zeros(32), np.zeros(32), self.mask, qp=10.0)

    def test_base_and_target_of_different_shapes(self):
        with pytest.raises(ValueError, match=r"target shape \(32, 64\) != base shape \(32, 48\)"):
            RegionUpdate(self.base, np.zeros((32, 64)), self.mask)
