import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhold.image import (
    GrayImage,
    PgmError,
    bilinear_many,
    load_pgm,
    save_pgm,
    sobel_gradients,
)

from util import brute_bilinear


def pgm_bytes(width, height, maxval, payload):
    return f"P5 {width} {height} {maxval} ".encode() + bytes(payload)


class TestGrayImage:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            GrayImage(np.array([[0.0, 1.2]]))
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            GrayImage(np.array([[-0.1, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            GrayImage(np.array([[0.5, bad], [0.25, 0.75]]))

    def test_rejects_empty_and_wrong_ndim(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            GrayImage(np.zeros(16))

    def test_pixels_frozen(self):
        img = GrayImage.full(4, 3, 0.5)
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0


class TestLoadPgm:
    def test_normalizes_by_maxval(self):
        img = load_pgm(pgm_bytes(2, 2, 255, [0, 255, 128, 64]))
        assert img.width == 2 and img.height == 2
        expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        np.testing.assert_array_equal(img.pixels, expected)

    def test_maxval_one(self):
        img = load_pgm(pgm_bytes(1, 1, 1, [1]))
        assert img.pixels[0, 0] == 1.0

    def test_truncated_payload(self):
        with pytest.raises(PgmError, match="payload"):
            load_pgm(pgm_bytes(2, 2, 255, [0, 1, 2]))

    def test_bad_magic(self):
        with pytest.raises(PgmError, match="magic"):
            load_pgm(b"P2 2 2 255 " + bytes(4))

    @pytest.mark.parametrize("maxval", [0, 256])
    def test_maxval_out_of_range(self, maxval):
        with pytest.raises(PgmError, match="maxval"):
            load_pgm(pgm_bytes(1, 1, maxval, [0]))

    def test_header_comments(self):
        data = b"P5\n# a fixture\n2 1\n# more\n255\n" + bytes([10, 20])
        img = load_pgm(data)
        np.testing.assert_allclose(img.pixels, np.array([[10, 20]]) / 255)

    @pytest.mark.parametrize(
        "header, error",
        [
            (b"P5\n# ends at a CR\r2 1\n255\n", None),
            # '#' starts a comment only where a token may start.
            (b"P5 2#1 1 255\n", r"^width: expected an integer, got b'2#1'$"),
        ],
        ids=["comment-ends-at-cr", "hash-inside-token"],
    )
    def test_header_token_edges(self, header, error):
        data = header + bytes([10, 20])
        if error is None:
            np.testing.assert_allclose(load_pgm(data).pixels, np.array([[10, 20]]) / 255)
        else:
            with pytest.raises(PgmError, match=error):
                load_pgm(data)

    def test_non_numeric_width(self):
        with pytest.raises(PgmError, match="width"):
            load_pgm(b"P5 x 2 255 " + bytes(4))

    def test_sample_above_maxval(self):
        with pytest.raises(PgmError, match="^payload: sample 1 is 101, above maxval 100$"):
            load_pgm(pgm_bytes(2, 2, 100, [100, 101, 0, 255]))


class TestSavePgm:
    def test_zero_and_unit(self):
        assert save_pgm(GrayImage.full(1, 1, 0.0)).endswith(b"\x00")
        assert save_pgm(GrayImage.full(1, 1, 1.0)).endswith(b"\xff")

    def test_header_format(self):
        data = save_pgm(GrayImage.full(3, 2, 0.5))
        assert data.startswith(b"P5\n3 2\n255\n")
        assert len(data) == len(b"P5\n3 2\n255\n") + 6

    def test_round_trip_quantization_bound(self):
        rng = np.random.default_rng(7)
        img = GrayImage(rng.uniform(0.0, 1.0, (16, 16)))
        back = load_pgm(save_pgm(img))
        assert np.abs(back.pixels - img.pixels).max() <= 1.0 / 510.0

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 10_000),
        w=st.integers(1, 12),
        h=st.integers(1, 12),
    )
    def test_round_trip_bound_any_image(self, seed, w, h):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.uniform(0.0, 1.0, (h, w)))
        back = load_pgm(save_pgm(img))
        assert np.abs(back.pixels - img.pixels).max() <= 1.0 / 510.0


def sample(img, x, y):
    """One bilinear sample through the vectorized sampler."""
    return float(bilinear_many(img.pixels, np.array([x], dtype=float), np.array([y], dtype=float))[0])


def on_axis(n):
    """Sample coordinates along an axis of n px: any, whole, or the last pixel."""
    return st.floats(0.0, n - 1.0) | st.integers(0, n - 1).map(float) | st.just(n - 1.0)


def sobel_same(px):
    """Same-size gradients with replicated borders."""
    return sobel_gradients(np.pad(px, 1, mode="edge"))


class TestSampleBilinear:
    def test_exact_at_integer_coordinates(self):
        rng = np.random.default_rng(3)
        img = GrayImage(rng.uniform(0, 1, (8, 10)))
        assert sample(img, 3, 5) == img.pixels[5, 3]
        assert sample(img, 9, 7) == img.pixels[7, 9]

    def test_midpoint_between_two_pixels(self):
        img = GrayImage(np.array([[0.0, 1.0]]))
        assert sample(img, 0.5, 0.0) == 0.5

    def test_hand_evaluated_blend(self):
        # rows: [0, 1], [0.5, 1]; blend at (0.25, 0.75):
        # top = 0.25, bottom = 0.625, result = 0.25*0.25 + 0.625*0.75
        img = GrayImage(np.array([[0.0, 1.0], [0.5, 1.0]]))
        assert sample(img, 0.25, 0.75) == pytest.approx(0.53125, abs=1e-15)

    @settings(deadline=None, max_examples=60)
    @given(
        x=st.floats(0.0, 6.0),
        y=st.floats(0.0, 4.0),
        dx=st.floats(-0.05, 0.05),
        dy=st.floats(-0.05, 0.05),
        seed=st.integers(0, 50),
    )
    def test_continuity(self, x, y, dx, dy, seed):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.uniform(0, 1, (5, 7)))
        x2 = min(max(x + dx, 0.0), 6.0)
        y2 = min(max(y + dy, 0.0), 4.0)
        delta = np.hypot(x2 - x, y2 - y)
        spread = img.pixels.max() - img.pixels.min()
        change = abs(sample(img, x2, y2) - sample(img, x, y))
        assert change <= delta * spread * 2.0 + 1e-12


class TestBilinearOracle:
    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 10_000), h=st.integers(1, 40), w=st.integers(1, 40), data=st.data())
    def test_points_equal_scalar_oracle_bit_for_bit(self, seed, h, w, data):
        px = np.random.default_rng(seed).uniform(0.0, 1.0, (h, w))
        pts = data.draw(st.lists(st.tuples(on_axis(w), on_axis(h)), min_size=1, max_size=30))
        xs, ys = np.array(pts).T
        got = bilinear_many(px, xs, ys)
        assert got.tobytes() == brute_bilinear(px, xs, ys).tobytes()

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 10_000), h=st.integers(3, 40), w=st.integers(3, 40), data=st.data())
    def test_window_stacks_equal_scalar_oracle_bit_for_bit(self, seed, h, w, data):
        # (n, k, k) stacks built as track_points builds them: centres plus
        # a whole-pixel offset grid, which may reach the last row or column.
        px = np.random.default_rng(seed).uniform(0.0, 1.0, (h, w))
        r = data.draw(st.integers(1, (min(h, w) - 1) // 2))
        centres = data.draw(
            st.lists(st.tuples(on_axis(w - 2 * r), on_axis(h - 2 * r)), min_size=1, max_size=5)
        )
        cx, cy = (np.array(centres) + r).T
        oy, ox = np.mgrid[-r : r + 1, -r : r + 1].astype(np.float64)
        xs, ys = cx[:, None, None] + ox, cy[:, None, None] + oy
        got = bilinear_many(px, xs, ys)
        assert got.shape == xs.shape
        assert got.tobytes() == brute_bilinear(px, xs, ys).tobytes()


class TestSobelGradients:
    def test_constant_image_zero_gradient(self):
        ix, iy = sobel_same(np.full((7, 9), 0.42))
        assert np.abs(ix).max() == 0.0
        assert np.abs(iy).max() == 0.0

    def test_ramp_gives_slope(self):
        s = 0.05
        px = np.tile(np.arange(12) * s, (9, 1))
        ix, iy = sobel_same(px)
        np.testing.assert_allclose(ix[1:-1, 1:-1], s, atol=1e-12)
        np.testing.assert_allclose(iy[1:-1, 1:-1], 0.0, atol=1e-12)

    def test_transposed_ramp_swaps_axes(self):
        s = 0.03
        px = np.tile(np.arange(10) * s, (10, 1))
        ix, iy = sobel_same(px)
        ixt, iyt = sobel_same(px.T)
        np.testing.assert_array_equal(iyt, ix.T)
        np.testing.assert_array_equal(ixt, iy.T)

    def test_too_small(self):
        with pytest.raises(ValueError):
            sobel_gradients(np.full((5, 2), 0.1))

    def test_stack_equals_per_slice(self):
        rng = np.random.default_rng(11)
        stack = rng.uniform(0.0, 1.0, (4, 6, 8))
        ix, iy = sobel_gradients(stack)
        assert ix.shape == iy.shape == (4, 4, 6)  # valid region only
        for k in range(stack.shape[0]):
            sx, sy = sobel_gradients(stack[k])
            np.testing.assert_array_equal(ix[k], sx)
            np.testing.assert_array_equal(iy[k], sy)

    @pytest.mark.parametrize("shape", [(3, 3), (9, 5), (3, 13, 11), (2, 2, 7, 6)])
    def test_equals_direct_kernel_bit_for_bit(self, shape):
        p = np.random.default_rng(17).normal(0.0, 100.0, shape)
        ix, iy = sobel_gradients(p)
        direct_ix = (
            (p[..., :-2, 2:] + 2.0 * p[..., 1:-1, 2:] + p[..., 2:, 2:])
            - (p[..., :-2, :-2] + 2.0 * p[..., 1:-1, :-2] + p[..., 2:, :-2])
        ) / 8.0
        direct_iy = (
            (p[..., 2:, :-2] + 2.0 * p[..., 2:, 1:-1] + p[..., 2:, 2:])
            - (p[..., :-2, :-2] + 2.0 * p[..., :-2, 1:-1] + p[..., :-2, 2:])
        ) / 8.0
        assert ix.tobytes() == direct_ix.tobytes()
        assert iy.tobytes() == direct_iy.tobytes()

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 100), offset=st.floats(0.0, 0.4))
    def test_dc_invariance(self, seed, offset):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.0, 0.5, (6, 8))
        g1 = sobel_same(base)
        g2 = sobel_same(base + offset)
        np.testing.assert_allclose(g2[0], g1[0], atol=1e-12)
        np.testing.assert_allclose(g2[1], g1[1], atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 100))
    def test_mirror_parity(self, seed):
        rng = np.random.default_rng(seed)
        px = rng.uniform(0, 1, (7, 9))
        ix, iy = sobel_same(px)
        ixm, iym = sobel_same(px[:, ::-1].copy())
        np.testing.assert_allclose(ixm, -ix[:, ::-1], atol=1e-15)
        np.testing.assert_allclose(iym, iy[:, ::-1], atol=1e-15)
