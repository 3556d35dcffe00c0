import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowhold import corners as corners_module
from flowhold.corners import (
    DetectParams,
    Rect,
    detect_corners,
    min_eigenvalue,
    response_map,
)
from flowhold.image import GrayImage, sobel_gradients

from util import brute_detect, brute_response_map, brute_select, in_rect, square_fixture


@st.composite
def frames_and_rois(draw):
    """A random frame, a window radius and a ROI that may touch any border."""
    radius = draw(st.integers(1, 3))
    need = 2 * radius + 3
    h = draw(st.integers(need, 48))
    w = draw(st.integers(need, 48))
    x = draw(st.sampled_from([0, w - 1]) | st.integers(0, w - 1))
    y = draw(st.sampled_from([0, h - 1]) | st.integers(0, h - 1))
    rw = draw(st.sampled_from([1, w - x]) | st.integers(1, w - x))
    rh = draw(st.sampled_from([1, h - y]) | st.integers(1, h - y))
    return draw(st.integers(0, 10_000)), (h, w), Rect(x, y, rw, rh), radius


@st.composite
def shapes_and_cuts(draw):
    """An array shape up to 40x40 and a non-empty sub-rectangle (y0, y1, x0, x1) of it."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    y0 = draw(st.integers(0, h - 1))
    x0 = draw(st.integers(0, w - 1))
    y1 = draw(st.integers(y0 + 1, h))
    x1 = draw(st.integers(x0 + 1, w))
    return (h, w), (y0, y1, x0, x1)


def min_eig(a, b, c):
    return float(min_eigenvalue(np.array([a]), np.array([b]), np.array([c]))[0])


@pytest.mark.parametrize("field", ["quality_level", "min_distance"])
def test_detect_params_reject_nan(field):
    with pytest.raises(ValueError, match=field):
        DetectParams(**{field: math.nan})


@pytest.mark.parametrize("field", ["quality_level", "min_distance"])
def test_detect_params_reject_inf(field):
    with pytest.raises(ValueError, match=field):
        DetectParams(**{field: math.inf})


class TestMinEigenvalue:
    def test_isotropic(self):
        assert min_eig(2.0, 0.0, 2.0) == 2.0

    def test_closed_form(self):
        got = min_eig(3.0, 1.0, 1.0)
        assert got == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)

    def test_rank_one_is_edge(self):
        assert min_eig(5.0, 0.0, 0.0) == 0.0

    def test_matches_eigvalsh_on_random_psd(self):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(500, 2, 2)) * rng.uniform(0.0, 10.0, (500, 1, 1))
        t = m @ m.transpose(0, 2, 1)  # PSD by construction
        got = min_eigenvalue(t[:, 0, 0], t[:, 0, 1], t[:, 1, 1])
        want = np.clip(np.linalg.eigvalsh(t)[:, 0], 0.0, None)
        scale = np.trace(t, axis1=1, axis2=2)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale.max())
        assert (got >= 0.0).all()


class TestResponseMap:
    def test_constant_is_flat(self):
        resp = response_map(GrayImage.full(16, 12, 0.7), 2)
        assert resp.max() == 0.0

    @pytest.mark.parametrize("value", [0.0, 1.0 / 3.0, 0.7, 1.0])
    @pytest.mark.parametrize(
        "shape, radius", [((5, 5), 1), ((12, 16), 2), ((31, 9), 3), ((40, 40), 4), ((363, 483), 2)]
    )
    def test_flat_image_equals_box_sum_path(self, monkeypatch, value, shape, radius):
        h, w = shape
        img = GrayImage(np.full(shape, value))
        ix, iy = sobel_gradients(np.pad(img.pixels, 1, mode="edge"))
        box = [corners_module._box_sum(p, radius) for p in (ix * ix, ix * iy, iy * iy)]
        want = min_eigenvalue(*box)
        calls = []

        def counted(p):
            calls.append(p.shape)
            return sobel_gradients(p)

        # The shortcut runs after Sobel, through the module global.
        monkeypatch.setattr(corners_module, "sobel_gradients", counted)
        got = response_map(img, radius)
        assert calls == [(h + 2, w + 2)]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 10_000), radius=st.integers(1, 4), case=shapes_and_cuts())
    # A cut thinner than 2r: no output's window stays inside it.
    @example(seed=0, radius=4, case=((4, 1), (0, 3, 0, 1)))
    def test_box_sum_ignores_where_the_array_starts(self, seed, radius, case):
        # Every output whose window stays inside the cut, or leaves it only
        # across a border the cut shares with the array, equals the whole
        # array's output bit for bit.
        (h, w), (y0, y1, x0, x1) = case
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((h, w)) * 10.0 ** rng.uniform(-3, 3, (h, w))
        cut = corners_module._box_sum(a[y0:y1, x0:x1], radius)
        whole = corners_module._box_sum(a, radius)[y0:y1, x0:x1]
        top = 0 if y0 == 0 else radius
        left = 0 if x0 == 0 else radius
        # Clamped, so a cut thinner than 2r compares nothing rather than
        # wrapping round to outputs whose windows cross it.
        bottom = max(top, y1 - y0 - (0 if y1 == h else radius))
        right = max(left, x1 - x0 - (0 if x1 == w else radius))
        assert cut[top:bottom, left:right].tobytes() == whole[top:bottom, left:right].tobytes()

    def test_step_edge_interior_is_edge(self):
        px = np.full((24, 24), 0.1)
        px[:, 12:] = 0.9
        resp = response_map(GrayImage(px), 2)
        # Away from the frame corners, points on the edge have one strong
        # direction only, so the min eigenvalue stays near zero.
        assert resp[8:16, 10:14].max() < 1e-9
        brute = brute_response_map(GrayImage(px), 2)
        np.testing.assert_allclose(resp, brute, atol=1e-9)

    def test_square_fixture_peaks_at_corners(self):
        img = square_fixture(32)
        resp = response_map(img, 2)
        brute = brute_response_map(img, 2)
        np.testing.assert_allclose(resp, brute, atol=1e-9)
        corners = detect_corners(img, Rect(0, 0, 32, 32), DetectParams(max_corners=4, min_distance=5.0))
        got = sorted((c.x, c.y) for c in corners)
        a, b = 8, 24
        # Sobel support makes the response maximum sit just outside the
        # square's intensity corner; accept a 2-px neighborhood.
        expected = [(a, a), (a, b - 1), (b - 1, a), (b - 1, b - 1)]
        assert len(got) == 4
        for (gx, gy), (ex, ey) in zip(got, sorted(expected)):
            assert abs(gx - ex) <= 2 and abs(gy - ey) <= 2

    def test_undersized_image(self):
        with pytest.raises(ValueError):
            response_map(GrayImage.full(6, 6, 0.5), 2)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), radius=st.integers(1, 3))
    def test_matches_brute_force_on_random_images(self, seed, radius):
        rng = np.random.default_rng(seed)
        img = GrayImage(rng.uniform(0, 1, (rng.integers(12, 24), rng.integers(12, 24))))
        np.testing.assert_allclose(
            response_map(img, radius), brute_response_map(img, radius), atol=1e-9
        )


class TestDetectCorners:
    def test_constant_image_empty(self):
        img = GrayImage.full(20, 20, 0.3)
        assert detect_corners(img, Rect(0, 0, 20, 20), DetectParams()) == []

    def test_square_matches_brute_oracle(self):
        img = square_fixture(32)
        params = DetectParams(max_corners=4, min_distance=5.0)
        roi = Rect(0, 0, 32, 32)
        got = detect_corners(img, roi, params)
        want = brute_detect(img, roi, params)
        # The four corners tie exactly by symmetry, so compare as sets.
        assert {(c.x, c.y) for c in got} == {(c.x, c.y) for c in want}
        got_r = sorted(c.response for c in got)
        want_r = sorted(c.response for c in want)
        assert got_r == pytest.approx(want_r, abs=1e-9)

    def test_greedy_prefix_property(self):
        img = square_fixture(32)
        roi = Rect(0, 0, 32, 32)
        four = detect_corners(img, roi, DetectParams(max_corners=4, min_distance=5.0))
        two = detect_corners(img, roi, DetectParams(max_corners=2, min_distance=5.0))
        assert two == four[:2]

    def test_empty_roi_rejected(self):
        img = square_fixture(16)
        with pytest.raises(ValueError):
            detect_corners(img, Rect(2, 2, 0, 5), DetectParams())

    def test_roi_outside_rejected(self):
        img = square_fixture(16)
        with pytest.raises(ValueError):
            detect_corners(img, Rect(10, 10, 10, 10), DetectParams())

    def test_affine_intensity_invariance(self):
        rng = np.random.default_rng(11)
        base = rng.uniform(0.0, 0.45, (28, 28))
        roi = Rect(0, 0, 28, 28)
        params = DetectParams(max_corners=8, min_distance=4.0)
        plain = detect_corners(GrayImage(base), roi, params)
        scaled = detect_corners(GrayImage(base * 2.0 + 0.05), roi, params)
        assert [(c.x, c.y) for c in plain] == [(c.x, c.y) for c in scaled]
        for p, s in zip(plain, scaled):
            assert s.response == pytest.approx(4.0 * p.response, rel=1e-9)

    @settings(deadline=None, max_examples=200)
    @given(
        case=frames_and_rois(),
        levels=st.sampled_from([0, 2, 3]),
        min_distance=st.sampled_from([3.0, 0.0, 1.5, 1e200]),
        max_corners=st.sampled_from([6, 1, 10_000]),
    )
    @example(case=(3, (120, 160), Rect(0, 0, 1, 1), 3), levels=0, min_distance=3.0,
             max_corners=6)
    @example(case=(4, (40, 48), Rect(47, 39, 1, 1), 1), levels=0, min_distance=3.0,
             max_corners=6)
    @example(case=(5, (9, 9), Rect(0, 0, 9, 9), 3), levels=0, min_distance=3.0,
             max_corners=6)
    # Three grey levels, so responses tie exactly and picks follow the
    # row-major tie order; at min_distance 0 every candidate survives each
    # pick but the pick itself; 1e200 squares to inf and leaves one pick;
    # 10_000 picks outrun the candidates.
    @example(case=(6, (40, 48), Rect(0, 0, 48, 40), 1), levels=2, min_distance=0.0,
             max_corners=10_000)
    @example(case=(7, (40, 48), Rect(3, 2, 40, 30), 2), levels=2, min_distance=1.5,
             max_corners=10_000)
    @example(case=(8, (40, 48), Rect(0, 0, 48, 40), 2), levels=3, min_distance=1e200,
             max_corners=10_000)
    def test_roi_cut_equals_full_frame_response(self, case, levels, min_distance, max_corners):
        # detect_corners computes the response on the ROI plus its support;
        # its picks must equal those a full-frame response map gives,
        # response values and order included, bit for bit.
        seed, shape, roi, radius = case
        rng = np.random.default_rng(seed)
        px = rng.uniform(0, 1, shape)
        if levels:
            px = np.round(px * levels) / levels
        img = GrayImage(px)
        params = DetectParams(max_corners=max_corners, quality_level=0.05,
                              min_distance=min_distance, window_radius=radius)
        want = brute_select(response_map(img, radius), roi, params)
        assert detect_corners(img, roi, params) == want

    @pytest.mark.parametrize(
        "roi, cut",
        [
            (Rect(160, 120, 320, 240), (slice(117, 363), slice(157, 483))),
            (Rect(0, 0, 100, 50), (slice(0, 53), slice(0, 103))),
            (Rect(540, 430, 100, 50), (slice(427, 480), slice(537, 640))),
            (Rect(0, 200, 640, 10), (slice(197, 213), slice(0, 640))),
            (Rect(0, 0, 1, 1), (slice(0, 7), slice(0, 7))),
            (Rect(639, 479, 1, 1), (slice(473, 480), slice(633, 640))),
            (Rect(300, 479, 2, 1), (slice(473, 480), slice(297, 305))),
        ],
    )
    def test_response_support_is_the_roi_plus_r_plus_1(self, monkeypatch, roi, cut):
        # detect_corners hands response_map the ROI plus r+1 on every side,
        # clipped at the frame and grown to 2r+3, and no more.
        img = GrayImage(np.random.default_rng(5).uniform(0, 1, (480, 640)))
        seen = []

        def recorded(image, window_radius):
            seen.append(image.pixels)
            return response_map(image, window_radius)

        monkeypatch.setattr(corners_module, "response_map", recorded)
        got = detect_corners(img, roi, DetectParams(window_radius=2))
        assert len(seen) == 1
        assert seen[0].shape == img.pixels[cut].shape
        assert seen[0].tobytes() == img.pixels[cut].tobytes()
        assert got == brute_select(response_map(img, 2), roi, DetectParams(window_radius=2))

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_selection_invariants_and_oracle_equality(self, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(14, 30)), int(rng.integers(14, 30))
        img = GrayImage(rng.uniform(0, 1, (h, w)))
        roi = Rect(1, 1, w - 2, h - 2)
        params = DetectParams(
            max_corners=int(rng.integers(1, 8)),
            quality_level=float(rng.uniform(0.05, 0.6)),
            min_distance=float(rng.uniform(0.0, 6.0)),
            window_radius=2,
        )
        got = detect_corners(img, roi, params)
        want = brute_detect(img, roi, params)
        assert [(c.x, c.y) for c in got] == [(c.x, c.y) for c in want]
        for g, w in zip(got, want):
            assert g.response == pytest.approx(w.response, abs=1e-9)
        assert len(got) <= params.max_corners
        responses = [c.response for c in got]
        assert responses == sorted(responses, reverse=True)
        for i, c in enumerate(got):
            assert in_rect(roi, c.x, c.y)
            for other in got[:i]:
                dist = math.hypot(c.x - other.x, c.y - other.y)
                assert dist >= params.min_distance
