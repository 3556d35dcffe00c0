import numpy as np
import pytest

from flowhold.flow import FlowStatus, LkParams, build_pyramid, track_points
from flowhold.image import GrayImage

from util import smooth_texture, ssd_best_shift


@pytest.mark.parametrize("field", ["epsilon", "min_eigen_threshold", "residual_cap"])
def test_lk_params_reject_nan(field):
    with pytest.raises(ValueError, match=field):
        LkParams(**{field: float("nan")})


def seeded_points(width, height, count, margin, seed=5):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(margin, width - 1 - margin, count)
    ys = rng.uniform(margin, height - 1 - margin, count)
    return np.stack([xs, ys], axis=1)


class TestBuildPyramid:
    def test_single_level_is_identity(self):
        img = GrayImage(np.random.default_rng(0).uniform(0, 1, (16, 16)))
        pyr = build_pyramid(img, 1)
        assert len(pyr.levels) == 1
        assert pyr.levels[0] is img

    def test_constant_box_average(self):
        pyr = build_pyramid(GrayImage.full(16, 16, 0.5), 2)
        assert pyr.levels[1].width == 8 and pyr.levels[1].height == 8
        np.testing.assert_array_equal(pyr.levels[1].pixels, 0.5)

    def test_checkerboard_averages_to_half(self):
        px = np.indices((16, 16)).sum(axis=0) % 2
        pyr = build_pyramid(GrayImage(px.astype(np.float64)), 2)
        np.testing.assert_array_equal(pyr.levels[1].pixels, 0.5)

    def test_depth_clamps_to_keep_8x8(self):
        img = GrayImage.full(32, 32, 0.1)
        pyr = build_pyramid(img, 6)
        assert len(pyr.levels) == 3  # 32 -> 16 -> 8, deeper would be 4x4
        assert pyr.levels[-1].width == 8

    def test_odd_dimensions_floor(self):
        img = GrayImage(np.random.default_rng(1).uniform(0, 1, (33, 37)))
        pyr = build_pyramid(img, 2)
        assert (pyr.levels[1].width, pyr.levels[1].height) == (18, 16)


class TestLkTrack:
    def test_identity_frames_fixpoint(self):
        img = smooth_texture(64, 64, seed=2)
        pyr = build_pyramid(img, 3)
        res = track_points(pyr, pyr, [(30.0, 25.0)], LkParams())[0]
        assert res.status is FlowStatus.TRACKED
        assert res.point == (30.0, 25.0)
        assert res.residual == 0.0

    def test_translation_recovery(self):
        shift = (3.0, -2.0)
        prev = smooth_texture(96, 96, seed=4)
        next_ = smooth_texture(96, 96, shift=shift, seed=4)
        params = LkParams()
        pts = seeded_points(96, 96, 100, margin=11 + 4)
        prev_pyr = build_pyramid(prev, params.pyramid_levels)
        next_pyr = build_pyramid(next_, params.pyramid_levels)
        results = track_points(prev_pyr, next_pyr, pts, params)
        ok = 0
        for (x, y), res in zip(pts, results):
            if res.tracked:
                err = np.hypot(res.point[0] - (x + shift[0]), res.point[1] - (y + shift[1]))
                ok += err <= 0.1
        assert ok >= 95

    def test_uniform_region_is_ill_conditioned(self):
        img = GrayImage.full(64, 64, 0.5)
        pyr = build_pyramid(img, 2)
        res = track_points(pyr, pyr, [(32.0, 32.0)], LkParams())[0]
        assert res.status is FlowStatus.ILL_CONDITIONED

    def test_precondition_violation_is_an_error(self):
        img = smooth_texture(64, 64, seed=1)
        pyr = build_pyramid(img, 2)
        with pytest.raises(ValueError):
            track_points(pyr, pyr, [(5.0, 32.0)], LkParams(window_radius=10))

    @pytest.mark.parametrize("frac", [(0.5, 0.0), (0.25, 0.25), (0.5, -0.25)])
    def test_subpixel_recovery(self, frac):
        prev = smooth_texture(80, 80, seed=9)
        next_ = smooth_texture(80, 80, shift=frac, seed=9)
        params = LkParams()
        prev_pyr = build_pyramid(prev, params.pyramid_levels)
        next_pyr = build_pyramid(next_, params.pyramid_levels)
        for pt in [(30.0, 30.0), (45.5, 38.0), (25.0, 50.0)]:
            res = track_points(prev_pyr, next_pyr, [pt], params)[0]
            assert res.tracked
            err = np.hypot(res.point[0] - (pt[0] + frac[0]), res.point[1] - (pt[1] + frac[1]))
            assert err <= 0.1

    def test_forward_backward_consistency(self):
        shift = (4.0, 1.5)
        prev = smooth_texture(96, 96, seed=12)
        next_ = smooth_texture(96, 96, shift=shift, seed=12)
        params = LkParams()
        a = build_pyramid(prev, params.pyramid_levels)
        b = build_pyramid(next_, params.pyramid_levels)
        pts = seeded_points(96, 96, 40, margin=11 + 6, seed=8)
        fwd = track_points(a, b, pts, params)
        back_pts = [r.point for r in fwd if r.tracked]
        back = track_points(b, a, back_pts, params)
        idx = 0
        for (x, y), f in zip(pts, fwd):
            if not f.tracked:
                continue
            r = back[idx]
            idx += 1
            if r.tracked:
                assert np.hypot(r.point[0] - x, r.point[1] - y) <= 0.2

    def test_integer_shift_matches_ssd_search(self):
        rng = np.random.default_rng(33)
        for shift in [(1, 0), (-3, 2), (4, -4), (0, 3)]:
            seed = int(rng.integers(0, 1000))
            prev = smooth_texture(96, 96, seed=seed)
            next_ = smooth_texture(96, 96, shift=shift, seed=seed)
            params = LkParams()
            a = build_pyramid(prev, params.pyramid_levels)
            b = build_pyramid(next_, params.pyramid_levels)
            for pt in [(40, 40), (30, 55), (60, 35)]:
                res = track_points(a, b, [(float(pt[0]), float(pt[1]))], params)[0]
                if not res.tracked:
                    continue
                sdx, sdy = ssd_best_shift(prev, next_, pt, radius=10, search=6)
                assert np.hypot(res.point[0] - pt[0] - sdx, res.point[1] - pt[1] - sdy) <= 0.5

    def test_brightness_offset_tolerance(self):
        shift = (2.0, 1.0)
        prev = smooth_texture(80, 80, seed=21)
        shifted = smooth_texture(80, 80, shift=shift, seed=21)
        offset = GrayImage(np.clip(shifted.pixels + 0.05, 0.0, 1.0))
        params = LkParams()
        a = build_pyramid(prev, params.pyramid_levels)
        b = build_pyramid(shifted, params.pyramid_levels)
        c = build_pyramid(offset, params.pyramid_levels)
        pt = (40.0, 40.0)
        clean = track_points(a, b, [pt], params)[0]
        biased = track_points(a, c, [pt], params)[0]
        assert clean.tracked and biased.tracked
        drift = np.hypot(
            biased.point[0] - clean.point[0], biased.point[1] - clean.point[1]
        )
        assert drift < 0.2
        assert biased.residual > clean.residual

    def test_lost_reasons_do_not_overlap_argument_errors(self):
        img = smooth_texture(64, 64, seed=3)
        pyr = build_pyramid(img, 2)
        res = track_points(pyr, pyr, [(12.0, 12.0)], LkParams(window_radius=10))[0]
        assert isinstance(res.status, FlowStatus)

    def test_mismatched_pyramids_rejected(self):
        a = build_pyramid(smooth_texture(64, 64, seed=1), 2)
        b = build_pyramid(smooth_texture(48, 64, seed=1), 2)
        with pytest.raises(ValueError):
            track_points(a, b, [(32.0, 32.0)], LkParams())
