import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhold.control import (
    AttitudeCommand,
    Displacement,
    PidGains,
    PidState,
    PositionHoldController,
    displacement_from_center,
    pid_step,
    reset_derivative,
)


@pytest.mark.parametrize("field", ["kp", "ki", "kd", "i_limit", "out_limit"])
def test_pid_gains_reject_nan(field):
    with pytest.raises(ValueError, match=field):
        PidGains(**{field: math.nan})


class TestDisplacement:
    def test_center_is_zero(self):
        d = displacement_from_center((320.0, 240.0), 640, 480)
        assert (d.x, d.y, d.d) == (0.0, 0.0, 0.0)

    def test_three_four_five_triple(self):
        d = displacement_from_center((480.0, 120.0), 640, 480)
        assert (d.x, d.y, d.d) == (160.0, -120.0, 200.0)

    def test_mirrored_point_same_distance(self):
        d = displacement_from_center((160.0, 360.0), 640, 480)
        assert (d.x, d.y, d.d) == (-160.0, 120.0, 200.0)

    def test_sign_convention(self):
        left = displacement_from_center((100.0, 240.0), 640, 480)
        upper = displacement_from_center((320.0, 50.0), 640, 480)
        assert left.x < 0 and upper.y < 0

    def test_out_of_bounds_is_argument_error(self):
        with pytest.raises(ValueError):
            displacement_from_center((640.0, 100.0), 640, 480)

    def test_explicit_d_must_be_consistent(self):
        with pytest.raises(ValueError):
            Displacement(x=3.0, y=4.0, d=6.0)

    @settings(deadline=None, max_examples=200)
    @given(
        x=st.floats(0.0, 639.0),
        y=st.floats(0.0, 479.0),
    )
    def test_d_consistency(self, x, y):
        d = displacement_from_center((x, y), 640, 480)
        assert abs(d.d * d.d - (d.x * d.x + d.y * d.y)) <= 1e-9


class TestPidStep:
    def test_zero_error_zero_output(self):
        out, _ = pid_step(PidGains(), PidState(), 0.0, 0.04)
        assert out == 0.0

    def test_p_only_product(self):
        gains = PidGains(kp=0.002, ki=0.0, kd=0.0, out_limit=1.0)
        out, _ = pid_step(gains, PidState(), 150.0, 0.04)
        assert out == pytest.approx(0.3, abs=1e-15)

    def test_p_only_hits_clamp(self):
        gains = PidGains(kp=0.002, ki=0.0, kd=0.0, out_limit=0.2)
        out, _ = pid_step(gains, PidState(), 150.0, 0.04)
        assert out == 0.2

    def test_i_only_accumulation(self):
        gains = PidGains(kp=0.0, ki=0.01, kd=0.0, out_limit=1.0)
        state = PidState()
        outputs = []
        for _ in range(3):
            out, state = pid_step(gains, state, 10.0, 0.04)
            outputs.append(out)
        assert outputs == pytest.approx([0.004, 0.008, 0.012], abs=1e-15)

    def test_d_only_backward_difference(self):
        gains = PidGains(kp=0.0, ki=0.0, kd=0.1, out_limit=10.0)
        out1, state = pid_step(gains, PidState(), 1.0, 0.1)
        assert out1 == 0.0  # unprimed: no derivative on the first step
        out2, _ = pid_step(gains, state, 3.0, 0.1)
        assert out2 == pytest.approx(0.1 * (3.0 - 1.0) / 0.1, abs=1e-15)

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            pid_step(PidGains(), PidState(), 1.0, 0.0)

    def test_i_term_discrete_integral_exact(self):
        gains = PidGains(kp=0.0, ki=3e-4, kd=0.0, i_limit=1e6, out_limit=10.0)
        state = PidState()
        e, dt, n = 7.0, 0.04, 50
        for _ in range(n):
            out, state = pid_step(gains, state, e, dt)
        assert out == pytest.approx(gains.ki * e * n * dt, rel=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(
        errors=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60),
        kp=st.floats(0.0, 0.01),
        ki=st.floats(0.0, 0.01),
        kd=st.floats(0.0, 0.01),
    )
    def test_clamps_never_exceeded(self, errors, kp, ki, kd):
        gains = PidGains(kp=kp, ki=ki, kd=kd, i_limit=50.0, out_limit=0.2)
        state = PidState()
        for e in errors:
            out, state = pid_step(gains, state, e, 0.04)
            assert abs(out) <= gains.out_limit
            assert abs(state.integral) <= gains.i_limit


class TestResetDerivative:
    def test_unprimes_and_preserves_integral(self):
        state = PidState(integral=12.0, prev_error=50.0, primed=True)
        reset = reset_derivative(state)
        assert not reset.primed
        assert reset.integral == 12.0

    def test_next_step_has_zero_derivative(self):
        gains = PidGains(kp=0.0, ki=0.0, kd=1.0, out_limit=10.0)
        _, state = pid_step(gains, PidState(), 5.0, 0.1)
        state = reset_derivative(state)
        out, _ = pid_step(gains, state, 50.0, 0.1)
        assert out == 0.0

    def test_step_reset_step_drops_d_term(self):
        gains = PidGains(kp=1e-3, ki=1e-3, kd=1e-2, i_limit=1e6, out_limit=10.0)
        e, dt = 20.0, 0.05
        _, state = pid_step(gains, PidState(), e, dt)
        state = reset_derivative(state)
        out, state = pid_step(gains, state, e, dt)
        assert out == pytest.approx(gains.kp * e + gains.ki * state.integral, rel=1e-12)


class TestPositionHoldController:
    def test_equilibrium(self):
        ctrl = PositionHoldController(PidGains())
        cmd = ctrl.step(Displacement(0.0, 0.0), 0.04)
        assert cmd == AttitudeCommand(pitch=0.0, roll=0.0)

    def test_blind_is_neutral_and_freezes_integrals(self):
        gains = PidGains(kp=1e-3, ki=1e-3, kd=0.0)
        ctrl = PositionHoldController(gains)
        ctrl.step(Displacement(100.0, -50.0), 0.04)
        frozen = (ctrl.roll_state.integral, ctrl.pitch_state.integral)
        assert frozen != (0.0, 0.0)
        cmd = ctrl.step(None, 0.04)
        assert cmd == AttitudeCommand(pitch=0.0, roll=0.0)
        assert (ctrl.roll_state.integral, ctrl.pitch_state.integral) == frozen

    def test_p_only_axis_mapping(self):
        gains = PidGains(kp=0.001, ki=0.0, kd=0.0, out_limit=0.2)
        ctrl = PositionHoldController(gains)
        cmd = ctrl.step(Displacement(160.0, -120.0), 0.04)
        assert cmd.roll == pytest.approx(0.16, abs=1e-15)
        assert cmd.pitch == pytest.approx(-0.12, abs=1e-15)

    def test_adversarial_sequence_respects_clamps(self):
        rng = np.random.default_rng(99)
        gains = PidGains()
        ctrl = PositionHoldController(gains)
        errors = rng.uniform(-400, 400, 2000)
        for i, e in enumerate(errors):
            disp = None if i % 97 == 0 else Displacement(float(e), float(-e))
            cmd = ctrl.step(disp, 0.04)
            assert abs(cmd.roll) <= gains.out_limit
            assert abs(cmd.pitch) <= gains.out_limit
            assert abs(ctrl.roll_state.integral) <= gains.i_limit
            assert abs(ctrl.pitch_state.integral) <= gains.i_limit
