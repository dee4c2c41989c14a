import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from momabs.signals import SignalSpec, Term

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestTerm:
    def test_sin_values(self):
        term = Term("sin", amplitude=2.0, frequency=3.0, phase=0.5)
        t = np.linspace(0.0, 1.0, 7)
        assert np.allclose(term.eval(t), 2.0 * np.sin(3.0 * t + 0.5))

    def test_square_is_sign_of_sine(self):
        term = Term("square", amplitude=-25.945, frequency=6.0)
        t = np.array([0.1, 0.6, 1.2])
        assert np.allclose(term.eval(t), -25.945 * np.sign(np.sin(6.0 * t)))

    def test_expdecay(self):
        term = Term("expdecay", amplitude=4.0, rate=2.0)
        assert abs(term.eval(np.array([0.5]))[0] - 4.0 * math.exp(-1.0)) < 1e-14

    def test_expdecay_requires_positive_rate(self):
        with pytest.raises(ValueError, match="rate"):
            Term("expdecay", amplitude=1.0, rate=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Term("ramp")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Term("sin", amplitude=float("inf"))

    @pytest.mark.parametrize("name", ["amplitude", "frequency", "phase", "rate"])
    def test_bool_rejected(self, name):
        data = {"channels": [[{"kind": "sin", name: True}]]}
        with pytest.raises(ValueError, match=f"term field '{name}' must be a finite number, got True"):
            SignalSpec.from_dict(data)


class TestSignalSpec:
    def test_scalar_and_array_shapes(self):
        spec = SignalSpec(((Term("sin", amplitude=1.0, frequency=1.0),), (Term("zero"),)))
        assert spec.eval(0.3).shape == (2,)
        assert spec.eval(np.linspace(0, 1, 5)).shape == (5, 2)

    def test_terms_add_per_channel(self):
        spec = SignalSpec(
            ((Term("constant", amplitude=1.0), Term("sin", amplitude=2.0, frequency=1.0)),)
        )
        t = np.array([0.0, np.pi / 2])
        assert np.allclose(spec.eval(t)[:, 0], [1.0, 3.0])

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError, match="at least one term"):
            SignalSpec(((),))

    def test_zero_factory(self):
        spec = SignalSpec.zero(3)
        assert spec.dim == 3
        assert spec.is_zero() and spec.is_decaying()
        assert np.abs(spec.eval(np.linspace(0, 1, 4))).max() == 0.0

    def test_decaying_classification(self):
        decaying = SignalSpec(((Term("expdecay", amplitude=1.0, rate=0.5), Term("zero")),))
        persistent = SignalSpec(((Term("cos", amplitude=1.0, frequency=2.0),),))
        assert decaying.is_decaying() and not decaying.is_zero()
        assert not persistent.is_decaying()

    def test_zero_amplitude_counts_as_decaying(self):
        spec = SignalSpec(((Term("sin", amplitude=0.0, frequency=5.0),),))
        assert spec.is_decaying() and spec.is_zero()

    def test_sup_norm(self):
        spec = SignalSpec(
            ((Term("sin", amplitude=3.0, frequency=1.0),), (Term("constant", amplitude=4.0),))
        )
        t = np.linspace(0, 2 * np.pi, 10001)
        assert abs(spec.sup_norm(t) - 5.0) < 1e-5

    def test_round_trip_dict(self):
        spec = SignalSpec(
            (
                (Term("sin", amplitude=51.032, frequency=4.0),),
                (Term("square", amplitude=-25.945, frequency=6.0), Term("zero")),
            )
        )
        again = SignalSpec.from_dict(spec.to_dict())
        t = np.linspace(0, 3, 50)
        assert np.array_equal(spec.eval(t), again.eval(t))

    @given(amp=finite, freq=finite, phase=finite)
    def test_sin_bounded_by_amplitude(self, amp, freq, phase):
        term = Term("sin", amplitude=amp, frequency=freq, phase=phase)
        t = np.linspace(0.0, 10.0, 101)
        assert np.abs(term.eval(t)).max() <= abs(amp) * (1 + 1e-12)
