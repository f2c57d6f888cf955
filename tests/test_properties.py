"""Property-based invariants for the arithmetic helpers.

These complement the worked-example tests: instead of checking known
values, each property must hold on whatever inputs hypothesis invents.
"""

import math

from hypothesis import example, given
from hypothesis import strategies as st

from franson.core import TWO_PI, reduce_phase, setting_key
from franson.inequalities import binomial_stderr
from franson.spacetime import StationGeometry, check_emission_time_premise

finite_phase = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(finite_phase)
def test_reduce_phase_lands_in_the_principal_interval(phase):
    reduced = reduce_phase(phase)
    assert 0.0 <= reduced < TWO_PI
    # same angle up to a whole number of turns
    turns = (phase - reduced) / TWO_PI
    assert abs(turns - round(turns)) < 1e-6


@given(finite_phase)
@example(-0.0)
@example(-TWO_PI)
def test_reduce_phase_never_sets_the_sign_bit(phase):
    assert math.copysign(1.0, reduce_phase(phase)) == 1.0


@given(finite_phase)
def test_reduce_phase_is_idempotent(phase):
    reduced = reduce_phase(phase)
    assert reduce_phase(reduced) == reduced


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_setting_key_ignores_whole_turns(phase):
    assert setting_key(phase) == setting_key(phase + TWO_PI)
    assert setting_key(phase) == setting_key(phase - TWO_PI)


@given(
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=1e-3, max_value=1e4),
)
def test_premise_check_agrees_with_its_definition(dt, mdd, sw):
    check = check_emission_time_premise(StationGeometry(dt, mdd, sw))
    assert check.satisfied == ((dt > mdd) and (sw < dt - mdd))
    assert check.margin_ns == dt - mdd - sw
    if check.satisfied:
        assert check.margin_ns > 0.0


@given(
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=0.5, max_value=100.0),
)
def test_premise_margin_grows_with_path_difference(dt, mdd, sw, delta):
    before = check_emission_time_premise(StationGeometry(dt, mdd, sw))
    after = check_emission_time_premise(StationGeometry(dt + delta, mdd, sw))
    assert after.margin_ns > before.margin_ns
    assert after.satisfied >= before.satisfied


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=10**9))
def test_binomial_stderr_bounds(p, n):
    se = binomial_stderr(2.0 * p - 1.0, n)
    assert 0.0 <= se <= 1.0 / math.sqrt(n) + 1e-15
