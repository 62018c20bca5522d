import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from subharnack.specfun import log_gamma, stirling_bracket


def test_log_gamma_known_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert math.isclose(log_gamma(0.5), 0.5 * math.log(math.pi), rel_tol=1e-15)
    assert math.isclose(log_gamma(5.0), math.log(24.0), rel_tol=1e-14)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


@given(st.floats(min_value=1e-3, max_value=500.0))
def test_log_gamma_matches_scipy(r):
    assert math.isclose(log_gamma(r), float(gammaln(r)), rel_tol=1e-12, abs_tol=1e-12)


@given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=50))
def test_log_gamma_array_equals_scalar(rs):
    got = log_gamma(np.array(rs))
    assert isinstance(got, np.ndarray) and got.shape == (len(rs),)
    assert [float(g) for g in got] == [log_gamma(r) for r in rs]


def test_log_gamma_array_keeps_shape_and_int_input():
    n = np.arange(1, 7).reshape(2, 3)
    got = log_gamma(n)
    assert got.shape == (2, 3)
    assert got.ravel().tolist() == [log_gamma(k) for k in range(1, 7)]


@pytest.mark.parametrize("bad", [0.0, -1.5, math.nan, math.inf, -math.inf])
def test_log_gamma_array_rejects_any_bad_element(bad):
    with pytest.raises(ValueError):
        log_gamma(np.array([1.0, 2.5, bad, 4.0]))
    with pytest.raises(ValueError):
        log_gamma(bad)


@given(st.floats(min_value=0.05, max_value=400.0))
@settings(max_examples=200)
def test_stirling_bracket_contains_gamma(r):
    br = stirling_bracket(r)
    lg = log_gamma(r)
    assert br.log_lower <= lg <= br.log_upper
    assert br.contains_log(lg)


def test_stirling_bracket_tightens_with_r():
    widths = [stirling_bracket(r).log_upper - stirling_bracket(r).log_lower
              for r in (1.0, 10.0, 100.0)]
    assert widths[0] > widths[1] > widths[2] > 0.0


def test_stirling_bracket_log_fields_survive_large_r():
    # linear-scale gamma overflows past r ~ 170; the log fields must not
    br = stirling_bracket(300.0)
    assert math.isfinite(br.log_lower) and math.isfinite(br.log_upper)
    assert br.contains_log(log_gamma(300.0))
