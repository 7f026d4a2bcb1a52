"""The fitting loop's arithmetic must keep the bits of the formulas it replaced.

Each test keeps the earlier formula as its reference: the residual built by
two subtractions and a concatenation over the pre-plan sampling,
np.linalg.norm for the 2-norms of the optimizers' 2-vectors, and the
any/all/isfinite rule that finds a dead Jacobian column.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from conftest import BACKENDS  # noqa: E402
from test_solver import _reference_eval_many  # noqa: E402

from respfit import (  # noqa: E402
    ConstantHistory,
    Constants,
    NonFiniteError,
    SingularNormalEquationsError,
    State,
    backend,
    fitting,
)
from respfit.data import Dataset  # noqa: E402
from respfit.fitting import ResidualProblem, _norm, _Search  # noqa: E402
from respfit.solver import Grid, solve_dde_raw  # noqa: E402


def _reference_residuals(problem, alpha, beta):
    """ResidualProblem.residuals as it was before it sampled into one buffer."""
    xs, ys = _reference_eval_many(solve_dde_raw(alpha, beta, problem.grid), problem.dataset.times)
    return np.concatenate([xs - problem.dataset.x_obs, ys - problem.dataset.y_obs])


# -0.0 and 0.0 among the levels: a history sample is the state minus the
# observation, and -0.0 - 0.0 and -0.0 - -0.0 differ in sign
SIGNED_ZEROS = st.sampled_from((-0.0, 0.0))
LEVELS = st.one_of(SIGNED_ZEROS, st.floats(-50.0, 150.0))


@st.composite
def problems(draw):
    """A residual problem whose times include history samples, node times and t0 itself."""
    tau = draw(st.floats(0.25, 2.0))
    spd = draw(st.integers(2, 40))
    t0 = draw(st.one_of(SIGNED_ZEROS, st.floats(-5.0, 5.0)))
    t_end = t0 + draw(st.integers(1, 6 * spd)) * (tau / spd)
    history = ConstantHistory(State(draw(LEVELS), draw(LEVELS)))
    grid = Grid(Constants(tau=tau), history, t0, t_end, spd)
    lo = t0 - tau
    times = draw(st.lists(st.floats(lo, grid.t_end), min_size=1, max_size=30))
    times += draw(st.lists(st.sampled_from(grid.times.tolist()), max_size=8))
    times += [t0] * draw(st.booleans()) + [lo] * draw(st.booleans())
    times = np.unique(np.array(times))
    assume(len(times) >= 2)
    obs = st.lists(st.one_of(SIGNED_ZEROS, st.floats(-100.0, 100.0)), min_size=len(times),
                   max_size=len(times))
    dataset = Dataset(times, draw(obs), draw(obs), 0.1)
    return ResidualProblem(dataset, grid)


GAINS = st.one_of(st.floats(0.01, 4.0), st.floats(-3.0, 6.0))


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(problem=problems(), alpha=GAINS, beta=GAINS)
def test_residuals_match_the_two_subtractions_bit_for_bit(name, problem, alpha, beta):
    backend.select(name)
    try:
        want = _reference_residuals(problem, alpha, beta)
    except NonFiniteError as exc:
        with pytest.raises(NonFiniteError) as err:
            problem.residuals((alpha, beta))
        assert str(err.value) == str(exc)
        return
    got = problem.residuals((alpha, beta))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _norm_and_warnings(norm, v):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = float(norm(v))
    return np.float64(value).tobytes(), [(w.category, str(w.message)) for w in caught]


ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 3.0, -4.0, 1e154, 1e200, -1e308,
           math.inf, -math.inf, math.nan)


def test_norm_has_the_bits_and_warnings_of_numpy_norm():
    for pair in itertools.product(ENTRIES, repeat=2):
        v = np.array(pair)
        assert _norm_and_warnings(_norm, v) == _norm_and_warnings(np.linalg.norm, v), pair


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=2, max_size=2))
def test_norm_has_the_bits_of_numpy_norm_on_any_pair(pair):
    v = np.array(pair)
    assert _norm_and_warnings(_norm, v) == _norm_and_warnings(np.linalg.norm, v)


class _Fixed:
    """A problem whose residual is r at every point."""

    def __init__(self, r):
        self.r = np.array(r, dtype=float)

    def residuals(self, p):
        return self.r.copy()


COLUMNS = ((0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (1.0, 0.0, 0.0), (0.0, 5e-324, 0.0),
           (1.0, math.inf, 0.0), (math.nan, 1.0, 2.0), (-math.inf, -math.inf, 0.0),
           (1.0, -2.0, 3.0))


def test_dead_jacobian_columns_are_found_as_before(monkeypatch):
    cases = [(np.array(cols).T, r) for cols in itertools.product(COLUMNS, repeat=2)
             for r in ((0.0, 0.0, 0.0), (0.0, -1.5, 0.0))]
    cases.append((np.empty((0, 2)), ()))
    for J, r in cases:
        monkeypatch.setattr(fitting, "fd_jacobian", lambda *args, J=J, **kw: (J, 2))
        dead = ~(np.any(J, axis=0) & np.all(np.isfinite(J), axis=0))
        with np.errstate(all="ignore"):
            if np.any(dead) and np.any(r):
                with pytest.raises(SingularNormalEquationsError) as err:
                    _Search(_Fixed(r), (1.0, 1.0), "LM")
                assert f"column {np.argmax(dead)} " in str(err.value), (J, r)
            else:
                _Search(_Fixed(r), (1.0, 1.0), "LM")
