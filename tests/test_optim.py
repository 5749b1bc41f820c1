"""Adam update semantics."""

import numpy as np
import pytest

from mhka.errors import DimensionError, ParameterError
from mhka.optim import Adam
from mhka.tensor import Tensor


def _params(values):
    return {k: Tensor(np.asarray(v, dtype=np.float64), requires_grad=True) for k, v in values.items()}


def test_zero_gradient_leaves_parameters_unchanged():
    params = _params({"w": [1.0, -2.0, 3.0]})
    opt = Adam(params, lr=0.1)
    before = params["w"].data.copy()
    params["w"].grad = np.zeros(3)
    opt.step()
    assert np.array_equal(params["w"].data, before)
    assert opt.t == 1
    opt.zero_grad()  # a missing gradient counts as zero
    opt.step()
    assert np.array_equal(params["w"].data, before)
    assert opt.t == 2


def test_sign_sgd_limit():
    # beta1 = beta2 = 0: m = g = 1, v = 1, update = lr / (1 + eps)
    params = _params({"w": [5.0]})
    opt = Adam(params, lr=0.1, beta1=0.0, beta2=0.0, eps=1e-8)
    params["w"].grad = np.ones(1)
    opt.step()
    assert np.isclose(params["w"].data[0], 5.0 - 0.1, atol=1e-6)


def test_deterministic_trajectories():
    def run():
        rng = np.random.default_rng(99)
        params = _params({"w": rng.normal(size=(3, 2))})
        opt = Adam(params, lr=0.05)
        traj = []
        for _ in range(5):
            for p in params.values():
                p.grad = rng.normal(size=p.data.shape)
            opt.step()
            traj.append(params["w"].data.copy())
        return np.stack(traj)

    assert np.array_equal(run(), run())


def test_bias_correction_first_step_matches_closed_form():
    params = _params({"w": [0.0]})
    g = np.array([0.3])
    opt = Adam(params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    params["w"].grad = g
    opt.step()
    # m_hat = g, v_hat = g^2 at t = 1 regardless of betas
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(params["w"].data, expected)


def test_shape_mismatch_rejected():
    params = _params({"w": [1.0, 2.0]})
    opt = Adam(params)
    params["w"].grad = np.zeros((2, 1))
    with pytest.raises(DimensionError):
        opt.step()


def test_state_validation():
    params = _params({"w": [1.0]})
    with pytest.raises(ParameterError):
        Adam(params, beta1=1.0)
    with pytest.raises(ParameterError):
        Adam(params, beta2=-0.1)
    with pytest.raises(ParameterError):
        Adam(params, eps=0.0)
