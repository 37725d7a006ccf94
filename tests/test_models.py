import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from l2calib.models import (SCENARIO_NAMES, DesignRule, DomainBox,
                            PhysicalSystem, make_scenario)
from oracles import validate_derivatives


def test_domain_box_basics():
    box = DomainBox(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    assert box.dim == 2
    assert box.volume == 4.0
    assert box.contains([1.0, 0.5])
    assert not box.contains([3.0, 0.0])
    assert_allclose(box.clip([5.0, -7.0]), [2.0, -1.0])


# fractions of each side: the faces exactly (0, 1), outside, and non-finite values
_SIDE_FRACTION = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, -0.5, 1.5]),
                           st.sampled_from([np.nan, np.inf, -np.inf]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_strictly_contains_equals_the_all_form(data):
    p = data.draw(st.integers(1, 3))
    lower = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=p, max_size=p)))
    width = np.array(data.draw(st.lists(st.floats(0.1, 5.0), min_size=p, max_size=p)))
    box = DomainBox(lower, lower + width)
    shape = data.draw(st.sampled_from([(p,), (data.draw(st.integers(1, 6)), p)]))
    t = np.array(data.draw(st.lists(_SIDE_FRACTION, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))).reshape(shape)
    x = np.where(t == 1.0, box.upper, box.lower + t * width)    # t = 1 is the upper face
    assert box.strictly_contains(x) is bool((x > box.lower).all() and (x < box.upper).all())


def test_strictly_contains_on_faces_and_non_finite_points():
    box = DomainBox(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    assert box.strictly_contains(np.array([1.0, 0.5]))
    assert box.strictly_contains(np.array([[1.0, 0.5], [0.1, -0.9]]))
    for bad in ([0.0, 0.5], [1.0, 1.0], [np.nan, 0.5], [1.0, np.inf], [-np.inf, 0.0]):
        assert not box.strictly_contains(np.array(bad))
        assert not box.strictly_contains(np.array([[1.0, 0.5], bad]))


def test_domain_box_rejects_degenerate():
    with pytest.raises(ValueError):
        DomainBox(np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        DomainBox(np.array([0.0, 1.0]), np.array([1.0]))


def test_design_rule_kinds():
    DesignRule("uniform", np.array([0.0]), np.array([1.0]))
    DesignRule("equidistant", np.array([0.0]), np.array([0.8]))
    with pytest.raises(ValueError):
        DesignRule("sobol", np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        DesignRule("equidistant", np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def test_physical_system_rejects_negative_sigma():
    with pytest.raises(ValueError):
        PhysicalSystem(name="bad", mu=lambda p: p[:, 0], sigma=-0.1)


def test_registry_names():
    assert SCENARIO_NAMES == ("scenario1", "scenario2", "scenario3",
                              "simple-linear")
    with pytest.raises(ValueError, match="scenario1"):
        make_scenario("nope")


def test_scenario_shapes_and_defaults():
    for name in SCENARIO_NAMES:
        model, system, defaults = make_scenario(name)
        assert defaults["n"] >= 1
        p = model.n_params
        theta = 0.5 * (model.theta_box.lower + model.theta_box.upper)
        x = np.linspace(model.x_box.lower[0], model.x_box.upper[0], 7).reshape(-1, 1)
        assert model.eta(theta, x).shape == (7,)
        assert model.grad_eta(theta, x).shape == (7, p)
        assert model.hess_eta(theta, x).shape == (7, p, p)
        assert np.asarray(system.mu(x)).shape == (7,)


def _bias(model, system, theta, x):
    """Pointwise discrepancy mu(x) - eta(theta, x)."""
    pts = np.asarray(x, dtype=float).reshape(-1, 1)
    return np.asarray(system.mu(pts)) - model.eta(np.asarray(theta, dtype=float), pts)


def test_simple_linear_bias_values():
    model, system, _ = make_scenario("simple-linear")
    assert_allclose(_bias(model, system, [4.0], [0.0]), [0.0], atol=1e-15)
    # mu(1) - 4*1 = 4 + sin 5 - 4
    assert_allclose(_bias(model, system, [4.0], [1.0]), [np.sin(5.0)],
                    atol=1e-15)
    assert_allclose(np.sin(5.0), -0.9589242746631385, atol=1e-15)


def test_scenario1_zero_bias_at_truth():
    model, system, defaults = make_scenario("scenario1")
    theta0 = defaults["theta0"]
    xs = np.linspace(0.0, 1.0, 11)
    for x in xs:
        assert_allclose(_bias(model, system, theta0, [x]), [0.0], atol=1e-12)


def test_scenario2_functional_forms():
    model, system, _ = make_scenario("scenario2")
    x = np.array([[0.2], [0.7]])
    theta = np.array([1.5])
    assert_allclose(model.eta(theta, x),
                    np.sin(5 * 1.5 * x[:, 0]) + 5 * x[:, 0], atol=1e-15)
    assert_allclose(np.asarray(system.mu(x)),
                    5 * x[:, 0] * np.cos(7.5 * x[:, 0]) + 5 * x[:, 0], atol=1e-15)


def test_scenario3_observation_window_narrower_than_model_box():
    model, system, _ = make_scenario("scenario3")
    assert_allclose(model.x_box.upper, [1.0])
    assert_allclose(system.design.upper, [0.8])
    assert model.scalar_linear


def test_analytic_derivatives_match_finite_differences():
    for name in SCENARIO_NAMES:
        model, _, _ = make_scenario(name)
        report = validate_derivatives(model, seed=0, n_points=60)
        assert report["max_grad_rel_err"] < 1e-5
        assert report["max_hess_rel_err"] < 1e-5


def _points_in(box, rng, count):
    return box.lower + rng.random((count, box.dim)) * (box.upper - box.lower)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SCENARIO_NAMES), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_eta_batch_rows_equal_single_theta(name, chains, seed):
    model, _, _ = make_scenario(name)
    rng = np.random.default_rng(seed)
    thetas = _points_in(model.theta_box, rng, chains)
    x = _points_in(model.x_box, rng, 9)
    p = model.n_params
    for fn, shape in ((model.eta, ()), (model.grad_eta, (p,)),
                      (model.hess_eta, (p, p))):
        batch = fn(thetas, x)
        assert batch.shape == (chains, 9) + shape
        for i in range(chains):
            assert np.array_equal(batch[i], fn(thetas[i], x))
    if model.features is not None:     # eta is sum_j coefs_j features_j, bit for bit
        feats, coefs = model.features(x), model.coefs(thetas)
        assert feats.shape[0] == 9 and coefs.shape == (chains, feats.shape[1])
        for i in range(chains):
            assert np.array_equal(coefs[i], model.coefs(thetas[i]))
            assert np.array_equal((coefs[i] * feats).sum(axis=-1), model.eta(thetas[i], x))
