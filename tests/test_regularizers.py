import numpy as np
import pytest

from pbcd.regularizers import prox, value

from oracles import scalar_prox_oracle

INF = np.inf


def l1_prox(v, w):
    """Prox of |u| alone at the scalar v with weight w."""
    return prox(np.array([v]), 1.0, -INF, INF, w)[0]


def test_l1_prox_hand_values():
    assert l1_prox(5.0, 2.0) == pytest.approx(4.5, abs=1e-15)
    assert l1_prox(0.3, 1.0) == 0.0
    assert l1_prox(-5.0, 2.0) == pytest.approx(-4.5, abs=1e-15)


def test_l1_prox_tie_maps_to_zero():
    assert l1_prox(0.5, 2.0) == 0.0
    assert l1_prox(-0.5, 2.0) == 0.0


def test_box_prox_clamps():
    for w in (0.5, 1.0, 7.0):
        assert prox(np.array([2.0]), 0.0, 0.0, 1.0, w)[0] == 1.0
        assert prox(np.array([-3.0]), 0.0, 0.0, 1.0, w)[0] == 0.0


def test_zero_and_nonneg_prox():
    v = np.array([1.5, -2.0])
    assert np.array_equal(prox(v, 0.0, -INF, INF, 3.0), v)
    assert np.array_equal(prox(v, 0.0, 0.0, INF, 3.0), [1.5, 0.0])


def test_l1box_prox_is_threshold_then_clamp():
    got = prox(np.array([5.0, -5.0, 0.1]), 1.0, -0.5, 0.5, 2.0)
    assert np.allclose(got, [0.5, -0.5, 0.0], atol=1e-15)


def test_values_and_indicators():
    assert value(np.array([1.0, -3.0]), 2.0, -INF, INF) == 8.0
    assert value(np.array([0.5]), 0.0, 0.0, 1.0) == 0.0
    assert value(np.array([1.5]), 0.0, 0.0, 1.0) == np.inf
    assert value(np.array([-1e-300]), 0.0, 0.0, INF) == np.inf
    assert value(np.array([2.0]), 1.0, 0.0, 1.0) == np.inf
    assert value(np.array([9.0]), 0.0, -INF, INF) == 0.0
    # per-coordinate arrays: l1 on the first coordinate, a box on the second
    x = np.array([-2.0, 0.5])
    assert value(x, np.array([1.5, 0.0]), np.array([-INF, 0.0]),
                 np.array([INF, 1.0])) == 3.0


def test_projection_onto_domains():
    # with no l1 weight the prox is the projection onto the box, at any weight
    v = np.array([-1.0, 2.0])
    for w in (0.5, 3.0):
        assert np.array_equal(prox(v, 0.0, 0.0, 1.0, w), [0.0, 1.0])
        assert np.array_equal(prox(v, 0.0, 0.0, INF, w), [0.0, 2.0])
        assert np.array_equal(prox(v, 0.0, -INF, INF, w), [-1.0, 2.0])


KINDS = ["zero", "l1", "box", "nonneg", "l1box"]


def _random_spec(kind, rng):
    """(lam, lb, ub) of one regularizer kind."""
    lam = float(rng.uniform(0.0, 2.0))
    lo = float(rng.uniform(-2.0, 0.5))
    hi = lo + float(rng.uniform(0.1, 2.5))
    if kind == "zero":
        return 0.0, -INF, INF
    if kind == "l1":
        return lam, -INF, INF
    if kind == "box":
        return 0.0, lo, hi
    if kind == "nonneg":
        return 0.0, 0.0, INF
    return lam, lo, hi


@pytest.mark.parametrize("kind", KINDS)
def test_prox_matches_golden_section_oracle(kind):
    rng = np.random.default_rng(hash(kind) % 2 ** 32)
    for _ in range(200):
        lam, lo, hi = _random_spec(kind, rng)
        v = float(rng.uniform(-3.0, 3.0))
        w = float(rng.uniform(0.25, 4.0))
        got = prox(np.array([v]), lam, lo, hi, w)[0]
        want = scalar_prox_oracle(lam, lo, hi, v, w)
        assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("kind", KINDS)
def test_prox_satisfies_scalar_subgradient_condition(kind):
    # w*(v - u) must be a subgradient of psi at the prox output u
    rng = np.random.default_rng(1 + hash(kind) % 2 ** 32)
    for _ in range(300):
        lam, lo, hi = _random_spec(kind, rng)
        v = float(rng.uniform(-3.0, 3.0))
        w = float(rng.uniform(0.25, 4.0))
        u = prox(np.array([v]), lam, lo, hi, w)[0]
        slack = w * (v - u)
        tol = 1e-10 * max(1.0, abs(slack))
        assert u >= lo - 1e-15 and u <= hi + 1e-15
        if u > lo + 1e-12 and u < hi - 1e-12:
            if u > 1e-12:
                assert abs(slack - lam) <= tol
            elif u < -1e-12:
                assert abs(slack + lam) <= tol
            else:
                assert abs(slack) <= lam + tol
        elif u <= lo + 1e-12:
            # at the lower face the reduced slope must push downward
            assert slack <= lam + tol or lo == -np.inf
        else:
            assert slack >= -lam - tol or hi == np.inf
