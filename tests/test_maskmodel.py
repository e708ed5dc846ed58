"""Mask fabrication model and reparameterized perturbation sampling.

The entropy constant and the Gaussian-draw statistics have closed forms,
so those are the oracles here; the sampling path is additionally checked
against finite differences.  Both run on the tape, the one path training
uses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casskit.maskmodel import (
    LOG_SQRT_2PIE,
    build_mask_sets,
    entropy_term,
    mask_histogram,
    realize_mask,
    sample_perturbed,
    synthesize_clean_mask,
)
from casskit.ndgrad import ShapeError, Tensor, backward, grad_check, mul, tsum
from casskit.optics import Mask

RNG = np.random.default_rng(55)


def entropy_of(gv):
    return float(entropy_term(Tensor(np.asarray(gv, dtype=np.float64))).data)


def draw(m, g, **kw):
    return sample_perturbed(m, Tensor(np.asarray(g, dtype=np.float64)), **kw).data


# -- entropy ----------------------------------------------------------------

def test_entropy_constant_value():
    assert LOG_SQRT_2PIE == pytest.approx(0.5 * math.log(2 * math.pi * math.e),
                                          abs=0.0)
    # frozen decimal value, guards against silent edits
    assert LOG_SQRT_2PIE == pytest.approx(1.4189385332046727, abs=1e-15)


def test_entropy_closed_form_small_g():
    g = np.full((6, 6), 0.005)
    want = math.log(0.005 * math.sqrt(2 * math.pi * math.e))
    assert entropy_of(g) == pytest.approx(want, abs=1e-12)
    assert entropy_of(g) == pytest.approx(-3.8793788333433645, abs=1e-9)


def test_entropy_zero_point():
    g0 = (2 * math.pi * math.e) ** -0.5
    assert entropy_of(np.full((4, 4), g0)) == pytest.approx(0.0, abs=1e-12)
    assert entropy_of(np.full((4, 4), g0 / 2)) < 0
    assert entropy_of(np.full((4, 4), g0 * 2)) > 0


def test_entropy_tensor_matches_array_and_grad():
    # the array side is the closed form in numpy
    gv = RNG.uniform(0.01, 0.8, size=(5, 5))
    t = Tensor(gv)
    out = entropy_term(t)
    assert float(out.data) == pytest.approx(np.mean(np.log(gv)) + LOG_SQRT_2PIE,
                                            abs=1e-15)
    backward(out)
    # d/dg mean(ln g) = 1 / (n * g)
    np.testing.assert_allclose(t.grad, 1.0 / (gv.size * gv), atol=1e-12)


def test_entropy_rejects_nonpositive():
    # a plain array is refused too: entropy_term has only its tape path
    with pytest.raises(ValueError):
        entropy_term(Tensor(np.array([[0.1, 0.0], [0.2, 0.3]])))
    with pytest.raises(ValueError):
        entropy_term(mul(Tensor(np.full((2, 2), 0.1)), -1.0))
    with pytest.raises(TypeError):
        entropy_term(np.full((2, 2), 0.1))


# -- fabrication ------------------------------------------------------------

def test_synthesize_density_and_binary():
    m = synthesize_clean_mask(64, 64, density=0.3, rng=np.random.default_rng(8))
    assert set(np.unique(m.values)) <= {0.0, 1.0}
    assert m.values.mean() == pytest.approx(0.3, abs=0.05)
    with pytest.raises(ValueError):
        synthesize_clean_mask(8, 8, density=1.5, rng=np.random.default_rng(0))
    with pytest.raises(TypeError):
        synthesize_clean_mask(8, 8)  # density and rng required


def test_realize_mask_error_moments():
    # a mid-grey pattern keeps the clamp out of reach, so the error is z itself
    real = realize_mask(np.full((400, 400), 0.5), 0.006, 0.005, np.random.default_rng(4))
    z = real.values - 0.5
    assert z.mean() == pytest.approx(0.006, abs=4 * 0.005 / 400)
    assert z.std() == pytest.approx(0.005, rel=0.02)


def test_realize_mask_clamped_and_near_clean():
    clean = synthesize_clean_mask(32, 32, 0.5, np.random.default_rng(1))
    real = realize_mask(clean, 0.006, 0.005, np.random.default_rng(2))
    assert real.values.min() >= 0.0 and real.values.max() <= 1.0
    # sigma = 0.005: realized values hug the binary pattern
    assert np.max(np.abs(real.values - clean.values)) < 0.05


def test_realize_mask_sigma_zero_shifts_only():
    clean = synthesize_clean_mask(8, 8, 0.5, np.random.default_rng(1))
    real = realize_mask(clean, 0.01, 0.0, np.random.default_rng(2))
    np.testing.assert_allclose(real.values, np.clip(clean.values + 0.01, 0, 1),
                               atol=1e-15)


# -- perturbation sampling --------------------------------------------------

def test_sample_perturbed_explicit_eps_closed_form():
    m = np.array([[0.0, 1.0], [0.5, 0.25]])
    g = np.full((2, 2), 0.1)
    eps = np.array([[1.0, 1.0], [-2.0, 30.0]])
    out = draw(m, g, eps=eps)
    np.testing.assert_allclose(out, [[0.1, 1.0], [0.3, 1.0]], atol=1e-15)


def test_sample_perturbed_scalar_g_broadcasts():
    m = np.full((3, 3), 0.5)
    eps = np.ones((3, 3))
    out = draw(m, 0.2, eps=eps)
    np.testing.assert_allclose(out, np.full((3, 3), 0.7), atol=1e-15)


def test_sample_perturbed_rng_statistics():
    # g small enough that the clamp never fires at m = 0.5
    m = np.full((1, 1), 0.5)
    g = np.full((1, 1), 0.05)
    rng = np.random.default_rng(10)
    draws = np.array([
        draw(m, g, eps=rng.standard_normal((1, 1)))[0, 0] for _ in range(20000)
    ])
    assert draws.mean() == pytest.approx(0.5, abs=4 * 0.05 / math.sqrt(20000))
    assert draws.std() == pytest.approx(0.05, rel=0.03)
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_sample_perturbed_tensor_tape():
    mv = np.array([[0.5, 0.9], [0.1, 0.5]])
    eps = np.array([[1.0, 1.0], [-1.0, 2.0]])
    g = Tensor(np.full((2, 2), 0.2))
    out = sample_perturbed(mv, g, eps=eps)
    np.testing.assert_allclose(out.data, [[0.7, 1.0], [0.0, 0.9]], atol=1e-15)
    backward(tsum(out))
    # clamped pixels (the 1.0 and the 0.0) pass no gradient
    np.testing.assert_allclose(g.grad, [[1.0, 0.0], [0.0, 2.0]], atol=1e-15)


def test_sample_perturbed_tape_finite_differences():
    mv = RNG.uniform(0.2, 0.8, size=(3, 3))
    eps = RNG.normal(size=(3, 3)) * 0.3
    g = Tensor(np.full((3, 3), 0.1))

    def builder(ps):
        s = sample_perturbed(mv, ps[0], eps=eps)
        return tsum(mul(s, s))

    assert grad_check(builder, [g]) < 1e-7


def test_sample_perturbed_errors():
    m = np.full((2, 2), 0.5)
    with pytest.raises(TypeError):
        draw(m, np.full((2, 2), 0.1))  # eps required
    with pytest.raises(ShapeError):
        draw(m, np.full((3, 3), 0.1), eps=np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        draw(m, np.full((2, 2), 0.1), eps=np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        draw(np.zeros((2, 2, 2)), 0.1, eps=np.zeros((2, 2)))
    with pytest.raises(TypeError):
        sample_perturbed(m, np.full((2, 2), 0.1), eps=np.zeros((2, 2)))


# -- histogram --------------------------------------------------------------

def test_mask_histogram_counts_everything():
    m = np.array([[0.0, 0.25], [0.5, 1.0]])
    counts, edges = mask_histogram(m, 4)
    assert counts.sum() == 4
    np.testing.assert_allclose(edges, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert counts[-1] == 1  # the value 1.0 lands in the closed last bin
    with pytest.raises(ValueError):
        mask_histogram(m, 0)


# -- mask set construction --------------------------------------------------

def test_build_mask_sets_shapes_roles_count():
    base = realize_mask(
        synthesize_clean_mask(48, 48, 0.5, np.random.default_rng(0)),
        0.006, 0.005, np.random.default_rng(1),
    )
    train, test = build_mask_sets(base, (16, 16), 6, 4, np.random.default_rng(2))
    assert (len(train), len(test)) == (6, 4)
    assert type(train) is tuple and type(test) is tuple
    assert all(m.values.shape == (16, 16) for m in train)
    for t in test:
        assert not any(np.array_equal(t.values, tr.values) for tr in train)


def test_build_mask_sets_k_test_zero():
    base = Mask(RNG.random((20, 20)))
    train, test = build_mask_sets(base, (8, 8), 2, 0, np.random.default_rng(5))
    assert (len(train), len(test)) == (2, 0)


def test_build_mask_sets_impossible_geometry():
    # crop equals the base: every crop is identical, test must give up
    base = Mask(RNG.random((8, 8)))
    with pytest.raises(ValueError):
        build_mask_sets(base, (8, 8), 1, 1, np.random.default_rng(0), max_redraw=10)


def test_build_mask_sets_errors():
    base = Mask(RNG.random((8, 8)))
    with pytest.raises(ShapeError):
        build_mask_sets(base, (16, 16), 1, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        build_mask_sets(base, (4, 4), 0, 1, np.random.default_rng(0))


# -- properties -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1e-4, 2.0), st.floats(-6.0, 6.0))
def test_sample_always_in_unit_interval(mval, gval, epsval):
    out = draw(np.full((2, 2), mval), np.full((2, 2), gval), eps=np.full((2, 2), epsval))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-3, 5.0), st.floats(1e-3, 5.0))
def test_entropy_monotone_in_g(g1, g2):
    lo, hi = sorted((g1, g2))
    e_lo = entropy_of(np.full((2, 2), lo))
    e_hi = entropy_of(np.full((2, 2), hi))
    assert e_lo <= e_hi + 1e-12
