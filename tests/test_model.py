import pickle

import numpy as np
import pytest

from darksol import (Grid, Problem, Profile, sample_coefficient,
                     validate_problem)
from darksol.errors import GridMismatchError, ValidationError
from darksol.evolve import _compact_operator
from darksol.reduction import to_allen_cahn

from conftest import (constant_cubic, constant_quintic, sinusoidal_cubic,
                      sinusoidal_quintic)


def test_grid_basics():
    grid = Grid(-6.0, 6.0, 12 * 256 + 1)
    assert grid.h == pytest.approx(1.0 / 256.0, rel=1e-15)
    x = grid.x()
    assert x[0] == -6.0 and x[-1] == 6.0
    assert x.shape == (grid.n,)


@pytest.mark.parametrize("xmin, xmax, n", [
    (-8.0, 8.0, 2049), (0.0, 1.0, 129), (-2.0 + 5.0 / 128, 1.0 + 5.0 / 128,
                                         3 * 128 + 1), (-0.3, 7.1, 1001)])
def test_grid_nodes_are_built_once_and_read_only(xmin, xmax, n):
    # the nodes are linspace's, formed at the first call and shared
    # read-only by every later one; equality and hashing see the fields
    grid = Grid(xmin, xmax, n)
    x = grid.x()
    assert x is grid.x()
    assert not x.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    assert x.tobytes() == np.linspace(xmin, xmax, n).tobytes()
    assert Grid(xmin, xmax, n) == grid
    assert hash(Grid(xmin, xmax, n)) == hash(grid)
    again = pickle.loads(pickle.dumps(grid))
    assert again == grid and again.x().tobytes() == x.tobytes()


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        Grid(0.0, 1.0, 2)
    with pytest.raises(ValidationError):
        Grid(1.0, 1.0, 11)
    with pytest.raises(ValidationError):
        Grid(0.0, np.inf, 11)
    with pytest.raises(ValidationError):
        Grid(0.0, 1.0, 10.5)


def test_profile_is_immutable_and_validated():
    grid = Grid(0.0, 1.0, 5)
    p = Profile(grid, np.arange(5.0))
    with pytest.raises(ValueError):
        p.values[0] = 3.0
    with pytest.raises(ValidationError):
        Profile(grid, np.arange(4.0))
    with pytest.raises(ValidationError):
        Profile(grid, [0.0, 1.0, np.nan, 3.0, 4.0])


def test_sample_coefficient_sources_agree():
    n_per = 64
    from_expr = sample_coefficient("1 + 0.5*sin(2*pi*x)", 1.0, n_per)
    from_call = sample_coefficient(
        lambda x: 1 + 0.5 * np.sin(2 * np.pi * x), 1.0, n_per)
    from_table = sample_coefficient(from_expr.samples.copy(), 1.0, n_per)
    np.testing.assert_array_equal(from_expr.samples, from_call.samples)
    np.testing.assert_array_equal(from_expr.samples, from_table.samples)
    assert from_expr.n_per == n_per
    assert from_expr.h == pytest.approx(1.0 / 64.0, rel=1e-15)


def test_sample_coefficient_extra_variables():
    c = sample_coefficient("1 + a*sin(2*pi*x)", 1.0, 64,
                           variables={"a": 0.25})
    ref = sample_coefficient("1 + 0.25*sin(2*pi*x)", 1.0, 64)
    np.testing.assert_allclose(c.samples, ref.samples, rtol=1e-15)


def test_sample_coefficient_rejections():
    with pytest.raises(ValidationError):
        sample_coefficient(np.ones(7), 1.0, 8)
    with pytest.raises(ValidationError):
        sample_coefficient("1", 1.0, 2)
    with pytest.raises(ValidationError):
        sample_coefficient("1", -1.0, 8)
    with pytest.raises(ValidationError) as err:
        sample_coefficient("sin(2*pi*x)", 1.0, 64, positive=True)
    assert err.value.reason == "coefficient_not_positive"


def test_coefficient_extrema_hit_sampled_nodes():
    c = sample_coefficient("1 + 0.5*sin(2*pi*x)", 1.0, 256)
    # n_per divisible by 4, so the extrema of sin sit exactly on nodes
    assert c.cmin == 0.5
    assert c.cmax == 1.5


def test_on_grid_wraps_periodically():
    c = sample_coefficient("1 + 0.5*sin(2*pi*x)", 1.0, 64)
    h = c.h
    for xmin, first in ((5 * h, 5), (1.0 + 5 * h, 5), (-h, 63)):
        ext = c.on_grid(Grid(xmin, xmin + 0.5, 33))
        np.testing.assert_array_equal(ext, c.samples[(first + np.arange(33))
                                                     % 64])
    with pytest.raises(GridMismatchError):
        c.on_grid(Grid(0.4 * h, 0.4 * h + 0.5, 33))


def test_on_grid_is_exactly_periodic():
    c = sample_coefficient("1 + 0.5*sin(2*pi*x)", 1.0, 64)
    grid = Grid(-3.0, 3.0, 6 * 64 + 1)
    ext = c.on_grid(grid)
    assert ext.shape == (grid.n,)
    # exact integer index map: repeats are bitwise equal
    np.testing.assert_array_equal(ext[:-1].reshape(6, 64),
                                  np.tile(ext[:64], (6, 1)))
    assert ext[-1] == ext[0]
    assert not ext.flags.writeable


def test_on_grid_rejects_misalignment():
    c = sample_coefficient("1 + 0.5*sin(2*pi*x)", 1.0, 64)
    with pytest.raises(GridMismatchError):
        c.on_grid(Grid(0.0, 1.0, 101))
    # right spacing, origin off the sample lattice
    h = c.h
    with pytest.raises(GridMismatchError):
        c.on_grid(Grid(0.37 * h, 0.37 * h + 1.0, 65))


def test_problem_rejects_inconsistent_data():
    with pytest.raises(ValidationError):
        Problem(kind="septic", lam=-1.0, period=1.0)
    g = sample_coefficient("1", 2.0, 64)
    with pytest.raises(ValidationError):
        Problem(kind="cubic", lam=-1.0, period=1.0, g=g)


@pytest.mark.parametrize("g1", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_g1(g1):
    v = sample_coefficient("0.3*cos(2*pi*x)", 1.0, 64)
    with pytest.raises(ValidationError, match="g1 must be finite"):
        Problem(kind="cubic-quintic", lam=-1.0, period=1.0, potential=v,
                g1=g1)


def test_validate_problem_lambda_sign():
    with pytest.raises(ValidationError) as err:
        validate_problem(constant_cubic(lam=1.0))
    assert err.value.reason == "lambda_sign"
    assert "lambda must be negative" in str(err.value)
    with pytest.raises(ValidationError):
        validate_problem(constant_cubic(lam=0.0))


def test_validate_problem_quintic_lambda_below_potential():
    # V = 0.3 cos(2 pi x) has min -0.3; lambda must sit strictly below
    with pytest.raises(ValidationError) as err:
        validate_problem(sinusoidal_quintic(lam=-0.3))
    assert err.value.reason == "lambda_sign"
    assert validate_problem(sinusoidal_quintic(lam=-0.31)) is None


def test_validate_problem_missing_coefficient():
    bad = Problem(kind="cubic", lam=-1.0, period=1.0)
    with pytest.raises(ValidationError) as err:
        validate_problem(bad)
    assert err.value.reason == "missing_coefficient"


def test_validate_problem_grid_commensurability():
    problem = constant_cubic(n_per=64)
    good = Grid(-3.0, 3.0, 6 * 64 + 1)
    validate_problem(problem, grid=good)
    # span 6.5 periods is not an integer tiling even with aligned spacing
    bad = Grid(0.0, 6.5, int(6.5 * 64) + 1)
    with pytest.raises(GridMismatchError):
        validate_problem(problem, grid=bad)
    with pytest.raises(GridMismatchError):
        validate_problem(problem, grid=Grid(0.0, 1.0, 100))


@pytest.mark.parametrize("problem", [
    sinusoidal_cubic(n_per=32),
    constant_quintic(n_per=32, g1=0.0),
    sinusoidal_quintic(n_per=32, g1=0.5),
], ids=["modulated-cubic", "constant-quintic-g1-0", "modulated-quintic"])
def test_equation_states_both_models(problem, rng):
    # Hand-written from the two forms in Problem's docstring, on a
    # random positive profile: the equation (the cubic-quintic one
    # times -1), the reduced weights and the evolver's d(rho).
    grid = Grid(-1.0, 1.0, 2 * 32 + 1)
    phi = rng.uniform(0.5, 1.5, grid.n)
    lap = rng.normal(size=grid.n)
    lam = problem.lam
    if problem.is_cubic:
        g = problem.g.on_grid(grid)
        residual = -0.5 * lap + lam * phi + g * phi**3
        a, powers, kf = phi**2, [(3, 2.0 * g * phi**4)], 1.0
        k, rho = -0.5, phi**2
        d = g * rho
    else:
        v, g1 = problem.potential.on_grid(grid), problem.g1
        residual = -(lap + (v - lam) * phi - g1 * phi**3 - phi**5)
        a, powers, kf = phi**2, [(3, g1 * phi**4), (5, phi**6)], 0.5
        k, rho = -1.0, phi**2
        d = g1 * rho + rho**2 - v

    eq = problem.equation(grid)
    np.testing.assert_allclose(eq.residual(phi, lap), residual,
                               rtol=1e-13, atol=1e-13)
    ac = to_allen_cahn(problem, Profile(grid, phi))
    np.testing.assert_allclose(ac.a, a, rtol=1e-14, atol=0.0)
    assert [p for p, _ in ac.powers] == [p for p, _ in powers]
    for (_, got), (_, want) in zip(ac.powers, powers):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert ac.kinetic_factor == kf
    evolve_k, diagonal = _compact_operator(problem, grid)
    assert evolve_k == k
    np.testing.assert_allclose(diagonal(rho), d, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("problem", [
    sinusoidal_cubic(n_per=32),
    sinusoidal_quintic(n_per=32, g1=0.5),
], ids=["cubic", "quintic"])
def test_diagonal_in_place_keeps_the_bits(problem, rng):
    # Horner's rule evaluated in the caller's buffer gives the bits of
    # the same rule on new arrays, and leaves rho and V as they were.
    grid = Grid(-1.0, 1.0, 2 * 32 + 1)
    eq = problem.equation(grid)
    rho = rng.uniform(0.0, 2.0, grid.n)
    kept_rho = rho.copy()
    kept_potential = np.array(eq.potential, copy=True)
    *lower, (_, top) = eq.powers
    want = top * rho
    for _, c in reversed(lower):
        want = (c + want) * rho
    want = want - eq.potential
    buf = np.full(grid.n, np.nan)
    got = eq.diagonal(rho, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes()
    assert eq.diagonal(rho).tobytes() == want.tobytes()
    assert rho.tobytes() == kept_rho.tobytes()
    assert np.asarray(eq.potential).tobytes() == kept_potential.tobytes()
