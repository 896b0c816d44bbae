from functools import reduce
from operator import add

import numpy as np
import pytest

from darksol import (Grid, Profile, WeightedAC, energy, lift,
                     residual_reduced, run_soliton, solve_periodic,
                     to_allen_cahn)
from darksol.errors import GridMismatchError, ValidationError
from darksol.reduction import (_energy_values, _even_power, _jacobian_bands,
                               _nonlinearity, _numerov_defect, _odd_power,
                               _potential_density, _residual_values,
                               correction_source)

from conftest import (attractive_quintic, constant_cubic, constant_quintic,
                      quintic_front_exact_g1zero, sinusoidal_cubic,
                      sinusoidal_quintic)


def background_on(problem, xmin, xmax):
    res = solve_periodic(problem)
    n_per = problem.n_per
    grid = Grid(xmin, xmax, int(round((xmax - xmin) * n_per)) + 1)
    return grid, Profile(grid, res.coefficient.on_grid(grid))


def hand_gradient(ac, w):
    """Independent per-node energy partials, written as explicit loops."""
    h = ac.h
    kf = ac.kinetic_factor
    n = w.shape[0]
    out = np.zeros(n)
    for i in range(1, n - 1):
        a_minus = 0.5 * (ac.a[i - 1] + ac.a[i])
        a_plus = 0.5 * (ac.a[i] + ac.a[i + 1])
        kin = (2.0 * kf / h) * (a_minus * (w[i] - w[i - 1])
                                - a_plus * (w[i + 1] - w[i]))
        pot = 0.0
        for p, b in ac.powers:
            pot += b[i] * w[i] * (w[i] ** (p - 1) - 1.0)
        out[i] = kin + 2.0 * kf * h * pot
    return out


def scaled_residual(ac, w):
    """-2 kf h times the reduced residual at w: the energy's gradient, by
    the identity the reduction module states."""
    return -2.0 * ac.kinetic_factor * ac.h * residual_reduced(
        Profile(ac.grid, w), ac).values


def test_constant_cubic_weights():
    grid, bg = background_on(constant_cubic(lam=-1.0), -2.0, 2.0)
    ac = to_allen_cahn(constant_cubic(lam=-1.0), bg)
    np.testing.assert_array_equal(ac.a, np.ones(grid.n))
    [(p, b)] = ac.powers
    assert p == 3
    np.testing.assert_array_equal(b, 2.0 * np.ones(grid.n))
    assert ac.kinetic_factor == 1.0


def test_constant_quintic_weights():
    problem = constant_quintic(lam=-1.0, g1=0.0)
    grid, bg = background_on(problem, -2.0, 2.0)
    ac = to_allen_cahn(problem, bg)
    np.testing.assert_allclose(ac.a, 1.0, atol=5e-15)
    [(p3, b3), (p5, b5)] = ac.powers
    assert (p3, p5) == (3, 5)
    np.testing.assert_allclose(b3, 0.0, atol=5e-15)
    np.testing.assert_allclose(b5, 1.0, atol=5e-15)
    assert ac.kinetic_factor == 0.5


def test_gradient_is_scaled_residual_cubic(rng):
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=64)
    grid, bg = background_on(problem, -2.0, 2.0)
    ac = to_allen_cahn(problem, bg)
    w = rng.uniform(-1.2, 1.2, grid.n)
    # independent hand-rolled partial derivatives of the energy
    np.testing.assert_allclose(scaled_residual(ac, w), hand_gradient(ac, w),
                               rtol=1e-10, atol=1e-12)


def test_gradient_is_scaled_residual_quintic(rng):
    problem = sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5, n_per=64)
    grid, bg = background_on(problem, -2.0, 2.0)
    ac = to_allen_cahn(problem, bg)
    w = rng.uniform(-1.2, 1.2, grid.n)
    np.testing.assert_allclose(scaled_residual(ac, w), hand_gradient(ac, w),
                               rtol=1e-10, atol=1e-12)


def test_gradient_matches_finite_differences(rng):
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=32)
    grid, bg = background_on(problem, -1.0, 1.0)
    ac = to_allen_cahn(problem, bg)
    w = rng.uniform(-1.0, 1.0, grid.n)
    grad = scaled_residual(ac, w)
    delta = 1e-6
    for i in (1, grid.n // 2, grid.n - 2):
        bumped = w.copy()
        bumped[i] += delta
        e_plus = energy(Profile(grid, bumped), ac)
        bumped[i] -= 2 * delta
        e_minus = energy(Profile(grid, bumped), ac)
        fd = (e_plus - e_minus) / (2 * delta)
        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-9)


def test_kernels_take_any_odd_power(rng):
    # A septic term the models never build: the density's derivative is
    # 2 kf times the nonlinearity, whose derivative is the Jacobian ramp.
    n = 41
    grid = Grid(-1.0, 1.0, n)
    powers = tuple((p, rng.uniform(0.5, 1.5, n)) for p in (3, 5, 7))
    ac = WeightedAC(grid=grid, a=np.ones(n), powers=powers,
                    kinetic_factor=0.5)
    w = rng.uniform(-1.2, 1.2, n)
    delta = 1e-6
    up, down = w + delta, w - delta
    np.testing.assert_allclose(
        (_potential_density(ac, up) - _potential_density(ac, down))
        / (2 * delta), 2 * ac.kinetic_factor * _nonlinearity(ac, w),
        rtol=1e-7, atol=1e-8)
    _, diag, _ = _jacobian_bands(ac, w)
    slope = (_nonlinearity(ac, up) - _nonlinearity(ac, down)) / (2 * delta)
    np.testing.assert_allclose(-2.0 / grid.h**2 - diag, slope[1:-1],
                               rtol=1e-7, atol=1e-8)
    np.testing.assert_allclose(
        hand_gradient(ac, w), scaled_residual(ac, w), rtol=1e-10,
        atol=1e-12)


def test_energy_of_exact_front():
    # a = 1, b = 2: continuum energy of tanh is 8/3
    n = 4001
    grid = Grid(-20.0, 20.0, n)
    ac = WeightedAC(grid=grid, a=np.ones(n), powers=((3, 2.0 * np.ones(n)),),
                    kinetic_factor=1.0)
    e = energy(Profile(grid, np.tanh(grid.x())), ac)
    assert e == pytest.approx(8.0 / 3.0, abs=1e-4)


def test_trivial_profiles():
    n = 101
    grid = Grid(-2.0, 2.0, n)
    ac = WeightedAC(grid=grid, a=np.ones(n), powers=((3, 2.0 * np.ones(n)),),
                    kinetic_factor=1.0)
    ones = Profile(grid, np.ones(n))
    assert energy(ones, ac) == 0.0
    np.testing.assert_array_equal(residual_reduced(ones, ac).values,
                                  np.zeros(n))
    zeros = Profile(grid, np.zeros(n))
    np.testing.assert_array_equal(residual_reduced(zeros, ac).values,
                                  np.zeros(n))
    assert energy(zeros, ac) > 0


def test_residual_zero_at_boundary(rng):
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=32)
    grid, bg = background_on(problem, -1.0, 1.0)
    ac = to_allen_cahn(problem, bg)
    res = residual_reduced(Profile(grid, rng.uniform(-1, 1, grid.n)), ac)
    assert res.values[0] == 0.0 and res.values[-1] == 0.0


def test_lift_and_divide_round_trip(rng):
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=64)
    grid, bg = background_on(problem, -3.0, 3.0)
    w = Profile(grid, np.tanh(grid.x()) + 0.01 * rng.standard_normal(grid.n))
    phi = lift(w, bg)
    np.testing.assert_array_equal(phi.values, bg.values * w.values)
    np.testing.assert_allclose(phi.values / bg.values, w.values, rtol=1e-15,
                               atol=1e-16)


def test_grid_mismatch_is_rejected():
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=64)
    grid, bg = background_on(problem, -2.0, 2.0)
    ac = to_allen_cahn(problem, bg)
    other = Grid(-2.0, 2.0, 33)
    w = Profile(other, np.zeros(33))
    with pytest.raises(GridMismatchError):
        energy(w, ac)
    with pytest.raises(GridMismatchError):
        lift(w, bg)


def test_weighted_ac_validation():
    n = 11
    grid = Grid(0.0, 1.0, n)
    cubic = ((3, np.ones(n)),)
    with pytest.raises(ValidationError):
        WeightedAC(grid=grid, a=np.zeros(n), powers=cubic, kinetic_factor=1.0)
    with pytest.raises(ValidationError):
        WeightedAC(grid=grid, a=np.ones(n), powers=cubic, kinetic_factor=0.0)
    for bad in (np.ones(n - 1), np.full(n, np.inf)):
        with pytest.raises(ValidationError):
            WeightedAC(grid=grid, a=np.ones(n), powers=((3, bad),),
                       kinetic_factor=1.0)
    for powers in ((), ((4, np.ones(n)),)):
        with pytest.raises(ValidationError):
            WeightedAC(grid=grid, a=np.ones(n), powers=powers,
                       kinetic_factor=1.0)
    ac = WeightedAC(grid=grid, a=np.ones(n), powers=cubic, kinetic_factor=1.0)
    assert not ac.a.flags.writeable and not ac.powers[0][1].flags.writeable


def test_to_allen_cahn_needs_positive_background():
    problem = constant_cubic(lam=-1.0, n_per=64)
    grid = Grid(0.0, 1.0, 65)
    bad = Profile(grid, np.linspace(-0.1, 1.0, 65))
    with pytest.raises(ValidationError):
        to_allen_cahn(problem, bad)


def test_density_is_nonnegative_for_an_attractive_quintic():
    # the density is (1 - w^2)^2 phi+^4 (g1/4 + phi+^2 (2 + w^2)/6), and
    # phi+^2 >= rho1^2 > -g1 on the bracket keeps it nonnegative even
    # at g1 = -20
    problem = attractive_quintic()
    run = run_soliton(problem)
    assert run.status == "ok"
    ac = to_allen_cahn(problem, run.background_ext)
    assert np.all(_potential_density(ac, run.w.values) >= 0)


def test_source_keeps_the_gradient_identity(rng):
    # energy + 2 kf h sum(s w) has gradient -2 kf h (R(w) - s)
    problem = sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5, n_per=32)
    grid, bg = background_on(problem, -1.0, 1.0)
    ac = to_allen_cahn(problem, bg)
    w = rng.uniform(-1.0, 1.0, grid.n)
    source = rng.uniform(-1.0, 1.0, grid.n)
    source[0] = source[-1] = 0.0
    grad = -2.0 * ac.kinetic_factor * ac.h * _residual_values(ac, w, source)

    def energy_with_source(v):
        return (_energy_values(ac, v)
                + 2.0 * ac.kinetic_factor * ac.h * np.dot(source, v))

    np.testing.assert_array_equal(
        _residual_values(ac, w, source), _residual_values(ac, w) - source)
    delta = 1e-6
    for i in (1, grid.n // 2, grid.n - 2):
        bumped = w.copy()
        bumped[i] += delta
        e_plus = energy_with_source(bumped)
        bumped[i] -= 2 * delta
        e_minus = energy_with_source(bumped)
        fd = (e_plus - e_minus) / (2 * delta)
        assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-9)


def test_numerov_defect_is_fourth_order_on_closed_forms():
    # on the exact constant-coefficient fronts the three-point residual
    # falls like h^2 and the Numerov defect like h^4
    cases = ((lambda n: constant_cubic(lam=-1.0, n_per=n), np.tanh),
             (lambda n: constant_quintic(lam=-1.0, g1=0.0, n_per=n),
              quintic_front_exact_g1zero))
    for make, exact in cases:
        three_point, numerov = [], []
        for n_per in (64, 128):
            problem = make(n_per)
            grid, bg = background_on(problem, -6.0, 6.0)
            ac = to_allen_cahn(problem, bg)
            w = exact(grid.x())
            three_point.append(np.max(np.abs(_residual_values(ac, w))))
            numerov.append(np.max(np.abs(_numerov_defect(ac.equation, bg,
                                                         w))))
        assert 3.5 <= three_point[0] / three_point[1] <= 4.5
        assert 14.0 <= numerov[0] / numerov[1] <= 18.0
        assert numerov[1] <= 1e-3 * three_point[1]


def test_correction_source_vanishes_where_the_front_is_flat():
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=32)
    grid, bg = background_on(problem, -4.0, 4.0)
    ac = to_allen_cahn(problem, bg)
    x = grid.x()
    w = np.where(np.abs(x) >= 2.0, np.sign(x), np.tanh(x))
    source = correction_source(ac, bg, Profile(grid, w),
                               _residual_values(ac, w))
    flat = np.abs(x) > 2.0 + 1.5 * grid.h
    assert np.all(source[flat] == 0.0)
    assert np.max(np.abs(source[~flat])) > 1e-6
    assert source[0] == 0.0 and source[-1] == 0.0
    other, _ = background_on(problem, -3.0, 3.0)
    with pytest.raises(GridMismatchError):
        correction_source(ac, bg, Profile(other, np.tanh(other.x())),
                          np.zeros(other.n))


def rebuilt_kernels(ac, w):
    """(residual, Jacobian bands, energy) at w as the kernels computed
    them when every call rebuilt the edge weights, the bands and the
    trapezoid weights from ac.a."""
    h = ac.h
    edge = 0.5 * (ac.a[:-1] + ac.a[1:])
    flux = edge * np.diff(w)
    residual = np.zeros_like(w)
    residual[1:-1] = ((flux[1:] - flux[:-1]) / h**2
                      - _nonlinearity(ac, w)[1:-1])
    wi2 = w[1:-1] * w[1:-1]
    ramp = reduce(add, (b[1:-1] * (p * _even_power(wi2, p) - 1.0)
                        for p, b in ac.powers))
    bands = (np.concatenate([[0.0], edge[1:-1]]) / h**2,
             -(edge[1:] + edge[:-1]) / h**2 - ramp,
             np.concatenate([edge[1:-1], [0.0]]) / h**2)
    weights = np.ones_like(w)
    weights[0] = weights[-1] = 0.5
    kinetic = ac.kinetic_factor * np.sum(edge * np.diff(w)**2) / h
    energy_value = float(kinetic
                         + h * np.sum(weights * _potential_density(ac, w)))
    return residual, bands, energy_value


# n_per 100: h^2 is not a power of two, so a division and a product by
# its reciprocal round differently
@pytest.mark.parametrize("make", [
    lambda: sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=100),
    lambda: sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5, n_per=100),
], ids=["cubic", "cubic-quintic"])
def test_cached_kernels_keep_their_bits(make, rng):
    problem = make()
    grid, bg = background_on(problem, -2.0, 2.0)
    ac = to_allen_cahn(problem, bg)
    # a regrouped product rounds differently on a few entries only, and
    # the sums absorb most of that: only some profiles' energies show it
    for w in (*rng.uniform(-1.2, 1.2, (40, grid.n)), np.tanh(grid.x())):
        residual, bands, energy_value = rebuilt_kernels(ac, w)
        assert _residual_values(ac, w).tobytes() == residual.tobytes()
        for got, want in zip(_jacobian_bands(ac, w), bands):
            assert got.tobytes() == want.tobytes()
        assert _energy_values(ac, w) == energy_value
        # sourced, R(w) - s: the pinned rows are 0.0 - s, so a zero of
        # either sign in s leaves +0.0 there, as a subtraction from zeros
        for ends in ((0.0, -0.0), (-0.0, 0.0), (0.25, -3.0)):
            source = rng.uniform(-1e-3, 1e-3, grid.n)
            source[0], source[-1] = ends
            want = residual.copy()
            want -= source
            got = _residual_values(ac, w, source)
            assert got.tobytes() == want.tobytes()
            assert got[[0, -1]].tobytes() == (0.0 - source[[0, -1]]).tobytes()


def test_cached_arrays_are_read_only_and_bands_are_new(rng):
    problem = sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=32)
    grid, bg = background_on(problem, -1.0, 1.0)
    ac = to_allen_cahn(problem, bg)
    for cached in (ac._edge, ac._lower, ac._upper, ac._flux_diag,
                   ac._trapezoid):
        assert not cached.flags.writeable
    w = rng.uniform(-1.0, 1.0, grid.n)
    first, second = _jacobian_bands(ac, w), _jacobian_bands(ac, w)
    for band, again in zip(first, second):
        assert band.flags.writeable
        assert not np.shares_memory(band, again)
    assert ac.equation is not None


@pytest.mark.parametrize("p", [3, 5])
def test_odd_power_matches_pow(rng, p):
    x = np.concatenate([rng.uniform(-1.5, 1.5, 2000),
                        rng.uniform(-1e-3, 1e-3, 100),
                        [0.0, -0.0, 1.0, -1.0, -0.0]])
    got, want = _odd_power(x, p), x**p
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(_odd_power(np.array([-0.0]), p)[0])


def pow_numerov_defect(eq, background_ext, w):
    """`_numerov_defect` with numpy's pow for the odd powers of the
    background and of w."""
    phi = background_ext.values
    h = background_ext.grid.h
    linear = eq.mu * phi
    wc = w[1:-1]
    left, right = w[:-2] - wc, w[2:] - wc
    compact = linear[:-2] * left + linear[2:] * right
    for k, c in eq.powers:
        coef, wk = c * phi**k, w**k
        compact = compact + (coef[:-2] * (wk[:-2] - wc)
                             + 10.0 * coef[1:-1] * (wk[1:-1] - wc)
                             + coef[2:] * (wk[2:] - wc))
    out = np.zeros_like(w)
    out[1:-1] = phi[1:-1] * ((phi[:-2] * left + phi[2:] * right) / h**2
                             + compact / (12.0 * -eq.k))
    return out


def test_numerov_defect_matches_the_pow_formula():
    # on fronts that change sign, where pow takes its slow path
    for problem in (sinusoidal_cubic(lam=-1.0, amp=0.5, n_per=64),
                    sinusoidal_quintic(lam=-1.0, amp=0.3, g1=0.5,
                                       n_per=64)):
        grid, bg = background_on(problem, -4.0, 4.0)
        ac = to_allen_cahn(problem, bg)
        for w in (np.tanh(grid.x()), np.tanh(1.7 * grid.x() - 0.3)):
            want = pow_numerov_defect(ac.equation, bg, w)
            got = _numerov_defect(ac.equation, bg, w)
            assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
