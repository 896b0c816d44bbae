"""Metamorphic tests: the pipeline commutes with the problem's symmetries.

Each symmetry maps one discrete problem onto another whose front is
known in terms of the first one's: a reflection x -> -x gives -w(-x), a
shift of the coefficient by whole nodes moves the front, a rescaling of
the period by 2 (with lambda, and for the cubic-quintic V and g1,
rescaled to match) keeps w node by node, and so does multiplying the
cubic's g by a constant. No closed form is needed, so these tests reach
coefficients that no oracle covers.

The symmetries hold for the discrete problem up to rounding, the Newton
target and the truncation; every tolerance below is derived from those,
never tuned to the measured differences:

- Two fronts that are both within the Newton target of one equation
  differ by at most `front_bound`: each residual is at most
  r = 1e-8 / (2 kf) at every node, so in the 2-norm the difference of
  residuals is at most 2 sqrt(n) r, and the inverse Jacobian stretches
  it by at most 1 / mu, mu the least eigenvalue of minus the Jacobian
  at the front (the translation eigenvalue). That bounds the 2-norm of
  the difference, and so its sup.
- A draw is weakly pinned when that bound is not below the largest step
  of w between two neighbouring nodes, or mu is not positive: then the
  target does not fix the front to within a node, the ends choose its
  site (ROADMAP item 10), and only energies are compared.
- Energies: see `energy_tol`.
"""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from darksol import Problem, run_soliton, sample_coefficient
from darksol.reduction import (_jacobian_bands, _potential_density,
                               _residual_values)

N_PER = 128
HALF_LENGTH = 8.0
EPS = np.finfo(float).eps
# one seed per draw: even seeds cubic, odd ones cubic-quintic, one and
# two harmonics alternating in pairs; the node shift reads more draws,
# since it compares only the weakly pinned ones
SEEDS = range(16)
SHIFT_SEEDS = range(24)


def draw(seed):
    """(kind, lambda, one period of coefficient samples, g1, node shift).

    lambda = -exp U(ln 1/4, ln 4), amplitude log-uniform in 1e-3 to 0.8,
    the phase on a node; the cubic's g is 1 + amplitude * shape, the
    cubic-quintic's V is amplitude |lambda| shape, shape a cosine or a
    cosine plus a second harmonic, scaled to a peak of at most 1.
    """
    rng = np.random.default_rng(seed)
    kind = ("cubic", "cubic-quintic")[seed % 2]
    lam = -float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
    amp = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.8))))
    y = (np.arange(N_PER) - rng.integers(N_PER)) / N_PER
    shape = np.cos(2.0 * np.pi * y)
    if (seed // 2) % 2:
        b, c = rng.uniform(0.3, 0.6), rng.uniform(0.0, 2.0 * np.pi)
        shape = (shape + b * np.cos(4.0 * np.pi * y + c)) / (1.0 + b)
    g1 = float(rng.uniform(0.1, 1.0))
    samples = 1.0 + amp * shape if kind == "cubic" else amp * -lam * shape
    return kind, lam, samples, g1, int(rng.integers(1, N_PER))


def reflected(samples):
    """The samples of the coefficient's mirror image, a(-x)."""
    return samples[-np.arange(N_PER) % N_PER]


def problem(kind, lam, samples, g1, period=1.0):
    coefficient = sample_coefficient(samples, period, N_PER,
                                     positive=kind == "cubic")
    if kind == "cubic":
        return Problem(kind="cubic", lam=lam, period=period, g=coefficient)
    return Problem(kind="cubic-quintic", lam=lam, period=period,
                   potential=coefficient, g1=g1)


@pytest.fixture(scope="module")
def front():
    """The run of seed `seed` under one symmetry, solved once per module."""
    runs = {}

    def solve(seed, symmetry="identity"):
        if (seed, symmetry) not in runs:
            kind, lam, samples, g1, shift = draw(seed)
            period, half_length = 1.0, HALF_LENGTH
            if symmetry == "reflected":
                samples = reflected(samples)
            elif symmetry == "shifted":
                samples = np.roll(samples, shift)
            elif symmetry == "rescaled":
                period, half_length, lam = 0.5, 0.5 * HALF_LENGTH, 4.0 * lam
                if kind != "cubic":
                    samples, g1 = 4.0 * samples, 2.0 * g1
            elif symmetry.startswith("g*"):
                samples = float(symmetry[2:]) * samples
            runs[seed, symmetry] = run_soliton(
                problem(kind, lam, samples, g1, period), half_length)
        return runs[seed, symmetry]

    return solve


def translation_eigenvalue(run):
    """mu: the least eigenvalue of minus the residual's Jacobian at the
    front, a positive multiple of the energy Hessian."""
    _, diag, upper = _jacobian_bands(run.ac, run.w.values)
    return eigh_tridiagonal(-diag, -upper[:-1], eigvals_only=True,
                            select="i", select_range=(0, 0))[0]


def front_bound(run):
    """Largest sup distance of two roots within the Newton target."""
    target = 1e-8 / (2.0 * run.ac.kinetic_factor)
    mu = translation_eigenvalue(run)
    return 2.0 * np.sqrt(run.grid.n) * target / mu if mu > 0 else np.inf


def strongly_pinned(run):
    return front_bound(run) < float(np.max(np.diff(run.w.values)))


def outer_energy(run):
    """The energy the front holds within two periods of either end."""
    ac, w = run.ac, run.w.values
    kinetic = ac.kinetic_factor * ac._edge * np.diff(w) ** 2 / ac.h
    density = ac.h * ac._trapezoid * _potential_density(ac, w)
    m = 2 * N_PER
    return float(np.sum(kinetic[:m]) + np.sum(kinetic[-m:])
                 + np.sum(density[:m + 1]) + np.sum(density[-m - 1:]))


def energy_tol(run, other, scale=1.0):
    """Tolerance on |E(run) - scale E(other)|, in run's units.

    Each energy is two sums of n non-negative terms, so each carries a
    rounding error of at most n eps E. On a strongly pinned front the
    two fronts lie within `front_bound` of each other in the 2-norm, and
    over that distance the energy moves by at most the 2-norm of its
    gradient, 2 kf h times the front's residual without the correction
    source, times the distance. On a weakly pinned
    one the ends choose the site: a front can move by up to a period
    towards an end, which changes its truncated energy by at most what
    it holds within two periods of the ends.
    """
    e = run.minimize.final_energy
    tol = 2.0 * run.grid.n * EPS * abs(e)
    if strongly_pinned(run) and strongly_pinned(other):
        gradient = (2.0 * run.ac.kinetic_factor * run.ac.h * np.linalg.norm(
            _residual_values(run.ac, run.w.values)))
        return tol + gradient * max(front_bound(run), front_bound(other))
    return tol + outer_energy(run) + scale * outer_energy(other)


def check(pairs, fronts_match):
    """The failed comparisons of (seed, run, image, mapped w of the
    image, energy scale) tuples: fronts on strongly pinned draws, when
    asked, and energies on all."""
    failed = []
    for seed, run, image, mapped, scale in pairs:
        assert run.status == image.status == "ok", seed
        if fronts_match and strongly_pinned(run) and strongly_pinned(image):
            gap = float(np.max(np.abs(run.w.values - mapped)))
            if not gap <= max(front_bound(run), front_bound(image)):
                failed.append((seed, "front", gap))
        de = abs(run.minimize.final_energy
                 - scale * image.minimize.final_energy)
        if not de <= energy_tol(run, image, scale):
            failed.append((seed, "energy", de))
    return failed


def test_reflection_mirrors_the_front(front):
    # x -> -x maps the coefficient's samples k -> -k and node i of the
    # symmetric grid to n - 1 - i; the front w goes to -w(-x). An even
    # coefficient (a cosine at phase 0 or 1/2) maps onto itself, and the
    # left-first tie rule returns one site's front for both runs, a
    # period from the mirror image: no draw here is even
    pairs = [(seed, front(seed), front(seed, "reflected"),
              -front(seed, "reflected").w.values[::-1], 1.0)
             for seed in SEEDS]
    # the draws reach both kinds of pinning, so both checks run
    assert {strongly_pinned(run) for _, run, *_ in pairs} == {True, False}
    # On a random phase the nearest pinning sites are rarely mirror
    # nodes, so one more coefficient makes them so:
    # g = 1 + 0.3 (cos 4 pi x - 0.02 sin^3 2 pi x) has sites at x = -1/4
    # and +1/4, both minima, the right one deeper. The left site is
    # solved first from a tanh guess and the right one from the left
    # root reflected, and the reflected run solves them the other way
    # round, so both starts have to reach their roots
    y = np.arange(N_PER) / N_PER
    samples = 1.0 + 0.3 * (np.cos(4.0 * np.pi * y)
                           - 0.02 * np.sin(2.0 * np.pi * y) ** 3)
    for lam in (-2.0, -4.0):
        run, image = (run_soliton(problem("cubic", lam, s, 0.0), HALF_LENGTH)
                      for s in (samples, reflected(samples)))
        pairs.append((lam, run, image, -image.w.values[::-1], 1.0))
    assert check(pairs, fronts_match=True) == []


def test_node_shift_keeps_the_energy_of_weakly_pinned_fronts(front):
    # a coefficient shifted by whole nodes has the same fronts, shifted;
    # only the truncation tells them apart, so the energies agree. On a
    # strongly pinned draw with two minima per period the site the run
    # returns depends on the phase (ROADMAP item 13; see the family
    # below), so the energies are compared on weakly pinned draws
    pairs = [(seed, front(seed), front(seed, "shifted"), None, 1.0)
             for seed in SHIFT_SEEDS if not strongly_pinned(front(seed))]
    assert len(pairs) >= 4
    assert check(pairs, fronts_match=False) == []


def test_rescaling_by_two_keeps_the_front(front):
    # (T, lambda, L) -> (T/2, 4 lambda, L/2) with n_per kept: the cubic's
    # phi+ doubles, the cubic-quintic's grows by sqrt 2 with V -> 4 V and
    # g1 -> 2 g1, and w is the same node by node. Both weights and h^-2
    # grow, so the energy grows by 2 s^2, s the factor of phi+
    pairs = []
    for seed in SEEDS[:8]:
        run, image = front(seed), front(seed, "rescaled")
        scale = 8.0 if run.problem.is_cubic else 4.0
        pairs.append((seed, run, image, image.w.values, 1.0 / scale))
    assert check(pairs, fronts_match=True) == []


@pytest.mark.parametrize("c", [2.0, 4.0])
def test_cubic_amplitude_keeps_the_front(front, c):
    # g -> c g divides phi+ by sqrt c and both reduced weights by c, so w
    # is unchanged and the energy is divided by c
    seeds = [seed for seed in SEEDS if seed % 2 == 0]
    pairs = [(seed, front(seed), front(seed, f"g*{c!r}"),
              front(seed, f"g*{c!r}").w.values, c) for seed in seeds]
    assert check(pairs, fronts_match=True) == []


def test_cubic_amplitude_on_a_constant_g():
    # a constant g does not pin the front at all: only the truncation
    # holds it against the translation mode, so g -> 2 g moves w by up
    # to 2.1e-6, and only the energy, halved, is compared
    runs = [run_soliton(problem("cubic", -1.0, np.full(N_PER, c), 0.0),
                        HALF_LENGTH) for c in (1.0, 2.0)]
    assert not strongly_pinned(runs[0])
    assert check([(0, runs[0], runs[1], runs[1].w.values, 2.0)],
                 fronts_match=True) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the front is the "
                   "first certified root, not the lowest site's")
def test_two_minimum_family_has_one_energy_over_its_phases():
    # g = 1 + 0.2 cos 2 pi (x - phi) + 0.6 cos(4 pi (x - phi) + 1) at
    # lambda = -4 has two minima of the pinning landscape per period;
    # over the 16 phases phi = k / 16 (each on a node) every run must
    # return the lowest one. Item 13's acceptance bound is 1e-8 relative
    # (its prototype moved no front above head's by more than that);
    # today phi = 0 returns 21.84520 and phi = 1/4 returns 21.76377
    y = np.arange(N_PER) / N_PER
    base = (1.0 + 0.2 * np.cos(2.0 * np.pi * y)
            + 0.6 * np.cos(4.0 * np.pi * y + 1.0))
    energies = [run_soliton(problem("cubic", -4.0,
                                    np.roll(base, k * N_PER // 16), 0.0),
                            HALF_LENGTH).minimize.final_energy
                for k in range(16)]
    assert max(energies) - min(energies) <= 1e-8 * min(energies)
