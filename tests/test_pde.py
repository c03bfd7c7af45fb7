"""Finite-volume Kolmogorov solvers: discrete duality, closed-form oracles."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kimura.errors import GridTooCoarse, IncompatibleData, KimuraError, LinearSolveFailure
from kimura.geometry import CornerBox, Point
from kimura.operator import KimuraOperator, PolyField, model1d, product_operator, wright_fisher
from kimura.pde import (
    _MARCH_BLOCK,
    Grid1D,
    SpeedScale,
    _march,
    _probe_speed_scale,
    _spd_step,
    caloric_density,
    dirichlet_kernel,
    duhamel_solve,
    generator_matrix,
    mu_inner,
    solve_backward,
    solve_backward_2d,
    solve_elliptic_2d,
    solve_nonhomogeneous,
    stochastic_rep_check,
)


# ---------------------------------------------------------------------------
# speed/scale closed forms
# ---------------------------------------------------------------------------


def test_power_family_cell_mass_matches_quadrature():
    # A = x, b = 0.5: dμ-density x^{-1/2}, total mass on [0,1] is 2
    L = model1d(0.5)
    g = Grid1D.for_operator(L, M=200)
    assert g.cell_mass.sum() == pytest.approx(2.0, rel=1e-3)
    k = len(g.nodes) // 2
    lo, hi = 0.5 * (g.nodes[k - 1] + g.nodes[k]), 0.5 * (g.nodes[k] + g.nodes[k + 1])
    ref, _ = scipy.integrate.quad(lambda x: x**-0.5, lo, hi)
    assert g.cell_mass[k] == pytest.approx(ref, rel=1e-9)


def test_beta_family_cell_mass_matches_quadrature():
    """WF with mutation [0.3, 0.3]: dμ-density ∝ x^{-0.4}(1-x)^{-0.4}.

    The preset carries the conventional ½ in front of x(1−x)∂², so the face
    weight is 0.3/0.5 = 0.6 and the speed density is x^{0.6−1}(1−x)^{0.6−1}.
    The normalization of the scale slope is a convention, so compare cell
    masses through normalization-free ratios.
    """
    W = wright_fisher(1, np.array([0.3, 0.3]))
    g = Grid1D.for_operator(W, M=200)
    dens = lambda x: x**-0.4 * (1 - x) ** -0.4
    ks = [3, len(g.nodes) // 2, len(g.nodes) - 4]
    refs = []
    for k in ks:
        lo = 0.5 * (g.nodes[k - 1] + g.nodes[k])
        hi = 0.5 * (g.nodes[k] + g.nodes[k + 1])
        refs.append(scipy.integrate.quad(dens, lo, hi)[0])
    for k, ref in zip(ks[1:], refs[1:]):
        assert g.cell_mass[k] / g.cell_mass[ks[0]] == pytest.approx(
            ref / refs[0], rel=1e-7
        )


def test_beta_family_on_edge_two_matches_quadrature():
    """``A = ½x(2−x)/2`` and ``b = 0.2 − 0.275x`` on edge 2: ``b/A = 0.4/x −
    0.7/(2−x)``, so ``s′ ∝ x^{−0.4}(2−x)^{−0.7}`` and ``m = 1/(A s′) ∝
    x^{−0.6}(2−x)^{−0.3}``, and in ``u = x/2`` the face weights are
    ``p = 0.4`` and ``q = 0.7``.  The closed form's cell masses are the
    quadrature of ``m`` times one constant and, since ``m·s′ = 1/A`` in both,
    its scale increments are the quadrature of ``s′`` over that constant."""
    a_fn = lambda t: 0.5 * t * (2.0 - t) / 2.0
    b_fn = lambda t: 0.2 - 0.275 * t
    closed = _probe_speed_scale(a_fn, b_fn, 2.0)
    assert closed.kind == "beta"
    assert (closed.weight_left, closed.weight_right) == pytest.approx((0.4, 0.7), rel=1e-12)
    m = lambda x: 4.0 * x**-0.6 * (2.0 - x) ** -0.3
    s_prime = lambda x: x**-0.4 * (2.0 - x) ** -0.7
    cells = ((0.2, 0.6), (0.6, 1.0), (1.0, 1.8))
    mass = [closed.cell_mass(lo, hi) / scipy.integrate.quad(m, lo, hi)[0] for lo, hi in cells]
    scale = [scipy.integrate.quad(s_prime, lo, hi)[0] / closed.scale_increment(lo, hi) for lo, hi in cells]
    assert mass == pytest.approx([mass[0]] * 3, rel=1e-9)
    assert scale == pytest.approx([mass[0]] * 3, rel=1e-9)


def _quadrature_speed_scale(a_fn, b_fn, edge):
    """``s′(x) = exp(−∫_{edge/2}^x b/A)`` and ``m = 1/(A s′)``, each by
    adaptive quadrature of the coefficients."""
    log_s = lambda x: -scipy.integrate.quad(lambda t: b_fn(t) / a_fn(t), 0.5 * edge, x)[0]
    s_prime = lambda x: math.exp(log_s(x))
    return s_prime, lambda x: 1.0 / (a_fn(x) * s_prime(x))


@pytest.mark.parametrize(
    "a_fn, b_fn, edge, closed",
    [
        # power family, A = ½x, b = 0.3: B = 0.6; s′(1) = 1 at edge 2
        (lambda t: 0.5 * t, lambda t: 0.3 + 0.0 * t, 2.0, SpeedScale("power", 2.0, 0.5, 0.6)),
        (lambda t: 0.5 * t, lambda t: 0.3 + 0.0 * t, 1.0, SpeedScale("power", 1.0, 0.5, 0.6)),
        # beta family, A = ½x(1−x), b = ½(0.4(1−x) − 0.7x): p = 0.4, q = 0.7
        (
            lambda t: 0.5 * t * (1.0 - t),
            lambda t: 0.5 * (0.4 * (1.0 - t) - 0.7 * t),
            1.0,
            SpeedScale("beta", 1.0, 0.5, 0.4, 0.7),
        ),
    ],
)
def test_numeric_speed_scale_matches_the_closed_forms(a_fn, b_fn, edge, closed):
    """Quadrature of ``s′`` normalised to 1 at ``edge/2``, where the closed
    form has ``s′ = c``: its scale increments are the closed ones over ``c``
    and its cell masses (``m = 1/(A s′)``) the closed ones times ``c``, on
    interior cells and on the cells that reach an end where ``s′`` or ``m``
    has a power singularity."""
    s_prime, m = _quadrature_speed_scale(a_fn, b_fn, edge)
    u = 0.5
    if closed.kind == "power":
        c = (u * edge) ** -closed.weight_left
    else:
        c = u**-closed.weight_left * (1.0 - u) ** -closed.weight_right
    for lo, hi in ((0.0, 0.1), (0.1, 0.3), (0.45, 0.55), (0.7, 1.0)):
        lo, hi = lo * edge, hi * edge
        assert scipy.integrate.quad(s_prime, lo, hi)[0] * c == pytest.approx(
            closed.scale_increment(lo, hi), rel=1e-9
        )
        assert scipy.integrate.quad(m, lo, hi)[0] == pytest.approx(
            c * closed.cell_mass(lo, hi), rel=1e-9
        )


def test_axis_outside_both_closed_families_raises():
    """Lead ``x`` with drift ``0.5 + x`` is neither the power family
    (constant drift) nor the logistic one (``A`` not ``g·x(edge − x)``)."""
    L = KimuraOperator(dom=CornerBox(1, 0, 1.0), b=(PolyField(((0.5, (0,), ()), (1.0, (1,), ())), 1),))
    with pytest.raises(KimuraError, match="neither closed speed/scale family"):
        Grid1D.for_operator(L, M=16)


# ---------------------------------------------------------------------------
# discrete duality (the load-bearing structural identity)
# ---------------------------------------------------------------------------


def _forward_matrix(grid):
    B = generator_matrix(grid).tocsc()
    mu = grid.cell_mass
    D = sp.diags(mu)
    # Dirichlet cells carry zero mass; the adjoint march never leaves the
    # interior subspace, so their rows may be zeroed.
    Dinv = sp.diags(np.where(mu > 0, 1.0 / np.where(mu > 0, mu, 1.0), 0.0))
    return (Dinv @ B.T @ D).tocsc()


def test_discrete_duality_twenty_pairs(wf):
    grid = Grid1D.for_operator(wf, M=200)
    B = _forward_matrix(grid)  # generator of the adjoint march
    A = generator_matrix(grid).tocsc()
    dt, steps = 0.01, 20
    back = spla.splu(sp.eye(A.shape[0], format="csc") - dt * A)
    fwd = spla.splu(sp.eye(B.shape[0], format="csc") - dt * B)
    rng = np.random.default_rng(7)
    mask = ~grid.dirichlet_mask()
    worst = 0.0
    for _ in range(20):
        f = rng.normal(size=A.shape[0]) * mask
        g = rng.normal(size=A.shape[0]) * mask
        Tg, Sf = g.copy(), f.copy()
        for _k in range(steps):
            Tg = back.solve(Tg)
            Sf = fwd.solve(Sf)
        lhs = mu_inner(grid, f, Tg)
        rhs = mu_inner(grid, Sf, g)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst < 1e-10


def test_kernel_symmetry_same_grid(wf):
    grid = Grid1D.for_operator(wf, M=200)
    ka = dirichlet_kernel(wf, 0.3, 0.5, 1e-3, grid=grid)
    kb = dirichlet_kernel(wf, 0.6, 0.5, 1e-3, grid=grid)
    ia = grid.nearest_interior(0.3)
    ib = grid.nearest_interior(0.6)
    assert ka.k[-1][ib] == pytest.approx(kb.k[-1][ia], rel=1e-9)


# ---------------------------------------------------------------------------
# closed-form kernel oracles
# ---------------------------------------------------------------------------


def test_survival_matches_inverse_gaussian_oracle():
    # A = x, b = 0: absorption time from x0 has P(τ > t) = 1 − exp(−x0/t)
    L = model1d(0.0, radius=8.0)
    ks = dirichlet_kernel(L, 0.3, 2.0, 2.5e-4, M=600)
    x0 = ks.p0  # the delta sits on the nearest node; evaluate the oracle there
    for t in (0.5, 1.0, 2.0):
        oracle = 1.0 - math.exp(-x0 / t)
        assert ks.survival_at(t) == pytest.approx(oracle, abs=3e-4)


def test_hitting_density_matches_oracle():
    L = model1d(0.0, radius=8.0)
    ks = dirichlet_kernel(L, 0.3, 2.0, 5e-4, M=600)
    x0 = ks.p0
    cal = caloric_density(ks, 1)
    ts = np.array([0.25, 0.5, 1.0, 2.0])
    dens = np.interp(ts, cal.times, cal.values)
    oracle = (x0 / ts**2) * np.exp(-x0 / ts)
    assert np.max(np.abs(dens - oracle)) < 5e-3


def test_wright_fisher_masses_and_mean_absorption(wf):
    ks = dirichlet_kernel(wf, 0.3, 12.0, 1e-3, M=400, max_slices=400)
    c1 = caloric_density(ks, 1)
    c2 = caloric_density(ks, 2)
    assert c1.total == pytest.approx(0.7, abs=2e-3)
    assert c2.total == pytest.approx(0.3, abs=2e-3)
    # E[τ] = −2(p ln p + q ln q) at p0 = 0.3
    e_tau = np.trapezoid(ks.survival, ks.step_times)
    oracle = -2 * (0.3 * math.log(0.3) + 0.7 * math.log(0.7))
    assert e_tau == pytest.approx(oracle, abs=2e-3)


def test_survival_is_monotone_and_mass_balances(wf):
    ks = dirichlet_kernel(wf, 0.3, 2.0, 1e-3, M=300)
    assert np.all(np.diff(ks.survival) <= 1e-12)
    absorbed = caloric_density(ks, 1).total + caloric_density(ks, 2).total
    assert ks.survival_at(2.0) + absorbed == pytest.approx(1.0, abs=2e-3)
    assert ks.min_density >= -1e-10


def test_caloric_totals_close_the_mass_balance_of_the_march(wf):
    """The absorbed mass is what the implicit march loses per step, so the
    balance closes far inside the time step (the trapezoid rule missed it by
    dt/2·flux, 2.5e-5 here)."""
    ks = dirichlet_kernel(wf, 0.3, 1.0, 1e-4, M=800)
    absorbed = caloric_density(ks, 1).total + caloric_density(ks, 2).total
    assert abs(ks.survival_at(1.0) + absorbed - 1.0) <= 1e-5


def test_kernel_refinement_converges(wf):
    vals = {}
    for M in (100, 200, 400):
        vals[M] = dirichlet_kernel(wf, 0.3, 0.5, 5e-4, M=M).survival_at(0.5)
    assert abs(vals[400] - vals[200]) < abs(vals[200] - vals[100])


# ---------------------------------------------------------------------------
# backward solves
# ---------------------------------------------------------------------------


def test_constants_invariant_without_absorption():
    # no tangent face: u ≡ 1 is an exact steady state of the march
    L = model1d(0.5)
    res = solve_backward(L, lambda x: np.ones_like(x), 1.0, 1e-2, M=150)
    assert np.max(np.abs(res.final - 1.0)) < 1e-12


def test_constants_decay_with_absorption(wf):
    res = solve_backward(wf, lambda x: np.ones_like(x), 1.0, 1e-3, M=200)
    inner = ~res.grid.dirichlet_mask()
    assert np.all(res.final[inner] < 1.0)
    assert np.all(res.final >= -1e-12)


def test_backward_march_is_positivity_preserving(wf):
    f = lambda x: np.maximum(0.0, 0.25 - np.abs(x - 0.5))
    res = solve_backward(wf, f, 0.5, 1e-3, M=200)
    assert res.min_value >= -1e-12


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        Grid1D.for_operator(model1d(0.0), M=4)


# ---------------------------------------------------------------------------
# nonhomogeneous boundary data
# ---------------------------------------------------------------------------


def test_duhamel_agrees_with_direct_solve():
    L = model1d(0.0, radius=8.0)
    zeta = lambda t: math.sin(1.3 * t) ** 2
    direct = solve_nonhomogeneous(L, zeta, 1.0, 1e-3, M=300)
    via = duhamel_solve(L, zeta, 1.0, 1e-3, M=300)
    assert np.max(np.abs(direct.final - via.final)) < 1e-3


def test_boundary_data_on_the_right_face_matches_paths():
    """WF(1) with both faces absorbing and ζ on face 2 (``x = 1``): the data
    sits on the last node, and the PDE value at 0.7 matches the paths'
    ``E[ζ(t − τ); face 2 first, τ ≤ t]`` within A8's bound."""
    W = wright_fisher(1, (0.0, 0.0))
    zeta = lambda t: math.sin(1.3 * t) ** 2
    sol = solve_nonhomogeneous(W, zeta, 1.0, 1e-3, face=2, M=200)
    assert sol.final[-1] == zeta(1.0) and sol.final[0] == 0.0
    rep = stochastic_rep_check(W, zeta, 0.7, 1.0, 2000, face=2, M=200, seed=1)
    assert rep.pde_value == sol.final[sol.grid.nearest_interior(0.7)]
    assert rep.discrepancy <= 3 * rep.mc_stderr + 1e-3


def test_incompatible_boundary_data_rejected():
    L = model1d(0.0)
    with pytest.raises(IncompatibleData):
        solve_nonhomogeneous(L, lambda t: 1.0 + t, 0.5, 1e-3, M=100)


# ---------------------------------------------------------------------------
# the 1D step against a sparse LU march
# ---------------------------------------------------------------------------


def _lu_march(A, u, T, dt, pinned=None):
    """``T/dt`` implicit-Euler steps ``(I − Δt A) u⁺ = rhs`` by sparse LU from
    ``u``; ``pinned(t)`` maps rows of ``rhs`` to the values set on them."""
    lu = spla.splu((sp.identity(A.shape[0], format="csc") - dt * A).tocsc())
    for i in range(1, round(T / dt) + 1):
        rhs = u.copy()
        for row, value in ({} if pinned is None else pinned(i * dt)).items():
            rhs[row] = value
        u = lu.solve(rhs)
    return u


def _rel(a, ref):
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


_STEP_CASES = {  # operator, (Dirichlet left, Dirichlet right, 1/S at the left end is 0)
    "wf": (wright_fisher(1, [0.0, 0.0]), (True, True, False)),
    "model1d_0": (model1d(0.0), (True, False, False)),
    "model1d_1": (model1d(1.0), (False, False, True)),
    "model1d_half": (model1d(0.5), (False, False, False)),
}


def _generator_by_rows(grid):
    """The generator row by row: [(u_{k+1} − u_k)/S_k − (u_k − u_{k−1})/S_{k−1}]/μ_k,
    Dirichlet rows zero."""
    n = grid.n_nodes
    B = np.zeros((n, n))
    for k in np.flatnonzero(~grid.dirichlet_mask()):
        if k > 0 and grid.inv_scale[k - 1] > 0.0:
            B[k, k - 1] = grid.inv_scale[k - 1] / grid.cell_mass[k]
            B[k, k] -= B[k, k - 1]
        if k < n - 1 and grid.inv_scale[k] > 0.0:
            B[k, k + 1] = grid.inv_scale[k] / grid.cell_mass[k]
            B[k, k] -= B[k, k + 1]
    return B


@pytest.mark.parametrize("case", sorted(_STEP_CASES))
def test_generator_matrix_equals_the_row_by_row_generator(case):
    grid = Grid1D.for_operator(_STEP_CASES[case][0], M=60)
    assert np.array_equal(generator_matrix(grid).toarray(), _generator_by_rows(grid))


@pytest.mark.parametrize("case", sorted(_STEP_CASES))
def test_backward_step_matches_a_sparse_lu_march(case):
    L, ends = _STEP_CASES[case]
    grid = Grid1D.for_operator(L, M=200)
    assert (grid.dirichlet_left, grid.dirichlet_right, grid.inv_scale[0] == 0.0) == ends
    f = lambda x: 1.0 + np.sin(3.0 * x)
    res = solve_backward(L, f, 0.2, 1e-3, grid=grid)
    u0 = np.where(grid.dirichlet_mask(), 0.0, f(grid.nodes))
    assert _rel(res.final, _lu_march(generator_matrix(grid), u0, 0.2, 1e-3)) <= 1e-12


def test_kernel_step_matches_the_forward_matrix_march(wf):
    grid = Grid1D.for_operator(wf, M=200)
    ks = dirichlet_kernel(wf, 0.3, 0.2, 1e-3, grid=grid)
    k0 = np.zeros(grid.n_nodes)
    j0 = grid.nearest_interior(0.3)
    k0[j0] = 1.0 / grid.cell_mass[j0]
    assert _rel(ks.k[-1], _lu_march(_forward_matrix(grid), k0, 0.2, 1e-3)) <= 1e-12


def test_nonhomogeneous_step_carries_the_pinned_value_s_pull():
    """With ζ(t) = t² pinned at the left end, the live nodes move only through
    the step's pull term."""
    L = model1d(0.0)
    grid = Grid1D.for_operator(L, M=200)
    zeta = lambda t: t * t
    res = solve_nonhomogeneous(L, zeta, 0.2, 1e-3, grid=grid)
    ref = _lu_march(generator_matrix(grid), np.zeros(grid.n_nodes), 0.2, 1e-3, lambda t: {0: zeta(t)})
    assert _rel(res.final, ref) <= 1e-12


def test_step_that_is_not_positive_definite_raises_linear_solve_failure(wf):
    grid = Grid1D.for_operator(wf, M=50)
    with pytest.raises(LinearSolveFailure, match="factorization failed"):
        _spd_step(grid, -1.0)  # I + B is indefinite


# ---------------------------------------------------------------------------
# 2D tensor solves
# ---------------------------------------------------------------------------


def test_2d_backward_matches_product_of_1d():
    Lx = model1d(0.0, radius=2.0)
    Ly = model1d(0.5, radius=2.0)
    P = product_operator(Lx, Ly)
    fx = lambda x: np.sin(np.pi * x / 2.0)
    fy = lambda y: np.cos(np.pi * y / 4.0)
    T, dt, M = 0.1, 1e-3, 64
    res2 = solve_backward_2d(P, lambda X, Y: fx(X) * fy(Y), T, dt, M=M)
    rx = solve_backward(Lx, fx, T, dt, grid=res2.grid_x)
    ry = solve_backward(Ly, fy, T, dt, grid=res2.grid_y)
    ref = np.outer(rx.final, ry.final)
    assert np.max(np.abs(res2.values[-1] - ref)) < 5e-4


def _sparse_tensor_generator(gx, gy):
    """The Kronecker-sum generator on the tensor grid (x outer), with its
    Dirichlet rows cleared, and the flat Dirichlet mask."""
    Bx, By = generator_matrix(gx), generator_matrix(gy)
    B = sp.kron(Bx, sp.identity(gy.n_nodes)) + sp.kron(sp.identity(gx.n_nodes), By)
    mask = (gx.dirichlet_mask()[:, None] | gy.dirichlet_mask()[None, :]).ravel()
    return (sp.diags((~mask).astype(float)) @ B).tocsc(), mask


def test_2d_backward_matches_the_sparse_implicit_euler_march():
    """Each eigenbasis step equals a sparse LU solve of ``(I − Δt B) u⁺ = u``
    on the Kronecker-sum generator, up to round-off."""
    P = product_operator(model1d(0.0, radius=2.0), model1d(0.5, radius=2.0))
    f = lambda X, Y: np.sin(np.pi * X / 2.0) * np.cos(np.pi * Y / 4.0)  # noqa: E731
    res = solve_backward_2d(P, f, 0.1, 1e-3, M=64)
    gx, gy = res.grid_x, res.grid_y
    B, mask = _sparse_tensor_generator(gx, gy)
    lu = spla.splu((sp.identity(B.shape[0], format="csc") - res.dt * B).tocsc())
    X, Y = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
    u = np.where(mask, 0.0, f(X, Y).ravel())
    states = [u]
    for _ in range(round(0.1 / res.dt)):
        u = lu.solve(u)
        states.append(u)
    want = np.array([states[round(t / res.dt)] for t in res.times]).reshape(res.values.shape)
    assert np.max(np.abs(res.values - want)) <= 1e-10 * np.max(np.abs(want))
    assert res.min_value == pytest.approx(min(s.min() for s in states), abs=1e-12)


def _axis_grid(b, M, tangent):
    """The grid ``growth_ratio`` builds for an axis ``x∂² + b∂`` of the unit
    box: Dirichlet at the far end, and at ``x = 0`` on the tangent axis."""
    return Grid1D.from_coefficients(
        lambda t: np.asarray(t, float),
        lambda t: np.full(np.shape(t), b),
        1.0,
        M,
        dirichlet_left=tangent,
        dirichlet_right=True,
    )


@pytest.mark.parametrize(
    "bx, tangent_x, by",
    [
        (0.0, True, 0.5),  # growth's operator
        (0.0, True, 1.0),  # entrance transverse end: 1/S = 0 at the first y-interface
        (1.0, False, 1.0),  # entrance ends on both axes: node (0, 0) couples to nothing
    ],
)
def test_elliptic_2d_equals_a_direct_sparse_solve(bx, tangent_x, by):
    """``B u = 0`` off the Dirichlet set, the data on it: one sparse solve with
    identity rows at the Dirichlet nodes (and at a node with no coupling,
    which keeps 0) against the eigenbasis solve."""
    gx, gy = _axis_grid(bx, 48, tangent_x), _axis_grid(by, 48, False)
    nu, outer = 0.5, 1.0
    boundary = np.zeros((gx.n_nodes, gy.n_nodes))
    boundary[-1, :] = outer
    boundary[:, -1] = outer
    boundary[0, :] = nu
    B, mask = _sparse_tensor_generator(gx, gy)
    hold = mask | (np.asarray(abs(B).sum(axis=1)).ravel() == 0.0)
    assert np.count_nonzero(hold & ~mask) == (0 if tangent_x else 1)
    A = (B + sp.diags(hold.astype(float))).tocsc()
    want = spla.spsolve(A, np.where(mask, boundary.ravel(), 0.0)).reshape(boundary.shape)
    got = solve_elliptic_2d(gx, gy, boundary)
    assert np.max(np.abs(got - want)) <= 1e-10
    assert np.array_equal(got[mask.reshape(got.shape)], boundary[mask.reshape(got.shape)])


def test_2d_backward_callable_data_equal_the_array():
    """``f`` as a callable of the node grids and as the array of its node
    values march the same data."""
    P = product_operator(model1d(0.0, radius=2.0), model1d(0.5, radius=2.0))
    f = lambda X, Y: X * np.exp(-Y)  # noqa: E731
    by_call = solve_backward_2d(P, f, 0.05, 1e-3, M=24)
    X, Y = np.meshgrid(by_call.grid_x.nodes, by_call.grid_y.nodes, indexing="ij")
    by_array = solve_backward_2d(P, f(X, Y), 0.05, 1e-3, M=24)
    assert np.array_equal(by_call.values, by_array.values)
    assert np.array_equal(by_call.times, by_array.times)


# ---------------------------------------------------------------------------
# solve health
# ---------------------------------------------------------------------------


def _nan_at_interior(values):
    out = np.array(values, dtype=float)
    out[(3,) * out.ndim] = np.nan
    return out


def _nan_after_half(t):
    return math.nan if t > 0.5 else t * t


_POISONED = {
    "backward": lambda: solve_backward(
        wright_fisher(1, [0.0, 0.0]), _nan_at_interior, 0.01, 1e-3, M=50
    ),
    "backward_2d": lambda: solve_backward_2d(
        product_operator(model1d(0.0, radius=2.0), model1d(0.5, radius=2.0)),
        lambda X, Y: _nan_at_interior(X * Y),
        0.01,
        1e-3,
        M=16,
    ),
    "nonhomogeneous": lambda: solve_nonhomogeneous(
        model1d(0.0), _nan_after_half, 1.0, 1e-2, M=50
    ),
    "duhamel": lambda: duhamel_solve(model1d(0.0), _nan_after_half, 1.0, 1e-2, M=50),
    "elliptic_2d": lambda: solve_elliptic_2d(
        _axis_grid(0.0, 16, True),
        _axis_grid(0.5, 16, False),
        np.full((17, 17), np.nan),
    ),
}


@pytest.mark.parametrize("solver", sorted(_POISONED))
def test_non_finite_data_raise_linear_solve_failure(solver):
    with pytest.raises(LinearSolveFailure, match="non-finite"):
        _POISONED[solver]()


def _counting_stepper(nan_at):
    """A stepper whose step ``k`` adds 1, except step ``nan_at``, which
    returns NaN."""
    def stepper(dt):
        taken = iter(range(1, 10**9))
        return lambda rhs: np.full(rhs.shape, np.nan) if next(taken) == nan_at else rhs + 1.0
    return stepper


@pytest.mark.parametrize("fail_at", [None, _MARCH_BLOCK + 3, _MARCH_BLOCK + 5, _MARCH_BLOCK + 4])
def test_march_raises_for_the_earliest_failing_step(fail_at):
    """The march checks its states a block of steps at a time, yet raises as
    if each step were checked in turn: the block callback sees every step
    before the first non-finite state and none after it, and a callback
    failure at an earlier step wins over the non-finite state."""
    nan_at = _MARCH_BLOCK + 4  # inside the second block
    seen = []

    def on_block(first, U):
        for i, u in enumerate(U):
            assert np.all(u == first + i)
            seen.append(first + i)
            if first + i == fail_at:
                raise KimuraError(f"step {first + i}")

    march = lambda: _march(_counting_stepper(nan_at), np.zeros(3), 1.0, 1e-3, None, 10, on_block=on_block)
    if fail_at is not None and fail_at < nan_at:
        with pytest.raises(KimuraError, match=f"step {fail_at}$"):
            march()
    else:
        with pytest.raises(LinearSolveFailure, match="non-finite"):
            march()
    assert seen == list(range(1, min(nan_at - 1, fail_at or nan_at) + 1))


def test_march_stores_and_minimises_every_block_like_single_steps():
    """Slices, times and the minimum over a march of 2.5 blocks that stores
    every step equal a step-by-step loop's."""
    n = 5 * _MARCH_BLOCK // 2
    dt, times, slices, lowest = _march(
        _counting_stepper(None), np.array([0.0, -0.5]), 1.0, 1.0 / n, None, n,
        view=lambda u, t: u - 2.0 * t,
    )
    steps = np.arange(n + 1)
    assert np.array_equal(times, steps * dt)
    assert np.array_equal(slices, [np.array([0.0, -0.5]) + k - 2.0 * k * dt for k in steps])
    assert lowest == -0.5
