import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from util import (
    cycle_sums, full_sweep_boundary, hull_distance, spectra_mismatch, support_value, traced_peak,
)

import dirlap.spectral
from dirlap import (
    InvalidArgumentError,
    NoConvergenceError,
    Operator,
    SplitMix64,
    assemble,
    build_graph,
    dirichlet,
    eig,
    gen_cycle,
    gen_opposing_cycles,
    gen_random_circulation,
    kernel_dimension,
    nu,
    numerical_range_boundary,
    operator_norm,
    to_euclidean,
    verify_kyfan,
)


def cycle_eigenvalues(n):
    """1 - exp(2 pi i k / n), the closed-form spectrum of a unit cycle."""
    k = np.arange(n)
    return np.sort_complex(1.0 - np.exp(2j * np.pi * k / n))


class TestEig:
    def test_symmetric_route_returns_ascending_real(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        spec = eig(a)
        assert np.allclose(spec, [1.0, 3.0])
        assert np.allclose(spec.imag, 0.0)

    def test_general_route_sorted_lexicographically(self):
        spec = eig(assemble(gen_cycle(5), "delta").matrix)
        vals = spec
        keys = list(zip(vals.real.tolist(), vals.imag.tolist()))
        assert keys == sorted(keys)

    def test_cycle_closed_form(self):
        for n in (3, 4, 7):
            vals = eig(assemble(gen_cycle(n), "delta").matrix)
            assert spectra_mismatch(vals, cycle_eigenvalues(n)) < 1e-10

    def test_hermitian_complex_input(self):
        a = np.array([[1.0, 1j], [-1j, 1.0]])
        vals = eig(a)
        assert np.allclose(vals, [0.0, 2.0])

    def test_rejects_non_square(self):
        for shape in ((2, 3), (0, 0)):
            with pytest.raises(InvalidArgumentError):
                eig(np.zeros(shape))
        with pytest.raises(InvalidArgumentError, match="empty"):
            verify_kyfan(np.zeros((0, 0)))

    def test_no_convergence_error_exists(self):
        assert issubclass(NoConvergenceError, Exception)


class TestNumericalRange:
    def test_normal_matrix_range_is_eigenvalue_hull(self):
        # for a cycle the operator is normal, so the numerical range equals
        # the convex hull of the eigenvalues
        op = assemble(gen_cycle(3), "normalized_delta")
        bdry = numerical_range_boundary(op, 48)
        evs = cycle_eigenvalues(3)
        for p in bdry.points:
            assert hull_distance(p, evs) < 1e-9

    def test_samples_dominate_rayleigh_values(self):
        # each sampled point maximizes Re e^{i theta}(A f, f) over unit f,
        # so it must beat every random Rayleigh quotient in its direction;
        # this is exact, independent of how densely angles are sampled
        g = gen_random_circulation(7, 3, seed=9)
        op = assemble(g, "normalized_delta")
        bdry = numerical_range_boundary(op, 96)
        a = to_euclidean(op)
        rng = SplitMix64(41)
        for _ in range(50):
            f = rng.complex_vector(7)
            f = f / np.linalg.norm(f)
            p = complex(np.conj(f) @ (a @ f))
            for theta, q in zip(bdry.angles, bdry.points):
                assert (p * np.exp(1j * theta)).real <= (q * np.exp(1j * theta)).real + 1e-9

    def test_support_function_matches_sweep_direction(self):
        # the point found at angle theta attains the maximum of
        # Re e^{i theta} (A f, f); no other sample may beat it
        op = assemble(gen_random_circulation(6, 3, seed=14), "normalized_delta")
        bdry = numerical_range_boundary(op, 32)
        for theta, p in zip(bdry.angles, bdry.points):
            attained = (p * np.exp(1j * theta)).real
            assert attained >= support_value(bdry.points, -theta) - 1e-10

    def test_sampled_minimum_matches_spectral_nu(self):
        # 16 angles include pi, whose sample attains the infimum of Re
        op = assemble(gen_random_circulation(8, 4, seed=7), "normalized_delta")
        bdry = numerical_range_boundary(op, 16)
        assert bdry.points.real.min() == pytest.approx(nu(op), abs=1e-10)

    def test_symmetric_operator_collapses_to_interval(self):
        op = assemble(gen_cycle(4), "h")
        bdry = numerical_range_boundary(op, 64)
        assert np.max(np.abs(bdry.points.imag)) < 1e-9
        vals = eig(op.matrix).real
        assert bdry.points.real.min() == pytest.approx(vals.min(), abs=1e-9)
        assert bdry.points.real.max() == pytest.approx(vals.max(), abs=1e-9)

    def test_angle_grid(self):
        op = assemble(gen_cycle(3), "delta")
        bdry = numerical_range_boundary(op, 8)
        assert np.allclose(bdry.angles, 2.0 * np.pi * np.arange(8) / 8.0)

    def test_rejects_too_few_angles(self):
        with pytest.raises(ValueError):
            numerical_range_boundary(assemble(gen_cycle(3), "delta"), 3)

    def test_deterministic(self):
        op = assemble(gen_random_circulation(6, 2, seed=5), "delta")
        a = numerical_range_boundary(op, 24)
        b = numerical_range_boundary(op, 24)
        assert np.array_equal(a.points, b.points)



def pi_circulation():
    """7-vertex balanced graph with weights times pi and random measures."""
    base = gen_random_circulation(7, 3, seed=11)
    rng = np.random.default_rng(7)
    return build_graph(
        rng.uniform(0.25, 4.0, base.n), [(u, v, w * np.pi) for u, v, w in base.edges()]
    )


SWEEP_OPERATORS = {
    "cycle3": lambda: assemble(gen_cycle(3), "delta"),
    "pi_circulation": lambda: assemble(pi_circulation(), "normalized_delta"),
    "dirichlet": lambda: dirichlet(assemble(pi_circulation(), "delta"), [0, 2, 3, 5]),
}
SWEEP_ANGLES = (4, 5, 7, 16, 96)


def complex_operator():
    """An operator whose numerical range has no mirror symmetry."""
    op = SWEEP_OPERATORS["pi_circulation"]()
    return Operator(matrix=op.matrix * np.exp(0.3j), metric=op.metric, kind=op.kind)


def solved_angles(n_angles, real):
    """How many angles the sweep solves: n_angles // 4 + 1 for a real
    operator and an even count, n_angles // 2 + 1 for a real operator and
    an odd count, n_angles / 2 for a complex operator and an even count,
    and every angle for a complex operator and an odd count."""
    if real:
        return (n_angles // 4 if n_angles % 2 == 0 else n_angles // 2) + 1
    return n_angles // 2 if n_angles % 2 == 0 else n_angles


def assert_matches_full_sweep(op, n_angles):
    """Compare the paired sweep with the every-angle eigh oracle: every
    point by its support value, and by the point itself where the top
    eigenvalue of its direction is simple. The sweep finds its vectors by
    another solver, so no point is compared by bytes."""
    bdry = numerical_range_boundary(op, n_angles)
    angles, expected = full_sweep_boundary(op, n_angles)
    assert bdry.angles.tobytes() == angles.tobytes()
    a = to_euclidean(op)
    for k in range(n_angles):
        p, q = bdry.points[k], expected[k]
        tol = 1e-12 * (1.0 + abs(q))
        direction = np.exp(1j * angles[k])
        assert abs((p * direction).real - (q * direction).real) <= tol
        # where the top eigenvalue is multiple, the range has a flat edge
        # normal to this direction (the 3-cycle's triangle at 96 angles)
        # and any point of that edge is a valid answer
        rotated = direction * a
        top = np.linalg.eigvalsh(0.5 * (rotated + rotated.conj().T))[-2:]
        if top[1] - top[0] > 1e-8:
            assert abs(p - q) <= tol
    return bdry


class TestMirroredSweep:
    @pytest.mark.parametrize("n_angles", SWEEP_ANGLES)
    @pytest.mark.parametrize("name", sorted(SWEEP_OPERATORS))
    def test_real_operator_matches_full_sweep(self, name, n_angles):
        bdry = assert_matches_full_sweep(SWEEP_OPERATORS[name](), n_angles)
        # bitwise conjugates, except at the two real-axis directions
        for k in set(range(1, n_angles)) - {n_angles // 2 if n_angles % 2 == 0 else None}:
            assert bdry.points[k].tobytes() == bdry.points[n_angles - k].conj().tobytes()

    @pytest.mark.parametrize("n_angles", SWEEP_ANGLES)
    def test_complex_operator_solves_every_angle(self, n_angles):
        # no point is a mirror: each is the extreme eigenvector of its own
        # direction, from the top of its own solve or the bottom of the
        # opposite angle's
        assert_matches_full_sweep(complex_operator(), n_angles)

    @pytest.mark.parametrize("n_angles, solves", [(4, 2), (5, 3), (16, 5), (360, 91)])
    def test_eigensolve_count(self, monkeypatch, n_angles, solves):
        # one eigenvalue-only solve per solved angle, and no eigh
        calls = []
        linalg = dirlap.spectral.np.linalg
        eigvalsh = linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        def no_eigh(*args, **kwargs):
            raise AssertionError("the sweep calls eigh")

        monkeypatch.setattr(linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(linalg, "eigh", no_eigh)
        numerical_range_boundary(assemble(gen_cycle(3), "delta"), n_angles)
        assert len(calls) == solves == solved_angles(n_angles, True)
        calls.clear()
        numerical_range_boundary(complex_operator(), n_angles)
        assert len(calls) == solved_angles(n_angles, False)

    def test_inverse_iteration_gives_up_after_three_solves(self, monkeypatch):
        # with a residual bound of 0 no solve is good enough
        calls = []
        solve = dirlap.spectral.np.linalg.solve

        def counting_solve(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(dirlap.spectral.np.linalg, "solve", counting_solve)
        monkeypatch.setattr(dirlap.spectral, "_RESIDUAL_ULPS", 0)
        with pytest.raises(NoConvergenceError, match="3 solves"):
            numerical_range_boundary(SWEEP_OPERATORS["pi_circulation"](), 8)
        assert len(calls) == 3


def work_matrix(op, theta):
    """H(theta) / ||A||_2, the matrix the sweep's inverse iteration shifts."""
    a = to_euclidean(op)
    rotated = np.exp(1j * theta) * a / np.linalg.norm(a, 2)
    return 0.5 * (rotated + rotated.conj().T)


class TestWorkMatrix:
    """_extreme_vector shifts the diagonal of the sweep's one work matrix in
    place and leaves the matrix bit for bit as it found it."""

    OPERATORS = {"real": SWEEP_OPERATORS["pi_circulation"], "complex": complex_operator}

    def extremes(self, name):
        h = work_matrix(self.OPERATORS[name](), 0.7)
        vals = np.linalg.eigvalsh(h)
        start = SplitMix64(dirlap.spectral._START_SEED).complex_vector(h.shape[0])
        shift = dirlap.spectral._SHIFT
        return h, [vals[-1] + shift, vals[0] - shift], start

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_returns_the_matrix_unchanged(self, name):
        h, sigmas, start = self.extremes(name)
        before = h.tobytes()
        for sigma in sigmas:
            x = dirlap.spectral._extreme_vector(h, sigma, start)
            assert h.tobytes() == before
            hx = h @ x
            assert np.linalg.norm(hx - (x.conj() @ hx) * x) <= 1e-12

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_failed_solve_leaves_the_matrix_unchanged(self, monkeypatch, name):
        h, sigmas, start = self.extremes(name)
        before = h.tobytes()

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(dirlap.spectral.np.linalg, "solve", singular)
        for sigma in sigmas:
            with pytest.raises(np.linalg.LinAlgError):
                dirlap.spectral._extreme_vector(h, sigma, start)
            assert h.tobytes() == before
        with pytest.raises(NoConvergenceError, match="Singular matrix"):
            numerical_range_boundary(self.OPERATORS[name](), 8)

    def test_unconverged_iteration_leaves_the_matrix_unchanged(self, monkeypatch):
        h, sigmas, start = self.extremes("real")
        before = h.tobytes()
        monkeypatch.setattr(dirlap.spectral, "_RESIDUAL_ULPS", 0)
        with pytest.raises(NoConvergenceError, match="3 solves"):
            dirlap.spectral._extreme_vector(h, sigmas[0], start)
        assert h.tobytes() == before


def test_sweep_allocates_no_matrix_per_angle():
    # A, its two real halves and one complex work matrix are 4 * 8 n^2
    # bytes, within four complex n x n matrices; a fresh matrix per angle
    # or extreme, or a complex copy of A, goes past that
    n = 300
    op = assemble(gen_random_circulation(n, 150, 1), "normalized_delta")
    assert traced_peak(numerical_range_boundary, op, 360) <= 4 * 16 * n**2


class TestSweepProperties:
    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(g=cycle_sums(), n_angles=st.integers(4, 40))
    def test_points_attain_the_support_function(self, g, n_angles):
        for kind in ("delta", "normalized_delta"):
            op = assemble(g, kind)
            bdry = numerical_range_boundary(op, n_angles)
            a = to_euclidean(op)
            for theta, p in zip(bdry.angles, bdry.points):
                rotated = np.exp(1j * theta) * a
                top = np.linalg.eigvalsh(0.5 * (rotated + rotated.conj().T))[-1]
                assert abs((p * np.exp(1j * theta)).real - top) <= 1e-12 * (1.0 + abs(top))
            if kind == "normalized_delta":
                # the Schur test puts W(A) in the disc |z - 1| <= 1
                assert np.all(np.abs(bdry.points - 1.0) <= 1.0 + 1e-12)


class TestNu:
    def test_positive_for_connected_dirichlet_restriction(self):
        op = dirichlet(assemble(gen_cycle(5), "normalized_delta"), [0, 1, 2])
        assert nu(op) > 0.0

    def test_zero_for_full_balanced_operator(self):
        op = assemble(gen_random_circulation(7, 3, seed=2), "normalized_delta")
        assert nu(op) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_on_two_vertex_restriction(self):
        # [[1, -1], [0, 1]] has Hermitian part [[1, -1/2], [-1/2, 1]],
        # eigenvalues 1/2 and 3/2
        op = dirichlet(assemble(gen_cycle(3), "delta"), [0, 1])
        assert nu(op) == pytest.approx(0.5, abs=1e-12)


class TestOperatorNorm:
    def test_cycle_norm_sqrt3(self):
        op = assemble(gen_cycle(3), "normalized_delta")
        assert operator_norm(op) == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_never_exceeds_two_for_normalized(self):
        for seed in range(8):
            g = gen_random_circulation(9, 4, seed=seed)
            assert operator_norm(assemble(g, "normalized_delta")) <= 2.0 + 1e-10

    def test_agrees_with_rayleigh_bound(self):
        g = gen_opposing_cycles(4)
        op = assemble(g, "normalized_delta")
        a = to_euclidean(op)
        norm = operator_norm(op)
        rng = SplitMix64(3)
        for _ in range(25):
            f = rng.complex_vector(4)
            assert np.linalg.norm(a @ f) <= norm * np.linalg.norm(f) + 1e-10


class TestKernelDimension:
    def test_connected_balanced_graph_has_simple_kernel(self):
        for seed in range(5):
            g = gen_random_circulation(8, 3, seed=seed)
            assert kernel_dimension(assemble(g, "normalized_delta")) == 1

    def test_two_components_give_two(self):
        g = build_graph(
            [1.0] * 6,
            [(i, (i + 1) % 3, 1.0) for i in range(3)]
            + [(3 + i, 3 + (i + 1) % 3, 1.0) for i in range(3)],
        )
        assert kernel_dimension(assemble(g, "normalized_delta")) == 2

    def test_dirichlet_restriction_kills_kernel(self):
        op = dirichlet(assemble(gen_cycle(6), "normalized_delta"), [0, 1, 2])
        assert kernel_dimension(op) == 0

    def test_tolerance_scales_with_the_operator(self):
        # measures x 2^40 scale the spectrum by exactly 2^-40
        base = gen_random_circulation(300, 150, 0)
        scaled = build_graph([2.0**40] * base.n, base.edges())
        assert kernel_dimension(assemble(scaled, "delta")) == 1
        tiny = gen_cycle(3, 1e-9)
        assert kernel_dimension(assemble(tiny, "delta")) == 1
