import numpy as np
import pytest

from twopointwave import (
    Forcing,
    Mesh,
    ProblemParams,
    assemble,
    load_vector,
    norm_1_sq,
    norm_a_sq,
    sup_norm,
    uniform_mesh,
)
from twopointwave.errors import DimensionError, MeshError
from twopointwave.galerkin import BandedOperator
from twopointwave.properties import random_admissible_params

P = ProblemParams(h0=1.0, h1=0.0, lam0=1.0, lam1=1.0, ht0=0.0, ht1=0.0,
                  lt0=0.0, lt1=0.0, K=1.0, lam=1.0)
# every constant nonzero and distinct, so no corner term can hide another
DISTINCT = ProblemParams(h0=1.3, h1=0.45, lam0=0.8, lam1=1.7, ht0=0.21, ht1=-0.37,
                         lt0=0.55, lt1=-0.12, K=0.9, lam=0.65)


def dense_closed_form(n, p):
    """The operators written out entry by entry from the weak form."""
    h = 1.0 / (n - 1)
    M = np.zeros((n, n))
    S = np.zeros((n, n))
    for e in range(n - 1):
        for i in (e, e + 1):
            for j in (e, e + 1):
                M[i, j] += h / 3.0 if i == j else h / 6.0
                S[i, j] += 1.0 / h if i == j else -1.0 / h
    last = n - 1
    A = S.copy()
    A[0, 0] += p.h0
    A[last, last] += p.h1
    D = np.zeros((n, n))
    D[0, 0] += p.lam0
    D[0, last] += p.lt1
    D[last, last] += p.lam1
    D[last, 0] += p.lt0
    B = np.zeros((n, n))
    B[0, last] += p.ht1
    B[last, 0] += p.ht0
    return dict(M=M, S=S, A=A, D=D, B=B, C_mat=p.lam * M + D, K_mat=A + p.K * M + B)


@pytest.mark.parametrize("n", [2, 3, 9])
def test_sparse_assembly_matches_dense_closed_form(n):
    # at n = 2 the corners (0, 1) and (1, 0) are also the off-diagonals
    sys = assemble(uniform_mesh(n), DISTINCT)
    rows = np.random.default_rng(n).standard_normal((5, n))
    for name, expected in dense_closed_form(n, DISTINCT).items():
        op = getattr(sys, name)
        np.testing.assert_allclose(op.toarray(), expected, rtol=1e-14, atol=1e-14,
                                   err_msg=name)
        dense = op.toarray()
        csr = op.tocsr()
        assert csr.nnz <= 3 * n + 2, name
        np.testing.assert_array_equal(csr.toarray(), dense, err_msg=name)
        for got, want in ((op.form(rows), np.einsum("ki,ij,kj->k", rows, dense, rows)),
                          (op.form(rows, rows[::-1]),
                           np.einsum("ki,ij,kj->k", rows, dense, rows[::-1]))):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13, err_msg=name)
        # a sum and scalar multiples, with a numpy scalar on either side (C_mat
        # and K_mat above are sums of scaled operators)
        np.testing.assert_array_equal((op + op).toarray(), 2.0 * dense, err_msg=name)
        for scaled in (-0.5 * op, op * -0.5, np.float64(-0.5) * op):
            assert isinstance(scaled, BandedOperator), name
            np.testing.assert_array_equal(scaled.toarray(), -0.5 * dense, err_msg=name)


def test_two_node_matrices():
    sys = assemble(uniform_mesh(2), P)
    np.testing.assert_allclose(sys.M.toarray(), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)
    np.testing.assert_allclose(sys.S.toarray(), [[1, -1], [-1, 1]], atol=1e-15)
    np.testing.assert_allclose(sys.A.toarray(), [[2, -1], [-1, 1]], atol=1e-15)
    np.testing.assert_allclose(sys.D.toarray(), np.eye(2), atol=1e-15)


def test_zero_boundary_constants_give_zero_couplings():
    p = ProblemParams(h0=1.0, h1=0.0, lam0=0.0, lam1=0.0, ht0=0.0, ht1=0.0,
                      lt0=0.0, lt1=0.0, K=0.0, lam=0.0)
    sys = assemble(uniform_mesh(9), p)
    assert np.all(sys.D.toarray() == 0.0)
    assert np.all(sys.B.toarray() == 0.0)


def test_mesh_errors():
    with pytest.raises(MeshError):
        uniform_mesh(1)
    warped = Mesh(n_nodes=4, nodes=np.array([0.0, 0.2, 0.7, 1.0]), h=1 / 3)
    with pytest.raises(MeshError):
        assemble(warped, P)


def test_neumann_limit_stiffness_has_zero_row_sums():
    p = ProblemParams(h0=0.0, h1=0.0, lam0=1.0, lam1=1.0, ht0=0.0, ht1=0.0,
                      lt0=0.0, lt1=0.0, K=0.0, lam=0.0)
    sys = assemble(uniform_mesh(17), p)
    np.testing.assert_allclose(sys.A.toarray(), sys.S.toarray(), atol=1e-15)
    np.testing.assert_allclose(sys.S.toarray(), sys.S.toarray().T, atol=1e-15)
    np.testing.assert_allclose(sys.S.toarray().sum(axis=1), 0.0, atol=1e-12)


def test_coupling_matrices_have_small_rank():
    p = ProblemParams(h0=1.0, h1=0.5, lam0=1.0, lam1=2.0, ht0=0.3, ht1=-0.2,
                      lt0=0.4, lt1=-0.1, K=1.0, lam=1.0)
    sys = assemble(uniform_mesh(33), p)
    antisym = 0.5 * (sys.D.toarray() - sys.D.toarray().T)
    assert np.linalg.matrix_rank(antisym, tol=1e-12) <= 2
    assert np.linalg.matrix_rank(sys.B.toarray(), tol=1e-12) <= 2


class TestBatchedLoadVector:
    TIMES = np.concatenate([[0.0], 0.0137 * np.arange(1, 300) + 0.5e-3])

    @pytest.mark.parametrize("n", [2, 9, 65])
    def test_rows_equal_per_time_calls(self, n, batch_forcing):
        sys = assemble(uniform_mesh(n), DISTINCT)
        rows = load_vector(sys, batch_forcing, self.TIMES)
        assert rows.shape == (len(self.TIMES), n)
        for t, row in zip(self.TIMES, rows):
            np.testing.assert_array_equal(row, load_vector(sys, batch_forcing, t))

    def test_one_time_gives_one_vector(self, batch_forcing):
        sys = assemble(uniform_mesh(9), DISTINCT)
        for t in (0.25, np.float64(0.25), np.array(0.25)):
            assert load_vector(sys, batch_forcing, t).shape == (9,)
        assert load_vector(sys, batch_forcing, [0.25]).shape == (1, 9)


class TestLoadVector:
    def test_zero_forcing(self):
        sys = assemble(uniform_mesh(5), P)
        np.testing.assert_array_equal(load_vector(sys, Forcing(), 0.3), np.zeros(5))

    def test_boundary_data_hits_traces(self):
        sys = assemble(uniform_mesh(2), P)
        F = load_vector(sys, Forcing(g0=lambda t: 1.0), 0.0)
        np.testing.assert_allclose(F, [-1.0, 0.0], atol=1e-15)

    def test_unit_interior_load(self):
        sys = assemble(uniform_mesh(2), P)
        F = load_vector(sys, Forcing(f=lambda x, t: np.ones_like(x)), 0.0)
        np.testing.assert_allclose(F, [0.5, 0.5], atol=1e-15)

    def test_smooth_load_against_fine_simpson(self):
        from scipy.integrate import simpson

        sys = assemble(uniform_mesh(9), P)
        f = lambda x, t: np.sin(3.0 * x + t)  # noqa: E731
        F = load_vector(sys, Forcing(f=f), 0.7)
        # reference: composite Simpson on a fine subgrid of each element
        xs = np.linspace(0.0, 1.0, 8 * 64 + 1)
        for j in range(9):
            hat = np.zeros(9)
            hat[j] = 1.0
            wj = np.interp(xs, sys.mesh.nodes, hat)
            ref = simpson(f(xs, 0.7) * wj, x=xs)
            assert F[j] == pytest.approx(ref, abs=1e-8)


class TestNorms:
    def test_zero_vector(self):
        sys = assemble(uniform_mesh(4), P)
        z = np.zeros(4)
        assert norm_1_sq(sys, z) == 0.0
        assert norm_a_sq(sys, z) == 0.0
        assert sup_norm(sys, z) == 0.0

    def test_linear_function(self):
        sys = assemble(uniform_mesh(2), P)
        c = np.array([0.0, 1.0])  # v(x) = x
        assert norm_1_sq(sys, c) == pytest.approx(1.0)
        assert sup_norm(sys, c) == 1.0
        assert sup_norm(sys, c) <= np.sqrt(2.0) * np.sqrt(norm_1_sq(sys, c))

    def test_constant_function(self):
        sys = assemble(uniform_mesh(5), P)
        c = np.ones(5)
        assert norm_1_sq(sys, c) == pytest.approx(1.0)
        assert norm_a_sq(sys, c) == pytest.approx(1.0)  # h0*1 with h1 = 0

    @pytest.mark.parametrize("norm", [norm_1_sq, norm_a_sq, sup_norm])
    def test_stack_matches_per_vector_values(self, norm):
        sys = assemble(uniform_mesh(9), DISTINCT)
        stack = np.random.default_rng(3).uniform(-10.0, 10.0, (6, 9))
        values = norm(sys, stack)
        assert values.shape == (6,)
        per_vector = [norm(sys, c) for c in stack]
        assert all(isinstance(v, float) for v in per_vector)
        np.testing.assert_allclose(values, per_vector, rtol=1e-14)
        np.testing.assert_allclose(norm(sys, stack.reshape(2, 3, 9)),
                                   values.reshape(2, 3), rtol=1e-14)
        with pytest.raises(DimensionError):
            norm(sys, np.zeros((6, 8)))

    def test_dimension_mismatch(self):
        sys = assemble(uniform_mesh(4), P)
        with pytest.raises(DimensionError):
            norm_1_sq(sys, np.zeros(5))
        with pytest.raises(DimensionError):
            norm_a_sq(sys, np.zeros(3))
        with pytest.raises(DimensionError):
            sup_norm(sys, np.zeros(2))


def test_norm_equivalence_and_embedding_sweep():
    rng = np.random.default_rng(21)
    for n in (4, 17, 64):
        p = random_admissible_params(rng)
        sys = assemble(uniform_mesh(n), p)
        C0 = min(1.0, p.h0)
        C1 = max(1.0, p.h0) + 2.0 * p.h1
        for _ in range(300):
            c = rng.uniform(-10.0, 10.0, n)
            n1 = norm_1_sq(sys, c)
            na = norm_a_sq(sys, c)
            tol = 1e-12 * max(n1, 1.0)
            assert C0 * n1 <= na + tol
            assert na <= C1 * n1 + tol
            assert sup_norm(sys, c) <= np.sqrt(2.0 * n1) + 1e-12


# ----------------------------------------------------------------------
# faithfulness of the matrix form: compare against a term-by-term
# evaluation of the weak form with independently computed inner products
# ----------------------------------------------------------------------


def _simpson_inner(nodes, u_vals, w_vals):
    """Exact integral of a product of two piecewise-linear functions."""
    h = nodes[1] - nodes[0]
    mids_u = 0.5 * (u_vals[:-1] + u_vals[1:])
    mids_w = 0.5 * (w_vals[:-1] + w_vals[1:])
    return float(np.sum(
        (h / 6.0)
        * (u_vals[:-1] * w_vals[:-1] + 4.0 * mids_u * mids_w + u_vals[1:] * w_vals[1:])
    ))


def _grad_inner(nodes, u_vals, w_vals):
    h = nodes[1] - nodes[0]
    du = np.diff(u_vals) / h
    dw = np.diff(w_vals) / h
    return float(np.sum(h * du * dw))


def test_semi_discrete_residual_matches_weak_form():
    p = ProblemParams(h0=1.2, h1=0.4, lam0=0.8, lam1=1.5, ht0=0.2, ht1=-0.3,
                      lt0=0.25, lt1=-0.15, K=0.7, lam=0.9)
    sys = assemble(uniform_mesh(9), p)
    nodes = sys.mesh.nodes
    rng = np.random.default_rng(99)
    g0 = lambda t: 0.4 * np.cos(t)  # noqa: E731
    g1 = lambda t: -0.7 * t  # noqa: E731
    forcing = Forcing(g0=g0, g1=g1)
    for _ in range(5):
        c = rng.standard_normal(9)
        v = rng.standard_normal(9)
        a = rng.standard_normal(9)
        t = rng.uniform(0.0, 2.0)
        matrix_residual = (
            sys.M.toarray() @ a + sys.C_mat.toarray() @ v + sys.K_mat.toarray() @ c
            - load_vector(sys, forcing, t)
        )
        for j in range(9):
            w = np.zeros(9)
            w[j] = 1.0
            direct = (
                _simpson_inner(nodes, a, w)
                + _grad_inner(nodes, c, w) + p.h0 * c[0] * w[0] + p.h1 * c[-1] * w[-1]
                + (p.lam0 * v[0] + p.ht1 * c[-1] + p.lt1 * v[-1]) * w[0]
                + (p.lam1 * v[-1] + p.ht0 * c[0] + p.lt0 * v[0]) * w[-1]
                + p.K * _simpson_inner(nodes, c, w) + p.lam * _simpson_inner(nodes, v, w)
                + g0(t) * w[0] + g1(t) * w[-1]
            )
            assert matrix_residual[j] == pytest.approx(direct, abs=1e-12)
