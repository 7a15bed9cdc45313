import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdtok import spdcore
from spdtok.embedding import embed_batch, embed_backward
from spdtok.errors import DimMismatch, DomainError, NoConvergence, NonFinite
from spdtok.spdcore import (
    IDENTITY,
    LOG,
    SQRT,
    SpectralFn,
    condition_ratio,
    dk_matrix,
    eig_sym,
    eig_sym_batch,
    gradient_norm_bound,
    spectral_apply,
    spectral_apply_batch,
    spectral_backward,
    sym,
)

from conftest import random_spd, random_symmetric, stdout_at_blas_threads

EXP = SpectralFn("exp", np.exp, np.exp)


def check_eigenpair(eig, C):
    d = C.shape[0]
    V, lam = eig.vectors, eig.values
    assert np.max(np.abs(V.T @ V - np.eye(d))) <= 1e-10
    assert np.linalg.norm((V * lam) @ V.T - C) <= 1e-9 * max(np.linalg.norm(C), 1e-300)
    assert np.all(np.diff(lam) <= 0.0)


class TestEigSym:
    def test_identity(self):
        eig = eig_sym(np.eye(3))
        assert np.array_equal(eig.values, np.ones(3))
        assert np.array_equal(np.abs(eig.vectors), np.eye(3))

    def test_diagonal(self):
        eig = eig_sym(np.diag([4.0, 1.0]))
        assert np.allclose(eig.values, [4.0, 1.0])
        assert np.allclose(np.abs(eig.vectors), np.eye(2))

    def test_2x2_characteristic_polynomial(self):
        # roots of x^2 - 4x + 3 computed by the quadratic formula
        a, b, c = 1.0, -4.0, 3.0
        disc = np.sqrt(b * b - 4 * a * c)
        roots = sorted([(-b + disc) / (2 * a), (-b - disc) / (2 * a)], reverse=True)
        eig = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eig.values, roots, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 22])
    def test_invariants_random(self, rng, d):
        for _ in range(5):
            C = random_spd(rng, d, kappa=10 ** rng.uniform(0, 4))
            check_eigenpair(eig_sym(C), C)

    def test_sign_convention(self, rng):
        C = random_spd(rng, 6)
        V = eig_sym(C).vectors
        for k in range(6):
            col = V[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self, rng):
        C = random_spd(rng, 22, kappa=1000)
        e1 = eig_sym(C.copy())
        e2 = eig_sym(C.copy())
        assert np.array_equal(e1.vectors, e2.vectors)
        assert np.array_equal(e1.values, e2.values)

    def test_nonfinite_rejected(self):
        C = np.eye(3)
        C[0, 1] = np.nan
        with pytest.raises(NonFinite):
            eig_sym(C)

    def test_lapack_failure_raises_no_convergence(self, rng, monkeypatch):
        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NoConvergence, match="did not converge"):
            eig_sym(random_spd(rng, 8))
        with pytest.raises(NoConvergence):
            eig_sym_batch(np.stack([random_spd(rng, 3) for _ in range(2)]))

    def test_empty_matrices_rejected(self):
        # a 0 x 0 matrix has no eigenpair to put in canonical form
        with pytest.raises(DimMismatch):
            eig_sym_batch(np.zeros((2, 0, 0)))
        with pytest.raises(DimMismatch):
            eig_sym(np.zeros((0, 0)))

    def test_batch_invariance_bitwise(self, rng):
        Cs = np.stack([random_spd(rng, 22, kappa=10 ** rng.uniform(0, 4)) for _ in range(80)])
        V, lam = eig_sym_batch(Cs)
        for i in range(80):
            eig = eig_sym(Cs[i])
            assert eig.vectors.tobytes() == V[i].tobytes()
            assert eig.values.tobytes() == lam[i].tobytes()

    def test_batch_matches_invariants(self, rng):
        Cs = np.stack([random_spd(rng, 5) for _ in range(7)])
        V, lam = eig_sym_batch(Cs)
        for i in range(7):
            check_eigenpair(spdcore.EigenPair(V[i], lam[i]), Cs[i])

    @pytest.mark.parametrize("ties", [False, True])
    def test_canonical_form_is_the_stable_descending_sort(self, rng, ties):
        # LAPACK's ascending output put in canonical form by a stable sort
        # of -values and the sign rule; exact ties keep LAPACK's order
        Cs = np.stack([random_spd(rng, 6) for _ in range(5)])
        if ties:
            Cs[1] = np.eye(6)
            Cs[3] = np.diag([2.0, 1.0, 2.0, 3.0, 1.0, 2.0])
        w, U = np.linalg.eigh(Cs)
        order = np.argsort(-w, axis=1, kind="stable")
        want_vals = np.take_along_axis(w, order, axis=1)
        U = np.take_along_axis(U, order[:, None, :], axis=2)
        picked = np.take_along_axis(U, np.argmax(np.abs(U), axis=1)[:, None, :], axis=1)
        want_V = U * np.where(picked < 0.0, -1.0, 1.0)
        V, vals = eig_sym_batch(Cs)
        assert V.tobytes() == want_V.tobytes() and vals.tobytes() == want_vals.tobytes()
        assert V.flags.c_contiguous and vals.flags.c_contiguous


class TestSpectralApply:
    def test_sqrt_diagonal(self):
        out = spectral_apply(np.diag([4.0, 9.0]), SQRT)
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    def test_log_identity_is_zero(self):
        assert np.max(np.abs(spectral_apply(np.eye(4), LOG))) <= 1e-12

    def test_sqrt_squares_back(self):
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        R = spectral_apply(C, SQRT)
        assert np.max(np.abs(R @ R - C)) <= 1e-10

    @pytest.mark.parametrize("d", [2, 5, 8, 22])
    def test_reconstruction_laws(self, rng, d):
        C = random_spd(rng, d, kappa=100)
        S = spectral_apply(C, SQRT)
        assert np.linalg.norm(S @ S - C) <= 1e-8 * np.linalg.norm(C)
        L = spectral_apply(C, LOG)
        back = spectral_apply(L, EXP, clip=-np.inf)
        assert np.linalg.norm(back - C) <= 1e-8 * np.linalg.norm(C)

    def test_clip_floor_applied(self):
        C = np.diag([1.0, 0.0])
        out = spectral_apply(C, LOG, clip=1e-12)
        assert np.isclose(out[1, 1], np.log(1e-12))

    def test_batch_matches_single(self, rng):
        Cs = np.stack([random_spd(rng, 6) for _ in range(4)])
        batch = spectral_apply_batch(Cs, SQRT)
        for i in range(4):
            assert np.allclose(batch[i], spectral_apply(Cs[i], SQRT), atol=1e-11)
        one = spectral_apply_batch(Cs[:1], SQRT)[0]
        assert one.tobytes() == spectral_apply(Cs[0], SQRT).tobytes()


class TestDkMatrix:
    def test_sqrt_example(self):
        dk = dk_matrix(np.array([4.0, 1.0]), SQRT)
        # off-diagonal oracle: (sqrt(4) - sqrt(1)) / (4 - 1) = 1/3
        expected = np.array([[0.25, 1.0 / 3.0], [1.0 / 3.0, 0.5]])
        assert np.allclose(dk.entries, expected, rtol=0, atol=1e-15)
        assert dk.taylor_hits == 0 and dk.pairs == 1

    def test_identity_all_ones(self, rng):
        lam = np.exp(rng.uniform(-3, 3, 7))
        dk = dk_matrix(lam, IDENTITY)
        assert np.array_equal(dk.entries, np.ones((7, 7)))

    def test_log_example(self):
        dk = dk_matrix(np.array([np.e, 1.0]), LOG)
        assert np.isclose(dk.entries[0, 1], 1.0 / (np.e - 1.0), rtol=1e-14)
        assert np.isclose(dk.entries[0, 0], 1.0 / np.e, rtol=1e-14)

    def test_log_taylor_branch_matches_extended_precision(self):
        # inside the branch (|h| < 1e-8 * max): compare against the divided
        # difference evaluated in 80-bit extended precision
        lo = np.longdouble(1.0)
        h = np.longdouble(1e-9)
        hi = lo + h
        oracle = float((np.log(hi) - np.log(lo)) / h)
        dk = dk_matrix(np.array([1.0, 1.0 + 1e-9]), LOG)
        assert dk.taylor_hits == 1
        assert abs(dk.entries[0, 1] - oracle) <= 1e-10 * abs(oracle)
        # the two-term correction is ~5e-10 here, so a sign error in the
        # Taylor branch would miss the oracle by ~1e-9 relative
        assert abs(dk.entries[0, 1] - 1.0) > 1e-10

    def test_log_equal_eigenvalues_finite(self):
        dk = dk_matrix(np.array([2.0, 2.0, 5.0]), LOG)
        assert np.all(np.isfinite(dk.entries))
        assert np.isclose(dk.entries[0, 1], 0.5)
        assert dk.taylor_hits == 1

    def test_exact_symmetry(self, rng):
        lam = np.sort(np.exp(rng.uniform(-2, 2, 9)))[::-1]
        lam[3] = lam[2] * (1 + 1e-10)
        for fn in (SQRT, LOG, EXP):
            K = dk_matrix(lam, fn).entries
            assert np.array_equal(K, K.T)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            dk_matrix(np.array([1.0, -0.5]), SQRT)
        with pytest.raises(DomainError):
            dk_matrix(np.array([1.0, 0.0]), LOG)

    def test_sqrt_entry_bounds(self, rng):
        lam = np.exp(rng.uniform(-2, 4, 12))
        K = dk_matrix(lam, SQRT).entries
        lo = 1.0 / (2.0 * np.sqrt(lam.max()))
        hi = 1.0 / (2.0 * np.sqrt(lam.min()))
        assert np.all(K >= lo - 1e-15) and np.all(K <= hi + 1e-15)

    def test_spectrum_not_one_dimensional_rejected(self):
        with pytest.raises(DimMismatch):
            dk_matrix(np.array([[2.0, 1.0], [3.0, 1.0]]), SQRT)
        with pytest.raises(DimMismatch):
            dk_matrix(np.float64(2.0), LOG)

    def test_generic_fn_near_degenerate_uses_midpoint_derivative(self):
        dk = dk_matrix(np.array([3.0, 3.0]), EXP)
        assert np.isclose(dk.entries[0, 1], np.exp(3.0))


class TestConditionRatio:
    def test_flat_spectrum(self):
        assert condition_ratio([1.0, 1.0, 1.0]) == 1.0

    def test_kappa_100_ratio_pair(self):
        # at kappa = 100 the sqrt/log DK range ratios are exactly (10, 100)
        lam = np.array([100.0, 1.0])
        assert condition_ratio(lam) == 100.0
        sqrt_ratio = dk_matrix(lam, SQRT).entry_range_ratio
        log_ratio = dk_matrix(lam, LOG).entry_range_ratio
        assert abs(sqrt_ratio - 10.0) <= 1e-9 * 10.0
        assert abs(log_ratio - 100.0) <= 1e-9 * 100.0

    def test_exhaustive_scan_9_4_1(self):
        lam = np.array([9.0, 4.0, 1.0])
        assert condition_ratio(lam) == 9.0
        K = dk_matrix(lam, SQRT).entries
        scan = max(K[i, j] for i in range(3) for j in range(3)) / min(
            K[i, j] for i in range(3) for j in range(3)
        )
        assert np.isclose(scan, 3.0, rtol=1e-12)
        assert np.isclose(dk_matrix(lam, SQRT).entry_range_ratio, scan, rtol=0)

    def test_conditioning_law_random(self, rng):
        for d in (2, 5, 13, 22):
            for kappa in (10.0, 100.0, 1e4):
                lam = np.concatenate([[1.0, kappa], np.exp(rng.uniform(0, np.log(kappa), d - 2))])
                assert abs(dk_matrix(lam, SQRT).entry_range_ratio - np.sqrt(kappa)) <= 1e-6 * np.sqrt(kappa)
                assert abs(dk_matrix(lam, LOG).entry_range_ratio - kappa) <= 1e-6 * kappa

    def test_domain_error(self):
        with pytest.raises(DomainError):
            condition_ratio([0.0, 1.0])


def fd_directional(loss, C, E, h):
    return (loss(C + h * E) - loss(C - h * E)) / (2.0 * h)


class TestSpectralBackward:
    def test_identity_returns_symmetrized_upstream(self, rng):
        C = random_spd(rng, 4)
        G = rng.standard_normal((4, 4))
        out = spectral_backward(eig_sym(C), IDENTITY, G)
        assert np.allclose(out, sym(G), atol=1e-12)

    def test_sqrt_diagonal_case(self):
        eig = eig_sym(np.diag([4.0, 9.0]))
        out = spectral_backward(eig, SQRT, np.eye(2))
        assert np.allclose(out, np.diag([0.25, 1.0 / 6.0]), atol=1e-12)

    def test_dim_mismatch(self, rng):
        eig = eig_sym(random_spd(rng, 3))
        with pytest.raises(DimMismatch):
            spectral_backward(eig, SQRT, np.eye(4))
        with pytest.raises(DimMismatch):
            spectral_backward(eig, SQRT, np.eye(3)[None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_upstream_rejected(self, rng, bad):
        eig = eig_sym(random_spd(rng, 3))
        G = np.eye(3)
        G[0, 2] = bad
        for fn in (SQRT, LOG, IDENTITY):
            with pytest.raises(NonFinite):
                spectral_backward(eig, fn, G)

    @pytest.mark.parametrize("fn", [SQRT, LOG])
    def test_entrywise_finite_differences(self, rng, fn):
        d = 5
        C = random_spd(rng, d, kappa=50)
        G = random_symmetric(rng, d)
        grad = spectral_backward(eig_sym(C), fn, G)
        h = 1e-5 * np.linalg.norm(C)

        def loss(M):
            return float(np.sum(G * spectral_apply(M, fn)))

        tol = max(1e-5, 1e-3 * np.linalg.norm(grad))
        for i in range(d):
            for j in range(i, d):
                E = np.zeros((d, d))
                E[i, j] = E[j, i] = 1.0
                want = fd_directional(loss, C, E, h)
                got = float(np.sum(grad * E))
                assert abs(got - want) <= tol

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 22])
    def test_directional_finite_differences(self, rng, d):
        for fn in (SQRT, LOG):
            C = random_spd(rng, d, kappa=10 ** rng.uniform(0, 3))
            G = random_symmetric(rng, d)
            E = random_symmetric(rng, d)
            E /= np.linalg.norm(E)
            grad = spectral_backward(eig_sym(C), fn, G)
            h = 1e-5 * np.linalg.norm(C)

            def loss(M):
                return float(np.sum(G * spectral_apply(M, fn)))

            want = fd_directional(loss, C, E, h)
            got = float(np.sum(grad * E))
            assert abs(got - want) <= max(1e-5, 1e-3 * abs(want))

    @pytest.mark.parametrize("fn", [SQRT, LOG])
    def test_gradient_norm_bound(self, rng, fn):
        for _ in range(20):
            d = int(rng.integers(2, 9))
            C = random_spd(rng, d, kappa=10 ** rng.uniform(0, 4))
            G = random_symmetric(rng, d)
            G /= np.linalg.norm(G)
            eig = eig_sym(C)
            grad = spectral_backward(eig, fn, G)
            bound = gradient_norm_bound(fn, max(eig.values.min(), spdcore.CLIP_FLOOR))
            assert np.linalg.norm(grad) <= bound * 1.05


# d = 1 values: any finite number, the clip floor and zero included
ONE_BY_ONE = st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, spdcore.CLIP_FLOOR])),
                      min_size=1, max_size=6).map(lambda v: np.array(v).reshape(-1, 1, 1))
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, database=None)


class TestOneByOneAndZeroStacks:
    """d = 1 and stacks of zero matrices: the smallest spectra and the ones
    that sit wholly below the clip floor."""

    @PROPERTY
    @given(ONE_BY_ONE)
    def test_eig_one_by_one_is_the_entry(self, Cs):
        V, vals = eig_sym_batch(Cs)
        assert np.array_equal(V, np.ones_like(Cs))
        assert np.array_equal(vals, Cs[:, 0])

    @pytest.mark.parametrize("n, d", [(1, 1), (3, 1), (4, 5)])
    def test_eig_zero_stack(self, n, d):
        V, vals = eig_sym_batch(np.zeros((n, d, d)))
        assert np.array_equal(vals, np.zeros((n, d)))
        assert np.max(np.abs(np.swapaxes(V, 1, 2) @ V - np.eye(d))) <= 1e-15
        one = eig_sym(np.zeros((d, d)))
        assert all(V[i].tobytes() == one.vectors.tobytes() for i in range(n))

    @PROPERTY
    @given(ONE_BY_ONE, st.floats(-10.0, 10.0), st.sampled_from([SQRT, LOG, IDENTITY]))
    def test_backward_one_by_one_is_the_clipped_derivative(self, Cs, g, fn):
        for C in Cs:
            got = spectral_backward(eig_sym(C), fn, np.array([[g]]))
            want = fn.df(max(C[0, 0], spdcore.CLIP_FLOOR)) * g
            assert got.shape == (1, 1)
            assert abs(got[0, 0] - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("fn, slope", [(SQRT, 0.5e6), (LOG, 1e12), (IDENTITY, 1.0)])
    @pytest.mark.parametrize("d", [1, 4])
    def test_backward_at_zero_matrix_is_the_floor_slope(self, rng, fn, slope, d):
        # every eigenvalue is floored at CLIP_FLOOR, so the divided differences
        # all equal f'(CLIP_FLOOR) and the sandwich is that multiple of sym(G)
        G = rng.standard_normal((d, d))
        got = spectral_backward(eig_sym(np.zeros((d, d))), fn, G)
        assert np.allclose(got, slope * sym(G), rtol=1e-14, atol=0.0)
        assert np.array_equal(got, got.T)

    @PROPERTY
    @given(st.floats(1e-12, 1e6), st.sampled_from([SQRT, LOG, IDENTITY]))
    def test_dk_one_by_one(self, lam, fn):
        K = dk_matrix(np.array([lam]), fn)
        assert K.entries.shape == (1, 1)
        assert abs(K.entries[0, 0] - fn.df(lam)) <= 1e-15 * fn.df(lam)
        assert (K.pairs, K.taylor_hits, K.branch_fraction, K.entry_range_ratio) == (0, 0, 0.0, 1.0)

    @pytest.mark.parametrize("fn", [SQRT, LOG, IDENTITY])
    @pytest.mark.parametrize("d", [1, 4])
    def test_dk_of_zero_and_floored_spectra(self, fn, d):
        with pytest.raises(DomainError):
            dk_matrix(np.zeros(d), fn)
        K = dk_matrix(np.full(d, spdcore.CLIP_FLOOR), fn)
        assert np.allclose(K.entries, fn.df(spdcore.CLIP_FLOOR), rtol=1e-15, atol=0.0)
        assert np.array_equal(K.entries, K.entries.T)
        assert K.taylor_hits == (K.pairs if fn is LOG else 0)


QUARTIC = SpectralFn("quartic_root", lambda x: x ** 0.25, lambda x: 0.25 * x ** -0.75)


@st.composite
def spectral_stacks(draw):
    """(profile, eigenvectors, eigenvalues): n Haar-random bases and n spectra
    sorted descending, clustered (pairs within 1e-9 relative), graded with
    kappa up to 1e8, or around CLIP_FLOOR (at, below and just above it)."""
    d = draw(st.sampled_from([1, 2, 3, 8, 22]))
    n = draw(st.integers(1, 4))
    profile = draw(st.sampled_from(["clustered", "graded", "floor"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if profile == "clustered":
        base = np.repeat(np.geomspace(1.0, 100.0, (d + 1) // 2), 2)[:d]
        lams = base * (1.0 + rng.uniform(0.0, 1e-9, (n, d)))
    elif profile == "graded":
        kappa = 10.0 ** draw(st.floats(0.0, 8.0))
        lams = np.geomspace(1.0, kappa, d) * rng.uniform(0.5, 2.0, (n, d))
    else:
        scale = np.array([-1.0, 0.0, 0.5, 1.0, 1.0 + 1e-10, 2.0, 1e4])
        lams = spdcore.CLIP_FLOOR * rng.choice(scale, (n, d))
    V = np.stack([spdcore.random_orthogonal(rng, d) for _ in range(n)])
    return profile, V, -np.sort(-lams, axis=1)


class TestStackedBackward:
    """Row i of a stacked backward or DK call is the bits of the one-matrix
    call, on clustered, graded and near-floor spectra."""

    @PROPERTY
    @given(spectral_stacks(), st.sampled_from([SQRT, LOG, IDENTITY, QUARTIC]))
    def test_dk_rows_match_one_spectrum(self, stack, fn):
        profile, _, lams = stack
        lams = np.maximum(lams, spdcore.CLIP_FLOOR)
        K, hits = spdcore._dk_kernel(lams, fn)
        assert np.array_equal(K, np.swapaxes(K, 1, 2))
        for i, lam in enumerate(lams):
            one = dk_matrix(lam, fn)
            assert K[i].tobytes() == one.entries.tobytes()
            assert hits[i] == one.taylor_hits
        if fn is LOG and profile == "clustered" and lams.shape[1] > 1:
            assert np.all(hits > 0)

    @PROPERTY
    @given(spectral_stacks(), st.sampled_from([SQRT, LOG, IDENTITY, QUARTIC]),
           st.integers(0, 2 ** 32 - 1))
    def test_spectral_backward_rows_match_one_matrix(self, stack, fn, seed):
        _, V, lams = stack
        G = np.random.default_rng(seed).standard_normal(V.shape)
        stacked = spectral_backward(spdcore.EigenPair(V, lams), fn, G)
        for i in range(len(V)):
            one = spectral_backward(spdcore.EigenPair(V[i], lams[i]), fn, G[i])
            assert stacked[i].tobytes() == one.tobytes()

    @PROPERTY
    @given(spectral_stacks(), st.sampled_from(["bwspd", "logeuclidean", "euclidean"]),
           st.integers(0, 2 ** 32 - 1))
    def test_embed_backward_rows_match_one_matrix(self, stack, kind, seed):
        _, V, lams = stack
        Cs = spdcore.spectral_reconstruct(V, lams, IDENTITY, clip=-np.inf)
        d = Cs.shape[-1]
        W = np.random.default_rng(seed).standard_normal((len(Cs), d * (d + 1) // 2))
        stacked = embed_backward(Cs, kind, W)
        for i in range(len(Cs)):
            assert stacked[i].tobytes() == embed_backward(Cs[i], kind, W[i]).tobytes()

    def test_leading_axes_are_kept(self, rng):
        Cs = np.stack([random_spd(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        V, vals = eig_sym_batch(Cs.reshape(6, 4, 4))
        G = rng.standard_normal((2, 3, 4, 4))
        out = spectral_backward(spdcore.EigenPair(V.reshape(Cs.shape), vals.reshape(2, 3, 4)),
                                LOG, G)
        flat = spectral_backward(spdcore.EigenPair(V, vals), LOG, G.reshape(6, 4, 4))
        assert out.shape == (2, 3, 4, 4)
        assert out.tobytes() == flat.tobytes()


@st.composite
def conditioned_spd(draw):
    """(C, spectrum): one SPD matrix of a Haar-random basis whose spectrum is
    clustered (relative spread 1e-14 to 1e-3, so the log Taylor branch and
    the plain quotient both occur), graded with kappa up to 1e8, or wholly
    just above CLIP_FLOOR (1.001 to 1e4 times it)."""
    d = draw(st.sampled_from([2, 3, 5, 8]))
    profile = draw(st.sampled_from(["clustered", "graded", "near_floor"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if profile == "clustered":
        spread = 10.0 ** draw(st.floats(-14.0, -3.0))
        lam = 10.0 ** draw(st.floats(-2.0, 2.0)) * (1.0 + spread * rng.uniform(0.0, 1.0, d))
    elif profile == "graded":
        kappa = 10.0 ** draw(st.floats(0.0, 8.0))
        lam = np.geomspace(1.0, 1.0 / kappa, d) * 10.0 ** draw(st.floats(-2.0, 2.0))
    else:
        lam = spdcore.CLIP_FLOOR * 10.0 ** rng.uniform(1e-3 / np.log(10.0), 4.0, d)
    lam = -np.sort(-lam)
    C = spdcore.spectral_reconstruct(spdcore.random_orthogonal(rng, d), lam, IDENTITY,
                                     clip=-np.inf)
    return C, lam


EPS = np.finfo(np.float64).eps
# Tolerances from the accuracy table in the spdcore docstring. eigh is normwise
# accurate: its eigenpairs reproduce C to a few eps * ||C|| per dimension, so a
# round trip through sqrt or log is held to ROUND_TRIP eps per dimension of
# ||C|| (log's is scaled by 1 + max |log lambda|, the norm of log C, since exp
# amplifies an error in log C by ||C||). A small eigenvalue carries a relative
# error of up to 6.3e-9 at kappa = 1e8 (the table's worst eigh entry there), so
# a central difference stepped by FD_STEP = 1e-4 of the smallest eigenvalue
# reads it with a relative error near 6e-5; FD_TOL, 1e-3 of ||dL/dC||, leaves a
# tenfold margin over that, and over the step's own O(FD_STEP^2) truncation.
ROUND_TRIP = 64.0
FD_STEP = 1e-4
FD_TOL = 1e-3


class TestConditionedSpectra:
    """Round trips and gradients on clustered, graded and near-floor spectra."""

    @PROPERTY
    @given(conditioned_spd())
    def test_sqrt_squares_back(self, drawn):
        C, _ = drawn
        S = spectral_apply(C, SQRT)
        d = len(C)
        assert np.linalg.norm(S @ S - C) <= ROUND_TRIP * d * EPS * np.linalg.norm(C)

    @PROPERTY
    @given(conditioned_spd())
    def test_exp_inverts_log(self, drawn):
        C, lam = drawn
        back = spectral_apply(spectral_apply(C, LOG), EXP, clip=-np.inf)
        d = len(C)
        tol = ROUND_TRIP * d * EPS * (1.0 + np.max(np.abs(np.log(lam))))
        assert np.linalg.norm(back - C) <= tol * np.linalg.norm(C)

    @PROPERTY
    @given(conditioned_spd(), st.sampled_from(["bwspd", "logeuclidean"]),
           st.integers(0, 2 ** 32 - 1))
    def test_finite_differences_agree_with_embed_backward(self, drawn, kind, seed):
        C, lam = drawn
        d = len(C)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(d * (d + 1) // 2)
        E = random_symmetric(rng, d)
        E /= np.linalg.norm(E)
        G = embed_backward(C, kind, w)
        h = FD_STEP * lam[-1]
        hi, lo = embed_batch(np.stack([C + h * E, C - h * E]), kind) @ w
        assert abs((hi - lo) / (2.0 * h) - np.sum(G * E)) <= FD_TOL * np.linalg.norm(G)


CONE_PROFILES = ("zero", "singular", "indefinite", "graded", "near_floor", "spd")


@st.composite
def cone_stacks(draw):
    """(profiles, stack): n symmetric matrices, each zero, singular PSD,
    indefinite, graded SPD with kappa up to 1e8, with eigenvalues within 1e-3
    relative of CLIP_FLOOR, or SPD well above the floor."""
    d = draw(st.sampled_from([1, 2, 3, 8]))
    profiles = draw(st.lists(st.sampled_from(CONE_PROFILES), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for profile in profiles:
        if profile == "zero":
            mats.append(np.zeros((d, d)))
            continue
        lam = rng.uniform(0.5, 2.0, d)
        if profile == "singular":
            lam[rng.integers(d)] = 0.0
        elif profile == "indefinite":
            lam[rng.integers(d)] = -rng.uniform(1e-6, 1.0)
        elif profile == "graded":
            lam *= np.geomspace(1.0, 10.0 ** rng.uniform(0.0, 8.0), d)
        elif profile == "near_floor":
            lam = spdcore.CLIP_FLOOR * (1.0 + rng.uniform(-1e-3, 1e-3, d))
        Q = spdcore.random_orthogonal(rng, d)
        mats.append(spdcore.spectral_reconstruct(Q, lam, IDENTITY, clip=-np.inf))
    return profiles, np.stack(mats)


def passes_cholesky(C):
    try:
        np.linalg.cholesky(C - spdcore.CLIP_FLOOR * np.eye(len(C)))
    except np.linalg.LinAlgError:
        return False
    return True


class TestClipToCone:
    """The one cone clip: rows above the floor keep their bits, the others are
    their spectral_apply_batch(., IDENTITY) rows, and the input is not written."""

    @PROPERTY
    @given(cone_stacks())
    def test_rows(self, drawn):
        profiles, Cs = drawn
        before = Cs.copy()
        out = spdcore.clip_to_cone(Cs)
        assert Cs.tobytes() == before.tobytes()
        assert out.shape == Cs.shape
        for i, C in enumerate(Cs):
            assert out[i].tobytes() == spdcore.clip_to_cone(Cs[i:i + 1])[0].tobytes()
            if passes_cholesky(C):
                assert out[i].tobytes() == C.tobytes()
            else:
                assert out[i].tobytes() == spectral_apply_batch(C[None], IDENTITY)[0].tobytes()
            if profiles[i] in ("zero", "singular", "indefinite"):
                assert not passes_cholesky(C)
            # PSD up to the rebuild's rounding
            lam_min = np.linalg.eigvalsh(out[i])[0]
            assert lam_min >= -1e-14 * max(1.0, np.abs(out[i]).max())

    def test_zero_matrix_clips_to_the_floor(self):
        out = spdcore.clip_to_cone(np.zeros((2, 3, 3)))
        assert np.array_equal(out, np.broadcast_to(spdcore.CLIP_FLOOR * np.eye(3), (2, 3, 3)))

    def test_malformed_and_nonfinite_rejected(self):
        with pytest.raises(DimMismatch):
            spdcore.clip_to_cone(np.eye(3))
        with pytest.raises(DimMismatch):
            spdcore.clip_to_cone(np.zeros((2, 0, 0)))
        C = np.eye(3)[None].copy()
        C[0, 2, 2] = np.inf
        with pytest.raises(NonFinite):
            spdcore.clip_to_cone(C)


STACKED_BACKWARD_HASH = """
import hashlib
import numpy as np
from spdtok import spdcore
from spdtok.embedding import embed_backward

rng = np.random.default_rng(2024)
digest = hashlib.sha256()
for d in (22, 56):
    lams = np.exp(rng.uniform(0.0, np.log(1e4), (16, d)))
    V = np.stack([spdcore.random_orthogonal(rng, d) for _ in range(16)])
    G = rng.standard_normal((16, d, d))
    for fn in (spdcore.SQRT, spdcore.LOG):
        digest.update(spdcore.spectral_backward(spdcore.EigenPair(V, lams), fn, G).tobytes())
    Cs = spdcore.spectral_reconstruct(V, lams, spdcore.IDENTITY)
    W = rng.standard_normal((16, d * (d + 1) // 2))
    for kind in ("bwspd", "logeuclidean"):
        digest.update(embed_backward(Cs, kind, W).tobytes())
print(digest.hexdigest())
"""


def test_stacked_backward_bits_independent_of_blas_threads():
    hashes = {t: stdout_at_blas_threads(["-c", STACKED_BACKWARD_HASH], t) for t in ("1", "2")}
    assert hashes["1"] == hashes["2"]


# for each d: row i of one stacked draw equals the i-th one-matrix draw from
# the same generator, a leading axis more changes nothing, and Q^T Q = I
ORTHOGONAL_ROWS = """
import numpy as np
from spdtok.spdcore import orthogonal_from_normals, random_orthogonal
for d in (1, 2, 3, 8, 22, 56):
    Z = np.random.default_rng(d).standard_normal((5, d, d))
    Q = orthogonal_from_normals(Z)
    rng = np.random.default_rng(d)
    rows = all(np.array_equal(Q[i], random_orthogonal(rng, d)) for i in range(5))
    lead = np.array_equal(orthogonal_from_normals(Z.reshape(1, 5, d, d))[0], Q)
    drift = np.max(np.abs(np.swapaxes(Q, -1, -2) @ Q - np.eye(d)))
    print(d, rows, lead, drift <= 1e-12)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_stacked_orthogonal_draw_has_the_bits_of_one_matrix_draws(threads):
    lines = stdout_at_blas_threads(["-c", ORTHOGONAL_ROWS], threads).splitlines()
    assert lines == [f"{d} True True True" for d in (1, 2, 3, 8, 22, 56)]
