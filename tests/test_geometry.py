import numpy as np
import pytest

from spdtok.data import SynthSpec, synth_dataset
from spdtok.embedding import embed, unvech
from spdtok.errors import DimMismatch, InvalidSpec, NoConvergence
from spdtok.geometry import (
    _INV_SQRT,
    DistanceKind,
    barycenter_map,
    bw_barycenter,
    bw_distance,
    bw_distance_pairs,
    bw_distances_to,
    dispersion_report,
    distance,
    distance_pairs,
    distortion_check,
    logeuclidean_distance,
)
from spdtok.spdcore import CLIP_FLOOR, SQRT, eig_sym, spectral_apply, spectral_reconstruct, sym

from conftest import random_orthogonal, random_spd, random_symmetric


def commuting_pair(rng, d, lo=0.5, hi=4.0):
    Q = random_orthogonal(rng, d)
    a = rng.uniform(lo, hi, d)
    b = rng.uniform(lo, hi, d)
    return sym((Q * a) @ Q.T), sym((Q * b) @ Q.T)


class TestBwDistance:
    def test_self_distance_zero(self, rng):
        A = random_spd(rng, 5)
        assert bw_distance(A, A) <= 1e-7

    def test_hand_trace_oracle(self):
        # tr A + tr B - 2 tr((sqrt(A) B sqrt(A))^{1/2}) = 5 + 5 - 2*tr(diag(2,2)) = 2
        A = np.diag([4.0, 1.0])
        B = np.diag([1.0, 4.0])
        assert np.isclose(bw_distance(A, B), np.sqrt(2.0), atol=1e-10)

    def test_symmetry(self, rng):
        A = random_spd(rng, 6)
        B = random_spd(rng, 6)
        assert abs(bw_distance(A, B) - bw_distance(B, A)) <= 1e-9

    def test_commuting_equals_sqrt_frobenius(self, rng):
        for _ in range(10):
            A, B = commuting_pair(rng, 5)
            want = np.linalg.norm(spectral_apply(A, SQRT) - spectral_apply(B, SQRT))
            assert abs(bw_distance(A, B) - want) <= 1e-8

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            bw_distance(random_spd(rng, 3), random_spd(rng, 4))

    def test_batched_distances(self, rng):
        ref = random_spd(rng, 4)
        Cs = np.stack([random_spd(rng, 4) for _ in range(8)])
        batch = bw_distances_to(Cs, ref)
        for i in range(8):
            assert abs(batch[i] - bw_distance(Cs[i], ref)) <= 1e-9
        # one-matrix stacks: bit-identical to the one-pair entry point
        assert bw_distances_to(Cs[:1], ref)[0] == bw_distance(ref, Cs[0])
        assert bw_distance_pairs(ref[None], Cs[:1])[0] == bw_distance(ref, Cs[0])

    def test_indefinite_input_is_clipped_onto_the_cone(self):
        # sqrt floors the eigenvalue -4 at the 1e-12 clip, as every token does
        A = np.eye(2)
        B = np.diag([4.0, -4.0])
        clipped = np.diag([4.0, 1e-12])
        want = bw_distance(A, clipped)
        assert bw_distance(A, B) == want
        assert bw_distances_to(B[None], A)[0] == want
        assert bw_distance_pairs(A[None], B[None])[0] == want

    def test_pairs_match_scalar_bitwise(self, rng):
        As = np.stack([random_spd(rng, 3, kappa=10 ** rng.uniform(0, 2)) for _ in range(200)])
        Bs = np.stack([random_spd(rng, 3, kappa=10 ** rng.uniform(0, 2)) for _ in range(200)])
        batch = bw_distance_pairs(As, Bs)
        assert all(batch[i] == bw_distance(As[i], Bs[i]) for i in range(200))
        for kind in DistanceKind:
            batch = distance_pairs(As, Bs, kind)
            assert all(batch[i] == distance(As[i], Bs[i], kind) for i in range(200)), kind

    def test_self_distance_has_no_cancellation_floor(self, rng):
        As = np.stack([random_spd(rng, 4, kappa=10 ** rng.uniform(0, 2)) for _ in range(2000)])
        scale = np.maximum(1.0, np.sqrt(np.trace(As, axis1=1, axis2=2)))
        assert np.all(bw_distance_pairs(As, As) <= 1e-12 * scale)


class TestLogEuclideanDistance:
    def test_identity_pair(self):
        assert logeuclidean_distance(np.eye(3), np.eye(3)) <= 1e-12

    def test_diagonal_log(self):
        assert np.isclose(logeuclidean_distance(np.diag([np.e, 1.0]), np.eye(2)), 1.0, atol=1e-10)

    def test_matches_token_space_recomputation(self, rng):
        A = random_spd(rng, 5)
        B = random_spd(rng, 5)
        diff = embed(A, "logeuclidean") - embed(B, "logeuclidean")
        want = np.linalg.norm(unvech(diff))
        assert abs(logeuclidean_distance(A, B) - want) <= 1e-9


class TestMetricAxioms:
    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_symmetry_and_identity(self, rng, kind):
        for _ in range(20):
            A = random_spd(rng, 4)
            B = random_spd(rng, 4)
            assert distance(A, A, kind) <= 1e-7
            assert abs(distance(A, B, kind) - distance(B, A, kind)) <= 1e-7

    @pytest.mark.parametrize("kind", list(DistanceKind))
    def test_triangle_inequality(self, rng, kind):
        for _ in range(60):
            A, B, C = (random_spd(rng, 3, kappa=10 ** rng.uniform(0, 2)) for _ in range(3))
            assert distance(A, C, kind) <= distance(A, B, kind) + distance(B, C, kind) + 1e-9


class TestBarycenter:
    def test_singleton(self, rng):
        A = random_spd(rng, 4)
        mu = bw_barycenter(A[None])
        assert np.linalg.norm(mu - A) <= 1e-9 * np.linalg.norm(A)

    def test_duplicates(self, rng):
        A = random_spd(rng, 4)
        mu = bw_barycenter(np.stack([A, A]))
        assert np.linalg.norm(mu - A) <= 1e-9 * np.linalg.norm(A)

    def test_scalar_fixed_point(self):
        # 1x1 commuting case: sqrt(mu) = mean(sqrt(C_i)) -> mu = ((2+4)/2)^2 = 9
        mu = bw_barycenter(np.array([[[4.0]], [[16.0]]]))
        assert np.isclose(mu[0, 0], 9.0, atol=1e-9)

    def test_residual_contract(self, rng):
        base = random_spd(rng, 5)
        sq = spectral_apply(base, SQRT)
        Cs = []
        for _ in range(12):
            D = random_symmetric(rng, 5)
            D *= 0.1 * np.linalg.norm(sq) / np.linalg.norm(D)
            S = sq + D
            Cs.append(sym(S @ S))
        Cs = np.stack(Cs)
        tol = 1e-10
        mu = bw_barycenter(Cs, tol=tol)
        sqm = spectral_apply(mu, SQRT)
        inner = sqm[None] @ Cs @ sqm[None]
        from spdtok.spdcore import spectral_apply_batch
        mapped = sym(np.mean(spectral_apply_batch(sym(inner), SQRT), axis=0))
        assert np.linalg.norm(mu - mapped) <= tol * np.linalg.norm(mu)

    def test_no_convergence_payload(self, rng):
        Cs = np.stack([random_spd(rng, 3) for _ in range(4)])
        with pytest.raises(NoConvergence) as err:
            bw_barycenter(Cs, max_iter=1, tol=1e-15)
        assert err.value.last is not None
        assert err.value.residual > 0

    def test_no_convergence_at_default_tol(self, rng):
        # spread scales and spectra: one step cannot meet the default 1e-10 tolerance
        Cs = np.stack([random_spd(rng, 4, kappa=100, scale=s) for s in (0.1, 1.0, 10.0)])
        with pytest.raises(NoConvergence) as err:
            bw_barycenter(Cs, max_iter=1)
        mu0 = sym(np.mean(Cs, axis=0))
        mapped = barycenter_map(mu0, Cs)
        # the step mu0^{-1/2} T(mu0)^2 mu0^{-1/2}, as M^T M with M = T(mu0) mu0^{-1/2}
        M = mapped @ spectral_reconstruct(*eig_sym(mu0), _INV_SQRT)
        mu1 = sym(M.T @ M)
        assert np.array_equal(err.value.last, mu1)
        assert err.value.residual == float(np.linalg.norm(mu0 - mapped))
        assert err.value.residual > 1e-10 * np.linalg.norm(mu0)

    def test_zero_stack_is_the_clipped_cone_barycenter(self):
        # every zero matrix clips to CLIP_FLOOR * I, its own barycenter
        zeros = np.zeros((3, 4, 4))
        assert np.array_equal(bw_barycenter(zeros), CLIP_FLOOR * np.eye(4))
        rep = dispersion_report(zeros)
        assert rep.epsilon == 0.0 and rep.sqrt_mean_gap == 0.0

    @pytest.mark.parametrize("low", [-4.0, 0.0, 1e-14])
    def test_input_below_the_clip_is_clipped_onto_the_cone(self, low):
        # commuting inputs: sqrt(mu) is the mean of the clipped inputs' roots;
        # the 1e-8 bar is far above the 1e-10 tolerance and far below the
        # 4e-7 error of clipping sqrt(mu) C sqrt(mu) at CLIP_FLOOR instead
        Cs = np.stack([np.diag([4.0, low, 1.0]), np.diag([4.0, 8.0, 9.0])])
        roots = (np.sqrt([4.0, max(low, CLIP_FLOOR), 1.0]) + np.sqrt([4.0, 8.0, 9.0])) / 2
        assert np.max(np.abs(bw_barycenter(Cs) - np.diag(roots ** 2))) <= 1e-8


def _fewest_maps(Cs):
    """The smallest max_iter at which bw_barycenter(Cs) returns."""
    for k in range(1, 201):
        try:
            bw_barycenter(Cs, max_iter=k)
            return k
        except NoConvergence:
            pass
    raise AssertionError("no convergence within 200 maps")


def _mixed_problems(rng, d=4, n=3):
    """(P, n, d, d) problems that converge after different numbers of maps,
    with a zero stack and a stack holding matrices below the clip floor."""
    A = random_spd(rng, d)
    clustered = np.stack([sym(A + 0.05 * random_symmetric(rng, d)) for _ in range(n)])
    spread = np.stack([random_spd(rng, d, kappa=100, scale=s) for s in (0.1, 1.0, 10.0)])
    below = np.stack([np.diag([4.0, -1.0, 1.0, 2.0]), random_spd(rng, d), np.zeros((d, d))])
    return np.stack([clustered, spread, np.stack([A] * n), np.zeros((n, d, d)), below])


class TestStackedBarycenter:
    def test_rows_are_the_bits_of_solo_calls(self, rng):
        problems = _mixed_problems(rng)
        assert len({_fewest_maps(S) for S in problems}) >= 3
        mus = bw_barycenter(problems)
        rep = dispersion_report(problems)
        assert mus.shape == (len(problems), 4, 4)
        for p, S in enumerate(problems):
            assert np.array_equal(mus[p], bw_barycenter(S))
            solo = dispersion_report(S)
            assert np.array_equal(rep.barycenter[p], solo.barycenter)
            assert rep.epsilon[p] == solo.epsilon
            assert rep.sqrt_mean_gap[p] == solo.sqrt_mean_gap

    def test_clustered_batch_converges_within_eight_maps(self):
        # the direct update mu <- T(mu) needs 29 maps on this batch
        Cs = synth_dataset(SynthSpec(n_classes=1, dim=5, trials_per_class=32, separation=0.0,
                                     dispersion=0.2, seed=700)).matrices
        mu = bw_barycenter(Cs, max_iter=8)
        assert np.linalg.norm(mu - barycenter_map(mu, Cs)) <= 1e-10 * np.linalg.norm(mu)

    def test_spread_stack_converges(self):
        # spectra up to kappa 1e6 at scales 0.1 to 10: the direct update is
        # still at residual 1e-3 after 200 maps
        rng = np.random.default_rng(2016)
        Cs = np.stack([random_spd(rng, 8, kappa=k, scale=s)
                       for k, s in ((1e6, 0.1), (1e3, 10.0), (10.0, 1.0), (1e5, 0.3), (1.0, 3.0))])
        mu = bw_barycenter(Cs, max_iter=32)
        assert np.linalg.norm(mu - barycenter_map(mu, Cs)) <= 1e-10 * np.linalg.norm(mu)

    def test_an_open_problem_is_named(self, rng):
        problems = _mixed_problems(rng)
        k = _fewest_maps(problems[1]) - 1
        assert max(_fewest_maps(S) for i, S in enumerate(problems) if i != 1) <= k
        with pytest.raises(NoConvergence, match=r"problems \[1\]") as err:
            bw_barycenter(problems, max_iter=k)
        with pytest.raises(NoConvergence) as solo:
            bw_barycenter(problems[1], max_iter=k)
        assert solo.value.last.shape == (4, 4) and isinstance(solo.value.residual, float)
        assert np.array_equal(err.value.last, solo.value.last[None])
        assert np.array_equal(err.value.residual, [solo.value.residual])

    @pytest.mark.parametrize("shape", [(0, 3, 2, 2), (2, 0, 2, 2), (2, 3, 2, 3), (1, 2, 3, 2, 2)])
    def test_malformed_stack_rejected(self, shape):
        with pytest.raises(DimMismatch):
            bw_barycenter(np.ones(shape))

    def test_dispersion_needs_two_per_problem(self, rng):
        with pytest.raises(InvalidSpec):
            dispersion_report(_mixed_problems(rng)[:, :1])


class TestDispersionReport:
    def test_identical_batch(self, rng):
        A = random_spd(rng, 4)
        rep = dispersion_report(np.stack([A, A, A]))
        assert rep.epsilon <= 1e-8
        assert rep.sqrt_mean_gap <= 1e-8

    def test_needs_two(self, rng):
        with pytest.raises(InvalidSpec):
            dispersion_report(random_spd(rng, 3)[None])

    def test_scalar_closed_forms(self):
        # mu = 2.25, both distances |sqrt(c) - 1.5| = 0.5, epsilon = 0.5/1.5
        rep = dispersion_report(np.array([[[1.0]], [[4.0]]]))
        assert np.isclose(rep.barycenter[0, 0], 2.25, atol=1e-9)
        assert np.isclose(rep.epsilon, 0.5 / 1.5, atol=1e-8)
        assert rep.sqrt_mean_gap <= 1e-9

    def test_quadratic_gap_scaling(self, rng):
        # sqrt(C_i) = sqrt(mu0) + t * Delta_i with sum Delta_i = 0: the gap to the
        # barycenter's sqrt must shrink as O(t^2); fitted log-log slope near 2
        d, n = 4, 8
        base = random_spd(rng, d, kappa=4)
        sq0 = spectral_apply(base, SQRT)
        deltas = [random_symmetric(rng, d) for _ in range(n - 1)]
        deltas.append(-sum(deltas))
        deltas = [D / max(np.linalg.norm(D) for D in deltas) for D in deltas]
        ts = np.array([0.02, 0.05, 0.1, 0.15, 0.2])
        gaps = []
        for t in ts:
            Cs = np.stack([sym((sq0 + t * D) @ (sq0 + t * D)) for D in deltas])
            gaps.append(dispersion_report(Cs).sqrt_mean_gap)
        slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
        assert 1.7 <= slope <= 2.3


class TestDistortionCheck:
    def test_coincident_pair(self, rng):
        A = random_spd(rng, 4)
        chk = distortion_check(A, A.copy(), kappa_bound=10.0)
        assert chk.all_ok
        assert chk.ratio == 1.0

    def test_diagonal_pair_upper_tight(self):
        A = np.diag([4.0, 1.0])
        B = np.diag([1.0, 4.0])
        chk = distortion_check(A, B, kappa_bound=4.0)
        assert chk.all_ok
        assert np.isclose(chk.token_distance, chk.bw, atol=1e-9)

    def test_hollow_difference_lower_tight(self):
        # sqrt(A) - sqrt(B) has zero diagonal, so token distance = d_bw / sqrt(2)
        SA = np.array([[2.0, 0.3], [0.3, 2.0]])
        SB = np.array([[2.0, 0.1], [0.1, 2.0]])
        A, B = SA @ SA, SB @ SB
        chk = distortion_check(A, B, kappa_bound=3.0)
        assert chk.all_ok
        assert np.isclose(chk.token_distance, chk.bw / np.sqrt(2.0), atol=1e-9)

    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_random_sweep(self, rng, d):
        for _ in range(50):
            kappa = 10 ** rng.uniform(0, 2)
            A = random_spd(rng, d, kappa=kappa)
            B = random_spd(rng, d, kappa=kappa)
            chk = distortion_check(A, B, kappa_bound=kappa)
            assert chk.all_ok

    def test_injectivity_witness(self, rng):
        for _ in range(20):
            A = random_spd(rng, 5)
            S = unvech(embed(A, "bwspd"))
            B = sym(S @ S)
            assert np.allclose(embed(A, "bwspd"), embed(B, "bwspd"), atol=1e-9)
            assert np.linalg.norm(A - B) <= 1e-8 * max(1.0, np.linalg.norm(A))


def test_frobenius_distance_matches_numpy(rng):
    A = random_spd(rng, 4)
    B = random_spd(rng, 4)
    assert distance(A, B, DistanceKind.FROBENIUS) == np.linalg.norm(A - B)
