import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdtok.embedding import (
    EmbeddingKind,
    embed,
    embed_backward,
    embed_batch,
    reconstruct_spd,
    token_length,
    unvech,
    vech,
    vech_batch,
)
from spdtok.errors import DimMismatch, NonFinite, NotSymmetric
from spdtok.spdcore import CLIP_FLOOR

from conftest import random_spd, random_symmetric


class TestVech:
    def test_2x2_packing(self):
        M = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(vech(M), [1.0, 2.0, 3.0])

    def test_token_lengths(self):
        assert token_length(22) == 253
        assert token_length(56) == 1596
        assert token_length(8) == 36

    def test_index_formula(self, rng):
        d = 6
        M = random_symmetric(rng, d)
        v = vech(M)
        for i in range(d):
            for j in range(i, d):
                k = i * d - i * (i - 1) // 2 + (j - i)
                assert v[k] == M[i, j]

    def test_round_trip(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 12))
            M = random_symmetric(rng, d)
            assert np.array_equal(unvech(vech(M)), M)

    def test_not_symmetric_rejected(self, rng):
        M = rng.standard_normal((4, 4))
        with pytest.raises(NotSymmetric):
            vech(M)

    def test_batch_is_c_contiguous(self, rng):
        # every tokeniser hands the network row-major tokens
        Ms = np.stack([random_symmetric(rng, 5) for _ in range(7)])
        assert vech_batch(Ms).flags.c_contiguous
        assert vech_batch(Ms.reshape(7, 1, 5, 5)).flags.c_contiguous
        for kind in EmbeddingKind:
            assert embed_batch(np.stack([random_spd(rng, 4) for _ in range(6)]),
                               kind).flags.c_contiguous

    def test_unvech_bad_length(self):
        with pytest.raises(DimMismatch):
            unvech(np.zeros(5))

    def test_norm_equivalence_sandwich(self, rng):
        # (1/sqrt(2)) ||M||_F <= ||vech(M)||_2 <= ||M||_F, tight on each side
        for _ in range(200):
            d = int(rng.integers(2, 10))
            M = random_symmetric(rng, d)
            fro = np.linalg.norm(M)
            tok = np.linalg.norm(vech(M))
            assert fro / np.sqrt(2.0) <= tok + 1e-12
            assert tok <= fro + 1e-12
        diag = np.diag(np.arange(1.0, 5.0))
        assert np.isclose(np.linalg.norm(vech(diag)), np.linalg.norm(diag))
        hollow = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert np.isclose(np.linalg.norm(vech(hollow)), np.linalg.norm(hollow) / np.sqrt(2.0))


class TestEmbed:
    def test_euclidean_identity(self):
        assert np.array_equal(embed(np.eye(2), EmbeddingKind.EUCLIDEAN), [1.0, 0.0, 1.0])

    def test_bwspd_diagonal(self):
        tok = embed(np.diag([4.0, 9.0]), EmbeddingKind.BWSPD)
        assert np.allclose(tok, [2.0, 0.0, 3.0], atol=1e-12)

    def test_logeuclidean_identity_is_zero(self):
        assert np.max(np.abs(embed(np.eye(5), EmbeddingKind.LOG_EUCLIDEAN))) <= 1e-12

    def test_lengths_match_across_kinds(self, rng):
        C = random_spd(rng, 7)
        lengths = {len(embed(C, kind)) for kind in EmbeddingKind}
        assert lengths == {token_length(7)}

    def test_batch_matches_single(self, rng):
        # bit-identical whatever else shares the stack
        Cs = np.stack([random_spd(rng, 22, kappa=10 ** rng.uniform(0, 4)) for _ in range(40)])
        for kind in EmbeddingKind:
            batch = embed_batch(Cs, kind)
            for i in range(40):
                assert batch[i].tobytes() == embed(Cs[i], kind).tobytes()

    @pytest.mark.parametrize("kind", list(EmbeddingKind))
    def test_empty_matrices_rejected(self, kind):
        with pytest.raises(DimMismatch):
            embed_batch(np.zeros((2, 0, 0)), kind)

    def test_kind_accepts_string(self, rng):
        C = random_spd(rng, 3)
        assert np.array_equal(embed(C, "euclidean"), embed(C, EmbeddingKind.EUCLIDEAN))

    def test_nonfinite_propagates(self):
        C = np.eye(3)
        C[1, 2] = C[2, 1] = np.inf
        with pytest.raises(NonFinite):
            embed(C, EmbeddingKind.BWSPD)

    @pytest.mark.parametrize("kind", list(EmbeddingKind))
    def test_reconstruct_inverts_embed(self, rng, kind):
        C = random_spd(rng, 5, kappa=40)
        back = reconstruct_spd(embed(C, kind), kind)
        assert np.linalg.norm(back - C) <= 1e-8 * np.linalg.norm(C)


class TestEmbedBackward:
    def test_euclidean_unit_on_diagonal_slot(self):
        d = 3
        up = np.zeros(token_length(d))
        up[0] = 1.0  # slot (0, 0)
        G = embed_backward(np.eye(d), EmbeddingKind.EUCLIDEAN, up)
        want = np.zeros((d, d))
        want[0, 0] = 1.0
        assert np.array_equal(G, want)

    def test_bwspd_diagonal_slot_gradient(self):
        # d(sqrt eigenvalue)/dC for diag(4, 9), token slot 0 selects entry (0,0)
        C = np.diag([4.0, 9.0])
        up = np.zeros(3)
        up[0] = 1.0
        G = embed_backward(C, EmbeddingKind.BWSPD, up)
        assert np.allclose(G, np.diag([0.25, 0.0]), atol=1e-12)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            embed_backward(random_spd(rng, 4), EmbeddingKind.BWSPD, np.zeros(9))

    @pytest.mark.parametrize("kind", list(EmbeddingKind))
    def test_malformed_matrix_rejected(self, kind):
        with pytest.raises(DimMismatch):
            embed_backward(np.ones(3), kind, np.zeros(1))
        with pytest.raises(DimMismatch):
            embed_backward(np.ones((2, 3)), kind, np.zeros(3))
        with pytest.raises(DimMismatch):
            embed_backward(np.eye(2)[None], kind, np.zeros(3))

    @pytest.mark.parametrize("kind", list(EmbeddingKind))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_upstream_rejected(self, kind, bad):
        up = np.zeros(6)
        up[4] = bad
        with pytest.raises(NonFinite):
            embed_backward(np.eye(3), kind, up)

    @pytest.mark.parametrize("kind", list(EmbeddingKind))
    def test_finite_differences(self, rng, kind):
        d = 5
        C = random_spd(rng, d, kappa=30)
        w = rng.standard_normal(token_length(d))

        def loss(M):
            return float(w @ embed(M, kind))

        grad = embed_backward(C, kind, w)
        h = 1e-5 * np.linalg.norm(C)
        for _ in range(10):
            E = random_symmetric(rng, d)
            E /= np.linalg.norm(E)
            want = (loss(C + h * E) - loss(C - h * E)) / (2.0 * h)
            got = float(np.sum(grad * E))
            assert abs(got - want) <= max(1e-5, 1e-2 * abs(want))


class TestOneByOneAndZeroStacks:
    """Tokens of d = 1 stacks and of stacks of zero matrices: the eigenvalue
    is floored at CLIP_FLOOR for sqrt and log tokens, and kept as it is for
    flat ones."""

    FLOORED = {EmbeddingKind.BWSPD: lambda c: np.sqrt(np.maximum(c, CLIP_FLOOR)),
               EmbeddingKind.LOG_EUCLIDEAN: lambda c: np.log(np.maximum(c, CLIP_FLOOR)),
               EmbeddingKind.EUCLIDEAN: lambda c: c}

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, CLIP_FLOOR])),
                    min_size=1, max_size=6),
           st.sampled_from(list(EmbeddingKind)))
    def test_one_by_one_token_is_the_floored_entry(self, values, kind):
        c = np.array(values)
        tokens = embed_batch(c.reshape(-1, 1, 1), kind)
        assert tokens.shape == (len(c), 1)
        assert np.array_equal(tokens[:, 0], self.FLOORED[kind](c))

    @pytest.mark.parametrize("kind", list(EmbeddingKind))
    @pytest.mark.parametrize("n, d", [(1, 1), (3, 1), (4, 5)])
    def test_zero_stack_tokens(self, kind, n, d):
        tokens, values = embed_batch(np.zeros((n, d, d)), kind, return_values=True)
        want = vech(self.FLOORED[kind](0.0) * np.eye(d))
        assert tokens.shape == (n, token_length(d))
        assert all(np.allclose(row, want, rtol=1e-15, atol=1e-15) for row in tokens)
        assert all(row.tobytes() == tokens[0].tobytes() for row in tokens)
        if kind is EmbeddingKind.EUCLIDEAN:
            assert values is None
        else:
            assert np.array_equal(values, np.zeros((n, d)))
