"""Maximum spanning arborescence decoding against exhaustive enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from g2gt.errors import DataError
from g2gt.mst import is_arborescence, mst_decode

from oracles import all_arborescences, brute_force_best_tree, reference_mst_decode


def _total(scores, heads):
    return sum(scores[i, heads[i]] for i in range(1, len(heads)))


@st.composite
def _masked_integer_scores(draw, min_n=2):
    """Small-integer scores (so trees tie) with a random -inf mask."""
    n = draw(st.integers(min_n, 6))
    values = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    masked = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    scores = np.array(values, dtype=np.float64).reshape(n, n)
    scores[np.array(masked).reshape(n, n)] = -np.inf
    return scores


@st.composite
def _root_heavy_scores(draw):
    """Scores whose uncharged optimum has two or more root children after a
    contraction: two non-root nodes prefer each other, and every other
    node prefers the root.  Small integers and a random -inf mask."""
    scores = draw(_masked_integer_scores(min_n=4))
    n = len(scores)
    a, b = draw(st.lists(st.sampled_from(range(1, n)), min_size=2, max_size=2,
                         unique=True))
    others = [v for v in range(n) if v not in (a, b)]
    scores[others, 0] = draw(st.integers(4, 8))
    scores[a, b] = scores[b, a] = 10.0
    return scores


def _peaked_root_heavy(rng, n):
    """Near-equal rows with one shared preference per head and a raised root
    column, the shape of untrained parser scores: the charged decode then
    contracts about one cycle per node."""
    scores = rng.normal(size=(n, n)) * 0.1 + rng.normal(size=n) * 2.0
    scores[:, 0] += 3.0
    return scores


class TestSmallCases:
    def test_two_nodes_forced(self):
        scores = np.array([[0.0, 0.0], [5.0, 0.0]])
        heads = mst_decode(scores)
        assert heads[1] == 0

    def test_greedy_when_already_a_tree(self):
        # per-token argmax forms a tree; decoder must return exactly it
        scores = np.array([
            [0.0, 0.0, 0.0],
            [9.0, 0.0, 1.0],
            [1.0, 8.0, 0.0],
        ])
        heads = mst_decode(scores, single_root=False)
        assert heads[1] == 0 and heads[2] == 1

    def test_cycle_broken_optimally(self):
        # tokens 1 and 2 prefer each other; the best tree must break the cycle
        scores = np.array([
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 10.0],
            [2.0, 10.0, 0.0],
        ])
        heads = mst_decode(scores, single_root=False)
        best, _ = brute_force_best_tree(scores, single_root=False)
        assert _total(scores, heads) == pytest.approx(best)
        assert is_arborescence(heads)

    def test_zero_nodes_rejected(self):
        with pytest.raises(DataError):
            mst_decode(np.zeros((0, 0)))

    def test_root_only(self):
        heads = mst_decode(np.zeros((1, 1)))
        assert heads.tolist() == [-1]

    def test_neg_inf_cells_keep_single_root(self):
        inf = np.inf
        scores = np.array([
            [3.0, -2.0, -inf, 1.0],
            [-1.0, -1.0, -2.0, -1.0],
            [1.0, -inf, -inf, -inf],
            [2.0, 3.0, -inf, 1.0],
        ])
        heads = mst_decode(scores, single_root=True)
        best, _ = brute_force_best_tree(scores, single_root=True)
        assert best == 2.0
        assert _total(scores, heads) == pytest.approx(best)
        assert is_arborescence(heads, single_root=True)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nan_or_pos_inf_rejected(self, value):
        with pytest.raises(DataError):
            mst_decode(np.full((4, 4), value))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("single_root", [False, True])
    def test_equals_exhaustive_optimum(self, single_root):
        trial = 0
        for seed in range(250):
            for n in (2, 3, 4, 5):
                rng = np.random.default_rng(10_000 * n + seed)
                scores = rng.normal(size=(n, n))
                heads = mst_decode(scores, single_root=single_root)
                best, _ = brute_force_best_tree(scores, single_root=single_root)
                got = _total(scores, heads)
                assert got == pytest.approx(best, rel=1e-12, abs=1e-9), \
                    f"n={n} seed={seed} single_root={single_root}"
                assert is_arborescence(heads, single_root=single_root)
                trial += 1
        assert trial == 1000

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scores=_masked_integer_scores(), single_root=st.booleans())
    def test_ties_and_neg_inf_cells(self, scores, single_root):
        heads = mst_decode(scores, single_root=single_root)
        assert is_arborescence(heads)
        best, _ = brute_force_best_tree(scores, single_root=single_root)
        if np.isfinite(best):
            assert _total(scores, heads) == pytest.approx(best, rel=1e-12, abs=1e-9)
            assert is_arborescence(heads, single_root=single_root)

    def test_score_at_least_random_samples(self):
        rng = np.random.default_rng(77)
        scores = rng.normal(size=(6, 6))
        heads = mst_decode(scores, single_root=False)
        best = _total(scores, heads)
        for _ in range(1000):
            candidate = np.array(
                [-1] + [int(h) for h in rng.integers(0, 6, size=5)])
            candidate = np.array([-1] + [
                h if h != i + 1 else (h + 1) % 6 for i, h in enumerate(candidate[1:])])
            if is_arborescence(candidate):
                assert _total(scores, candidate) <= best + 1e-12


class TestStructuralValidity:
    @pytest.mark.parametrize("single_root", [False, True])
    def test_is_arborescence_equals_enumeration(self, single_root):
        # every head array, out-of-range heads -1 and n included
        for n in range(1, 6):
            trees = {tuple(t[i] for i in range(1, n))
                     for t in all_arborescences(n, single_root=single_root)}
            for combo in itertools.product(range(-1, n + 1), repeat=n - 1):
                assert is_arborescence([-1, *combo], single_root=single_root) \
                    == (combo in trees), combo

    def test_always_valid_up_to_n12(self):
        checked = 0
        for seed in range(10_000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 13))
            scores = rng.normal(scale=rng.uniform(0.5, 10.0), size=(n, n))
            heads = mst_decode(scores, single_root=True)
            assert is_arborescence(heads, single_root=True), f"seed {seed}"
            checked += 1
        assert checked == 10_000

    def test_single_root_flag_off_allows_multiple_root_children(self):
        scores = np.full((4, 4), -5.0)
        scores[:, 0] = 10.0  # everyone prefers the root
        heads = mst_decode(scores, single_root=False)
        assert int(np.sum(heads == 0)) == 3
        heads_constrained = mst_decode(scores, single_root=True)
        assert int(np.sum(heads_constrained == 0)) == 1
        assert is_arborescence(heads_constrained, single_root=True)


class TestResumedCharge:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(scores=_root_heavy_scores())
    def test_finds_the_single_root_optimum(self, scores):
        unconstrained, _ = brute_force_best_tree(scores)
        best, _ = brute_force_best_tree(scores, single_root=True)
        assume(best < unconstrained)  # every uncharged optimum has 2+ root children
        heads = mst_decode(scores, single_root=True)
        assert is_arborescence(heads)
        if np.isfinite(best):
            assert _total(scores, heads) == pytest.approx(best, rel=1e-12, abs=1e-9)
            assert is_arborescence(heads, single_root=True)


class TestAgainstReference:
    """Heads identical to `reference_mst_decode`, the decoder this one
    replaced, on scores without ties."""

    @pytest.mark.parametrize("single_root", [False, True])
    def test_normal_matrices(self, single_root):
        for seed in range(500):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 30))
            scores = rng.normal(size=(n, n))
            heads = mst_decode(scores, single_root=single_root)
            expected = reference_mst_decode(scores, single_root=single_root)
            assert np.array_equal(heads, expected), f"n={n} seed={seed}"

    @pytest.mark.parametrize("n", [11, 26, 51, 101])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_peaked_root_heavy_matrices(self, n, seed):
        rng = np.random.default_rng(1000 * n + seed)
        for trial in range(5):
            scores = _peaked_root_heavy(rng, n)
            for single_root in (True, False):
                assert np.array_equal(
                    mst_decode(scores, single_root=single_root),
                    reference_mst_decode(scores, single_root=single_root)), \
                    f"trial={trial} single_root={single_root}"
