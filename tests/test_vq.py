import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retarget_kit import Codebook, assign, ema_update, reset_dead_codes
from retarget_kit.errors import DimensionMismatch, ValidationError


def linear_scan_assign(entries, latents):
    """Oracle: per-latent loop over entries, first minimum wins."""
    out = []
    for z in latents:
        best, best_d = 0, np.inf
        for k, e in enumerate(entries):
            d = float(np.sum((z - e) ** 2))
            if d < best_d:
                best, best_d = k, d
        out.append(best)
    return np.array(out)


def broadcast_assign(entries, latents):
    """Oracle: every (T, K) distance from one (T, K, D) broadcast difference."""
    diff = latents[:, None, :] - entries[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    return d2, np.argmin(d2, axis=1)


@pytest.fixture
def codebook(rng):
    return Codebook.initialize(rng.normal(size=(16, 4)))


class TestCodebook:
    def test_initialize_state(self, rng):
        e = rng.normal(size=(8, 3))
        cb = Codebook.initialize(e)
        assert cb.size == 8 and cb.dim == 3
        assert np.array_equal(cb.ema_counts, np.ones(8))
        assert np.array_equal(cb.ema_sums, e)
        assert np.array_equal(cb.usage, np.zeros(8))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            Codebook.initialize(np.zeros((0, 3)))
        with pytest.raises(DimensionMismatch):
            Codebook(np.zeros((4, 3)), np.ones(5), np.zeros((4, 3)))
        with pytest.raises(ValidationError):
            Codebook.initialize(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("field", ["ema_counts", "ema_sums", "usage"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_state(self, field, bad):
        cb = Codebook.initialize(np.eye(3))
        state = {"ema_counts": cb.ema_counts, "ema_sums": cb.ema_sums, "usage": cb.usage}
        state[field] = state[field].copy()
        state[field].flat[1] = bad
        with pytest.raises(ValidationError, match=f"{field} contains NaN or infinity"):
            Codebook(cb.entries, **state)

    @pytest.mark.parametrize("usage", [np.zeros(2), np.zeros(4), np.zeros((3, 2))])
    def test_rejects_usage_of_wrong_length(self, usage):
        cb = Codebook.initialize(np.eye(3))
        with pytest.raises(ValidationError, match="usage counters for 3 entries"):
            Codebook(cb.entries, cb.ema_counts, cb.ema_sums, usage=usage)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_bad_epsilon(self, epsilon):
        cb = Codebook.initialize(np.eye(3))
        with pytest.raises(ValidationError, match="epsilon must be a finite number >= 0"):
            Codebook(cb.entries, cb.ema_counts, cb.ema_sums, epsilon=epsilon)
        with pytest.raises(ValidationError, match="epsilon must be a finite number >= 0"):
            Codebook.initialize(np.eye(3), epsilon=epsilon)

    def test_zero_epsilon_allowed(self):
        assert Codebook.initialize(np.eye(3), epsilon=0.0).epsilon == 0.0

    def test_rejects_bad_decay(self):
        with pytest.raises(ValidationError):
            Codebook.initialize(np.zeros((2, 2)), decay=1.5)

    @pytest.mark.parametrize("decay", ["0.5", None, [1.0], True, False, np.nan, -0.1])
    def test_decay_must_be_a_real_number_in_unit_interval(self, decay):
        with pytest.raises(ValidationError, match="decay must be a number in"):
            Codebook.initialize(np.eye(3), decay=decay)

    @pytest.mark.parametrize("decay", [0, 1, 0.5, np.float64(0.25)])
    def test_decay_accepts_real_numbers(self, decay):
        assert Codebook.initialize(np.eye(3), decay=decay).decay == decay


class TestAssign:
    def test_exact_entries_map_to_themselves(self, codebook):
        tokens = assign(codebook, codebook.entries)
        assert np.array_equal(tokens.indices, np.arange(codebook.size))

    def test_matches_linear_scan(self, rng):
        cb = Codebook.initialize(rng.normal(size=(64, 8)))
        latents = rng.normal(size=(200, 8))
        tokens = assign(cb, latents)
        assert np.array_equal(tokens.indices, linear_scan_assign(cb.entries, latents))

    def test_tie_breaks_to_lowest_index(self):
        cb = Codebook.initialize(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]))
        tokens = assign(cb, np.array([[0.0, 0.0], [0.0, 5.0]]))
        assert np.array_equal(tokens.indices, [0, 0])

    def test_dimension_mismatch(self, codebook, rng):
        with pytest.raises(DimensionMismatch):
            assign(codebook, rng.normal(size=(3, 5)))

    def test_downsample_metadata(self, codebook, rng):
        tokens = assign(codebook, rng.normal(size=(5, 4)), downsample_factor=4)
        assert tokens.downsample_factor == 4
        assert len(tokens) == 5

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_assignment_minimizes_distance(self, seed):
        r = np.random.default_rng(seed)
        cb = Codebook.initialize(r.normal(size=(10, 3)))
        latents = r.normal(size=(20, 3))
        idx = assign(cb, latents).indices
        d2 = np.sum((latents[:, None] - cb.entries[None]) ** 2, axis=2)
        assert np.all(np.take_along_axis(d2, idx[:, None], 1)[:, 0] <= d2.min(axis=1) + 1e-12)


class TestAssignMatchesBroadcast:
    """The entry-at-a-time distances are bit for bit the broadcast ones."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 40),
        st.integers(1, 12),
        st.sampled_from([1, 2, 7, 128, 129, 284]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_inputs(self, seed, rows, size, dim):
        r = np.random.default_rng(seed)
        entries = r.normal(size=(size, dim)) * r.uniform(0.1, 100.0)
        latents = r.normal(size=(rows, dim)) * r.uniform(0.1, 100.0)
        _, expected = broadcast_assign(entries, latents)
        tokens = assign(Codebook.initialize(entries), latents)
        assert np.array_equal(tokens.indices, expected)

    @pytest.mark.parametrize("dim", [3, 284])
    def test_rounding_decides_near_ties(self, rng, dim):
        # Every entry is a permutation of one vector and every latent has
        # equal coordinates, so all distances of a row are equal in exact
        # arithmetic: the winner is decided by how the sum rounds, and any
        # other summation order picks other winners.
        v = rng.normal(size=dim)
        entries = np.array([rng.permutation(v) for _ in range(64)])
        latents = np.outer(rng.normal(size=40), np.ones(dim))
        _, expected = broadcast_assign(entries, latents)
        tokens = assign(Codebook.initialize(entries), latents)
        assert np.array_equal(tokens.indices, expected)

    def test_exactly_tied_rows(self, rng):
        # Duplicated entries and latents equidistant from mirrored entries.
        base = rng.normal(size=(4, 6))
        entries = np.vstack([base, -base, base])
        latents = np.vstack([np.zeros((3, 6)), base, -base])
        _, expected = broadcast_assign(entries, latents)
        tokens = assign(Codebook.initialize(entries), latents)
        assert np.array_equal(tokens.indices, expected)
        assert np.array_equal(tokens.indices[3:7], np.arange(4))
        assert np.array_equal(tokens.indices[7:], np.arange(4, 8))

    def test_empty_batch(self, codebook):
        assert len(assign(codebook, np.zeros((0, 4)))) == 0


class TestEmaUpdate:
    def test_closed_form_single_step(self, rng):
        cb = Codebook.initialize(rng.normal(size=(4, 2)), decay=0.9, epsilon=1e-5)
        latents = rng.normal(size=(6, 2))
        idx = assign(cb, latents).indices
        out = ema_update(cb, latents, idx)
        n = np.bincount(idx, minlength=4).astype(float)
        batch = np.zeros((4, 2))
        np.add.at(batch, idx, latents)
        counts = 0.9 * np.ones(4) + 0.1 * n
        sums = 0.9 * cb.ema_sums + 0.1 * batch
        total = counts.sum()
        smoothed = (counts + 1e-5) / (total + 4 * 1e-5) * total
        assert np.allclose(out.entries, sums / smoothed[:, None], atol=1e-12)
        assert np.allclose(out.ema_counts, counts)
        assert np.array_equal(out.usage, n)

    def test_decay_zero_recovers_batch_means(self, rng):
        # g = 0 forgets all history: entries become (smoothed) batch means.
        cb = Codebook.initialize(np.array([[0.0, 0.0], [10.0, 10.0]]), decay=0.0, epsilon=0.0)
        latents = np.array([[1.0, 1.0], [3.0, 1.0], [9.0, 9.0]])
        out = ema_update(cb, latents, np.array([0, 0, 1]))
        assert np.allclose(out.entries[0], [2.0, 1.0])
        assert np.allclose(out.entries[1], [9.0, 9.0])

    def test_decay_one_is_noop(self, rng):
        cb = Codebook.initialize(rng.normal(size=(4, 2)), decay=1.0)
        latents = rng.normal(size=(5, 2))
        idx = assign(cb, latents).indices
        out = ema_update(cb, latents, idx)
        assert np.array_equal(out.entries, cb.entries)
        assert np.array_equal(out.ema_counts, cb.ema_counts)
        assert np.array_equal(out.ema_sums, cb.ema_sums)
        assert np.array_equal(out.usage, np.bincount(idx, minlength=4))

    def test_accepts_token_sequence(self, codebook, rng):
        latents = rng.normal(size=(5, 4))
        tokens = assign(codebook, latents)
        a = ema_update(codebook, latents, tokens)
        b = ema_update(codebook, latents, tokens.indices)
        assert np.array_equal(a.entries, b.entries)

    def test_repeated_updates_converge_to_cluster_means(self, rng):
        # Two well-separated blobs: entries drift to the blob means.
        means = np.array([[-5.0, 0.0], [5.0, 0.0]])
        cb = Codebook.initialize(means + rng.normal(size=(2, 2)), decay=0.5)
        for _ in range(60):
            latents = means[rng.integers(0, 2, 64)] + 0.01 * rng.normal(size=(64, 2))
            cb = ema_update(cb, latents, assign(cb, latents))
        assert np.allclose(np.sort(cb.entries[:, 0]), [-5.0, 5.0], atol=0.1)

    def test_bad_assignments(self, codebook, rng):
        latents = rng.normal(size=(3, 4))
        with pytest.raises(DimensionMismatch):
            ema_update(codebook, latents, np.array([0, 1]))
        with pytest.raises(DimensionMismatch):
            ema_update(codebook, latents, np.array([0, 1, 99]))


class TestResetDeadCodes:
    def test_no_dead_codes(self, codebook, rng):
        latents = rng.normal(size=(8, 4))
        cb = ema_update(codebook, latents, assign(codebook, latents))
        # every entry got traffic? force it: give all entries usage
        cb = Codebook(
            cb.entries, cb.ema_counts, cb.ema_sums, cb.decay, cb.epsilon,
            usage=np.full(cb.size, 5.0),
        )
        out, n = reset_dead_codes(cb, latents)
        assert n == 0
        assert np.array_equal(out.entries, cb.entries)
        assert np.array_equal(out.usage, np.zeros(cb.size))

    def test_collapse_fixture_reset_count(self, rng):
        # All latents hit entry 0, so every other entry is dead.
        entries = np.vstack([np.zeros(3), 100.0 + rng.normal(size=(7, 3))])
        cb = Codebook.initialize(entries)
        latents = 0.1 * rng.normal(size=(20, 3))
        cb = ema_update(cb, latents, assign(cb, latents))
        out, n = reset_dead_codes(cb, latents)
        assert n == 7
        assert np.array_equal(out.usage, np.zeros(8))

    def test_replacement_order_is_worst_first(self):
        cb = Codebook.initialize(np.array([[0.0], [50.0]]))
        cb = Codebook(cb.entries, cb.ema_counts, cb.ema_sums, usage=np.array([3.0, 0.0]))
        latents = np.array([[1.0], [4.0], [2.0]])  # errors 1, 16, 4 against entry 0
        out, n = reset_dead_codes(cb, latents)
        assert n == 1
        assert out.entries[1, 0] == 4.0
        assert out.ema_counts[1] == 1.0
        assert np.array_equal(out.ema_sums[1], [4.0])

    def test_cycles_when_batch_smaller_than_dead_set(self):
        cb = Codebook.initialize(np.array([[100.0], [200.0], [300.0]]))
        latents = np.array([[1.0], [2.0]])
        out, n = reset_dead_codes(cb, latents)
        assert n == 3
        # worst-error latent is 1.0 (99^2 from its entry at index 0 ... but
        # both assign to entry 0; errors 99^2 and 98^2), so order is 1, 2, 1
        assert np.array_equal(out.entries[:, 0], [1.0, 2.0, 1.0])

    def test_empty_batch_raises(self, codebook):
        with pytest.raises(ValidationError):
            reset_dead_codes(codebook, np.zeros((0, 4)))
