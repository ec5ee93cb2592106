from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairmpdag import (
    Dataset,
    EvalRecord,
    FairPredictor,
    InterventionalSet,
    TrainConfig,
    Variant,
    admissible_intervention_values,
    evaluate,
    feature_set,
    median_bandwidth,
    mmd2,
    parse_graph,
    sample_interventional_truth,
    sample_observational,
    train_predictor,
)
from fairmpdag import fair_train
from fairmpdag.fair_train import (
    _basis,
    _context_mmd2,
    _exact_moments,
    _gap_rank,
    _init_params,
    _objective_and_grads,
    _stack,
)
from fairmpdag.scm_lab import SPLIT_82, child_rng, split_rows

from .conftest import train_from_json
from .oracles import dense_mmd2_value_grads, naive_mmd2, triu_median_bandwidth
from .test_scm_lab import two_vertex_scm


class TestMmd2:
    def test_identical_samples_vanish(self):
        v = np.array([0.3, -1.2, 4.0])
        assert mmd2(v, v, bandwidth=2.0) == pytest.approx(0.0, abs=1e-12)

    def test_singletons_closed_form(self):
        assert mmd2([0.0], [1.0], bandwidth=1.0) == pytest.approx(
            2.0 - 2.0 * np.exp(-1.0), abs=1e-12
        )

    def test_batched_equals_naive_double_loop(self):
        rng = np.random.default_rng(211)
        for _ in range(5):
            ya = rng.normal(size=rng.integers(2, 40))
            yb = rng.normal(size=rng.integers(2, 40))
            sigma = float(rng.uniform(0.2, 3.0))
            assert mmd2(ya, yb, sigma) == pytest.approx(
                naive_mmd2(ya, yb, sigma), abs=1e-10
            )

    @given(st.integers(1, 399), st.integers(1, 399), st.floats(0.2, 3.0),
           st.integers(0, 2**32 - 1))
    @example(17, 23, 1.3, 223)
    @settings(max_examples=100, deadline=None)
    def test_symmetric_to_rounding(self, na, nb, sigma, seed):
        # mmd2(a, b) and mmd2(b, a) add the same kernel entries in another
        # order, so they agree to rounding, not bit for bit
        rng = np.random.default_rng(seed)
        ya, yb = rng.normal(size=na), rng.normal(size=nb)
        assert abs(mmd2(ya, yb, sigma) - mmd2(yb, ya, sigma)) <= 1e-15

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=12),
        st.lists(st.floats(-5, 5), min_size=1, max_size=12),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonnegative(self, ya, yb, sigma):
        assert mmd2(ya, yb, sigma) >= 0.0

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=300),
        st.integers(1, 300),
        st.floats(0.0, 1e-9),
        st.floats(1e-3, 1e3),
        st.integers(0, 2**32 - 1),
    )
    @example([0.3], 1000, 0.0, 1.0, 0)
    @settings(max_examples=80, deadline=None)
    def test_never_negative_on_near_equal_samples(self, ya, nb, jitter, sigma, seed):
        # the second sample repeats the first's values, moved by at most
        # `jitter`: the true value is 0 or just above it, and rounding must
        # not take it below
        rng = np.random.default_rng(seed)
        yb = rng.choice(ya, nb) + rng.uniform(-jitter, jitter, nb)
        assert mmd2(ya, yb, sigma) >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mmd2([], [1.0], 1.0)

    @pytest.mark.parametrize("bandwidth", [0, -5.0, float("nan"), float("inf"), "2", True])
    def test_meaningless_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="^bandwidth must be 'median' or a positive"):
            mmd2([0.0, 0.5], [1.0, 2.0], bandwidth)

    def test_numpy_scalar_bandwidth_accepted(self):
        ya, yb = [0.0, 0.5], [1.0, 2.0]
        assert mmd2(ya, yb, np.float32(0.5)) == mmd2(ya, yb, 0.5)
        assert mmd2(ya, yb, np.int64(2)) == mmd2(ya, yb, 2.0)

    def test_median_bandwidth_of_the_pooled_samples(self):
        rng = np.random.default_rng(229)
        ya, yb = rng.normal(size=9), rng.normal(size=14) + 0.5
        sigma = median_bandwidth(np.concatenate([ya, yb]))
        assert mmd2(ya, yb, "median") == mmd2(ya, yb, sigma)


class TestContextMmd2:
    @pytest.mark.parametrize("sizes", [(7, 12), (5, 9, 14), (3, 8, 6, 11)])
    def test_equals_per_pair_naive_sum(self, sizes):
        rng = np.random.default_rng(233 + len(sizes))
        preds = [rng.normal(loc=0.3 * i, size=n) for i, n in enumerate(sizes)]
        sigma = 1.1
        pairs = list(combinations(range(len(preds)), 2))
        want = sum(naive_mmd2(preds[i], preds[j], sigma) for i, j in pairs) / len(pairs)
        value, grads = context_mmd2(preds, sigma, want_grads=True)
        assert value == pytest.approx(want, abs=1e-12)
        assert [len(g) for g in grads] == list(sizes)

    @pytest.mark.parametrize("sizes", [(7, 12), (5, 9, 14), (3, 8, 6, 11)])
    def test_value_only_path_matches_gradient_path(self, sizes):
        rng = np.random.default_rng(239)
        preds = [rng.normal(size=n) for n in sizes]
        value, grads = context_mmd2(preds, 0.7)
        assert grads is None
        # one kernel rule: the same moments with or without gradients
        assert context_mmd2(preds, 0.7, want_grads=True)[0] == value

    def test_equal_predictions_give_no_negative_value(self):
        # 3 x 1000 equal predictions: every kernel entry is 1, and the
        # weighted sum rounds to about -1e-16 or -5e-21 unless clamped
        value, grads = context_mmd2([np.full(1000, 0.3)] * 3, 1.0, want_grads=True)
        assert value >= 0.0
        assert context_mmd2([np.full(1000, 0.3)] * 3, 1.0)[0] >= 0.0
        for g in grads:
            np.testing.assert_allclose(g, 0.0, rtol=0, atol=1e-12)

    @given(
        st.lists(st.integers(1, 1000), min_size=2, max_size=4),
        st.floats(0.0, 20.0),
        st.floats(-50.0, 50.0),
        st.floats(-6.0, 6.0),
        st.sampled_from([None, np.nan, np.inf, -np.inf]),
        st.integers(0, 2**32 - 1),
    )
    @example([1, 1], 0.0, 0.0, 0.0, None, 0)  # all equal: span 0
    @example([1000, 1, 1000], 16.0, 50.0, -6.0, None, 1)  # at the cap
    @example([1000, 1000, 1000, 1000], 16.5, -50.0, 6.0, None, 2)  # just past it
    @example([7, 1000], 3.0, 0.0, 0.0, np.nan, 3)
    @settings(max_examples=60, deadline=None)
    def test_value_path_matches_dense_oracle(self, sizes, span, offset, log_sigma, bad, seed):
        # without gradients, contexts of up to `span` kernel widths sqrt(sigma)
        # about `offset` widths from 0 give the whole-block value within 1e-14;
        # the interpolant runs at or below _SPAN_CAP, the exact moments above
        # it and on a NaN or infinite prediction, which makes the value
        # non-finite
        rng = np.random.default_rng(seed)
        root = np.sqrt(10.0**log_sigma)
        preds = [(offset + rng.uniform(-span / 2, span / 2, size=n)) * root for n in sizes]
        preds[0][0] = (offset - span / 2) * root
        preds[-1][-1] = (offset + span / 2) * root
        if bad is not None:
            preds[-1][0] = bad
        pooled = np.concatenate(preds)
        wide = not (pooled.max() - pooled.min()) / root <= fair_train._SPAN_CAP
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_exact_moments", "_interpolated_moments"):
                spied = getattr(fair_train, name)
                patch.setattr(fair_train, name,
                              lambda *a, name=name, spied=spied: calls.append(name) or spied(*a))
            with np.errstate(invalid="ignore"):
                value, grads = context_mmd2(preds, root * root)
        assert grads is None
        assert calls == ["_exact_moments" if wide else "_interpolated_moments"]
        if bad is not None:
            assert wide and not np.isfinite(value)
            return
        assert abs(value - dense_mmd2_value_grads(preds, root * root)[0]) <= 1e-14

    @given(
        st.lists(st.integers(1, 120), min_size=2, max_size=4),
        st.sampled_from([64, 5000]),
        st.sampled_from([0.0, 50.0]),
        st.floats(0.1, 5.0),
        st.integers(0, 2**32 - 1),
    )
    @example([1, 1], 64, 0.0, 1.3, 0)  # one-row levels
    @example([1, 120, 1, 37], 5000, 50.0, 0.4, 1)  # chunks ending inside levels
    @example([300, 400], 5000, 50.0, 1.3, 241)
    @example([400, 400], 65536, 0.0, 1.1, 3)
    @settings(max_examples=60, deadline=None)
    def test_exact_moments_within_rounding_bound(self, sizes, chunk, offset, sigma, seed):
        # the strips of the pooled predictions, in row chunks of mostly one
        # row (64 entries) or of several rows that end inside a level (5000),
        # give the weighted row moments (w o K) @ [1, p - c] of the whole
        # matrix within N float64 roundings of the terms |w K| [1, |p - c|],
        # and the value, the sum of their first column, to 1e-12
        rng = np.random.default_rng(seed)
        pooled = rng.normal(scale=2.0, size=sum(sizes)) + offset
        centre = float(pooled.min() + pooled.max()) / 2
        levels = len(sizes)
        level_of = np.repeat(np.arange(levels), sizes)
        w = np.where(np.eye(levels, dtype=bool), levels - 1.0, -1.0)
        w /= levels * (levels - 1) // 2 * np.outer(sizes, sizes)
        diff = pooled[:, None] - pooled[None, :]
        weighted = w[level_of][:, level_of] * np.exp(-(diff * diff) / sigma)
        right = np.column_stack([np.ones(len(pooled)), pooled - centre])
        bound = len(pooled) * np.finfo(float).eps * (np.abs(weighted) @ np.abs(right))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fair_train, "_CHUNK_ENTRIES", chunk)
            moments = _exact_moments(pooled, sizes, w, sigma, right)
        assert moments[:, 0].sum() == pytest.approx(weighted.sum(), abs=1e-12)
        assert np.all(np.abs(moments - weighted @ right) <= bound)

    @pytest.mark.parametrize("unit, width, exact", [(1e39, 1.0, False), (1e-25, 1.0, False),
                                                    (1.0, 6.0, True)])
    def test_extreme_units_and_wide_span_match_dense_oracle(
        self, unit, width, exact, monkeypatch
    ):
        # 1e39 predictions (past the float32 range) and a bandwidth of 1e-50
        # span about 7 kernel widths sqrt(sigma) and go through the
        # interpolant; six times as wide is past _SPAN_CAP and takes the
        # exact moments
        blocks = []
        exact_moments = fair_train._exact_moments
        monkeypatch.setattr(
            fair_train, "_exact_moments", lambda *a: blocks.append(a) or exact_moments(*a)
        )
        rng = np.random.default_rng(263)
        preds = [rng.normal(size=300) * unit * width,
                 (rng.normal(size=300) + 0.5) * unit * width]
        sigma = unit * unit
        want = dense_mmd2_value_grads(preds, sigma)[0]
        assert context_mmd2(preds, sigma)[0] == pytest.approx(want, rel=1e-12)
        blocks.clear()
        assert_matches_dense_oracle(preds, sigma)
        assert bool(blocks) == exact

    @pytest.mark.parametrize(
        "preds, sigma",
        [
            ([[0.0], [1.0]], 1e-320),  # subnormal: -1/sigma is -inf
            ([np.arange(3) * 1e-161, np.arange(3, 6) * 1e-161], "median"),  # 4e-322
            ([[0.0], [1e-160]], np.finfo(float).tiny),  # 4/sigma is 2^1024
        ],
    )
    def test_tiny_bandwidth_gives_finite_value_and_gradients(self, preds, sigma):
        # the kernel raises the bandwidth to 2^-1000, so these give what the
        # whole-block oracle gives there
        preds = [np.asarray(p, dtype=float) for p in preds]
        if sigma == "median":
            sigma = median_bandwidth(np.concatenate(preds))
            assert sigma == 4e-322
        floor = 2.0**-1000
        want, want_grads = dense_mmd2_value_grads(preds, floor)
        assert mmd2(*preds, sigma) == pytest.approx(want, rel=1e-12, abs=1e-15)
        value, grads = context_mmd2(preds, sigma, want_grads=True)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-15)
        for g, w in zip(grads, want_grads):
            assert np.all(np.isfinite(g))
            np.testing.assert_allclose(g, w, rtol=1e-12)
        at_floor = context_mmd2(preds, floor, want_grads=True)
        assert value == at_floor[0]
        assert all(np.array_equal(g, w) for g, w in zip(grads, at_floor[1]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rank_two_differences_equal_subtract_outer(self, dtype):
        # _basis forms the differences of the points to the nodes as
        # [a, 1] @ [1; -b]: each entry is a * 1 + 1 * (-b), rounded once, so
        # it equals np.subtract.outer bit for bit; only a zero may lose its
        # sign, and 1 / 0 then gives the node's unit row either way.
        # Magnitudes 1e-30 to 1e30, subnormals, signed zeros, equal pairs,
        # infinities and NaN, in 300 shapes.
        rng = np.random.default_rng(269)
        info = np.finfo(dtype)
        tiny = info.smallest_subnormal
        specials = np.array([0.0, -0.0, tiny, -tiny, 7 * tiny, info.smallest_normal / 3,
                             np.inf, -np.inf, np.nan], dtype)
        uint = np.uint32 if dtype is np.float32 else np.uint64

        def draw(size):
            x = (rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-30, 30, size)).astype(dtype)
            pick = rng.random(size) < 0.15
            x[pick] = rng.choice(specials, pick.sum())
            return x

        for _ in range(300):
            m, n = int(rng.integers(1, 50)), int(rng.integers(1, 900))
            a, b = draw(m), draw(n)
            same = rng.random(min(m, n)) < 0.3  # equal pairs on the diagonal
            b[: min(m, n)][same] = a[: min(m, n)][same]
            first = int(rng.integers(0, n))  # a view that starts off column 0
            lead = np.ones((m, 2), dtype)
            lead[:, 0] = a
            trail = np.ones((2, n), dtype)
            trail[1] = -b
            got = np.empty((m, n - first), dtype)
            with np.errstate(invalid="ignore", over="ignore"):
                np.matmul(lead, trail[:, first:], out=got)
                want = np.subtract.outer(a, b[first:])
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            zero = want == 0
            assert np.all(got[zero] == 0)
            kept = ~nan & ~zero
            assert np.array_equal(got[kept].view(uint), want[kept].view(uint))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sizes", [(6, 9), (1, 9), (5, 7, 1)])
    def test_non_finite_prediction_gives_non_finite_value(self, bad, sizes):
        # the bad value sits alone in its level when that level has one row
        rng = np.random.default_rng(251)
        preds = [rng.normal(size=n) for n in sizes]
        level = sizes.index(min(sizes))
        preds[level][0] = bad
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(context_mmd2(preds, 0.9)[0])
            value, grads = context_mmd2(preds, 0.9, want_grads=True)
        assert not np.isfinite(value)
        assert not np.isfinite(grads[level][0])

    @given(
        st.lists(st.integers(1, 12), min_size=2, max_size=4),
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 5.0),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_level_permutation_permutes_gradients(self, sizes, seed, sigma, shuffler):
        rng = np.random.default_rng(seed)
        preds = [rng.normal(loc=rng.normal(), size=n) for n in sizes]
        order = list(range(len(preds)))
        shuffler.shuffle(order)
        value, grads = context_mmd2(preds, sigma, want_grads=True)
        moved, moved_grads = context_mmd2([preds[i] for i in order], sigma, want_grads=True)
        assert moved == pytest.approx(value, abs=1e-12)
        for g, i in zip(moved_grads, order):
            np.testing.assert_allclose(g, grads[i], rtol=0, atol=1e-12)

    @given(
        st.integers(1, 40),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_levels_give_zero(self, n, levels, seed, sigma):
        sample = np.random.default_rng(seed).normal(size=n)
        preds = [sample.copy() for _ in range(levels)]
        assert context_mmd2(preds, sigma)[0] == pytest.approx(0.0, abs=1e-12)
        value, grads = context_mmd2(preds, sigma, want_grads=True)
        assert value == pytest.approx(0.0, abs=1e-12)
        for g in grads:
            np.testing.assert_allclose(g, 0.0, rtol=0, atol=1e-12)

    @given(
        st.lists(st.integers(1, 300), min_size=2, max_size=4),
        st.floats(17.0, 200.0),
        st.floats(-1e6, 1e6),
        st.floats(-6.0, 6.0),
        st.integers(0, 2**32 - 1),
    )
    @example([1, 1], 17.0, 1e6, 0.0, 0)
    @settings(max_examples=60, deadline=None)
    def test_wide_span_matches_dense_oracle(self, sizes, span, offset, log_sigma, seed):
        # past _SPAN_CAP the gradients come from the exact moments: spans of
        # 17 to 200 kernel widths sqrt(sigma), up to 1e6 widths off 0; the
        # lowest and highest predictions open the first and the last level
        rng = np.random.default_rng(seed)
        root = np.sqrt(10.0**log_sigma)
        preds = [(offset + rng.uniform(-span / 2, span / 2, size=n)) * root for n in sizes]
        preds[0][0] = (offset - span / 2) * root
        preds[-1][0] = (offset + span / 2) * root
        assert_matches_dense_oracle(preds, root * root)


class TestInterpolant:
    @given(
        st.lists(st.integers(1, 800), min_size=2, max_size=4),
        st.floats(-6.0, 6.0),
        st.floats(0.0, fair_train._SPAN_CAP + 0.5),
        st.floats(0.0, 0.5),
        st.integers(0, 2**32 - 1),
    )
    @example([1, 1], 0.0, 0.0, 0.0, 0)  # one row per level, all equal: span 0
    @example([800, 800, 800, 800], 6.0, 15.99, 0.5, 1)
    @example([1, 800, 3], -6.0, 16.0, 0.0, 2)  # at the cap
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_oracle(self, sizes, log_sigma, span, ties, seed):
        # predictions over `span` kernel widths sqrt(sigma) about a random
        # centre, a share `ties` of them repeated; the gradient error in
        # kernel units, |g - g*| P sqrt(sigma) n_i / (4 (L - 1)), is at most
        # 1e-12. Relative to max |g*| would say nothing: far-apart levels make
        # every cross entry underflow and |g*| as small as 1e-98.
        rng = np.random.default_rng(seed)
        sigma = 10.0**log_sigma
        root = np.sqrt(sigma)
        centre = rng.uniform(-1e3, 1e3) * root
        preds = []
        for n in sizes:
            p = centre + rng.uniform(-span / 2, span / 2, size=n) * root
            tied = rng.random(n) < ties
            p[tied] = rng.choice(p, tied.sum())
            preds.append(p)
        assert_matches_dense_oracle(preds, sigma)

    @pytest.mark.parametrize("span", [0.0, 3.0, 16.0])
    def test_predictions_on_nodes(self, span):
        # the context's nodes, rebuilt as _interpolated_moments places them
        # (sigma 1, centre 0), taken as predictions
        nodes = fair_train._NODES_BASE + int(np.ceil(fair_train._NODES_PER_SPAN * span))
        half = span / 2 + fair_train._NODE_MARGIN
        t = half * np.cos(np.arange(nodes) * (np.pi / (nodes - 1)))
        inner = t[np.abs(t) <= span / 2]
        rng = np.random.default_rng(271)
        low, high = np.array([-span / 2]), np.array([span / 2])
        preds = [np.concatenate([low, inner, rng.uniform(-span / 2, span / 2, 50)]),
                 np.concatenate([high, inner[::2]])]
        assert_matches_dense_oracle(preds, 1.0)

    def test_point_on_a_node_gets_its_unit_row(self):
        # a point on a node, or one so close that 1 / (x - t) overflows, gets
        # the unit row of that node; every other row sums to 1
        t = np.cos(np.linspace(0.0, np.pi, 17))
        t[8] = 0.0  # cos(pi / 2) rounds to 6e-17
        weights = np.resize([1.0, -1.0], 17)
        weights[[0, -1]] /= 2
        x = np.array([t[0], t[5], 0.3, 0.0, -0.0, 1e-320, -t[9]])
        q, norm = _basis(x, t, weights)
        basis = q * weights / norm[:, None]
        for k, node in ((0, 0), (1, 5), (3, 8), (4, 8), (5, 8)):
            assert np.array_equal(basis[k], np.eye(len(t))[node])
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, rtol=0, atol=1e-14)


def context_mmd2(preds, sigma, want_grads=False):
    """``_context_mmd2`` on one array of predictions per level, the gradient
    split by level."""
    sizes = [len(p) for p in preds]
    value, grad = _context_mmd2(np.concatenate(preds), sizes, sigma, want_grads)
    return value, grad if grad is None else np.split(grad, np.cumsum(sizes)[:-1])


def assert_matches_dense_oracle(preds, sigma):
    """``_context_mmd2`` with gradients against the whole-block oracle: the
    value within 1e-12, each level's gradient within 1e-12 in kernel units."""
    levels = len(preds)
    pairs = levels * (levels - 1) // 2
    want, want_grads = dense_mmd2_value_grads(preds, sigma)
    value, grads = context_mmd2(preds, sigma, want_grads=True)
    assert abs(value - want) <= 1e-12
    for g, w in zip(grads, want_grads):
        units = pairs * np.sqrt(sigma) * len(w) / (4 * (levels - 1))
        assert np.abs(g - w).max() * units <= 1e-12


class TestGradients:
    def test_mmd2_grads_match_finite_differences(self):
        rng = np.random.default_rng(227)
        preds = [rng.normal(size=7), rng.normal(size=5), rng.normal(size=6) + 0.4]
        sigma = 0.9
        pairs = list(combinations(range(len(preds)), 2))

        def pair_mean(ps):
            return sum(mmd2(ps[i], ps[j], sigma) for i, j in pairs) / len(pairs)

        _, grads = context_mmd2(preds, sigma, want_grads=True)
        eps = 1e-6
        for level, p in enumerate(preds):
            for k in range(len(p)):
                up = [q.copy() for q in preds]
                dn = [q.copy() for q in preds]
                up[level][k] += eps
                dn[level][k] -= eps
                fd = (pair_mean(up) - pair_mean(dn)) / (2 * eps)
                assert grads[level][k] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_penalized_objective_grad_on_five_parameter_model(self):
        # hidden width 1 over two features: 2 + 1 + 1 + 1 = 5 parameters;
        # one cell of two levels, then two cells of three levels each
        rng = np.random.default_rng(229)
        one_cell = [(9, 8)]
        two_cells = [(6, 9, 4), (7, 5, 8)]
        for layout in (one_cell, two_cells):
            params = _init_params(2, 1, child_rng(0, 8))
            y = rng.normal(size=12)
            blocks, cells, start = [rng.normal(size=(12, 2))], [], 12
            for sizes in layout:
                cells.append([])
                for level, n in enumerate(sizes):
                    blocks.append(rng.normal(size=(n, 2)) + 0.5 * level)
                    cells[-1].append(slice(start, start + n))
                    start += n
            x = np.concatenate(blocks)
            assert_objective_grads_match_finite_differences(params, x, y, cells, 3.0, 1.7)


def assert_objective_grads_match_finite_differences(params, x, y, cells, lam, sigma):
    _, grads = _objective_and_grads(params, x, y, cells, lam, sigma)
    eps = 1e-6
    for key in params:
        flat = params[key]
        it = np.nditer(flat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = flat[idx]
            flat[idx] = orig + eps
            up, _ = _objective_and_grads(
                params, x, y, cells, lam, sigma, want_grads=False
            )
            flat[idx] = orig - eps
            dn, _ = _objective_and_grads(
                params, x, y, cells, lam, sigma, want_grads=False
            )
            flat[idx] = orig
            fd = (up - dn) / (2 * eps)
            rel = abs(grads[key][idx] - fd) / max(abs(fd), 1e-8)
            assert rel < 1e-4, (key, idx, grads[key][idx], fd)


class TestFeatureSets:
    def test_variants(self, star_triangle):
        assert feature_set(Variant.FULL, star_triangle, "A") == ("A", "X1", "X2", "X3")
        assert feature_set(Variant.EPS_IFAIR, star_triangle, "A") == (
            "A", "X1", "X2", "X3",
        )
        assert feature_set(Variant.UNAWARE, star_triangle, "A") == ("X1", "X2", "X3")

    def test_ifair_empty_is_constant_predictor(self, star_triangle):
        assert feature_set(Variant.IFAIR, star_triangle, "A") == ()
        obs = sample_observational(two_vertex_scm(), 400, seed=5)
        model = train_predictor(
            Variant.IFAIR, 0.0, obs, [], graph=parse_graph("node A"),
            sensitive="A", outcome="X", config=TrainConfig(epochs=300), seed=1,
        )
        assert model.features == () and model.weights["w1"].shape == (0, 32)
        pred = model.predict(obs.subset("test"))
        assert np.ptp(pred) == 0.0
        assert pred[0] == pytest.approx(obs.subset("train").columns["X"].mean(), abs=0.05)

    def test_ifair_uses_nondescendants_plus_admissible(self):
        g = parse_graph("W -> A\nA -> X")
        assert feature_set(Variant.IFAIR, g, "A") == ("W",)
        assert feature_set(Variant.IFAIR, g, "A", admissible=("X",)) == ("W", "X")


class TestTraining:
    def _setup(self, beta=0.5, n=400, seed=300):
        scm = two_vertex_scm(beta=beta)
        obs = sample_observational(scm, n, seed=seed)
        truth = [
            InterventionalSet(
                sample_interventional_truth(scm, {"A": float(a)}, 300, seed=seed + a),
                float(a),
            )
            for a in range(2)
        ]
        return scm, obs, truth

    def test_lambda_zero_eps_ifair_equals_full(self):
        scm, obs, _ = self._setup()
        kw = dict(
            graph=scm.dag,
            sensitive="A",
            outcome="X",
            config=TrainConfig(epochs=60, patience=30),
            seed=7,
        )
        eps = train_predictor(Variant.EPS_IFAIR, 0.0, obs, [], **kw)
        full = train_predictor(Variant.FULL, 0.0, obs, [], **kw)
        assert eps.features == full.features
        assert all(np.array_equal(eps.weights[k], full.weights[k]) for k in eps.weights)

    def test_non_finite_objective_stops_the_run(self):
        scm, obs, _ = self._setup()
        obs.columns["X"][0] = np.nan  # a training row
        with pytest.raises(ValueError, match=r"^training objective is nan at epoch 1$"):
            train_predictor(Variant.FULL, 0.0, obs, [], graph=scm.dag, sensitive="A",
                            outcome="X", config=TrainConfig(epochs=5), seed=0)

    def test_training_learns_the_map(self):
        scm, obs, _ = self._setup(beta=0.9, n=600)
        model = train_predictor(
            Variant.FULL,
            0.0,
            obs,
            [],
            graph=scm.dag,
            sensitive="A",
            outcome="X",
            config=TrainConfig(epochs=400, patience=100),
            seed=1,
        )
        test = obs.subset("test")
        rmse = np.sqrt(((model.predict(test) - test.columns["X"]) ** 2).mean())
        assert rmse < 1.15  # close to the noise floor

    def test_determinism(self):
        scm, obs, _ = self._setup()
        kw = dict(
            graph=scm.dag, sensitive="A", outcome="X",
            config=TrainConfig(epochs=40, patience=20), seed=5,
        )
        a = train_predictor(Variant.FULL, 0.0, obs, [], **kw)
        b = train_predictor(Variant.FULL, 0.0, obs, [], **kw)
        assert all(np.array_equal(a.weights[k], b.weights[k]) for k in a.weights)

    def test_penalty_reduces_unfairness(self):
        # strong sensitive effect; generated interventional data from truth
        scm, obs, truth = self._setup(beta=0.9, n=600)
        gen = [
            InterventionalSet(
                Dataset(
                    sample_interventional_truth(scm, {"A": float(a)}, 500, seed=44 + a).columns,
                    split_rows(500, SPLIT_82),
                ),
                float(a),
            )
            for a in range(2)
        ]
        kw = dict(
            graph=scm.dag, sensitive="A", outcome="X",
            config=TrainConfig(epochs=300, patience=100), seed=3,
        )
        low = train_predictor(Variant.EPS_IFAIR, 0.0, obs, gen, **kw)
        high = train_predictor(Variant.EPS_IFAIR, 100.0, obs, gen, **kw)
        rec_low = evaluate(low, obs.subset("test"), truth, outcome="X")
        rec_high = evaluate(high, obs.subset("test"), truth, outcome="X")
        assert rec_high.mmd2 < rec_low.mmd2

    def test_ifair_ignores_excluded_columns_bitwise(self):
        g = parse_graph("A -> X\nW -> Y\nA -> Y\nX -> Y")
        from fairmpdag import Scm

        scm = Scm(
            dag=g,
            weights={e: 0.5 for e in g.directed_edges},
            mechanism={v: ("linear",) for v in g.names},
            sensitive="A",
            sensitive_levels=2,
            outcome="Y",
        )
        obs = sample_observational(scm, 300, seed=77)
        model = train_predictor(
            Variant.IFAIR,
            0.0,
            obs,
            [],
            graph=g.induced_subgraph(["W", "A", "X"]),
            sensitive="A",
            outcome="Y",
            config=TrainConfig(epochs=50, patience=20),
            seed=11,
        )
        assert model.features == ("W",)
        test = obs.subset("test")
        base = model.predict(test)
        perturbed = Dataset(
            {
                k: (v + 99.0 if k in ("A", "X") else v.copy())
                for k, v in test.columns.items()
            },
            test.split,
        )
        assert np.array_equal(model.predict(perturbed), base)


def constant_predictor_case():
    rng = np.random.default_rng(401)
    y = rng.normal(loc=2.0, scale=1.5, size=500)
    data = Dataset({"A": rng.normal(size=500), "Y": y}, split_rows(500, (("test", 1),)))
    model = FairPredictor(
        variant=Variant.FULL,
        features=("A",),
        admissible=(),
        weights={
            "w1": np.zeros((1, 4)),
            "b1": np.zeros(4),
            "w2": np.zeros((4, 1)),
            "b2": np.array([y.mean()]),
        },
        lam=0.0,
        seed=0,
    )
    truth = [
        InterventionalSet(data, 0.0),
        InterventionalSet(data, 1.0),
    ]
    return model, data, truth


class TestEvaluate:
    def test_constant_predictor(self):
        model, data, truth = constant_predictor_case()
        rec = evaluate(model, data, truth, outcome="Y")
        assert rec.mmd2 == pytest.approx(0.0, abs=1e-12)
        assert rec.rmse == pytest.approx(data.columns["Y"].std(), abs=1e-12)

    @pytest.mark.parametrize("mode", [0, -5.0, float("nan"), float("inf"), "2", True])
    def test_meaningless_bandwidth_mode_rejected(self, mode):
        model, data, truth = constant_predictor_case()
        with pytest.raises(ValueError, match="^bandwidth_mode must be 'median' or a positive"):
            evaluate(model, data, truth, outcome="Y", bandwidth_mode=mode)

    def test_three_levels_pair_count(self):
        rng = np.random.default_rng(409)

        def mk(shift):
            return Dataset(
                {"A": rng.normal(size=50) + shift},
                split_rows(50, (("train", 8), ("val", 2))),
            )

        sets = [InterventionalSet(mk(float(a)), float(a)) for a in range(3)]
        x_obs = rng.normal(size=(6, 1))
        x, cells = _stack(x_obs, sets, ("A",), "train")
        # one cell with one row slice per level, after the observational rows
        assert len(cells) == 1 and len(cells[0]) == 3
        assert np.array_equal(x[:6], x_obs)
        for s, level in zip(cells[0], sets):
            assert np.array_equal(x[s], level.data.subset("train").matrix(("A",)))
        # three unordered level pairs enter the average
        assert len(list(combinations(range(3), 2))) == 3

    def test_two_groups_three_levels_match_naive_pair_means(self):
        rng = np.random.default_rng(421)
        model = FairPredictor(
            variant=Variant.FULL,
            features=("A", "B"),
            admissible=(),
            weights=_init_params(2, 5, child_rng(4, 8)),
            lam=0.0,
            seed=0,
        )

        def mk(n, shift):
            cols = {"A": rng.normal(size=n) + shift, "B": rng.normal(size=n)}
            return Dataset(cols, split_rows(n, (("test", 1),)))

        sizes = {0: (11, 7, 15), 1: (9, 13, 6)}
        sets = [
            InterventionalSet(mk(n, 0.4 * level), float(level), group=group)
            for group, ns in sizes.items()
            for level, n in enumerate(ns)
        ]
        obs = mk(23, 0.0)
        obs.columns["Y"] = rng.normal(size=23)
        sigma = 0.8
        rec = evaluate(model, obs, sets, outcome="Y", bandwidth_mode=sigma)

        def pair_mean(group):
            preds = [model.predict(s.data) for s in sets if s.group == group]
            pairs = list(combinations(range(3), 2))
            return sum(naive_mmd2(preds[i], preds[j], sigma) for i, j in pairs) / 3

        want = (pair_mean(0) + pair_mean(1)) / 2
        assert rec.mmd2 == pytest.approx(want, abs=1e-12)
        resid = model.predict(obs) - obs.columns["Y"]
        assert rec.rmse == pytest.approx(float(np.sqrt(np.mean(resid**2))), abs=1e-12)


class TestHelpers:
    def test_admissible_values_are_train_means(self):
        scm = two_vertex_scm()
        data = sample_observational(scm, 500, seed=419)
        got = admissible_intervention_values(data, ["X"])
        assert got == {"X": float(data.subset("train").columns["X"].mean())}
        assert admissible_intervention_values(data, []) == {}

    def test_median_bandwidth_fallbacks(self):
        assert median_bandwidth(np.array([1.0])) == 1.0
        assert median_bandwidth(np.zeros(10)) == 1.0
        assert median_bandwidth(np.array([0.0, 2.0])) == 4.0
        assert median_bandwidth(np.array([0.0, np.nan, 1.0, 3.0])) == 1.0

    @pytest.mark.parametrize("n", [2, 511, 512, 2400])
    def test_median_bandwidth_bit_identical_to_triu_formula(self, n):
        values = np.random.default_rng(n).normal(size=n)
        v = values if n <= 512 else values[np.linspace(0, n - 1, 512).astype(int)]
        d2 = (v[:, None] - v[None, :]) ** 2
        assert median_bandwidth(values) == float(np.median(d2[np.triu_indices(len(v), 1)]))

    @pytest.mark.parametrize(
        "values",
        [
            # 7 tenths shifted by 1/3: gaps that are equal in decimal differ in
            # the last bit, and counting through s[i] + t picks a neighbour
            np.repeat(
                np.array([-1.1, -1.0, 0.2, 0.7, 1.1, 2.3, 2.4]) + 1 / 3,
                [32, 28, 36, 30, 32, 43, 36],
            ),
            # a tie block the subsample overweights: the bracket from its
            # gaps misses the median, so every gap is listed
            np.concatenate([-1 - np.arange(64) / 400, np.zeros(272), 1 + np.arange(64) / 400]),
        ],
    )
    def test_median_bandwidth_hard_inputs(self, values):
        assert median_bandwidth(values) == triu_median_bandwidth(values)

    @pytest.mark.parametrize(
        "values, brackets",
        [
            (np.random.default_rng(5).normal(size=400), 1),
            # four spread values between two tie blocks: the subsample holds
            # only the lowest, so the bracket ends at its gap to the zeros,
            # 3.0, below the median gap 3 + 1/64, and every gap is listed
            (np.concatenate([np.zeros(170), 3 + np.arange(4) / 64, np.full(126, 10.0)]), 2),
            # the tie block of the hard inputs: the bracket misses too
            (np.concatenate([-1 - np.arange(64) / 400, np.zeros(272), 1 + np.arange(64) / 400]), 2),
        ],
    )
    def test_median_bandwidth_fallback_stages(self, monkeypatch, values, brackets):
        seen = []
        gaps_between = fair_train._gaps_between
        monkeypatch.setattr(fair_train, "_gaps_between",
                            lambda s, lo, hi: seen.append((lo, hi)) or gaps_between(s, lo, hi))
        assert median_bandwidth(values) == triu_median_bandwidth(values)
        assert len(seen) == brackets
        assert np.isfinite(seen[0][0]) and np.isfinite(seen[0][1])
        assert (seen[-1] == (-np.inf, np.inf)) == (brackets == 2)

    @given(
        st.sampled_from([(2, 200), (3, 200), (2, 800), (3, 800)]),
        st.floats(-3.0, 2.0),
        st.floats(0.0, 4.0),
        st.sampled_from([None, 0, 1, 2, 3]),
        st.floats(0.0, 0.6),
        st.integers(0, 2**32 - 1),
    )
    @example((3, 800), 0.0, 1.0, 1, 0.3, 0)
    @settings(max_examples=80, deadline=None)
    def test_median_bandwidth_equals_oracle_on_prediction_mixtures(
        self, shape, log_scale, shift, decimals, tied, seed
    ):
        # pooled predictions of one context: 2-3 sensitive levels of 200 or
        # 800 rows, each level shifted by `shift` spreads, rounded to
        # `decimals` places and with a share `tied` of its rows at one value
        levels, rows = shape
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        parts = []
        for level in range(levels):
            part = (level * shift + rng.normal(size=rows)) * scale
            part[rng.random(rows) < tied] = part[0]
            parts.append(part if decimals is None else np.round(part, decimals))
        values = np.concatenate(parts)
        assert median_bandwidth(values) == triu_median_bandwidth(values)

    def test_gap_rank_counts_rounded_differences(self):
        rng = np.random.default_rng(17)
        s = np.sort(np.round(rng.uniform(-3, 3, size=40), 1) + 1 / 3)
        diff = s - s[:, None]
        for t in np.unique(diff):
            assert np.array_equal(_gap_rank(s, t, "left"), (diff < t).sum(axis=1))
            assert np.array_equal(_gap_rank(s, t, "right"), (diff <= t).sum(axis=1))

    def test_median_bandwidth_bit_identical_to_oracle_on_fuzzed_inputs(self):
        rng = np.random.default_rng(9)
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308])
        with np.errstate(all="ignore"):
            for case in range(3200):
                n = int(rng.integers(0, 601))
                kind = case % 8
                if kind == 0:
                    v = rng.normal(size=n) * 10.0 ** int(rng.integers(-3, 4))
                elif kind == 1:  # values rounded to 1-2 decimals
                    v = np.round(rng.normal(size=n), int(rng.integers(1, 3)))
                elif kind == 2:  # all equal
                    v = np.full(n, rng.normal())
                elif kind == 3:  # heavy ties
                    v = rng.integers(-3, 4, size=n).astype(float)
                elif kind == 4:  # subnormals
                    v = rng.normal(size=n) * 5e-324 * int(rng.integers(1, 100))
                elif kind == 5:  # mostly zeros: the mean fallback
                    v = np.where(rng.random(n) < 0.7, 0.0, rng.normal(size=n))
                elif kind == 6:  # rounded values far from zero
                    v = np.round(rng.uniform(-1, 1, size=n), 1) + rng.normal() * 1e3
                else:  # heavy tails, overflowing differences
                    v = rng.standard_cauchy(size=n) * 1e300
                if n and rng.random() < 0.5:
                    k = int(rng.integers(1, 4))
                    v[rng.integers(0, n, size=k)] = rng.choice(specials, size=k)
                got = median_bandwidth(v)
                assert type(got) is float
                assert got == triu_median_bandwidth(v), (case, n)

    def test_train_config_from_json(self):
        cfg = train_from_json('{"patience": 8, "lambda_grid": [0, 1.5]}')
        assert cfg.patience == 8 and cfg.lambda_grid == (0, 1.5)
        assert type(cfg.lambda_grid[0]) is int  # run names keep "lam0"
        assert cfg.epochs == TrainConfig().epochs
        with pytest.raises(ValueError, match="train: unknown key 'ignored'"):
            train_from_json('{"patience": 8, "ignored": 3}')

    @pytest.mark.parametrize("mode", ['"mediam"', '"1.5"', "0", "-2.0", "true", "NaN", "Infinity"])
    def test_train_config_rejects_bad_bandwidth_mode(self, mode):
        # training always takes the median heuristic, so the key is gone
        with pytest.raises(ValueError, match="train: unknown key 'bandwidth_mode'"):
            train_from_json(f'{{"bandwidth_mode": {mode}}}')

    def test_predictor_json_roundtrip(self):
        for features in (("W",), ()):  # () is the constant IFair predictor
            p = FairPredictor(
                variant=Variant.IFAIR,
                features=features,
                admissible=(),
                weights={
                    "w1": np.ones((len(features), 2)),
                    "b1": np.full(2, 0.3),
                    "w2": np.ones((2, 1)),
                    "b2": np.zeros(1),
                },
                lam=0.5,
                seed=3,
            )
            q = FairPredictor.from_json(p.to_json())
            assert q.variant is p.variant and q.features == p.features
            assert q.weights["w1"].shape == (len(features), 2)
            data = Dataset({"W": np.array([0.2, 1.4])}, (("test", 2),))
            assert np.allclose(p.predict(data), q.predict(data))
