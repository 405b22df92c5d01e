"""Estimation: MPLE identities, sandwich variance, MCMLE, CD."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from helpers import _log_tilt, change_score, exact_moments, random_dyad
from ergmkit import estimate, proposals
from ergmkit.errors import ConstraintError, DataError, SeparationError, \
    SingularityError
from ergmkit.estimate import (McmleControl, cd_fit, check_termination,
                              logistic_fit, mcmle_fit, mcmle_step, mple,
                              mple_rows, pseudo_loglik, _IterationRecord)
from ergmkit.formula import parse_constraint_formula
from ergmkit.network import Network, VertexAttributes
from ergmkit.sampler import Chain, _offset_shift
from ergmkit.terms import bind


def grid_oracle_pseudolik(rows, shift, lo=-4.0, hi=4.0):
    """Coordinate golden-section maximization of the pseudo-likelihood.

    Independent of the Newton path: repeatedly refines each coordinate
    on a shrinking interval until the maximizer is pinned to 1e-8.
    """
    p = rows.predictor.shape[1]
    beta = np.zeros(p)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def value(b):
        return pseudo_loglik(rows.predictor, rows.response, rows.weights,
                             shift, b)

    for _ in range(60):
        moved = 0.0
        for c in range(p):
            a, b = lo, hi
            for _ in range(80):
                x1 = b - invphi * (b - a)
                x2 = a + invphi * (b - a)
                beta1 = beta.copy()
                beta1[c] = x1
                beta2 = beta.copy()
                beta2[c] = x2
                if value(beta1) > value(beta2):
                    b = x2
                else:
                    a = x1
            new = 0.5 * (a + b)
            moved = max(moved, abs(new - beta[c]))
            beta[c] = new
        if moved < 1e-9:
            break
    return beta


def sex_attrs(n):
    attrs = VertexAttributes(n)
    attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(n)])
    attrs.add("age", [18.0 + (v * 13) % 29 for v in range(n)])
    return attrs


def random_net(n, density, seed, directed=False, bipartite=0):
    rng = random.Random(seed)
    net = Network(n, directed=directed, bipartite=bipartite)
    for k in range(net.dyad_count()):
        if rng.random() < density:
            net.toggle(*net.dyad_at(k))
    return net


def loop_rows(net, model, mode, frozen=lambda i, j: False):
    """mple_rows dyad by dyad through the scalar change score, skipping
    frozen dyads."""
    free, off = model.free_index, model.offset_index
    change = change_score(model, net)
    live = [(i, j) for i, j in net.dyads() if not frozen(i, j)]
    if mode == "array":
        cube = np.full((net.n, net.n, model.p), np.nan)
        for i, j in live:
            cube[i, j, :] = change(i, j)
            if not net.directed:
                cube[j, i, :] = change(i, j)
        return cube
    rows, listed, dyads = {}, [], []
    for i, j in live:
        delta = change(i, j)
        key = (1.0 if net.has_edge(i, j) else 0.0,
               *(delta[c] for c in free), *(delta[c] for c in off))
        rows[key] = rows.get(key, 0) + 1
        listed.append(key)
        dyads.append((i + 1, j + 1))
    table = listed if mode == "dyadlist" else list(rows)
    table = np.array(table, dtype=float).reshape(len(table), 1 + model.p)
    weights = (np.ones(len(listed)) if mode == "dyadlist"
               else np.array(list(rows.values()), dtype=float))
    return (table[:, 0], table[:, 1:1 + len(free)], table[:, 1 + len(free):],
            weights, np.array(dyads, dtype=np.int64).reshape(-1, 2))


def loop_score(net, model, coefs, frozen=lambda i, j: False):
    """The sandwich estimating function dyad by dyad, skipping frozen dyads."""
    free = model.free_index
    change = change_score(model, net)
    u = np.zeros(len(free))
    for i, j in net.dyads():
        if frozen(i, j):
            continue
        delta = change(i, j)
        eta = _log_tilt(coefs, delta, 1)
        if eta == math.inf:
            p = 1.0
        elif eta == -math.inf:
            p = 0.0
        else:
            p = 1.0 / (1.0 + math.exp(-min(max(eta, -700.0), 700.0)))
        resid = (1.0 if net.has_edge(i, j) else 0.0) - p
        for c, kf in enumerate(free):
            u[c] += delta[kf] * resid
    return u


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def capture_score(monkeypatch):
    """Make mple hand its sandwich score function to the returned list."""
    seen = []
    run = Chain.run

    def spy(self, *args, collect=None, **kwargs):
        seen.append(collect)
        return run(self, *args, collect=collect, **kwargs)

    monkeypatch.setattr(Chain, "run", spy)
    return seen


class TestMpleRows:
    def test_weights_sum_to_dyads_directed(self):
        net = random_net(4, 0.4, 0, directed=True)
        model = bind("edges + triangle", net)
        rows = mple_rows(net, model)
        assert rows.weights.sum() == 12

    def test_empty_five_nodes_compresses(self):
        net = Network(5)
        model = bind("edges + triangle", net)
        rows = mple_rows(net, model)
        assert len(rows.weights) == 1
        assert rows.weights[0] == 10
        assert rows.response[0] == 0
        assert rows.predictor[0].tolist() == [1.0, 0.0]

    def test_array_mode(self):
        net = random_net(4, 0.5, 1, directed=True)
        model = bind("edges + triangle", net)
        rows = mple_rows(net, model, mode="array")
        cube = rows.array
        assert cube.shape == (4, 4, 2)
        assert np.isnan(cube[np.arange(4), np.arange(4), 0]).all()
        off_diag = ~np.eye(4, dtype=bool)
        assert (cube[:, :, 0][off_diag] == 1.0).all()

    def test_dyadlist_mode(self):
        net = random_net(4, 0.5, 2, directed=True)
        model = bind("edges + triangle", net)
        rows = mple_rows(net, model, mode="dyadlist")
        assert rows.dyads.shape == (12, 2)
        assert rows.dyads.min() == 1
        assert len(rows.response) == 12

    def test_undirected_counts(self):
        net = Network(6)
        model = bind("edges", net)
        rows = mple_rows(net, model, mode="dyadlist")
        assert len(rows.response) == 15

    @pytest.mark.parametrize("kind", ["undirected", "directed", "bipartite"])
    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_blocks_match_dyad_loop(self, kind, block, monkeypatch):
        monkeypatch.setattr(estimate, "_BLOCK_DYADS", block)
        attrs = sex_attrs(11)
        formula = ('edges + triangle + nodematch("sex") + offset(nodecov("age"))'
                   + ('' if kind == "directed" else
                      ' + concurrent + gwesp(0.5, fixed=true)'))
        # sex levels are F=0 (odd vertices) and M=1; the directed matrix
        # freezes every dyad an F vertex sends, so some row blocks empty
        blocks = parse_constraint_formula('blocks(attr="sex", levels2=diag)')
        if kind == "directed":
            blocks.blocks_levels2 = [[1, 1], [0, 0]]
            blocked = lambda i, j: i % 2 == 1
        else:
            blocked = lambda i, j: (i + j) % 2 == 0
        for spec, frozen in ((None, lambda i, j: False), (blocks, blocked)):
            net = random_net(11, 0.3, 7, directed=kind == "directed",
                             bipartite=4 if kind == "bipartite" else 0)
            for i, j in list(net.edges):
                if frozen(i, j):
                    net.toggle(i, j)
            model = bind(formula, net, attrs)
            assert same_bits(mple_rows(net, model, "array", spec, attrs).array,
                             loop_rows(net, model, "array", frozen))
            for mode in ("compressed", "dyadlist"):
                rows = mple_rows(net, model, mode, spec, attrs)
                resp, pred, offv, weights, dyads = loop_rows(net, model, mode,
                                                             frozen)
                for got, want in ((rows.response, resp),
                                  (rows.predictor, pred),
                                  (rows.offsets, offv),
                                  (rows.weights, weights)):
                    assert same_bits(got, want)
                    assert got.flags.c_contiguous
                if mode == "dyadlist":
                    assert np.array_equal(rows.dyads, dyads)

    def test_memory_bounded_by_block(self):
        # the sweep holds one block of change scores at a time: the peak
        # of the design, and of the fit on it, must not grow with the
        # dyad count (16x from n=200 to n=800), also when blocks freeze
        # half the dyads (where gwesp is constant: no cross-sex triangle)
        blocks = parse_constraint_formula('blocks(attr="sex", levels2=diag)')
        for spec, formula in (
                (None, "edges + concurrent + gwesp(0.5, fixed=true)"),
                (blocks, 'edges + concurrent + nodecov("age")')):
            rows_peaks, fit_peaks = [], []
            for n in (200, 800):
                rng = random.Random(n)
                net = Network(n)
                attrs = sex_attrs(n)
                while net.edge_count < n:
                    i, j = random_dyad(net, rng)
                    if not net.has_edge(i, j) and (spec is None or (i + j) % 2):
                        net.toggle(i, j)
                model = bind(formula, net, attrs)
                tracemalloc.start()
                try:
                    mple_rows(net, model, "compressed", spec, attrs)
                    rows_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.reset_peak()
                    mple(net, model, constraints=spec, attrs=attrs)
                    fit_peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert rows_peaks[1] < 2 * rows_peaks[0]
            assert fit_peaks[1] < 2 * fit_peaks[0]


class TestLogisticFit:
    def test_intercept_only_closed_form(self):
        # edges-only MPLE is logit(density) exactly
        net = random_net(10, 0.4, 3)
        model = bind("edges", net)
        rows = mple_rows(net, model)
        beta, _ = logistic_fit(rows.predictor, rows.response, rows.weights)
        E, N = net.edge_count, net.dyad_count()
        assert abs(beta[0] - math.log(E / (N - E))) < 1e-10

    def test_weights_equal_replication(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2))
        y = (rng.random(30) < 0.5).astype(float)
        w = rng.integers(1, 5, size=30).astype(float)
        b_w, J_w = logistic_fit(X, y, w)
        X_rep = np.repeat(X, w.astype(int), axis=0)
        y_rep = np.repeat(y, w.astype(int))
        b_r, J_r = logistic_fit(X_rep, y_rep)
        assert np.abs(b_w - b_r).max() < 1e-12
        assert np.abs(J_w - J_r).max() < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_oracle(self, seed):
        net = random_net(8, 0.35, 10 + seed)
        attrs = sex_attrs(8)
        model = bind('edges + nodematch("sex")', net, attrs)
        rows = mple_rows(net, model)
        shift = np.zeros(len(rows.response))
        beta, _ = logistic_fit(rows.predictor, rows.response, rows.weights, shift)
        oracle = grid_oracle_pseudolik(rows, shift)
        assert np.abs(beta - oracle).max() < 1e-6

    def test_rank_check_takes_the_thin_svd(self, monkeypatch):
        # one design row per dyad under continuous covariates:
        # a full U would be rows x rows (15 GiB at 44,850 rows)
        shapes = []
        original = np.linalg.svd

        def recording(*args, **kwargs):
            out = original(*args, **kwargs)
            shapes.append(tuple(part.shape for part in out))
            return out

        monkeypatch.setattr(np.linalg, "svd", recording)
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        y = (rng.random(50) < 0.4).astype(float)
        logistic_fit(X, y)
        assert shapes == [((50, 3), (3,), (3, 3))]

    def test_separation_detected(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            logistic_fit(X, y)

    def test_rank_deficiency_reported(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [1.0, 2.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(SingularityError):
            logistic_fit(X, y)

    def test_neg_inf_rows_dropped(self):
        X = np.array([[1.0], [1.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 0.0])
        shift = np.array([0.0, 0.0, 0.0, -math.inf])
        beta, _ = logistic_fit(X, y, shift=shift)
        # the kept rows: 1 success of 3 -> logit(1/3)... of the kept rows
        assert abs(beta[0] - math.log((1 / 3) / (2 / 3))) < 1e-8

    def test_contradicting_offset_rejected(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, 0.0])
        shift = np.array([-math.inf, 0.0])
        with pytest.raises(DataError):
            logistic_fit(X, y, shift=shift)


class TestOffsetShift:
    def test_zero_change_times_inf_is_zero(self):
        offsets = np.array([[0.0], [1.0], [-1.0]])
        shift = _offset_shift(offsets, [-math.inf])
        assert shift[0] == 0.0
        assert shift[1] == -math.inf
        assert shift[2] == math.inf


class TestMple:
    def test_nan_offset_rejected_before_the_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted")
        monkeypatch.setattr(estimate, "logistic_fit", no_fit)
        net = random_net(10, 0.4, 3)
        with pytest.raises(DataError, match="NaN"):
            mple(net, bind("edges + offset(triangle)", net),
                 offset_coefs=[math.nan])

    @pytest.mark.parametrize("offset", [-0.7, -math.inf])
    def test_sandwich_score_matches_dyad_loop(self, monkeypatch, offset):
        seen = capture_score(monkeypatch)
        attrs = sex_attrs(24)
        if math.isinf(offset):
            # cross-sex ties only, so the -inf offset forbids no edge
            net = Network(24)
            rng = random.Random(8)
            while net.edge_count < 30:
                i, j = random_dyad(net, rng)
                if (i + j) % 2 == 1 and not net.has_edge(i, j):
                    net.toggle(i, j)
            formula = 'edges + concurrent + nodecov("age") + offset(nodematch("sex"))'
        else:
            net = random_net(24, 0.15, 8)
            for a, b, c in ((0, 1, 2), (3, 4, 5), (1, 4, 9)):
                for i, j in ((a, b), (a, c), (b, c)):
                    if not net.has_edge(i, j):
                        net.toggle(i, j)
            formula = ('edges + nodematch("sex") + gwesp(0.5, fixed=true)'
                       ' + offset(concurrent)')
        model = bind(formula, net, attrs)
        fit = mple(net, model, offset_coefs=[offset], se="sandwich",
                   samplesize=2, interval=5, seed=1)
        assert same_bits(seen[-1](net), loop_score(net, model, list(fit.coefs)))

    def test_sandwich_score_skips_blocked_dyads(self, monkeypatch):
        seen = capture_score(monkeypatch)
        rng = random.Random(40)
        net = Network(40)
        while net.edge_count < 30:
            i, j = random_dyad(net, rng)
            if (i + j) % 2 == 1 and not net.has_edge(i, j):
                net.toggle(i, j)
        attrs = sex_attrs(40)
        model = bind("edges + concurrent", net, attrs)
        spec = parse_constraint_formula('blocks(attr="sex", levels2=diag)')
        fit = mple(net, model, se="sandwich", constraints=spec, attrs=attrs,
                   samplesize=2, interval=5, seed=2)
        same_sex = lambda i, j: (i + j) % 2 == 0
        score = seen[-1](net)
        assert same_bits(score, loop_score(net, model, list(fit.coefs),
                                           frozen=same_sex))
        assert not same_bits(score, loop_score(net, model, list(fit.coefs)))

    def test_edge_on_blocked_dyad_violates_blocks(self):
        # no offset is set: the error names the constraint, with 1-based
        # endpoints, before any fit
        net = Network(12)
        for i, j in ((0, 1), (2, 4), (5, 6)):
            net.toggle(i, j)
        attrs = sex_attrs(12)
        model = bind("edges + concurrent", net, attrs)
        spec = parse_constraint_formula('blocks(attr="sex", levels2=diag)')
        for mode in ("compressed", "array", "dyadlist"):
            with pytest.raises(ConstraintError,
                               match=r"edge \(3, 5\) violates blocks"):
                mple_rows(net, model, mode, spec, attrs)
        for se in ("naive", "sandwich"):
            with pytest.raises(ConstraintError,
                               match=r"edge \(3, 5\) violates blocks"):
                mple(net, model, se=se, constraints=spec, attrs=attrs,
                     samplesize=2, interval=5)

    def test_sandwich_needs_two_draws(self):
        net = random_net(10, 0.3, 9)
        model = bind("edges", net)
        with pytest.raises(DataError):
            mple(net, model, se="sandwich", samplesize=1)

    def test_dyad_independent_sandwich_close_to_naive(self):
        net = random_net(20, 0.3, 20)
        attrs = sex_attrs(20)
        model = bind('edges + nodematch("sex")', net, attrs)
        naive = mple(net, model, se="naive")
        sand = mple(net, model, se="sandwich", samplesize=10_000, seed=1)
        rel = np.linalg.norm(sand.vcov - naive.vcov) / np.linalg.norm(naive.vcov)
        assert rel < 0.10

    def test_sandwich_inflates_dependent_terms(self):
        # on clustered data the triangle coordinate's corrected variance
        # should usually exceed the logistic one
        hits = 0
        trials = 12
        for s in range(trials):
            rng = random.Random(1000 + s)
            net = Network(14)
            # plant clustering: dense blocks of 5
            for block in range(0, 10, 5):
                for a in range(block, block + 5):
                    for b in range(a + 1, block + 5):
                        if rng.random() < 0.75:
                            net.toggle(a, b)
            for _ in range(6):
                i, j = random_dyad(net, rng)
                if not net.has_edge(i, j):
                    net.toggle(i, j)
            model = bind("edges + triangle", net)
            try:
                naive = mple(net, model, se="naive")
                sand = mple(net, model, se="sandwich", samplesize=1500,
                            seed=s)
            except (SeparationError, SingularityError):
                continue
            if sand.vcov[1, 1] >= naive.vcov[1, 1]:
                hits += 1
        assert hits >= 0.75 * trials

    def test_covariate_scaling_equivariance(self):
        net = random_net(12, 0.35, 30)
        attrs = sex_attrs(12)
        model = bind('edges + nodecov("age")', net, attrs)
        fit = mple(net, model)
        scaled = VertexAttributes(12)
        scaled.add("sex", attrs.columns["sex"])
        scaled.add("age", [a * 10.0 for a in attrs.columns["age"]])
        model2 = bind('edges + nodecov("age")', net, scaled)
        fit2 = mple(net, model2)
        assert abs(fit2.coefs[1] - fit.coefs[1] / 10.0) < 1e-9
        assert abs(fit2.standard_errors()[1] - fit.standard_errors()[1] / 10.0) < 1e-9

    def test_offsets_carried(self):
        net = Network(10)
        for k in range(5):
            net.toggle(2 * k, 2 * k + 1)
        attrs = sex_attrs(10)
        model = bind('edges + offset(nodematch("sex"))', net, attrs)
        fit = mple(net, model, offset_coefs=[-math.inf])
        assert fit.coefs[1] == -math.inf
        assert len(fit.free_coefs) == 1


class TestMcmleStep:
    def test_zero_gradient_at_mean(self):
        rng = np.random.default_rng(5)
        sample = rng.normal(size=(400, 3))
        g_obs = sample.mean(axis=0)
        theta = np.array([0.5, -0.2, 0.1])
        theta_next, info = mcmle_step(theta, sample, g_obs)
        assert np.abs(theta_next - theta).max() < 1e-6

    def test_direction_toward_outside_target(self):
        rng = np.random.default_rng(6)
        sample = rng.normal(size=(500, 2))
        center = sample.mean(axis=0)
        g_obs = center + np.array([40.0, 0.0])   # far outside the hull
        theta = np.zeros(2)
        theta_next, info = mcmle_step(theta, sample, g_obs)
        step = theta_next - theta
        assert step @ (g_obs - center) > 0
        assert info["gamma"] < 1.0

    def test_not_spanned_rejected(self):
        sample = np.zeros((100, 2))
        sample[:, 0] = np.random.default_rng(7).normal(size=100)
        g_obs = np.array([0.0, 5.0])
        with pytest.raises(SingularityError):
            mcmle_step(np.zeros(2), sample, g_obs)

    def test_monotone_surrogate(self):
        rng = np.random.default_rng(8)
        sample = rng.normal(size=(300, 2))
        g_obs = sample.mean(axis=0) + np.array([0.3, -0.2])
        _, info = mcmle_step(np.zeros(2), sample, g_obs)
        assert info["objective_gain"] >= -1e-12


class TestTermination:
    def make_record(self, rng, offset=0.0, S=600):
        sample = rng.normal(size=(S, 2))
        g_obs = sample.mean(axis=0) + offset
        from ergmkit.hull import boundary_multiplier
        gamma = boundary_multiplier(sample, g_obs)
        return _IterationRecord(theta=np.zeros(2), sample=sample,
                                g_obs=g_obs, gamma=gamma)

    def test_all_three_stop_at_mean(self):
        rng = np.random.default_rng(9)
        rec = self.make_record(rng)
        hist = [rec, rec]
        assert check_termination("hotelling", hist)[0]
        assert check_termination("hummel", hist)[0]
        assert check_termination("confidence", hist)[0]

    def test_none_stop_far_away(self):
        rng = np.random.default_rng(10)
        rec = self.make_record(rng, offset=10.0)
        hist = [rec, rec]
        assert not check_termination("hotelling", hist)[0]
        assert not check_termination("hummel", hist)[0]
        assert not check_termination("confidence", hist)[0]

    def test_hotelling_negative_t2_does_not_stop(self, monkeypatch):
        # a T^2 below zero (a covariance gone indefinite by rounding) has
        # a NaN p-value, so the rule keeps iterating
        rng = np.random.default_rng(9)
        rec = self.make_record(rng, offset=0.01)
        hist = [rec, rec]
        assert check_termination("hotelling", hist)[0]
        cov = estimate.batch_means_cov
        monkeypatch.setattr(estimate, "batch_means_cov", lambda z: -cov(z))
        stop, pval = check_termination("hotelling", hist)
        assert not stop
        assert math.isnan(pval)

    def test_confidence_z_is_the_normal_quantile(self):
        from scipy.special import ndtri
        z = float(ndtri(1.0 - estimate._CONFIDENCE_ALPHA))
        assert estimate._CONFIDENCE_Z.hex() == z.hex()

    def test_hummel_needs_two(self):
        rng = np.random.default_rng(11)
        hist = [self.make_record(rng)]
        assert not check_termination("hummel", hist)[0]

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            check_termination("bogus", [])


class TestMcmleFit:
    def test_edges_only_recovers_log2(self):
        net = Network(10)
        model = bind("edges", net)
        control = McmleControl(samplesize=512, interval=20, maxit=20, seed=3)
        fit = mcmle_fit(net, model, g_obs=[30.0], init=[0.0], control=control)
        assert fit.converged
        assert abs(fit.coefs[0] - math.log(2.0)) < 0.02

    def test_maxit_must_be_positive(self):
        # with no iteration there is no sample to report
        net = Network(10)
        model = bind("edges", net)
        with pytest.raises(DataError):
            mcmle_fit(net, model, g_obs=[30.0], init=[0.0],
                      control=McmleControl(maxit=0))

    @pytest.mark.parametrize("g_obs", [math.nan, math.inf, -math.inf])
    def test_observed_statistics_must_be_finite(self, monkeypatch, g_obs):
        # rejected before the first chain is bound
        def no_chain(*args, **kwargs):
            raise AssertionError("sampled")
        monkeypatch.setattr(proposals, "make_proposal", no_chain)
        net = Network(10)
        with pytest.raises(DataError, match="finite"):
            mcmle_fit(net, bind("edges", net), g_obs=[g_obs], init=[0.0])

    @pytest.mark.parametrize("termination", ["hotelling", "hummel", "confidence"])
    def test_termination_criteria_stop(self, termination):
        net = Network(10)
        model = bind("edges", net)
        control = McmleControl(samplesize=512, interval=20, maxit=10, seed=4,
                               termination=termination)
        fit = mcmle_fit(net, model, g_obs=[30.0], init=[0.0], control=control)
        assert fit.converged
        assert fit.iterations <= 10
        assert abs(fit.coefs[0] - math.log(2.0)) < 0.05

    @pytest.mark.parametrize("termination", ["hotelling", "hummel", "confidence"])
    def test_one_hull_lp_per_iteration(self, monkeypatch, termination):
        # the README edges fit takes 2-4 iterations under every rule, so
        # a second LP per iteration anywhere shows up as a count mismatch
        from ergmkit import hull
        calls = []
        for module in (estimate, hull):
            real = module.boundary_multiplier

            def spy(*args, real=real, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, "boundary_multiplier", spy)
        net = Network(10)
        control = McmleControl(samplesize=512, interval=20,
                               termination=termination)
        fit = mcmle_fit(net, bind("edges", net), g_obs=[30.0], init=[0.0],
                        control=control)
        assert fit.converged
        assert fit.iterations >= 2
        assert len(calls) == fit.iterations

    def test_one_chain_binds_once(self, monkeypatch):
        # every iteration continues one chain: its proposal is bound once
        binds = []
        bind_tnt = proposals.TntProposal.bind

        def spy(self, *args):
            binds.append(args)
            return bind_tnt(self, *args)
        monkeypatch.setattr(proposals.TntProposal, "bind", spy)
        net = Network(10)
        fit = mcmle_fit(net, bind("edges", net), g_obs=[30.0], init=[0.0],
                        control=McmleControl(samplesize=512, interval=20,
                                             maxit=3, termination="hummel"))
        assert fit.iterations >= 2
        assert len(binds) == 1

    def test_offsets_respected_in_fit(self):
        net = Network(12)
        attrs = sex_attrs(12)
        for k in range(4):
            net.toggle(2 * k, 2 * k + 1)
        model = bind('edges + offset(nodematch("sex"))', net, attrs)
        control = McmleControl(samplesize=256, interval=30, maxit=12, seed=5)
        fit = mcmle_fit(net, model, offset_coefs=[-math.inf], control=control)
        assert fit.coefs[1] == -math.inf
        # simulate at the fit: no forbidden dyads may appear
        from ergmkit.proposals import TntProposal
        from ergmkit.sampler import SamplerConfig, run_chain
        sim = net.copy()
        cfg = SamplerConfig(samplesize=200, interval=10, burnin=200, seed=6)
        sm = run_chain(sim, model, list(fit.coefs), TntProposal(), cfg)
        assert sm.values[:, 1].max() == 0.0

    def test_mple_is_mcmle_limit_when_dyad_independent(self):
        net = random_net(12, 0.35, 60)
        attrs = sex_attrs(12)
        model = bind('edges + nodematch("sex")', net, attrs)
        target = mple(net, model).free_coefs
        control = McmleControl(samplesize=1024, interval=70, maxit=25, seed=6,
                               termination="hotelling")
        fit = mcmle_fit(net, model, init=[0.0, 0.0], control=control)
        assert fit.converged
        assert np.abs(fit.free_coefs - target).max() < 0.15

    def test_permutation_equivariance(self):
        # relabeling vertices must not change the estimates (beyond MC noise,
        # here exact because the statistics are relabeling-invariant)
        net = random_net(9, 0.4, 40)
        model = bind("edges", net)
        fit = mple(net, model)
        perm = list(range(9))
        random.Random(0).shuffle(perm)
        net2 = Network(9)
        for i, j in net.edges:
            net2.toggle(perm[i], perm[j])
        fit2 = mple(net2, bind("edges", net2))
        assert abs(fit.coefs[0] - fit2.coefs[0]) < 1e-12


class TestCdFit:
    def test_edges_only_matches_density_logit(self):
        net = random_net(10, 0.4, 50)
        model = bind("edges", net)
        est = cd_fit(net, model, k=1, rounds=120, minibatch=32, seed=1)
        E, N = net.edge_count, net.dyad_count()
        assert abs(est[0] - math.log(E / (N - E))) < 0.1

    def test_dyad_independent_close_to_mple(self):
        net = random_net(12, 0.35, 51)
        attrs = sex_attrs(12)
        model = bind('edges + nodematch("sex")', net, attrs)
        target = mple(net, model).free_coefs
        est = cd_fit(net, model, k=24, rounds=200, minibatch=32, seed=2)
        assert np.abs(est - target).max() < 0.35

    def test_usable_under_constraints(self):
        # degree caps make the pseudo-likelihood unavailable; CD still works
        net = Network(12)
        attrs = sex_attrs(12)
        for k in range(4):
            net.toggle(2 * k, 2 * k + 1)
        spec = parse_constraint_formula('bd(maxout=1) + blocks(attr="sex", levels2=diag)')
        model = bind("edges", net, attrs)
        est = cd_fit(net, model, k=6, rounds=60, minibatch=16,
                     constraints=spec, attrs=attrs, seed=3)
        assert np.isfinite(est).all()

    @pytest.mark.parametrize("bad", [{"k": 0}, {"rounds": 0}, {"minibatch": 1}],
                             ids=["k0", "rounds0", "minibatch1"])
    def test_degenerate_arguments_rejected(self, bad):
        # one chain per round has no covariance; no steps or no rounds
        # estimate nothing
        net = random_net(6, 0.4, 52)
        with pytest.raises(DataError, match="cd_fit needs"):
            cd_fit(net, bind("edges", net), **bad)
