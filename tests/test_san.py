"""Simulated annealing: weight updates, energy, the offset contract."""

import math
import random

import numpy as np
import pytest

from ergmkit.errors import DataError
from ergmkit.formula import parse_constraint_formula
from ergmkit.network import Network, VertexAttributes
from ergmkit.san import SanConfig, energy, san_run, san_weight_update
from ergmkit.terms import bind, summary_stats


def sex_attrs(n):
    attrs = VertexAttributes(n)
    attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(n)])
    return attrs


class TestEnergy:
    def test_zero_at_target(self):
        assert energy([3.0, 1.0], [3.0, 1.0], np.eye(2)) == 0.0

    def test_half_identity(self):
        assert abs(energy([1.0, 1.0], [0.0, 0.0], np.eye(2) / 2) - 1.0) < 1e-15

    def test_invariant_under_zero_deviation_column(self):
        W = np.eye(3) / 3
        e3 = energy([1.0, 2.0, 7.0], [0.0, 2.0, 7.0], W)
        e1 = energy([1.0], [0.0], np.eye(1) / 3)
        assert abs(e3 - e1) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            energy([1.0, 2.0], [0.0, 0.0], np.eye(3))


class TestWeightUpdate:
    def test_identity_covariance(self):
        rng = np.random.default_rng(0)
        diffs = rng.standard_normal((40_000, 2))
        W = san_weight_update(diffs)
        assert np.allclose(W, np.eye(2) / 2, atol=0.01)

    def test_diagonal_4_1(self):
        rng = np.random.default_rng(1)
        diffs = rng.standard_normal((200_000, 2)) * np.array([2.0, 1.0])
        W = san_weight_update(diffs)
        # S = diag(4, 1) -> pinv = diag(1/4, 1), trace 5/4 -> diag(.2, .8)
        assert np.allclose(W, np.diag([0.2, 0.8]), atol=0.01)
        assert abs(np.trace(W) - 1.0) < 1e-12

    def test_rank_one(self):
        v = np.array([1.0, 2.0])
        rng = np.random.default_rng(2)
        diffs = np.outer(rng.standard_normal(5000), v)
        W = san_weight_update(diffs)
        assert abs(np.trace(W) - 1.0) < 1e-9
        # W supported on span(v): the orthogonal direction is null
        orth = np.array([2.0, -1.0])
        assert abs(orth @ W @ orth) < 1e-9


class TestSanRun:
    def test_monogamous_heterosexual_example(self):
        # 100 nodes, alternating sex, 30 target edges, forbidden same-sex
        # ties and concurrency via -inf offsets
        net = Network(100)
        attrs = sex_attrs(100)
        model = bind('edges + offset(nodematch("sex")) + offset(concurrent)',
                     net, attrs)
        config = SanConfig(targets=[30.0], offset_coefs=(-math.inf, -math.inf),
                           seed=5)
        out, trace = san_run(net, model, config, attrs=attrs)
        check = bind('edges + nodematch("sex") + concurrent', out, attrs)
        assert summary_stats(out, check) == [30.0, 0.0, 0.0]
        assert trace.exited_early

    def test_immediate_exit_when_on_target(self):
        net = Network(10)
        net.toggle(0, 1)
        model = bind("edges", net)
        config = SanConfig(targets=[1.0], seed=0)
        out, trace = san_run(net, model, config)
        assert trace.proposals == 0
        assert trace.exited_early

    def test_reliability_n50(self):
        model_net = Network(50)
        model = bind("edges", model_net)
        hits = 0
        for seed in range(50):
            net = Network(50)
            config = SanConfig(targets=[40.0], steps_per_run=250_000, runs=4,
                               seed=seed)
            out, trace = san_run(net, model, config)
            if out.edge_count == 40:
                hits += 1
        assert hits >= 49

    def test_offsets_never_increase(self):
        # a -inf offset statistic never rises above its starting value
        net = Network(30)
        attrs = sex_attrs(30)
        model = bind('edges + offset(nodematch("sex"))', net, attrs)
        config = SanConfig(targets=[20.0], offset_coefs=(-math.inf,),
                           steps_per_run=20_000, runs=2, seed=7,
                           trace_interval=100)
        out, trace = san_run(net, model, config)
        match_stats = [row[1][1] for row in trace.rows]
        assert all(v <= 0.0 for v in match_stats)
        check = bind('nodematch("sex")', out, attrs)
        assert summary_stats(out, check) == [0.0]

    def test_plus_inf_offset_never_decreases(self):
        # start with same-sex matches present: a +inf offset forbids
        # ever removing one
        net = Network(20)
        attrs = sex_attrs(20)
        for d in [(0, 2), (4, 6), (1, 3)]:
            net.toggle(*d)
        model = bind('edges + offset(nodematch("sex"))', net, attrs)
        config = SanConfig(targets=[10.0], offset_coefs=(math.inf,),
                           steps_per_run=20_000, runs=2, seed=21,
                           trace_interval=100)
        out, trace = san_run(net, model, config)
        match_stats = [row[1][1] for row in trace.rows]
        assert all(v >= 3.0 for v in match_stats)

    def test_t0_energy_monotone(self):
        # fixed temperature zero with positive-definite W: the energy is
        # non-increasing along the accepted-move sequence
        net = Network(20)
        rng = random.Random(9)
        for _ in range(40):
            i, j = net.random_dyad(rng)
            net.toggle(i, j)
        model = bind("edges + concurrent", net)
        config = SanConfig(targets=[25.0, 10.0], runs=1, tau0=0.0,
                           steps_per_run=30_000, seed=11, trace_interval=50)
        out, trace = san_run(net, model, config)
        energies = [row[2] for row in trace.rows]
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    def test_respects_bd_constraints(self):
        net = Network(40)
        attrs = sex_attrs(40)
        spec = parse_constraint_formula('bd(maxout=1) + blocks(attr="sex", levels2=diag)')
        model = bind("edges", net, attrs)
        config = SanConfig(targets=[15.0], steps_per_run=50_000, seed=13)
        out, trace = san_run(net, model, config, constraints=spec, attrs=attrs)
        assert out.edge_count == 15
        assert max(out.deg) <= 1
        assert all((i % 2) != (j % 2) for i, j in out.edges)

    def test_invcov_override_fixed_weights(self):
        # the fixed-temperature experiment setup: W given, never updated
        net = Network(30)
        model = bind("edges + concurrent", net)
        targets = np.array([25.0, 8.0])
        invcov = np.diag(1.0 / targets ** 2)
        invcov /= invcov.sum()
        config = SanConfig(targets=targets, runs=1, tau0=0.0,
                           invcov_override=invcov, steps_per_run=120_000,
                           seed=15)
        out, trace = san_run(net, model, config)
        final = bind("edges + concurrent", out).summary(out)
        assert energy(final, targets, invcov) <= 1e-12

    def test_wrong_target_length(self):
        net = Network(6)
        model = bind("edges + triangle", net)
        with pytest.raises(DataError):
            san_run(net, model, SanConfig(targets=[1.0]))

    @pytest.mark.parametrize("interval", [0, -3])
    def test_trace_interval_must_be_positive(self, interval):
        with pytest.raises(DataError):
            SanConfig(targets=[1.0], trace_interval=interval)

    @pytest.mark.parametrize("field", ["runs", "steps_per_run"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_runs_and_steps_must_be_positive(self, field, value):
        # zero used to fall back to the default silently
        with pytest.raises(DataError):
            SanConfig(targets=[1.0], **{field: value})
