"""Simulated annealing: weight updates, energy, the offset contract."""

import math
import random

import numpy as np
import pytest

from helpers import random_dyad, reference_san
from ergmkit import san
from ergmkit.errors import DataError
from ergmkit.formula import parse_constraint_formula
from ergmkit.network import Network, VertexAttributes
from ergmkit.proposals import ConstraintChecker, TntProposal, UniformProposal
from ergmkit.san import SanConfig, energy, san_run, san_weight_update
from ergmkit.terms import bind


def sex_attrs(n):
    attrs = VertexAttributes(n)
    attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(n)])
    attrs.add("grp", ["X" if v % 3 == 0 else "Y" for v in range(n)])
    return attrs


def seeded_network(net, edges, seed):
    """`net` with `edges` random dyads toggled on, drawn from `seed`."""
    rng = random.Random(seed)
    while net.edge_count < edges:
        i, j = random_dyad(net, rng)
        if not net.has_edge(i, j):
            net.toggle(i, j)
    return net


# (network, formula, constraints, SanConfig options): one per proposal
# kind and per branch of the annealing acceptance
SAN_CASES = {
    "tnt": (lambda: Network(30), "edges + triangle", None,
            dict(targets=[40.0, 20.0], runs=2, steps_per_run=3000)),
    "dense": (lambda: Network(25), "edges + concurrent", "dense",
              dict(targets=[30.0, 10.0], runs=2, steps_per_run=2000)),
    "bd-blocks": (lambda: Network(30), "edges + concurrent",
                  'bd(maxout=2) + blocks(attr="sex", levels2=diag)',
                  dict(targets=[25.0, 12.0], runs=2, steps_per_run=3000)),
    "strat": (lambda: Network(30), "edges + triangle", 'strat(attr="grp")',
              dict(targets=[35.0, 15.0], runs=2, steps_per_run=3000)),
    "directed-bd": (lambda: Network(20, directed=True), "edges + triangle",
                    "bd(maxout=2, maxin=2)",
                    dict(targets=[30.0, 3.0], runs=2, steps_per_run=3000)),
    "bipartite-bd": (lambda: Network(20, bipartite=8), "edges + concurrent",
                     "bd(maxout=2)",
                     dict(targets=[20.0, 9.0], runs=2, steps_per_run=3000)),
    "minus-inf-offset": (lambda: Network(30),
                         'edges + offset(nodematch("sex")) + triangle', None,
                         dict(targets=[20.0, 2.0], runs=2, steps_per_run=3000,
                              offset_coefs=(-math.inf,))),
    "plus-inf-offset": (lambda: seeded_network(Network(20), 12, 4),
                        'edges + offset(nodematch("sex")) + concurrent', None,
                        dict(targets=[16.0, 12.0], runs=2, steps_per_run=3000,
                             offset_coefs=(math.inf,))),
    "finite-offset": (lambda: Network(20),
                      "edges + offset(concurrent) + triangle", None,
                      dict(targets=[15.0, 6.0], runs=2, steps_per_run=2000,
                           offset_coefs=(-0.5,))),
    "t0-invcov": (lambda: seeded_network(Network(30), 40, 5),
                  "edges + concurrent", None,
                  dict(targets=[25.0, 8.0], runs=1, tau0=0.0,
                       invcov_override=np.diag([0.9, 0.1]),
                       steps_per_run=4000)),
    # -dE / T overflows to -inf at a subnormal temperature
    "tiny-temperature": (lambda: Network(20), "edges + triangle", None,
                         dict(targets=[30.0, 5.0], runs=1, tau0=1e-320,
                              steps_per_run=2000)),
    "exits-early": (lambda: Network(40),
                    'edges + offset(nodematch("sex")) + offset(concurrent)',
                    None, dict(targets=[10.0], steps_per_run=5000,
                               offset_coefs=(-math.inf, -math.inf))),
    "weight-updates": (lambda: seeded_network(Network(25), 20, 6),
                       "edges + triangle + concurrent", None,
                       dict(targets=[45.0, 9.0, 14.0], runs=4,
                            steps_per_run=1500)),
}


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
        assert check.summary(out) == [30.0, 0.0, 0.0]
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
        assert check.summary(out) == [0.0]

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
            i, j = random_dyad(net, rng)
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

    @pytest.mark.parametrize("invcov, why", [
        ([[math.nan]], "finite"), ([[math.inf]], "finite"),
        ([[-1.0]], "positive semi-definite"),
        ([[1.0, 0.5], [0.0, 1.0]], "symmetric")])
    def test_invcov_override_must_be_a_weight_matrix(self, invcov, why):
        # a NaN energy reads as an improvement at T = 0, so every move
        # was accepted; a negative weight annealed away from the target
        net = Network(20)
        model = bind("edges + triangle" if len(invcov) == 2 else "edges", net)
        config = SanConfig(targets=[10.0] * len(invcov), tau0=0.0,
                           invcov_override=invcov, steps_per_run=100)
        with pytest.raises(DataError, match=why):
            san_run(net, model, config)
        assert net.edge_count == 0

    def test_singular_invcov_override_is_allowed(self):
        # positive semi-definite is enough: a zero weight ignores a
        # statistic
        net = Network(20)
        model = bind("edges + triangle", net)
        config = SanConfig(targets=[10.0, 0.0], tau0=0.0,
                           invcov_override=[[1.0, 0.0], [0.0, 0.0]],
                           steps_per_run=2000, seed=2)
        out, trace = san_run(net, model, config)
        assert out.edge_count == 10

    def test_one_stored_difference_skips_the_weight_update(self):
        # a run of one proposal stores one difference, which has no
        # covariance; the weights stay as they were
        net = Network(10)
        model = bind("edges", net)
        config = SanConfig(targets=[5.0], runs=3, steps_per_run=1, seed=0)
        out, trace = san_run(net, model, config)
        assert trace.proposals == 3 and trace.runs_completed == 3
        assert out.edge_count == trace.accepted

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

    @pytest.mark.parametrize("tau0", [-1.0, math.nan, math.inf])
    def test_tau0_must_be_a_nonnegative_temperature(self, tau0):
        # a negative temperature accepts every worsening move; an
        # infinite one makes the last run's temperature inf * 0 = nan
        with pytest.raises(DataError):
            SanConfig(targets=[1.0], tau0=tau0)
        # zero stays legal: san_benchmark anneals at temperature zero
        assert SanConfig(targets=[1.0], tau0=0.0).tau0 == 0.0


def san_case(case):
    """(net, model, constraint spec, attrs, SanConfig options) of a
    SAN_CASES entry, on a fresh network."""
    make, formula, constraints, options = SAN_CASES[case]
    net = make()
    attrs = sex_attrs(net.n)
    spec = (parse_constraint_formula(constraints)
            if constraints is not None else None)
    return net, bind(formula, net, attrs), spec, attrs, options


class TestOneLoop:
    """san_run anneals through the chain's kernel and keeps every byte
    of the loop it replaced (helpers.reference_san)."""

    @staticmethod
    def anneal(runner, case, seed, interval=37):
        net, model, spec, attrs, options = san_case(case)
        rng = random.Random(seed)
        config = SanConfig(trace_interval=interval, seed=seed, **options)
        out, trace = runner(net, model, config, constraints=spec, attrs=attrs,
                            rng=rng)
        out.check_consistency()
        return (list(out.edges), list(out._edge_pos.items()),
                repr(trace.rows), trace.proposals, trace.accepted,
                trace.runs_completed, trace.exited_early,
                repr(trace.final_energy), rng.getstate())

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("case", sorted(SAN_CASES))
    def test_san_run_matches_reference_loop(self, case, seed):
        assert (self.anneal(san_run, case, seed)
                == self.anneal(reference_san, case, seed))

    def test_full_reservoir_matches_reference_loop(self, monkeypatch):
        # a small reservoir, so that replacements draw from the rng
        monkeypatch.setattr(san, "_MAX_STORED_DIFFS", 50)
        for case in ("tnt", "weight-updates"):
            assert (self.anneal(san_run, case, 2)
                    == self.anneal(reference_san, case, 2))

    @pytest.mark.parametrize("case", ["tnt", "dense", "directed-bd",
                                      "bipartite-bd", "bd-blocks"])
    def test_no_per_call_draw_check_or_flip(self, monkeypatch, case):
        """SAN steps through the chain's loop: it makes no call to
        Network.toggle, Network.has_edge, ConstraintChecker.allowed or a
        TNT/uniform bound draw."""
        def refuse(*args):
            raise AssertionError("per-call path taken")

        net, model, spec, attrs, options = san_case(case)
        for proposal in (TntProposal, UniformProposal):
            def bind_refusing(self, net, rng, bind_plain=proposal.bind):
                return refuse, bind_plain(self, net, rng)[1]

            monkeypatch.setattr(proposal, "bind", bind_refusing)
        monkeypatch.setattr(Network, "toggle", refuse)
        monkeypatch.setattr(Network, "has_edge", refuse)
        monkeypatch.setattr(ConstraintChecker, "allowed", refuse)
        out, trace = san_run(net, model, SanConfig(seed=1, **options),
                             constraints=spec, attrs=attrs)
        assert trace.accepted > 0
        out.check_consistency()
