"""Log-likelihood: exact baselines and bridge estimates vs enumeration."""

import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

from helpers import all_networks, exact_log_normalizer, random_dyad
from ergmkit.errors import ConstraintError, DataError
from ergmkit import loglik
from ergmkit.formula import parse_constraint_formula
from ergmkit.loglik import (BridgePlan, bridge_loglik,
                            dyad_independent_loglik,
                            evaluate_loglik, kronecker_shift, null_deviance,
                            voronoi_weights)
from ergmkit.network import Network, VertexAttributes
from ergmkit.proposals import ConstraintChecker
from ergmkit.terms import bind


def exact_loglik(n, formula, theta, net):
    """l(theta) by full enumeration: theta'g(y_obs) - log kappa."""
    model = bind(formula, net)
    g_obs = model.summary(net)
    kappa = exact_log_normalizer(n, formula, None, theta)
    return sum(t * g for t, g in zip(theta, g_obs)) - kappa


def five_node_net(seed=0, density=0.45):
    rng = random.Random(seed)
    net = Network(5)
    for k in range(net.dyad_count()):
        if rng.random() < density:
            net.toggle(*net.dyad_at(k))
    return net


class TestNullDeviance:
    @pytest.mark.parametrize("N,expected", [
        (0, 0.0),
        (12, 16.635532333438682),
        (45, 62.383246250395066),
    ])
    def test_values(self, N, expected):
        assert abs(null_deviance(N) - expected) < 1e-12
        assert abs(null_deviance(N) - 2 * N * math.log(2)) < 1e-12


class TestDyadIndependentBaseline:
    def test_edges_only_bernoulli(self):
        net = Network(10)
        rng = random.Random(1)
        while net.edge_count < 30:
            i, j = random_dyad(net, rng)
            if not net.has_edge(i, j):
                net.toggle(i, j)
        model = bind("edges", net)
        base = dyad_independent_loglik(net, model)
        want = 30 * math.log(30 / 45) + 15 * math.log(15 / 45)
        assert abs(base.loglik - want) < 1e-9
        assert abs(base.theta[0] - math.log(2.0)) < 1e-9

    def test_empty_net_boundary(self):
        net = Network(6)
        model = bind("edges", net)
        base = dyad_independent_loglik(net, model)
        assert base.boundary
        assert base.loglik == 0.0

    def test_mixed_model_zeroes_dependent_terms(self):
        net = five_node_net(2)
        model = bind("edges + triangle", net)
        base = dyad_independent_loglik(net, model)
        assert base.theta[1] == 0.0
        E, N = net.edge_count, net.dyad_count()
        assert abs(base.theta[0] - math.log(E / (N - E))) < 1e-9

    def test_grid_oracle(self):
        # brute-force maximization of the Bernoulli likelihood on p=1
        net = five_node_net(3)
        model = bind("edges", net)
        base = dyad_independent_loglik(net, model)
        grid = np.linspace(-3, 3, 20001)
        E, N = net.edge_count, net.dyad_count()
        vals = E * grid - N * np.logaddexp(0.0, grid)
        assert abs(base.loglik - vals.max()) < 1e-6

    def test_infinite_dependent_offset_rejected(self):
        net = five_node_net(4)
        model = bind("edges + offset(concurrent)", net)
        with pytest.raises(DataError):
            dyad_independent_loglik(net, model, offset_coefs=[-math.inf])


class TestBridge:
    def test_equal_endpoints_zero(self):
        net = five_node_net(5)
        model = bind("edges + triangle", net)
        theta = np.array([0.2, -0.1])
        res = bridge_loglik(net, model, theta, theta, BridgePlan(J=4, K=50))
        assert res.delta_loglik == 0.0
        assert res.mc_se == 0.0

    def test_edges_only_closed_form(self):
        net = five_node_net(6)
        model = bind("edges", net)
        theta_hat = np.array([0.8])
        theta_tilde = np.array([-0.3])
        N = net.dyad_count()
        want = (theta_hat[0] - theta_tilde[0]) * net.edge_count \
            - N * (np.logaddexp(0, theta_hat[0]) - np.logaddexp(0, theta_tilde[0]))
        plan = BridgePlan(J=8, K=20_000, interval=5, seed=7)
        res = bridge_loglik(net, model, theta_hat, theta_tilde, plan)
        assert abs(res.delta_loglik - want) < 0.02

    def test_exact_enumeration_oracle(self):
        net = five_node_net(8)
        theta_hat = (-0.4, 0.25)
        theta_tilde = (0.1, 0.0)
        want = exact_loglik(5, "edges + triangle", theta_hat, net) \
            - exact_loglik(5, "edges + triangle", theta_tilde, net)
        model = bind("edges + triangle", net)
        plan = BridgePlan(J=16, K=10_000, interval=5, seed=9)
        res = bridge_loglik(net, model, np.array(theta_hat),
                            np.array(theta_tilde), plan)
        assert abs(res.delta_loglik - want) < 0.05

    def test_antisymmetry(self):
        net = five_node_net(10)
        model = bind("edges + triangle", net)
        a = np.array([0.4, -0.2])
        b = np.array([-0.2, 0.1])
        plan1 = BridgePlan(J=8, K=4000, interval=5, seed=11)
        plan2 = BridgePlan(J=8, K=4000, interval=5, seed=12)
        fwd = bridge_loglik(net, model, a, b, plan1)
        rev = bridge_loglik(net, model, b, a, plan2)
        tol = 3.0 * math.hypot(fwd.mc_se, rev.mc_se)
        assert abs(fwd.delta_loglik + rev.delta_loglik) < max(tol, 1e-3)

    def test_path_additivity(self):
        net = five_node_net(13)
        model = bind("edges + triangle", net)
        a = np.array([-0.5, 0.3])
        mid = np.array([0.0, 0.1])
        b = np.array([0.5, -0.1])
        plans = [BridgePlan(J=8, K=4000, interval=5, seed=s) for s in (14, 15, 16)]
        direct = bridge_loglik(net, model, b, a, plans[0])
        leg1 = bridge_loglik(net, model, mid, a, plans[1])
        leg2 = bridge_loglik(net, model, b, mid, plans[2])
        tol = 3.0 * math.sqrt(direct.mc_se ** 2 + leg1.mc_se ** 2 + leg2.mc_se ** 2)
        assert abs(direct.delta_loglik - (leg1.delta_loglik + leg2.delta_loglik)) \
            < max(tol, 2e-3)


class TestAdaptive:
    def test_kronecker_first_shift_zero(self):
        assert kronecker_shift(1) == 0.0
        shifts = [kronecker_shift(l) for l in range(1, 20)]
        assert all(-0.5 <= v < 0.5 for v in shifts)

    def test_pass_one_weights_uniform(self):
        us = [(j - 0.5) / 8 for j in range(1, 9)]
        w = voronoi_weights(us)
        assert np.allclose(w, 1 / 8)

    def test_weights_positive_sum_one(self):
        rng = np.random.default_rng(17)
        us = rng.uniform(0.01, 0.99, size=37)
        w = voronoi_weights(us)
        assert (w > 0).all()
        assert abs(w.sum() - 1.0) < 1e-12

    def test_converges_to_exact(self):
        net = five_node_net(18)
        theta_hat = (-0.4, 0.25)
        theta_tilde = (0.1, 0.0)
        want = exact_loglik(5, "edges + triangle", theta_hat, net) \
            - exact_loglik(5, "edges + triangle", theta_tilde, net)
        model = bind("edges + triangle", net)
        plan = BridgePlan(interval=5, seed=19, target_se=0.01, J=8, K=2000)
        res = bridge_loglik(net, model, np.array(theta_hat),
                            np.array(theta_tilde), plan)
        assert res.mc_se <= 0.01
        assert abs(res.delta_loglik - want) < max(3 * res.mc_se, 0.03)

    def test_pass_cap_flags(self):
        net = five_node_net(20)
        model = bind("edges", net)
        plan = BridgePlan(interval=3, seed=21, max_passes=2, target_se=1e-9,
                          J=4, K=200)
        res = bridge_loglik(net, model, np.array([0.5]), np.array([0.0]), plan)
        assert not res.converged
        assert res.passes == 2

    def test_plan_left_unmodified(self):
        net = five_node_net(25)
        model = bind("edges + triangle", net)
        plan = BridgePlan(J=4, K=200, interval=5, seed=26, target_se=0.05,
                          max_passes=3)
        before = dataclasses.replace(plan)
        bridge_loglik(net, model, np.array([-0.4, 0.25]),
                      np.array([0.1, 0.0]), plan)
        assert plan == before

    def test_loose_target_equals_fixed_grid(self):
        # a target above the pass-one error stops after the grid pass
        net = five_node_net(27)
        model = bind("edges + triangle", net)
        a, b = np.array([-0.4, 0.25]), np.array([0.1, 0.0])
        fixed = bridge_loglik(net, model, a, b,
                              BridgePlan(J=8, K=500, interval=5, seed=28))
        loose = bridge_loglik(net, model, a, b,
                              BridgePlan(J=8, K=500, interval=5, seed=28,
                                         target_se=10 * fixed.mc_se))
        assert loose.passes == 1 and loose.converged
        assert repr(loose) == repr(fixed)

    def test_grid_pass_keeps_the_live_chain(self, monkeypatch):
        # every pass continues one chain: one network copy and one
        # proposal serve every point, however many passes run
        built, copied = [], []
        original_build, original_copy = loglik.make_proposal, Network.copy

        def counting_build(*args, **kwargs):
            built.append(args)
            return original_build(*args, **kwargs)

        def counting_copy(self):
            copied.append(self)
            return original_copy(self)

        monkeypatch.setattr(loglik, "make_proposal", counting_build)
        monkeypatch.setattr(Network, "copy", counting_copy)
        net = five_node_net(29)
        model = bind("edges + triangle", net)
        for passes, plan in [
                (1, BridgePlan(J=8, K=50, interval=5, seed=30)),
                (3, BridgePlan(J=8, K=50, interval=5, seed=30,
                               target_se=1e-9, max_passes=3))]:
            built.clear()
            copied.clear()
            res = bridge_loglik(net, model, np.array([-0.4, 0.25]),
                                np.array([0.1, 0.0]), plan)
            assert res.passes == passes
            assert len(res.points) == 8 * passes
            assert len(built) == 1
            assert len(copied) == 1

    @pytest.mark.parametrize("field, value", [("J", 0), ("K", 0),
                                              ("max_passes", 0),
                                              ("target_se", 0.0)])
    @pytest.mark.parametrize("target_se", [None, 0.05])
    def test_empty_bridge_rejected(self, field, value, target_se):
        net = five_node_net(31)
        model = bind("edges", net)
        plan = BridgePlan(J=4, K=50, interval=5, target_se=target_se)
        setattr(plan, field, value)
        with pytest.raises(DataError):
            bridge_loglik(net, model, np.array([0.5]), np.array([0.0]), plan)


class TestEvaluate:
    def test_full_report(self):
        net = five_node_net(22)
        model = bind("edges + triangle", net)
        theta_hat = np.array([-0.4, 0.25])
        want_hat = exact_loglik(5, "edges + triangle", tuple(theta_hat), net)
        plan = BridgePlan(J=12, K=4000, interval=5, seed=23)
        res = evaluate_loglik(net, model, theta_hat, plan=plan)
        assert abs(res.loglik - want_hat) < 0.05
        assert abs(res.null_deviance - null_deviance(10)) < 1e-12
        assert abs(res.aic - (-2 * res.loglik + 4)) < 1e-12
        assert abs(res.bic - (-2 * res.loglik + 2 * math.log(10))) < 1e-12

    def test_blocked_dyads_excluded(self):
        # blocks on sex: only the 9 cross-sex dyads of 6 vertices are free
        net = Network(6)
        for i, j in [(0, 1), (2, 3), (0, 5), (1, 4)]:
            net.toggle(i, j)
        attrs = VertexAttributes(6)
        attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(6)])
        spec = parse_constraint_formula('blocks(attr="sex", levels2=diag)')
        model = bind("edges", net)
        plan = BridgePlan(J=4, K=200, interval=5, seed=24)
        res = evaluate_loglik(net, model, np.array([-0.3]), plan=plan,
                              constraints=spec, attrs=attrs)
        assert res.null_deviance == null_deviance(9)
        assert res.aic == -2.0 * res.loglik + 2.0
        assert res.bic == -2.0 * res.loglik + math.log(9)

    @staticmethod
    def constrained_case(constraints):
        net = Network(6)
        for i, j in [(0, 1), (2, 3), (0, 5), (1, 4)]:
            net.toggle(i, j)
        attrs = VertexAttributes(6)
        attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(6)])
        return net, attrs, parse_constraint_formula(constraints)

    def test_blocks_matches_enumeration(self):
        # the likelihood lives on the 2^9 graphs the blocks allow: the
        # baseline must be fitted on the 9 free dyads alone
        net, attrs, spec = self.constrained_case(
            'blocks(attr="sex", levels2=diag)')
        theta = np.array([-0.3, 0.4])
        model = bind("edges + concurrent", net)
        checker = ConstraintChecker(net, spec, attrs)
        legal = [g for g in all_networks(6)
                 if all(checker.allowed(g, i, j) for i, j in g.edges)]
        assert len(legal) == 2 ** 9
        logw = [float(theta @ model.summary(g)) for g in legal]
        m = max(logw)
        kappa = m + math.log(sum(math.exp(v - m) for v in logw))
        want = float(theta @ model.summary(net)) - kappa
        plan = BridgePlan(J=8, K=2000, interval=5, seed=24)
        res = evaluate_loglik(net, model, theta, plan=plan, constraints=spec,
                              attrs=attrs)
        assert abs(res.loglik - want) < 0.05

    def test_edge_on_blocked_dyad_violates_blocks(self):
        net, attrs, spec = self.constrained_case(
            'blocks(attr="sex", levels2=diag)')
        net.toggle(1, 3)        # both F
        model = bind("edges + concurrent", net)
        with pytest.raises(ConstraintError,
                           match=r"edge \(2, 4\) violates blocks"):
            dyad_independent_loglik(net, model, constraints=spec, attrs=attrs)
        with pytest.raises(ConstraintError, match="violates blocks"):
            evaluate_loglik(net, model, np.array([-0.3, 0.4]),
                            plan=BridgePlan(J=2, K=20, interval=5),
                            constraints=spec, attrs=attrs)

    def test_infinite_offset_counts_like_blocks(self):
        # the blocks(sex, diag) sample space, also written as an infinite
        # offset on nodematch("sex"): the same dyads, loglik, d and BIC
        net, attrs, spec = self.constrained_case(
            'blocks(attr="sex", levels2=diag)')
        blocks = dyad_independent_loglik(net, bind("edges", net),
                                         constraints=spec, attrs=attrs)
        model = bind('edges + offset(nodematch("sex"))', net, attrs)
        offset = [-math.inf]
        offsets = dyad_independent_loglik(net, model, offset)
        assert blocks.dyads == offsets.dyads == 9
        assert blocks.loglik == offsets.loglik
        assert blocks.loglik.hex() == (-6.18265418937591).hex()
        plan = BridgePlan(J=4, K=200, interval=5, seed=24)
        a = evaluate_loglik(net, bind("edges", net), np.array([-0.3]),
                            plan=plan, constraints=spec, attrs=attrs)
        with warnings.catch_warnings():
            # no -inf - -inf along the bridge path
            warnings.simplefilter("error")
            b = evaluate_loglik(net, model, np.array([-0.3, -math.inf]),
                                offset, plan=plan)
        assert a.null_deviance == b.null_deviance == null_deviance(9)
        assert a.bic == -2.0 * a.loglik + math.log(9)
        assert b.bic == -2.0 * b.loglik + math.log(9)

    def test_infinite_offset_tied_response_is_boundary(self):
        # 4 alternating-sex vertices, every cross-sex pair tied: the
        # free dyads all hold edges under either spelling
        net = Network(4)
        for i, j in [(0, 1), (0, 3), (1, 2), (2, 3)]:
            net.toggle(i, j)
        attrs = VertexAttributes(4)
        attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(4)])
        spec = parse_constraint_formula('blocks(attr="sex", levels2=diag)')
        blocks = dyad_independent_loglik(net, bind("edges", net),
                                         constraints=spec, attrs=attrs)
        model = bind('edges + offset(nodematch("sex"))', net, attrs)
        offsets = dyad_independent_loglik(net, model, [-math.inf])
        for base in (blocks, offsets):
            assert base.boundary and base.loglik == 0.0 and base.dyads == 4
        with pytest.raises(DataError, match="boundary"):
            evaluate_loglik(net, model, np.array([0.3, -math.inf]),
                            [-math.inf], plan=BridgePlan(J=2, K=20))

    def test_infinite_offset_contradiction_before_boundary(self):
        # an edge on a dyad the offset forbids is a data error, also when
        # the free dyads alone would sit on the boundary
        net = Network(4)
        net.toggle(0, 2)        # both M
        attrs = VertexAttributes(4)
        attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(4)])
        model = bind('edges + offset(nodematch("sex"))', net, attrs)
        with pytest.raises(DataError, match="contradicts an infinite offset"):
            dyad_independent_loglik(net, model, [-math.inf])

    def test_degree_caps_rejected(self):
        # no closed-form baseline exists on a degree-capped space
        net, attrs, spec = self.constrained_case("bd(maxout=2)")
        model = bind("edges + triangle", net)
        with pytest.raises(DataError, match="degree caps"):
            evaluate_loglik(net, model, np.array([-0.3, 0.4]),
                            plan=BridgePlan(J=2, K=20, interval=5),
                            constraints=spec, attrs=attrs)


def enumerated_blocked(net, level, forbid):
    return sum(1 for i, j in net.dyads() if forbid[level[i]][level[j]])


class TestBlockedDyadCount:
    """The baseline's dyad count, which evaluate_loglik takes as d, leaves
    out exactly the dyads the blocks freeze."""

    LEVELS = [0, 2, 1, 0, 0, 2, 1, 2, 0, 1, 1]     # three levels, 11 vertices

    @pytest.mark.parametrize("net", [Network(11), Network(11, directed=True),
                                     Network(11, bipartite=4),
                                     Network(11, bipartite=7)],
                             ids=["undirected", "directed", "bip4", "bip7"])
    @pytest.mark.parametrize("levels2", [
        "diag",
        [[0, 1, 0], [1, 1, 0], [0, 0, 0]],     # symmetric, off-diagonal
        [[0, 1, 1], [0, 0, 1], [0, 0, 1]]])    # asymmetric: directed only
    def test_closed_form_equals_enumeration(self, net, levels2):
        attrs = VertexAttributes(net.n)
        attrs.add("grp", [f"g{a}" for a in self.LEVELS])
        spec = parse_constraint_formula('blocks(attr="grp", levels2=diag)')
        spec.blocks_levels2 = levels2
        try:
            checker = ConstraintChecker(net, spec, attrs)
        except DataError:
            assert not net.directed and levels2[0][1] != levels2[1][0]
            return
        want = enumerated_blocked(net, checker.block_level, checker.forbid)
        assert want > 0
        base = dyad_independent_loglik(net, bind("edges", net),
                                       constraints=spec, attrs=attrs)
        assert base.dyads == net.dyad_count() - want
