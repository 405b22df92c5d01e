"""Benchmark harness: population generator and comparison runs."""

import math

import numpy as np
import pytest

from helpers import batch_means_se
from ergmkit.bench import (PopulationSpec, ess_benchmark, generate_population,
                           mixing_benchmark, san_benchmark)
from ergmkit.errors import DataError
from ergmkit.formula import parse_constraint_formula
from ergmkit.terms import bind


class TestPopulation:
    def test_alternating_sexes(self):
        net, attrs = generate_population(PopulationSpec(n=1000), seed=0)
        sexes = attrs.columns["sex"]
        assert sexes.count("M") == 500
        assert sexes.count("F") == 500
        assert net.edge_count == 0

    def test_race_frequencies(self):
        spec = PopulationSpec(n=4000, race_freqs={"A": 0.5, "B": 0.3, "C": 0.2})
        _, attrs = generate_population(spec, seed=1)
        races = attrs.columns["race"]
        for lev, p in spec.race_freqs.items():
            sigma = math.sqrt(4000 * p * (1 - p))
            assert abs(races.count(lev) - 4000 * p) < 4 * sigma

    def test_deterministic(self):
        spec = PopulationSpec(n=200)
        _, a1 = generate_population(spec, seed=42)
        _, a2 = generate_population(spec, seed=42)
        assert a1.columns == a2.columns

    def test_derived_columns(self):
        _, attrs = generate_population(PopulationSpec(n=50), seed=2)
        age = attrs.numeric("age")
        assert np.allclose(attrs.numeric("agesq"), np.array(age) ** 2)
        assert np.allclose(attrs.numeric("sqrt.age"), np.sqrt(age))


HETERO = 'bd(maxout=1) + blocks(attr="sex", levels2=diag)'


class TestMixing:
    def test_trace_shape_and_cap(self):
        net, attrs = generate_population(PopulationSpec(n=80), seed=3)
        model = bind("edges", net, attrs)
        proposals = {
            "tnt": parse_constraint_formula(f"tnt + {HETERO}"),
            "strat": parse_constraint_formula(f'{HETERO} + strat(attr="race")'),
        }
        traces = mixing_benchmark(net, attrs, model, [-1.0], proposals,
                                  total_proposals=3000, trace_interval=500,
                                  seed=4)
        for rows in traces.values():
            assert len(rows) == 6  # total_proposals / trace_interval
            # degree cap 1 bounds the edge count by n/2 throughout
            assert all(r[1][0] <= 40 for r in rows)

    @pytest.mark.parametrize("interval", [0, -3])
    def test_trace_interval_must_be_positive(self, interval):
        net, attrs = generate_population(PopulationSpec(n=10), seed=3)
        model = bind("edges", net, attrs)
        with pytest.raises(DataError):
            mixing_benchmark(net, attrs, model, [-1.0],
                             {"plain": parse_constraint_formula(".")},
                             total_proposals=100, trace_interval=interval)

    @pytest.mark.parametrize("total", [0, -5])
    def test_total_proposals_must_be_positive(self, total):
        # a benchmark that makes no proposals measures nothing
        net, attrs = generate_population(PopulationSpec(n=10), seed=3)
        model = bind("edges", net, attrs)
        with pytest.raises(DataError):
            mixing_benchmark(net, attrs, model, [-1.0],
                             {"plain": parse_constraint_formula(".")},
                             total_proposals=total)

    def test_stratified_reaches_rare_homophily_sooner(self):
        # rare-group homophily is where stratification pays: proposals
        # to rare same-race pairs happen at the stratum weight instead
        # of the tiny dyad share, so that statistic equilibrates sooner
        spec = PopulationSpec(n=400, race_freqs={"A": 0.7, "B": 0.2, "C": 0.1})
        net, attrs = generate_population(spec, seed=5)
        model = bind('edges + nodematch("race", diff=true)', net, attrs)
        coefs = [-8.0, 1.5, 2.5, 4.5]
        strat_spec = parse_constraint_formula(f'{HETERO} + strat(attr="race")')
        strat_spec.strat_pmat = [[0.2, 0.1, 0.1], [0.1, 0.2, 0.2],
                                 [0.1, 0.2, 0.5]]
        proposals = {
            "tnt": parse_constraint_formula(f"tnt + {HETERO}"),
            "strat": strat_spec,
        }
        traces = mixing_benchmark(net, attrs, model, coefs, proposals,
                                  total_proposals=12_000, trace_interval=200,
                                  seed=6)

        def first_passage(rows, level):
            for count, stats in rows:
                if stats[3] >= level:   # nodematch.race.C
                    return count
            return math.inf

        assert first_passage(traces["strat"], 4.0) < \
            first_passage(traces["tnt"], 4.0)


class TestEssBench:
    def test_table_and_bounds(self):
        net, attrs = generate_population(PopulationSpec(n=100), seed=7)
        model = bind("edges", net, attrs)
        proposals = {
            "tnt": parse_constraint_formula(f"tnt + {HETERO}"),
            "strat": parse_constraint_formula(f'{HETERO} + strat(attr="race")'),
        }
        results = ess_benchmark(net, attrs, model, [-2.0], proposals,
                                samplesize=600, interval=20, seed=8)
        for res in results.values():
            assert res["ess"].shape == (1,)
            assert (res["ess"] <= 600 * 1.05).all()
            assert res["seconds"] > 0

    def test_cross_proposal_mean_consistency(self):
        # all chains share one stationary distribution: long-run means
        # agree within 3 combined standard errors
        net, attrs = generate_population(PopulationSpec(n=60), seed=9)
        model = bind("edges", net, attrs)
        proposals = {
            "tnt": parse_constraint_formula(f"tnt + {HETERO}"),
            "strat": parse_constraint_formula(f'{HETERO} + strat(attr="race")'),
        }
        results = ess_benchmark(net, attrs, model, [-1.5], proposals,
                                samplesize=4000, interval=30, seed=10,
                                warmup=20_000)
        (v1, v2) = [results[k]["values"][:, 0] for k in ("tnt", "strat")]
        se = math.hypot(batch_means_se(v1), batch_means_se(v2))
        assert abs(v1.mean() - v2.mean()) < 3 * se

    def test_interval_doubling_does_not_hurt(self):
        net, attrs = generate_population(PopulationSpec(n=60), seed=11)
        model = bind("edges", net, attrs)
        proposals = {"strat": parse_constraint_formula(
            f'{HETERO} + strat(attr="race")')}
        small = ess_benchmark(net, attrs, model, [-1.5], proposals,
                              samplesize=1500, interval=10, seed=12,
                              warmup=5000)["strat"]["ess"][0]
        big = ess_benchmark(net, attrs, model, [-1.5], proposals,
                            samplesize=1500, interval=20, seed=13,
                            warmup=5000)["strat"]["ess"][0]
        assert big > 0.6 * small


class TestSanBench:
    def test_traces_approach_targets(self):
        net, attrs = generate_population(PopulationSpec(n=120), seed=14)
        model = bind("edges", net, attrs)
        proposals = {
            "tnt": parse_constraint_formula(f"tnt + {HETERO}"),
            "strat": parse_constraint_formula(f'{HETERO} + strat(attr="race")'),
        }
        traces = san_benchmark(net, attrs, model, [30.0], proposals,
                               total_proposals=20_000, trace_interval=500,
                               seed=15)
        for trace in traces.values():
            assert trace.exited_early or trace.rows[-1][1][0] > 0


@pytest.mark.parametrize("run", [
    lambda net, attrs, model, props: mixing_benchmark(
        net, attrs, model, [-1.0], props, total_proposals=999),
    lambda net, attrs, model, props: san_benchmark(
        net, attrs, model, [5.0], props, total_proposals=100)],
    ids=["mixing", "san"])
def test_total_below_trace_interval_rejected(run):
    # fewer proposals than one trace interval would print no trace row
    net, attrs = generate_population(PopulationSpec(n=10), seed=3)
    model = bind("edges", net, attrs)
    with pytest.raises(DataError, match="trace_interval"):
        run(net, attrs, model, {"plain": parse_constraint_formula(".")})
