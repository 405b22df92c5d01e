"""Formula and constraint mini-language parsing."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from ergmkit.errors import FormulaError
from ergmkit.formula import parse_model_formula, parse_constraint_formula, \
    ModelSpec, TermSpec, ConstraintSpec
from ergmkit.network import Network, VertexAttributes
from ergmkit.terms import bind


class TestModelFormula:
    def test_two_terms(self):
        spec = parse_model_formula("edges + triangle")
        assert [t.name for t in spec.terms] == ["edges", "triangle"]
        model = bind(spec, Network(5))
        assert model.p == 2

    def test_offsets(self):
        spec = parse_model_formula('edges + offset(nodematch("sex")) + offset(concurrent)')
        net = Network(6)
        attrs = VertexAttributes(6)
        attrs.add("sex", ["M", "F"] * 3)
        model = bind(spec, net, attrs)
        assert model.p == 3
        assert model.offset_mask == [False, True, True]

    def test_diff_levels_dimension(self):
        spec = parse_model_formula('edges + nodematch("race", diff=true)')
        net = Network(10)
        attrs = VertexAttributes(10)
        attrs.add("race", ["A", "B", "C", "D", "E"] * 2)
        model = bind(spec, net, attrs)
        assert model.p == 6

    def test_positional_args(self):
        spec = parse_model_formula('nodematch("race", true)')
        term = spec.terms[0]
        assert term.arg("attr") == "race"
        assert term.arg("diff") is True

    def test_partial_offset_mask(self):
        spec = parse_model_formula("edges + offset(nodefactor(\"race\"), [2])")
        net = Network(6)
        attrs = VertexAttributes(6)
        attrs.add("race", ["A", "B", "C"] * 2)
        model = bind(spec, net, attrs)
        # nodefactor drops first level: stats for B and C; offset on slot 2
        assert model.offset_mask == [False, False, True]

    def test_numbers(self):
        spec = parse_model_formula("gwesp(0.25, fixed=true) + degree(2)")
        assert spec.terms[0].arg("decay") == 0.25
        assert spec.terms[1].arg("d") == 2

    def test_unknown_term(self):
        with pytest.raises(FormulaError):
            parse_model_formula("edges + kstar(2)")

    def test_unbalanced_parens(self):
        with pytest.raises(FormulaError):
            parse_model_formula("nodematch(\"sex\"")

    def test_bad_argument(self):
        with pytest.raises(FormulaError):
            parse_model_formula("edges(5)")
        with pytest.raises(FormulaError):
            parse_model_formula("nodematch(attr=\"sex\", bogus=1)")

    def test_empty(self):
        with pytest.raises(FormulaError):
            parse_model_formula("   ")

    def test_error_carries_position(self):
        with pytest.raises(FormulaError) as exc:
            parse_model_formula("edges + + triangle")
        assert "position" in str(exc.value)

    def test_levelsets(self):
        spec = parse_model_formula('nodefactor("race", levels=[-5])')
        assert spec.terms[0].arg("levels") == (-5,)
        spec = parse_model_formula('nodefactor("race", levels=[1, 3])')
        assert spec.terms[0].arg("levels") == (1, 3)


class TestRoundTrip:
    CASES = [
        "edges + triangle",
        'edges + nodematch("race", diff=true) + nodecov("age")',
        'edges + offset(nodematch("sex")) + offset(concurrent)',
        'edges + offset(nodefactor("race"), [2]) + gwesp(decay=0.25, fixed=true)',
        'absdiff("sqrt.age") + degree(d=2) + gwdegree(decay=0.5, fixed=true)',
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_model_round_trip(self, text):
        spec = parse_model_formula(text)
        assert parse_model_formula(spec.format()) == spec

    CONSTRAINTS = [
        ".",
        "sparse",
        'bd(maxout=1) + blocks(attr="sex", levels2=diag)',
        'strat(attr="race", empirical=true) + sparse',
        'strat(attr=["race", "age"]) + bd(maxout=2)',
        "tnt + bd(maxout=1)",
        "dense",
    ]

    @pytest.mark.parametrize("text", CONSTRAINTS)
    def test_constraint_round_trip(self, text):
        spec = parse_constraint_formula(text)
        assert parse_constraint_formula(spec.format()) == spec

    @given(st.lists(st.sampled_from([
        TermSpec("edges"), TermSpec("triangle"), TermSpec("concurrent"),
        TermSpec("nodematch", args=(("attr", "race"), ("diff", True))),
        TermSpec("nodematch", args=(("attr", "sex"),), offset=True),
        TermSpec("nodecov", args=(("attr", "age"),)),
        TermSpec("degree", args=(("d", 2),)),
        TermSpec("gwesp", args=(("decay", 0.25), ("fixed", True)), offset=True,
                 offset_mask=(1,)),
    ]), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_generated_round_trip(self, terms):
        spec = ModelSpec(terms)
        assert parse_model_formula(spec.format()) == spec


class TestConstraintFormula:
    def test_bd_blocks(self):
        spec = parse_constraint_formula('bd(maxout=1) + blocks(attr="sex", levels2=diag)')
        assert spec.bd_maxout == 1
        assert spec.blocks_attr == "sex"
        assert spec.blocks_levels2 == "diag"
        assert spec.constrained()

    def test_sparse_only(self):
        spec = parse_constraint_formula("sparse")
        assert spec == ConstraintSpec()

    def test_strat_empirical(self):
        spec = parse_constraint_formula('strat(attr="race", empirical=true) + sparse')
        assert spec.strat_attr == ("race",)
        assert spec.strat_empirical
        assert not spec.constrained()

    def test_cross_classification(self):
        spec = parse_constraint_formula('strat(attr=["race", "age"])')
        assert spec.strat_attr == ("race", "age")

    def test_dot_is_empty(self):
        for text in (".", "~."):
            spec = parse_constraint_formula(text)
            assert spec == ConstraintSpec()

    def test_tilde_stripped(self):
        spec = parse_constraint_formula("~bd(maxout=1)")
        assert spec.bd_maxout == 1

    def test_unknown_atom(self):
        with pytest.raises(FormulaError):
            parse_constraint_formula("degrees(3)")

    def test_forced_proposals(self):
        assert parse_constraint_formula("tnt + bd(maxout=1)").force_proposal == "tnt"
        assert parse_constraint_formula("dense").force_proposal == "uniform"

    def test_strat_with_forced_rejected(self):
        with pytest.raises(FormulaError):
            parse_constraint_formula('tnt + strat(attr="race")')

    def test_bd_needs_cap(self):
        with pytest.raises(FormulaError):
            parse_constraint_formula("bd()")


class TestValues:
    def test_string_escapes(self):
        spec = parse_model_formula('nodematch("we\\"ird")')
        assert spec.terms[0].arg("attr") == 'we"ird'
        assert parse_model_formula(spec.format()) == spec

    def test_inf(self):
        spec = parse_model_formula("gwesp(decay=Inf)")
        assert math.isinf(spec.terms[0].arg("decay"))
