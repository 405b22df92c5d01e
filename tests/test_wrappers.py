"""The per-call entry points equal what the tests drive instead.

``mh_step``, each proposal's ``propose``/``commit`` and
``BoundModel.change`` bind the closures that a chain binds once, and
apply them for a single call; ``Network.random_dyad`` is one
``randrange`` draw.  Every other test drives the bound closures, through
``helpers.change_score`` for the change score, and draws dyads with
``helpers.random_dyad``; this one pins each wrapper to what replaced it:
the same values, the same final RNG state and network, and the same
proposal ``snapshot()``.
"""

import random

import pytest

from helpers import change_score, random_dyad
from ergmkit.formula import parse_constraint_formula
from ergmkit.network import Network, VertexAttributes
from ergmkit.proposals import (BDStratTNT, TntProposal, UniformProposal,
                               make_proposal)
from ergmkit.sampler import Chain, mh_step
from ergmkit.terms import bind

N = 14
FORMULA = 'edges + triangle + nodematch("sex") + gwesp(0.5, fixed=true)'
CONSTRAINTS = 'bd(maxout=2) + blocks(attr="sex", levels2=diag) + strat(attr="grp")'


def attrs():
    out = VertexAttributes(N)
    out.add("sex", ["M" if v % 2 == 0 else "F" for v in range(N)])
    out.add("grp", ["X" if v % 3 == 0 else "Y" for v in range(N)])
    return out


def start():
    """A cross-sex start network that every constraint here admits."""
    net = Network(N)
    for v in range(0, N - 1, 4):
        net.toggle(v, v + 1)
    return net


def make(name, net):
    if name == "uniform":
        return UniformProposal()
    if name == "tnt":
        return TntProposal()
    return BDStratTNT(net, parse_constraint_formula(CONSTRAINTS), attrs())


def proposal_run(name, per_call):
    """Draws of one proposal, each toggled and committed with
    probability 1/2."""
    net, rng = start(), random.Random(7)
    proposal = make(name, net)
    if not per_call:
        draw, commit = proposal.bind(net, rng)
    seq = []
    for _ in range(1500):
        if per_call:
            move = tuple(proposal.propose(net, rng))
        else:
            move = draw()
        seq.append(move)
        if rng.random() < 0.5:
            i, j, _ = move
            added = net.toggle(i, j)
            if per_call:
                proposal.commit(net, i, j, added)
            elif commit is not None:
                commit(i, j, added)
    return seq, net, proposal, rng


def mh_step_run(constraints, per_call):
    """A chain of single steps, with the checker when the proposal
    needs one."""
    net, rng = start(), random.Random(8)
    spec = parse_constraint_formula(constraints)
    proposal, checker = make_proposal(net, spec, attrs())
    model = bind(FORMULA, net, attrs())
    coefs = [-0.6, 0.3, -0.4, 0.2]
    stats = model.summary(net)
    if not per_call:
        step = Chain(net, model, proposal, checker, rng).kernel(coefs)
    seq = []
    for _ in range(1500):
        if per_call:
            accepted, stats = mh_step(net, model, coefs, proposal, stats, rng,
                                      checker)
        else:
            new = step(stats)
            accepted, stats = new is not stats, new
        seq.append((accepted, stats))
    return seq, net, proposal, rng


def change_run(per_call):
    """Change scores of every dyad, at the start and after toggles."""
    net, rng = start(), random.Random(9)
    model = bind(FORMULA, net, attrs())
    change = change_score(model, net)
    seq = []
    for _ in range(4):
        for i, j in net.dyads():
            if per_call:
                seq.append(model.change(net, i, j))
            else:
                seq.append(change(i, j))
        for _ in range(10):
            net.toggle(*random_dyad(net, rng))
    return seq, net, None, rng


def random_dyad_run(per_call):
    net, rng = start(), random.Random(10)
    if per_call:
        seq = [net.random_dyad(rng) for _ in range(1500)]
    else:
        seq = [random_dyad(net, rng) for _ in range(1500)]
    return seq, net, None, rng


RUNS = {
    "propose-commit-uniform": lambda per_call: proposal_run("uniform", per_call),
    "propose-commit-tnt": lambda per_call: proposal_run("tnt", per_call),
    "propose-commit-bdstrat": lambda per_call: proposal_run("bdstrat", per_call),
    "mh_step-tnt-checker": lambda per_call: mh_step_run(
        'tnt + bd(maxout=2) + blocks(attr="sex", levels2=diag)', per_call),
    "mh_step-bdstrat": lambda per_call: mh_step_run(CONSTRAINTS, per_call),
    "BoundModel.change": change_run,
    "random_dyad": random_dyad_run,
}


@pytest.mark.parametrize("name", list(RUNS))
def test_wrapper_equals_bound_closures(name):
    results = []
    for per_call in (True, False):
        seq, net, proposal, rng = RUNS[name](per_call)
        snapshot = proposal.snapshot() if isinstance(proposal, BDStratTNT) \
            else None
        results.append((seq, list(net.edges), snapshot, rng.getstate()))
    assert results[0] == results[1]
