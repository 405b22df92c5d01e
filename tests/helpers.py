"""Shared test oracles: exact enumeration over small graph spaces."""

import itertools
import math

import numpy as np

from ergmkit.network import Network
from ergmkit.terms import bind


def all_networks(n, directed=False, bipartite=0):
    """Yield every binary network on n vertices (2^dyads of them)."""
    proto = Network(n, directed=directed, bipartite=bipartite)
    dyads = [proto.dyad_at(k) for k in range(proto.dyad_count())]
    for bits in itertools.product((0, 1), repeat=len(dyads)):
        net = Network(n, directed=directed, bipartite=bipartite)
        for on, d in zip(bits, dyads):
            if on:
                net.toggle(*d)
        yield net


def random_dyad(net, rng):
    """A uniformly random free dyad of `net`: one ``rng.randrange`` draw
    over the dyad indices, the stream the proposals' integer draws
    reproduce."""
    return net.dyad_at(rng.randrange(net.dyad_count()))


def exact_moments(n, formula, attrs, theta, keep=None, directed=False):
    """Exact E[g(Y)] under the model by full enumeration.

    `keep` filters the sample space (constraint oracle); returns the
    expectation vector and the number of admissible networks.
    """
    logw = []
    stats = []
    count = 0
    model = None
    for net in all_networks(n, directed=directed):
        if keep is not None and not keep(net):
            continue
        if model is None:
            model = bind(formula, net, attrs)
        g = model.summary(net)
        stats.append(g)
        logw.append(sum(t * x for t, x in zip(theta, g)))
        count += 1
    logw = np.asarray(logw)
    stats = np.asarray(stats)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    return w @ stats, count


def exact_log_normalizer(n, formula, attrs, theta):
    """log sum over all networks of exp(theta' g(y))."""
    logw = []
    model = None
    for net in all_networks(n):
        if model is None:
            model = bind(formula, net, attrs)
        g = model.summary(net)
        logw.append(sum(t * x for t, x in zip(theta, g)))
    m = max(logw)
    return m + math.log(sum(math.exp(v - m) for v in logw))


def batch_means_se(series):
    """Batch-means standard error of a chain mean (single statistic)."""
    x = np.asarray(series, dtype=float)
    S = x.size
    b = int(math.isqrt(S))
    a = S // b
    x = x[S - a * b:]
    means = x.reshape(a, b).mean(axis=1)
    var_sigma = b * np.var(means, ddof=1)
    return math.sqrt(var_sigma / (a * b))


def change_score(model, net):
    """change(i, j) -> the change score of dyad (i, j) of `net` in its
    current state, from the term closures of ``model.change_functions``
    bound once."""
    changes, adj = model.change_functions(net), net.adj

    def change(i, j):
        present = j in adj[i]
        delta = []
        for f in changes:
            delta += f(i, j, present)
        return delta

    return change


class CheckedProposal:
    """`proposal` with every draw asserted legal under `checker`.

    ``bind(net, rng)`` returns the wrapped proposal's bound ``draw``,
    which asserts ``checker.allowed`` on each dyad it proposes before
    the step sees it, and its bound ``commit``."""

    def __init__(self, proposal, checker):
        self.proposal, self.checker = proposal, checker

    def bind(self, net, rng):
        draw, commit = self.proposal.bind(net, rng)
        allowed = self.checker.allowed

        def checked():
            i, j, log_q = draw()
            assert allowed(net, i, j), f"proposed dyad ({i}, {j}) is illegal"
            return i, j, log_q

        return checked, commit


def reference_mh_step(net, model, coefs, proposal, current_stats, rng,
                      checker=None):
    """A frozen copy of the one-call Metropolis-Hastings step that the
    bound chain step replaced: it binds the proposal and the terms and
    looks everything up on every call, and tilts through _log_tilt.
    Returns (accepted, stats) like sampler.mh_step."""
    from ergmkit.sampler import _log_tilt
    draw, commit = proposal.bind(net, rng)
    i, j, log_q = draw()
    if checker is not None and not checker.allowed(net, i, j):
        return False, current_stats
    adding = not net.has_edge(i, j)
    delta = []
    for f in model.change_functions(net):
        delta += f(i, j, not adding)
    log_ar = _log_tilt(coefs, delta, 1 if adding else -1) + log_q
    if log_ar >= 0.0 or (log_ar > -math.inf and rng.random() < math.exp(log_ar)):
        net.toggle(i, j)
        if commit is not None:
            commit(i, j, adding)
        if adding:
            return True, [c + d for c, d in zip(current_stats, delta)]
        return True, [c - d for c, d in zip(current_stats, delta)]
    return False, current_stats


def reference_chain(net, model, coefs, proposal, burnin, samplesize,
                    interval, rng, checker=None):
    """run_chain's draws from a loop over reference_mh_step."""
    base = model.summary(net)
    rel = [0.0] * model.p
    for _ in range(burnin):
        _, rel = reference_mh_step(net, model, coefs, proposal, rel, rng,
                                   checker)
    out = np.empty((samplesize, model.p))
    for s in range(samplesize):
        for _ in range(interval):
            _, rel = reference_mh_step(net, model, coefs, proposal, rel, rng,
                                       checker)
        out[s] = rel
    return out + np.asarray(base)
