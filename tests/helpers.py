"""Shared test oracles: exact enumeration over small graph spaces."""

import itertools
import math
import random

import numpy as np

from ergmkit.network import Network
from ergmkit.terms import bind

_INF = math.inf


# the 0 * inf rule written out sign by sign: the oracle for the library's
# IEEE tilt sums (sampler._run_tilt and _offset_shift), where a NaN sum
# reads as this function's -inf
def _log_tilt(coefs, delta, sign):
    """sign * <coefs, delta> with 0 * inf = 0 and -inf dominating."""
    total = 0.0
    has_pos = has_neg = False
    for c, d in zip(coefs, delta):
        if d == 0.0:
            continue
        x = d if sign > 0 else -d
        if c == _INF:
            if x > 0.0:
                has_pos = True
            else:
                has_neg = True
        elif c == -_INF:
            if x > 0.0:
                has_neg = True
            else:
                has_pos = True
        else:
            total += c * x
    if has_neg:
        return -_INF
    if has_pos:
        return _INF
    return total


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
    which asserts that each dyad it proposes is canonical and free on
    an undirected unipartite network (``0 <= i < j < n``, the draw
    contract the chain step trusts) and ``checker.allowed``, before the
    step sees it, and its bound ``commit``."""

    def __init__(self, proposal, checker):
        self.proposal, self.checker = proposal, checker

    def bind(self, net, rng):
        draw, commit = self.proposal.bind(net, rng)
        allowed, n = self.checker.allowed, net.n

        def checked():
            i, j, log_q = draw()
            assert 0 <= i < j < n, f"proposed dyad ({i}, {j}) is not canonical"
            assert allowed(net, i, j), f"proposed dyad ({i}, {j}) is illegal"
            return i, j, log_q

        return checked, commit


def reference_mh_step(net, model, coefs, proposal, current_stats, rng,
                      checker=None):
    """A frozen copy of the one-call Metropolis-Hastings step that the
    bound chain step replaced: it binds the proposal and the terms and
    looks everything up on every call, and tilts through _log_tilt.
    Returns (accepted, stats) like sampler.mh_step."""
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


def reference_san(net, model, config, constraints=None, attrs=None, rng=None):
    """A frozen copy of the annealing loop that ``san.san_run`` replaced
    with a ``sampler.Chain``: it draws through the proposal's bound
    ``draw``, checks with ``ConstraintChecker.allowed``, reads the dyad
    with ``Network.has_edge``, flips with ``Network.toggle`` and scores
    the offset bias through _log_tilt on every proposal.  The weight
    update needs two stored differences, as in san_run.  Returns (net,
    SanTrace) like san_run."""
    from ergmkit.errors import DataError
    from ergmkit.proposals import make_proposal
    from ergmkit.san import _MAX_STORED_DIFFS, SanTrace, san_weight_update

    if rng is None:
        rng = random.Random(config.seed)
    proposal, checker = make_proposal(net, constraints, attrs)
    draw, commit = proposal.bind(net, rng)
    changes = model.change_functions(net)

    free = model.free_index
    offs = model.offset_index
    targets = np.asarray(config.targets, dtype=float)
    if targets.shape != (len(free),):
        raise DataError(f"need {len(free)} target values (non-offset statistics)")
    if not np.isfinite(targets).all():
        raise DataError("target values must be finite")
    if len(config.offset_coefs) != len(offs):
        raise DataError(f"need {len(offs)} offset coefficients")
    if any(map(math.isnan, config.offset_coefs)):
        raise DataError("offset coefficients must not be NaN")
    p = len(free)
    if config.invcov_override is not None:
        W = np.asarray(config.invcov_override, dtype=float)
        if W.shape != (p, p):
            raise DataError("invcov_override dimension mismatch")
    else:
        W = np.eye(p) / max(p, 1)
    tau0 = config.tau0 if config.tau0 is not None else float(max(p, 1))
    steps_per_run = config.steps_per_run or max(4096, 8 * net.dyad_count())
    # the offset bias <eta, dg> counts only infinite offset coefficients
    eta = [0.0] * model.p
    for k, c in zip(offs, config.offset_coefs):
        if math.isinf(c):
            eta[k] = c

    stats = model.summary(net)
    dev = np.array([stats[k] for k in free]) - targets
    e = float(dev @ W @ dev)    # the current energy, kept with dev and W
    trace = SanTrace()
    runs = config.runs

    for r in range(runs):
        if runs > 1:
            T = tau0 * (1.0 - r / (runs - 1.0))
        else:
            T = tau0
        stored = []
        seen = 0
        for _ in range(steps_per_run):
            if not dev.any():
                trace.exited_early = True
                trace.final_energy = 0.0
                trace.runs_completed = r
                return net, trace
            i, j, _logq = draw()
            trace.proposals += 1
            if trace.proposals % config.trace_interval == 0:
                trace.rows.append((trace.proposals, list(stats), e))
            if checker is not None and not checker.allowed(net, i, j):
                continue
            present = net.has_edge(i, j)
            adding = not present
            sign = 1.0 if adding else -1.0
            delta = []
            for f in changes:
                delta += f(i, j, present)
            dfree = np.array([delta[k] for k in free]) * sign

            # reservoir subsample of the proposed differences
            seen += 1
            if len(stored) < _MAX_STORED_DIFFS:
                stored.append(dfree)
            else:
                slot = rng.randrange(seen)
                if slot < _MAX_STORED_DIFFS:
                    stored[slot] = dfree

            new_dev = dev + dfree
            new_e = float(new_dev @ W @ new_dev)
            dE = new_e - e
            bias = _log_tilt(eta, delta, 1 if adding else -1)
            if bias == -_INF:
                continue
            if T == 0.0:
                if dE > 0.0:
                    continue
                log_alpha = bias if dE == 0.0 else _INF
            else:
                log_alpha = _INF if bias == _INF else (-dE / T + bias)
            if log_alpha >= 0.0 or rng.random() < math.exp(log_alpha):
                net.toggle(i, j)
                if commit is not None:
                    commit(i, j, adding)
                for k in range(model.p):
                    stats[k] += sign * delta[k]
                dev, e = new_dev, new_e
                trace.accepted += 1
        trace.runs_completed = r + 1
        if config.invcov_override is None and len(stored) >= max(p, 2):
            W = san_weight_update(np.asarray(stored))
            e = float(dev @ W @ dev)
    trace.final_energy = e
    trace.exited_early = not dev.any()
    return net, trace
