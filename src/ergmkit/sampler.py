"""Metropolis-Hastings chain driver.

A ``Chain`` binds its network, proposal, checker and RNG once
(``Chain.start`` starts one on a copy of a network), and its kernel is
advanced in whole intervals: ``advance(stats, steps)`` runs a burn-in
or the steps between two retained draws in one call.  That one loop
draws TNT and uniform proposals itself (any other proposal through its
bound ``draw`` and ``commit``) and flips every accepted dyad in the
network's edge list, position map, adjacency sets and degrees itself,
with ``Network.toggle``'s writes in its order, as drawn: every draw is
a canonical free dyad (the ``proposals`` contract).  On it sit single
steps, fixed-schedule runs, and the adaptive loop that targets a
multivariate effective sample size: extend, halve-and-double the
interval once the retained sample exceeds twice the nominal size (or
twice the two-window test's minimum, if larger), estimate burn-in from
the geometric-decay fit, test convergence with the two-window
diagnostic, then either return (ESS at target) or extrapolate the
additional steps from the ESS-per-draw ratio.

Statistic values are tracked as offsets from the statistics of the
network a run starts from and re-based on output, which avoids
large-magnitude cancellation on big networks; infinite offset
coefficients follow the convention that their product with a zero
change is zero.
"""

import math
import random
from dataclasses import dataclass, field
from operator import add, sub

import numpy as np

from . import proposals
from .diagnostics import estimate_burnin, geweke_test, multivariate_ess
from .errors import DataError

__all__ = ["SamplerConfig", "SampleMatrix", "Chain", "mh_step", "run_chain",
           "sample_chains", "adaptive_run"]

_INF = math.inf


@dataclass
class SamplerConfig:
    samplesize: int = 1000
    burnin: int = 0
    interval: int = 1
    chains: int = 1
    seed: int = 0
    target_ess: float | None = None
    max_rounds: int = 100

    def __post_init__(self):
        if self.samplesize < 1 or self.interval < 1 or self.chains < 1:
            raise DataError("samplesize, interval and chains must be positive")
        if self.burnin < 0:
            raise DataError("burnin must be nonnegative")
        if self.target_ess is not None and self.target_ess <= 0:
            raise DataError("target_ess must be positive")


class SampleMatrix:
    """Retained draws of the statistic vector, possibly multi-chain."""

    def __init__(self, values, names, chain_ids=None, interval=1, burnin=0):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        self.names = list(names)
        self.chain_ids = (np.zeros(len(self.values), dtype=int)
                          if chain_ids is None else np.asarray(chain_ids, dtype=int))
        self.interval = interval
        self.burnin = burnin

    @property
    def S(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]

    def mean(self):
        return self.values.mean(axis=0)


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


def _offset_shift(offsets, offset_coefs):
    """Row-wise _log_tilt(offset_coefs, row, 1) over a change-score matrix.

    Per-row shift from fixed coefficients, with 0 * inf = 0; when
    conflicting infinities meet on one row, -inf wins (the dyad stays
    forbidden).
    """
    n = len(offsets)
    finite = np.zeros(n)
    pos_inf = np.zeros(n, dtype=bool)
    neg_inf = np.zeros(n, dtype=bool)
    for c, coef in enumerate(offset_coefs):
        col = offsets[:, c]
        if math.isinf(coef):
            up = col > 0 if coef > 0 else col < 0
            dn = col < 0 if coef > 0 else col > 0
            pos_inf |= up
            neg_inf |= dn
        else:
            finite += coef * col
    shift = finite
    shift[pos_inf] = _INF
    shift[neg_inf] = -_INF
    return shift


class Chain:
    """One Metropolis-Hastings chain on `net`, which it mutates: the
    proposal, checker, change closures and RNG are bound once, and
    ``kernel``/``run`` re-bind only the coefficients."""

    def __init__(self, net, model, proposal, checker, rng):
        self.net, self.model = net, model
        draw, commit = proposal.bind(net, rng)
        # the loop draws TNT and uniform dyads itself (see kernel)
        kind = type(proposal)
        if kind is proposals.TntProposal or kind is proposals.UniformProposal:
            draw = None
        N = net.dyad_count()
        # the checker's rule, bound once: blocked level pairs, and the out
        # and in caps
        if checker is None:
            rule = (False, None, None, None, None)
        else:
            level, forbid = checker.blocked or (None, None)
            rule = (True, level, forbid, checker.caps_out, checker.caps_in)
        self._bound = (
            draw, commit, *rule, model.change_functions(net), net.adj,
            net.deg, net.in_adj, net.in_deg, net.edges, net._edge_pos,
            net.decoder(), N, N.bit_length(), kind is proposals.TntProposal,
            proposals._tnt_log_q_ratio, {}, {}, rng.getrandbits, rng.random,
            math.exp)

    @classmethod
    def start(cls, net, model, constraints, attrs, rng):
        """A chain on a copy of `net`, with the proposal its constraints
        call for."""
        net = net.copy()
        return cls(net, model, *proposals.make_proposal(net, constraints, attrs),
                   rng)

    def kernel(self, coefs):
        """The Metropolis-Hastings kernel at `coefs`.

        Returns advance(stats, steps=1) -> stats, which makes `steps`
        steps in one call and returns the updated statistic vector, or
        `stats` itself (the same list object) when every move is
        rejected (and when steps is 0).  A checker turns
        constraint-violating proposals into certain rejections, which is
        how plain proposals honor bd/blocks constraints.

        The checker is bound once, in ``Chain.__init__``: its blocks
        levels and forbid matrix and its out- and in-caps.  The step
        applies ``ConstraintChecker.allowed``'s rule inline with the
        dyad's state it has already read: a blocked dyad is rejected,
        and so is an add whose tail is at its out-cap or whose head is at
        its in-cap.  On undirected networks the in-degrees and in-caps
        are the degrees and out-caps, the same lists.  A rejection by the
        rule consumes no random number.  ``allowed`` itself serves SAN
        and the tests.

        Everything a step looks up is held in advance's locals: the
        bound rule, each term's change closure
        (``BoundModel.change_functions``, called with the dyad's state
        the step has already read), the RNG and the network's edge list,
        position map, adjacency sets and degrees.  The step draws TNT and
        uniform proposals itself, with the random and getrandbits calls
        of their bound draws: the edge branch picks from ``net.edges`` as
        ``proposals._below`` would, and the dyad branch decodes the same
        draw below the free-dyad count with ``Network.decoder``'s
        closure.  TNT's log q-ratio is ``proposals._tnt_log_q_ratio``,
        memoised per edge count and branch.  Any other proposal draws
        through its bound ``draw`` and updates its state through
        ``commit``.

        The step flips an accepted dyad itself, with ``Network.toggle``'s
        writes in its order, so the edge list, the position map and the
        adjacency sets iterate alike.  It trusts the dyad: an inline
        draw is canonical by construction, and a bound ``draw`` by the
        ``proposals`` contract.

        When every coefficient is finite the step sums the tilt itself,
        c * d over the nonzero d in _log_tilt's order, and negates the
        sum on a removal.  That is bit-identical to _log_tilt's sum of
        c * -d because IEEE negation is exact and rounding to nearest is
        sign-symmetric; at most the sign of an exact zero differs, which
        the acceptance test reads alike.  The loop is explicit because
        builtin sum() of floats is compensated from Python 3.12 on.
        With an infinite coefficient the tilt goes through _log_tilt,
        the one 0 * inf rule.
        """
        model = self.model
        if len(coefs) != model.p:
            raise DataError(f"need {model.p} coefficients, got {len(coefs)}")
        coefs = [float(c) for c in coefs]
        if any(math.isnan(c) for c in coefs):
            raise DataError("coefficients must not be NaN")
        bound = (*self._bound, all(map(math.isfinite, coefs)), coefs)

        def advance(stats, steps=1):
            # fast locals for the loop, unpacked once per call
            (draw, commit, checked, level, forbid, caps, in_caps, changes,
             adj, deg, in_adj, in_deg, edges, pos, decode, N, N_bits, tnt,
             tnt_log_q, edge_q, gap_q, getrandbits, random, exp, finite,
             coefs) = bound
            for _ in range(steps):
                if draw is None:
                    E = len(edges)
                    if tnt and E and random() < 0.5:
                        k = E.bit_length()
                        r = getrandbits(k)
                        while r >= E:
                            r = getrandbits(k)
                        d = edges[r]
                        i, j = d
                        present = True
                    else:
                        r = getrandbits(N_bits)
                        while r >= N:
                            r = getrandbits(N_bits)
                        d = decode(r)
                        i, j = d
                        present = j in adj[i]
                    if tnt:
                        memo = edge_q if present else gap_q
                        log_q = memo.get(E)
                        if log_q is None:
                            log_q = memo[E] = tnt_log_q(N, E, present)
                    else:
                        log_q = 0.0
                else:
                    i, j, log_q = draw()
                    d = (i, j)
                    present = j in adj[i]
                if checked:
                    # ConstraintChecker.allowed: a blocked dyad is frozen,
                    # and an add needs both endpoints below their caps
                    if forbid is not None and forbid[level[i]][level[j]]:
                        continue
                    if not present and (deg[i] >= caps[i] or
                                        in_deg[j] >= in_caps[j]):
                        continue
                delta = []
                for f in changes:
                    delta += f(i, j, present)
                if finite:
                    tilt = 0.0
                    for c, x in zip(coefs, delta):
                        if x:
                            tilt += c * x
                    if present:
                        tilt = -tilt
                    log_ar = tilt + log_q
                else:
                    log_ar = _log_tilt(coefs, delta, -1 if present else 1) + log_q
                if log_ar >= 0.0 or (log_ar > -_INF and random() < exp(log_ar)):
                    if present:
                        slot = pos.pop(d)
                        last = edges.pop()
                        if last != d:
                            edges[slot] = last
                            pos[last] = slot
                        adj[i].discard(j)
                        deg[i] -= 1
                        in_adj[j].discard(i)
                        in_deg[j] -= 1
                        stats = list(map(sub, stats, delta))
                    else:
                        pos[d] = len(edges)
                        edges.append(d)
                        adj[i].add(j)
                        deg[i] += 1
                        in_adj[j].add(i)
                        in_deg[j] += 1
                        stats = list(map(add, stats, delta))
                    if commit is not None:
                        commit(i, j, not present)
            return stats

        return advance

    def run(self, coefs, config, collect=None):
        """Burn in, then retain `samplesize` draws every `interval` steps.

        The network ends at the chain's final state.  Returns a
        SampleMatrix; `collect`, when given, is called on the network at
        every retained draw and the results returned alongside,
        mirroring the user-function output mode of simulate.
        """
        advance = self.kernel(coefs)
        net, model = self.net, self.model
        base = model.summary(net)
        rel = [0.0] * model.p
        out = np.empty((config.samplesize, model.p), dtype=float)
        collected = [] if collect is not None else None

        rel = advance(rel, config.burnin)
        interval = config.interval
        for s in range(config.samplesize):
            rel = advance(rel, interval)
            out[s] = rel
            if collect is not None:
                collected.append(collect(net))
        out += np.asarray(base)
        sample = SampleMatrix(out, model.names, interval=interval,
                              burnin=config.burnin)
        if collect is not None:
            return sample, collected
        return sample


def mh_step(net, model, coefs, proposal, current_stats, rng, checker=None):
    """One Metropolis-Hastings step; mutates net when accepting.

    Returns (accepted, stats) where stats is the updated statistic
    vector (the same list object when the move is rejected).  Each call
    binds a Chain for one step; to run a chain, bind it once.
    """
    stats = Chain(net, model, proposal, checker, rng).kernel(coefs)(current_stats)
    return stats is not current_stats, stats


def run_chain(net, model, coefs, proposal, config, checker=None, rng=None,
              collect=None):
    """``Chain.run`` on `net` in place, with `rng` (default: a
    ``random.Random`` seeded by config.seed)."""
    if rng is None:
        rng = random.Random(config.seed)
    return Chain(net, model, proposal, checker, rng).run(coefs, config, collect)


def sample_chains(net, model, coefs, config, workers=1, constraints=None,
                  attrs=None):
    """Run config.chains independent chains from clones of `net`.

    Each chain builds its own proposal (and checker) from `constraints`
    and `attrs`, since proposal state is chain-owned, and chain c uses
    seed seed+c.  With workers > 1 the chains run in separate
    processes; results are merged in chain order, so the output is
    identical whatever the worker count.  Returns the SampleMatrix and
    the final networks.
    """
    if workers < 1:
        raise DataError("workers must be positive")
    payloads = [(net, model, list(coefs), constraints, attrs, config,
                 config.seed + c) for c in range(config.chains)]
    if workers > 1 and config.chains > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, config.chains)) as ex:
            results = list(ex.map(_chain_worker, payloads))
    else:
        results = [_chain_worker(payload) for payload in payloads]
    blocks = [values for values, _ in results]
    finals = [final for _, final in results]
    ids = [np.full(len(b), c, dtype=int) for c, b in enumerate(blocks)]
    return SampleMatrix(np.vstack(blocks), model.names, np.concatenate(ids),
                        interval=config.interval, burnin=config.burnin), finals


def _chain_worker(payload):
    """Run one chain of sample_chains from its own copy of the network."""
    net, model, coefs, constraints, attrs, config, seed = payload
    chain = Chain.start(net, model, constraints, attrs, random.Random(seed))
    return chain.run(coefs, config).values, chain.net


@dataclass
class AdaptiveDiagnostics:
    rounds: int = 0
    converged: bool = False
    ess: float = 0.0
    interval: int = 1
    burnin_draws: int = 0
    geweke_p: float = float("nan")
    thinning_events: int = 0
    total_steps: int = 0
    history: list = field(default_factory=list)


def _direction_for(model, coefs):
    """Scalarization direction: the non-offset coefficients, normalized."""
    d = np.zeros(model.p)
    for k in model.free_index:
        d[k] = coefs[k]
    norm = float(np.linalg.norm(d))
    if norm < 1e-12:
        for k in model.free_index or range(model.p):
            d[k] = 1.0
        norm = float(np.linalg.norm(d))
    return d / norm


# a two-window p-value below this sends the adaptive loop to another round
_GEWEKE_ALPHA = 0.05


def adaptive_run(chain, coefs, config):
    """Grow `chain` until the multivariate ESS reaches target_ess.

    Returns (SampleMatrix of post-burn-in retained draws, diagnostics).
    The loop: (1) extend by samplesize*interval steps; (2) once the
    cumulative retained count exceeds twice the larger of samplesize
    and the two-window test's minimum, drop every other draw and double
    the interval; (3) fit the geometric-decay burn-in;
    (4) run the two-window test after discarding the burn-in; (5) on
    nonconvergence continue; (6) return once the ESS of the retained
    draws meets the target; (7) otherwise extrapolate the additional
    steps from the current ESS-per-draw ratio and continue.
    """
    if config.target_ess is None:
        raise DataError("adaptive_run needs target_ess")
    model = chain.model
    diag = AdaptiveDiagnostics(interval=config.interval)
    target = config.target_ess
    rows = []
    interval = config.interval
    direction = _direction_for(model, coefs)
    # the two-window test needs 8 draws in its short (10%) window
    min_kept = max(80, model.p + 2)
    cap = 2 * max(config.samplesize, min_kept)

    pending = config.samplesize
    for round_no in range(1, config.max_rounds + 1):
        diag.rounds = round_no
        # step 1, one chain run per round; the first also burns in
        burnin = config.burnin if round_no == 1 else 0
        cfg = SamplerConfig(samplesize=pending, interval=interval,
                            burnin=burnin)
        rows.extend(chain.run(coefs, cfg).values)
        diag.total_steps += burnin + pending * interval
        # step 2: thin to keep the retained sample bounded, never below
        # what the two-window test needs
        while len(rows) > cap:
            rows = rows[1::2]
            interval *= 2
            diag.thinning_events += 1
        diag.interval = interval
        if len(rows) < 16:      # too few draws for the burn-in fit
            pending = config.samplesize
            diag.history.append(("too-short", len(rows)))
            continue

        x = np.asarray(rows)
        fit = estimate_burnin(x, direction)
        s0 = min(int(math.ceil(fit.s0)), len(rows))
        kept = x[s0:]
        diag.burnin_draws = s0
        if len(kept) < min_kept:
            pending = config.samplesize
            diag.history.append(("too-short", len(kept)))
            continue
        pval = geweke_test(kept)
        diag.geweke_p = pval
        if pval < _GEWEKE_ALPHA:
            pending = config.samplesize
            diag.history.append(("nonconverged", pval))
            continue
        report = multivariate_ess(kept)
        diag.ess = report.ess
        diag.history.append(("ess", report.ess))
        if report.ess >= target:
            diag.converged = True
            return SampleMatrix(kept, model.names, interval=interval,
                                burnin=s0), diag
        # step 7: extrapolate the extra steps needed
        steps_needed = interval * config.samplesize * (target / max(report.ess, 1e-9) - 1.0)
        lo = interval * config.samplesize / 4
        hi = 16 * interval * config.samplesize
        steps = min(max(steps_needed, lo), hi)
        pending = max(1, int(steps / interval))
    # cap exceeded; hand back what we have, flagged
    x = np.asarray(rows)
    s0 = diag.burnin_draws if diag.burnin_draws < len(rows) else 0
    return SampleMatrix(x[s0:], model.names, interval=interval, burnin=s0), diag
