"""Fixed-seed CLI corpus pinned by SHA-256 digest.

Each case runs one CLI invocation on small inputs (n <= 30, short
chains) and digests its exit code, stdout and any files it writes.  The
digests pin the README's promise that identical invocations with
identical seeds give identical bytes across code changes: a change to
the RNG draw sequence, or to any arithmetic that reaches the output,
shows up as a mismatch.  `bench ess` is left out because its output
carries wall-clock columns (see test_cli.py).

After a deliberate change to the output, print the new table with
``PYTHONPATH=src python tests/test_cli_corpus.py`` and justify the
change where it is recorded.  Naming cases
(``... tests/test_cli_corpus.py NAME...``) prints only those, and
exits non-zero if any other case no longer matches its digest.
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

import pytest

from helpers import random_dyad
from ergmkit.cli import main
from ergmkit.network import Network, VertexAttributes, write_attributes, \
    write_network

N = 24
GW = "gwesp(decay=0.5, fixed=true)"
SIM = f'edges + nodematch("race") + {GW}'
HETERO = 'bd(maxout=1) + blocks(attr="sex", levels2=diag)'
MONOGAMY = 'edges + offset(nodematch("sex")) + offset(concurrent)'
CONSTRAINTS = {"plain": ".", "tntbd": "tnt + bd(maxout=1)",
               "strat": f'{HETERO} + strat(attr="race")'}


def _write_inputs(root):
    attrs = VertexAttributes(N)
    attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(N)])
    attrs.add("race", ["ABC"[(v // 2) % 3] for v in range(N)])
    write_attributes(attrs, os.path.join(root, "attrs.csv"))
    # eight disjoint cross-sex ties: legal under the monogamy offsets
    matched = Network(N)
    for k in range(8):
        matched.toggle(2 * k, 2 * k + 1)
    write_network(matched, os.path.join(root, "matched.txt"))
    # a seeded random graph for the fit
    rng = random.Random(3)
    obs = Network(12)
    while obs.edge_count < 24:
        i, j = random_dyad(obs, rng)
        if not obs.has_edge(i, j):
            obs.toggle(i, j)
    write_network(obs, os.path.join(root, "obs.txt"))
    # a seeded graph with triangles on attrs.csv's vertices, and one
    # with cross-sex ties only (legal under blocks(sex, diag))
    clustered, crosssex = Network(N), Network(N)
    for a, b, c in (rng.sample(range(N), 3) for _ in range(4)):
        for i, j in ((a, b), (a, c), (b, c)):
            if not clustered.has_edge(i, j):
                clustered.toggle(i, j)
    while clustered.edge_count < 24:
        i, j = random_dyad(clustered, rng)
        if not clustered.has_edge(i, j):
            clustered.toggle(i, j)
    while crosssex.edge_count < 30:
        i, j = random_dyad(crosssex, rng)
        if (i + j) % 2 == 1 and not crosssex.has_edge(i, j):
            crosssex.toggle(i, j)
    write_network(clustered, os.path.join(root, "clustered.txt"))
    write_network(crosssex, os.path.join(root, "crosssex.txt"))


def _cases():
    cases = {}
    for label, cons in CONSTRAINTS.items():
        for output in ("stats", "edgelist"):
            for workers in ("1", "2"):
                cases[f"simulate-{label}-{output}-w{workers}"] = (
                    ["simulate", "--n", str(N), "--attrs", "{d}/attrs.csv",
                     "--formula", SIM, "--coef=-2.0,0.5,0.1",
                     "--constraints", cons, "--nsim", "20", "--interval", "10",
                     "--burnin", "50", "--chains", "2", "--workers", workers,
                     "--output", output, "--seed", "3"], [])
    cases["simulate-target-ess"] = (
        ["simulate", "--n", str(N), "--formula", f"edges + {GW}",
         "--coef=-2.0,0.1", "--nsim", "100", "--interval", "3",
         "--burnin", "60", "--target-ess", "150", "--seed", "4"], [])
    cases["san-offsets-trace"] = (
        ["san", "--n", str(N), "--attrs", "{d}/attrs.csv", "--formula",
         MONOGAMY, "--offset-coef=-Inf,-Inf", "--targets", "9",
         "--trace", "{d}/trace.tsv", "--trace-interval", "25", "--seed", "11"],
        ["trace.tsv"])
    cases["mple-sandwich-offset"] = (
        ["mple", "--network", "{d}/matched.txt", "--attrs", "{d}/attrs.csv",
         "--formula", MONOGAMY, "--offset-coef=-Inf,-Inf", "--se", "sandwich",
         "--samplesize", "60", "--interval", "15", "--seed", "5"], [])
    # finite coefficients on every term: eta is finite on every dyad
    cases["mple-sandwich-finite"] = (
        ["mple", "--network", "{d}/clustered.txt", "--attrs", "{d}/attrs.csv",
         "--formula", f'edges + nodematch("race") + concurrent + {GW}',
         "--se", "sandwich", "--samplesize", "40", "--interval", "20",
         "--seed", "12"], [])
    # blocks drop the frozen dyads from the compressed design
    cases["mple-blocks-naive"] = (
        ["mple", "--network", "{d}/crosssex.txt", "--attrs", "{d}/attrs.csv",
         "--formula", 'edges + nodematch("race") + concurrent',
         "--constraints", 'blocks(attr="sex", levels2=diag)', "--seed", "13"],
        [])
    # the sandwich score leaves out the dyads the blocks freeze
    cases["mple-blocks-sandwich"] = (
        ["mple", "--network", "{d}/crosssex.txt", "--attrs", "{d}/attrs.csv",
         "--formula", 'edges + nodematch("race") + concurrent',
         "--constraints", 'blocks(attr="sex", levels2=diag)', "--se",
         "sandwich", "--samplesize", "40", "--interval", "20", "--seed", "14"],
        [])
    cases["fit-small"] = (
        ["fit", "--network", "{d}/obs.txt", "--formula", f"edges + {GW}",
         "--samplesize", "200", "--interval", "10", "--maxit", "4",
         "--target-ess", "80", "--eval-loglik", "--bridge-j", "4",
         "--bridge-k", "50", "--seed", "6"], [])
    # three stopping checks, each printing a Hotelling p-value
    cases["fit-hotelling"] = (
        ["fit", "--network", "{d}/obs.txt", "--formula", f"edges + {GW}",
         "--samplesize", "200", "--interval", "10", "--maxit", "4",
         "--termination", "hotelling", "--seed", "20"], [])
    # the start is far enough out that the first step is hull-scaled
    # (gamma 0.68 < 1/0.95); two deep iterations then stop the rule
    cases["fit-hummel"] = (
        ["fit", "--network", "{d}/obs.txt", "--formula", f"edges + {GW}",
         "--samplesize", "200", "--interval", "10", "--maxit", "6",
         "--init=-1.5,0.2", "--termination", "hummel", "--seed", "21"], [])
    cases["bench-mixing"] = (
        ["bench", "mixing", "--n", "30", "--formula",
         f'edges + nodematch("race", diff=true) + {GW}',
         "--coef=-2.0,0.5,0.5,0.5,0.2", "--proposals",
         f"plain=.;tntbd=tnt + {HETERO};"
         f'strat={HETERO} + strat(attr="race")',
         "--total-proposals", "2000", "--trace-interval", "200",
         "--seed", "7"], [])
    # J=12 is not a power of two: the grid weights 1/J are not exact
    cases["loglik-gwesp-j12"] = (
        ["loglik", "--network", "{d}/obs.txt", "--formula", f"edges + {GW}",
         "--coef=-0.5,0.2", "--bridge-j", "12", "--bridge-k", "40",
         "--interval", "10", "--seed", "8"], [])
    cases["loglik-triangle-target-se"] = (
        ["loglik", "--network", "{d}/obs.txt", "--formula", "edges + triangle",
         "--coef=-0.4,0.1", "--bridge-j", "4", "--bridge-k", "40",
         "--interval", "10", "--target-se", "0.1", "--seed", "9"], [])
    cases["loglik-blocks-target-se"] = (
        ["loglik", "--network", "{d}/matched.txt", "--attrs", "{d}/attrs.csv",
         "--formula", "edges + concurrent", "--constraints",
         'blocks(attr="sex", levels2=diag)', "--coef=-2.0,0.3",
         "--bridge-j", "4", "--bridge-k", "40", "--interval", "10",
         "--target-se", "0.3", "--seed", "10"], [])
    return cases


CASES = _cases()

DIGESTS = {
    'bench-mixing': 'd0a7d93502c37d2b789b329ef792bce69e71ad6e42cc8d8bb403c1c8159ba84c',
    'fit-hotelling': 'c4beeb4b4816d8e1e6c37df779295d5639a703c8a4efb6c7b2b23364a6c2ec1f',
    'fit-hummel': '9ddbb78a3b7a9e62f49973d443d2684e05e751bd5e8353c35b89c692e3dd15ad',
    'fit-small': '702dcc4943a401f1e7dfeec437d5d059e01c96a5622609e4ca381e5ae5b9aebf',
    'loglik-blocks-target-se': '987f5acb5924bd7c6ce93fdf1ec83382f2cbab46bb936b2202c1e20630faf7f1',
    'loglik-gwesp-j12': 'e83964cfdf945e3ea3409500273856b1d8b2a3feff5423ad18dc86dd74e774a5',
    'loglik-triangle-target-se': '7869bacb683cdd614d41c7f39da92beddb5de224260156ac8227d2eac8d17454',
    'mple-blocks-sandwich': 'd3ba8a192c2d1318b1e1c2bb715866f52d3c7683d5a55ab286bb841752babd78',
    'mple-blocks-naive': '672e45d33246725832766032489ee5f9c54b22d13fd48e0488aeec91e3224b9b',
    'mple-sandwich-finite': '117db0bd010987fa9ecca072bc1076aef7bd0859a31b08667a442ddf732fbacd',
    'mple-sandwich-offset': '1c415ee2eb2c3dc2cef42bf1f84c54b7dcea7772c12c878c307f10f496290a04',
    'san-offsets-trace': '5011a50af0340e38d4584f27499678a0202c5430ea74ff74af9c720fc15add29',
    'simulate-plain-edgelist-w1': '53323b356ea7fd2831a0857c311c7242c34e6c2947203e4be8862d12b522023e',
    'simulate-plain-edgelist-w2': '53323b356ea7fd2831a0857c311c7242c34e6c2947203e4be8862d12b522023e',
    'simulate-plain-stats-w1': '0873ae026e4b2efe061451c371324e07d1baf66590fb8e4da60f77e1e221a6d1',
    'simulate-plain-stats-w2': '0873ae026e4b2efe061451c371324e07d1baf66590fb8e4da60f77e1e221a6d1',
    'simulate-strat-edgelist-w1': '3aa08b257a7f1cc3f9da9334f6f38cda9dc9f9012c7868e37ceaced73ff834c4',
    'simulate-strat-edgelist-w2': '3aa08b257a7f1cc3f9da9334f6f38cda9dc9f9012c7868e37ceaced73ff834c4',
    'simulate-strat-stats-w1': '6885778c52567903eadf4b475ac65de459f24006f309f6037dd8cf1999353041',
    'simulate-strat-stats-w2': '6885778c52567903eadf4b475ac65de459f24006f309f6037dd8cf1999353041',
    'simulate-target-ess': '333dd17a19a16520fcf9ee794aa4346ceaa5dd6cf129348ae42964fbe3065802',
    'simulate-tntbd-edgelist-w1': 'a5cc4af1319b4e106b1a03b743b9142a6fb0bb59c991d0c05ad59bc1504c9c58',
    'simulate-tntbd-edgelist-w2': 'a5cc4af1319b4e106b1a03b743b9142a6fb0bb59c991d0c05ad59bc1504c9c58',
    'simulate-tntbd-stats-w1': '64a26e61e7fb52a7e56f010e604e1a5edff918c8ea402013af986a28758a817f',
    'simulate-tntbd-stats-w2': '64a26e61e7fb52a7e56f010e604e1a5edff918c8ea402013af986a28758a817f',
}


def digest(name, root):
    argv, files = CASES[name]
    argv = [a.replace("{d}", root) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    h = hashlib.sha256(f"exit {code}\n".encode())
    h.update(out.getvalue().encode())
    for fname in files:
        with open(os.path.join(root, fname), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def inputs():
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root)
        yield root


@pytest.mark.parametrize("name", sorted(CASES))
def test_corpus_digest(name, inputs):
    assert digest(name, inputs) == DIGESTS[name]


if __name__ == "__main__":
    named = sys.argv[1:]
    unknown = sorted(set(named) - set(CASES))
    if unknown:
        sys.exit(f"unknown corpus cases: {', '.join(unknown)}")
    moved = []
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root)
        for name in sorted(CASES):
            value = digest(name, root)
            if not named or name in named:
                print(f"    {name!r}: {value!r},")
            elif value != DIGESTS[name]:
                moved.append(name)
    if moved:
        sys.exit(f"unnamed cases no longer match: {', '.join(moved)}")
