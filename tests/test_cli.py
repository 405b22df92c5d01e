"""CLI contract: subcommands, determinism, exit codes, TSV shapes."""

import contextlib
import io
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

import ergmkit
from helpers import random_dyad
from ergmkit.cli import main
from ergmkit.formula import CONSTRAINT_ATOMS, TERM_CATALOG
from ergmkit.network import Network, VertexAttributes, read_network, \
    write_network, write_attributes
from ergmkit.terms import bind
from test_cli_corpus import CASES as CORPUS


@pytest.fixture
def net10(tmp_path):
    path = tmp_path / "net.txt"
    write_network(Network(10), path)
    return str(path)


@pytest.fixture
def observed_net(tmp_path):
    import random
    rng = random.Random(3)
    net = Network(10)
    while net.edge_count < 30:
        i, j = random_dyad(net, rng)
        if not net.has_edge(i, j):
            net.toggle(i, j)
    path = tmp_path / "obs.txt"
    write_network(net, path)
    return str(path)


@pytest.fixture
def sex_attrs_file(tmp_path):
    attrs = VertexAttributes(100)
    attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(100)])
    path = tmp_path / "attrs.csv"
    write_attributes(attrs, path)
    return str(path)


HETERO = 'bd(maxout=1) + blocks(attr="sex", levels2=diag)'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, cwd=None):
    """Run `python -m ergmkit.cli argv` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ergmkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "ergmkit.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)


def coef_rows(out):
    """Parse the '# coefficients' section into name -> fields."""
    rows = {}
    active = False
    for line in out.strip().split("\n"):
        if line.startswith("# "):
            active = line == "# coefficients"
            continue
        if active:
            fields = line.split("\t")
            rows[fields[0]] = fields
    return rows


class TestSimulate:
    def test_pmat_file_weights(self, capsys, tmp_path):
        # a diagonal pmat forbids cross-group ties
        attrs = VertexAttributes(12)
        attrs.add("grp", ["X" if v % 3 == 0 else "Y" for v in range(12)])
        write_attributes(attrs, tmp_path / "attrs.csv")
        (tmp_path / "pm.tsv").write_text("1\t0\n0\t1\n")
        code, out, _ = run(capsys, "simulate", "--n", "12",
                           "--attrs", str(tmp_path / "attrs.csv"),
                           "--formula", "edges", "--coef=-1",
                           "--constraints",
                           f'strat(attr="grp", pmat="{tmp_path / "pm.tsv"}")',
                           "--nsim", "1", "--burnin", "2000",
                           "--output", "edgelist", "--seed", "2")
        assert code == 0
        edges = [tuple(int(x) - 1 for x in line.split("\t"))
                 for line in out.strip().split("\n")[1:]]
        assert edges
        assert all((i % 3 == 0) == (j % 3 == 0) for i, j in edges)

    def test_stats_shape(self, capsys, net10):
        code, out, _ = run(capsys, "simulate", "--network", net10,
                           "--formula", "edges", "--coef", "0.6931471805599453",
                           "--nsim", "50", "--interval", "50",
                           "--burnin", "500", "--seed", "1")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "edges"
        assert len(lines) == 51

    def test_byte_identical_reruns(self, capsys, net10):
        args = ("simulate", "--network", net10, "--formula", "edges + triangle",
                "--coef", "0.2,0.05", "--nsim", "20", "--interval", "10",
                "--burnin", "100", "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_edgelist_output(self, capsys, net10):
        code, out, _ = run(capsys, "simulate", "--network", net10,
                           "--formula", "edges", "--coef", "0.0",
                           "--nsim", "5", "--interval", "5", "--burnin", "50",
                           "--output", "edgelist", "--seed", "2")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "tail\thead"

    def test_directed_degree_cap_falls_back_to_tnt(self, capsys):
        # BDStratTNT is undirected only; a directed bd() run samples with
        # TNT and rejection instead of stopping with a data error
        code, out, _ = run(capsys, "simulate", "--n", "6", "--directed",
                           "--formula", "edges", "--coef", "1",
                           "--constraints", "bd(maxin=1)", "--nsim", "3",
                           "--interval", "10", "--burnin", "10",
                           "--output", "edgelist", "--seed", "6")
        assert code == 0
        heads = [line.split("\t")[1] for line in out.strip().split("\n")[1:]]
        assert heads and len(heads) == len(set(heads))

    def test_network_output_round_trips(self, capsys, net10, tmp_path):
        out_path = tmp_path / "final.txt"
        code, _, _ = run(capsys, "simulate", "--network", net10,
                         "--formula", "edges", "--coef", "0.5",
                         "--nsim", "10", "--interval", "10", "--burnin", "50",
                         "--output", "network", "--seed", "3",
                         "--out", str(out_path))
        assert code == 0
        net = read_network(out_path)
        assert net.n == 10

    def test_chains_column(self, capsys, net10):
        code, out, _ = run(capsys, "simulate", "--network", net10,
                           "--formula", "edges", "--coef", "0.0",
                           "--nsim", "5", "--interval", "2", "--burnin", "10",
                           "--chains", "2", "--seed", "4")
        lines = out.strip().split("\n")
        assert lines[0] == "chain\tedges"
        assert len(lines) == 11

    def test_workers_do_not_change_output(self, capsys, net10):
        base = ("simulate", "--network", net10, "--formula", "edges",
                "--coef", "0.1", "--nsim", "8", "--interval", "3",
                "--burnin", "20", "--chains", "2", "--seed", "9")
        _, seq, _ = run(capsys, *base, "--workers", "1")
        _, par, _ = run(capsys, *base, "--workers", "2")
        assert seq == par

    def test_coef_file_indirection(self, capsys, net10, tmp_path):
        coefs = tmp_path / "coefs.txt"
        coefs.write_text("0.25\n")
        code, out, _ = run(capsys, "simulate", "--network", net10,
                           "--formula", "edges", "--coef", f"@{coefs}",
                           "--nsim", "3", "--interval", "2", "--burnin", "10",
                           "--seed", "5")
        assert code == 0


class TestSan:
    def test_monogamy_annealing_example(self, capsys, sex_attrs_file, tmp_path):
        trace = tmp_path / "trace.tsv"
        code, out, _ = run(capsys, "san", "--n", "100",
                           "--attrs", sex_attrs_file,
                           "--formula",
                           'edges + offset(nodematch("sex")) + offset(concurrent)',
                           "--offset-coef=-Inf,-Inf",
                           "--targets", "30", "--seed", "11",
                           "--trace", str(trace))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "%n 100"
        edges = [tuple(map(int, l.split())) for l in lines[3:]]
        assert len(edges) == 30
        assert all((t % 2) != (h % 2) for t, h in edges)  # 1-based parity
        assert trace.read_text().startswith("proposals\t")

    def test_missed_targets_exit_5(self, capsys, net10):
        code, _, err = run(capsys, "san", "--network", net10,
                           "--formula", "edges", "--targets", "40",
                           "--steps", "3", "--runs", "1", "--seed", "0")
        assert code == 5
        assert "nonconvergence" in err

    @pytest.mark.parametrize("argv", [
        ["san", "--n", "10", "--formula", "edges", "--targets", "5",
         "--runs", "3", "--steps", "1", "--allow-inexact"],
        ["fit", "--n", "10", "--formula", "edges", "--target-stats", "5",
         "--san-steps", "1", "--allow-inexact-targets"],
    ], ids=["san", "fit"])
    def test_one_proposal_runs_keep_their_weights(self, argv):
        # a one-proposal run stores one difference, which has no
        # covariance to reweight from
        proc = run_process(*argv)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr


class TestMple:
    def test_edges_closed_form(self, capsys, observed_net):
        code, out, _ = run(capsys, "mple", "--network", observed_net,
                           "--formula", "edges")
        assert code == 0
        rows = coef_rows(out)
        est = float(rows["edges"][1])
        assert abs(est - math.log(2.0)) < 1e-8

    def test_sections_present(self, capsys, observed_net):
        code, out, _ = run(capsys, "mple", "--network", observed_net,
                           "--formula", "edges + triangle", "--se", "sandwich",
                           "--samplesize", "300", "--seed", "1")
        assert code == 0
        assert "# coefficients" in out
        assert "# vcov" in out
        assert "# termination" in out

    @pytest.mark.parametrize("argv", [
        ["mple"], ["mple", "--se", "sandwich", "--samplesize", "2"],
        ["loglik", "--coef=-0.3,0.4"]], ids=["naive", "sandwich", "loglik"])
    def test_edge_on_blocked_dyad_exit_3(self, capsys, tmp_path, argv):
        # no offset is set: the error names the blocks constraint
        net = Network(12)
        for i, j in ((0, 1), (2, 4), (5, 6)):
            net.toggle(i, j)
        attrs = VertexAttributes(12)
        attrs.add("sex", ["M" if v % 2 == 0 else "F" for v in range(12)])
        write_network(net, tmp_path / "net.txt")
        write_attributes(attrs, tmp_path / "attrs.csv")
        code, out, err = run(capsys, *argv, "--network",
                             str(tmp_path / "net.txt"), "--attrs",
                             str(tmp_path / "attrs.csv"), "--formula",
                             "edges + concurrent", "--constraints",
                             'blocks(attr="sex", levels2=diag)')
        assert code == 3
        assert out == ""
        assert "edge (3, 5) violates blocks" in err

    def test_sandwich_needs_two_draws(self, capsys, observed_net):
        code, out, err = run(capsys, "mple", "--network", observed_net,
                             "--formula", "edges + triangle", "--se",
                             "sandwich", "--samplesize", "1", "--seed", "1")
        assert code == 3
        assert out == ""
        assert "error: data" in err and "Warning" not in err


class TestFit:
    def test_edges_fit_close_to_log2(self, capsys, observed_net):
        code, out, _ = run(capsys, "fit", "--network", observed_net,
                           "--formula", "edges", "--samplesize", "512",
                           "--interval", "20", "--maxit", "20", "--seed", "2")
        assert code == 0
        rows = coef_rows(out)
        assert abs(float(rows["edges"][1]) - math.log(2.0)) < 0.1
        term = {l.split("\t")[0]: l.split("\t") for l in out.strip().split("\n")
                if "\t" in l}
        assert term["criterion"][1] == "confidence"

    def test_target_stats_pipeline(self, capsys, net10):
        code, out, _ = run(capsys, "fit", "--n", "10", "--formula", "edges",
                           "--target-stats", "30", "--samplesize", "512",
                           "--interval", "20", "--maxit", "20", "--seed", "3")
        assert code == 0
        rows = coef_rows(out)
        assert abs(float(rows["edges"][1]) - math.log(2.0)) < 0.1

    def test_termination_flag(self, capsys, observed_net):
        code, out, _ = run(capsys, "fit", "--network", observed_net,
                           "--formula", "edges", "--termination", "hummel",
                           "--samplesize", "256", "--interval", "20",
                           "--maxit", "15", "--seed", "4")
        assert code == 0
        assert "hummel" in out

    def test_bridge_gets_interval(self, capsys, observed_net, monkeypatch):
        import ergmkit.cli as cli
        plans = []

        def spy(*args, **kwargs):
            plans.append(kwargs["plan"])
            return evaluate_loglik(*args, **kwargs)

        evaluate_loglik = cli.evaluate_loglik
        monkeypatch.setattr(cli, "evaluate_loglik", spy)
        code, out, _ = run(capsys, "fit", "--network", observed_net,
                           "--formula", "edges", "--samplesize", "512",
                           "--interval", "20", "--maxit", "20",
                           "--eval-loglik", "--bridge-j", "2",
                           "--bridge-k", "20", "--seed", "2")
        assert code == 0
        assert [p.interval for p in plans] == [20]


class TestLoglik:
    def test_report_fields(self, capsys, observed_net):
        code, out, _ = run(capsys, "loglik", "--network", observed_net,
                           "--formula", "edges", "--coef", "0.693",
                           "--bridge-j", "4", "--bridge-k", "200",
                           "--interval", "5", "--seed", "5")
        assert code == 0
        rows = {l.split("\t")[0]: l.split("\t") for l in out.strip().split("\n")}
        assert abs(float(rows["null_deviance"][1]) - 2 * 45 * math.log(2)) < 1e-9
        for key in ("delta_loglik", "mc_se", "loglik", "aic", "bic"):
            assert key in rows


    @pytest.mark.parametrize("extra", [[], ["--target-se", "0.1"]],
                             ids=["grid", "target-se"])
    @pytest.mark.parametrize("flag", ["--bridge-j", "--bridge-k"])
    def test_empty_bridge_exit_3(self, capsys, observed_net, flag, extra):
        code, out, err = run(capsys, "loglik", "--network", observed_net,
                             "--formula", "edges", "--coef", "0.3",
                             "--interval", "5", flag, "0", *extra)
        assert code == 3
        assert out == ""
        assert "error: data" in err


class TestEss:
    def test_from_stats_file(self, capsys, net10, tmp_path):
        stats = tmp_path / "stats.tsv"
        code, out, _ = run(capsys, "simulate", "--network", net10,
                           "--formula", "edges", "--coef", "0.0",
                           "--nsim", "400", "--interval", "10",
                           "--burnin", "100", "--seed", "6",
                           "--out", str(stats))
        assert code == 0
        code, out, _ = run(capsys, "ess", "--stats", str(stats))
        assert code == 0
        rows = {l.split("\t")[0]: l.split("\t") for l in out.strip().split("\n")}
        assert float(rows["multivariate_ess"][1]) > 50


class TestBench:
    def test_mixing_table(self, capsys):
        code, out, _ = run(capsys, "bench", "mixing", "--n", "60",
                           "--formula", 'edges + nodematch("race", diff=true)',
                           "--coef=-3.0,0.5,0.5,0.5",
                           "--proposals",
                           'tntplain=tnt + bd(maxout=1) + blocks(attr="sex", levels2=diag);'
                           'strat=bd(maxout=1) + blocks(attr="sex", levels2=diag) + strat(attr="race")',
                           "--total-proposals", "4000",
                           "--trace-interval", "1000", "--seed", "7")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("proposal\tproposals\tedges")
        assert len(lines) == 1 + 2 * 4

    def test_ess_table(self, capsys):
        code, out, _ = run(capsys, "bench", "ess", "--n", "60",
                           "--formula", "edges",
                           "--coef=-3.0",
                           "--proposals", "tnt=.;uniform=dense",
                           "--nsim", "300", "--interval", "20", "--seed", "8")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3

    def test_ess_columns_reproducible(self, capsys):
        # seconds and eps.* are wall-clock; the ess.* columns are not
        args = ("bench", "ess", "--n", "40",
                "--formula", 'edges + nodematch("race")', "--coef=-2.5,0.5",
                "--proposals", f"tnt=tnt + {HETERO};strat={HETERO} + "
                               'strat(attr="race")',
                "--nsim", "200", "--interval", "10", "--seed", "3")

        def ess_columns(out):
            rows = [l.split("\t") for l in out.strip().split("\n")]
            keep = [k for k, h in enumerate(rows[0])
                    if k == 0 or h.startswith("ess.")]
            return [[r[k] for k in keep] for r in rows]

        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        first = ess_columns(out1)
        assert first[0] == ["proposal", "ess.edges", "ess.nodematch.race"]
        assert len(first) == 3
        assert first == ess_columns(out2)


class TestErrors:
    def test_usage_error_exit_2(self, net10):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--network", net10])  # missing required flags
        assert exc.value.code == 2

    def test_data_error_exit_3(self, capsys, net10):
        code, _, err = run(capsys, "simulate", "--network", net10,
                           "--formula", "edges + bogus", "--coef", "0")
        assert code == 3
        assert "error: data" in err

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run(capsys, "mple", "--network", "/nope/missing.txt",
                           "--formula", "edges")
        assert code == 3

    def test_numerical_error_exit_4(self, capsys, tmp_path):
        # an empty network separates the edges-only logistic fit
        path = tmp_path / "empty.txt"
        write_network(Network(6), path)
        code, _, err = run(capsys, "mple", "--network", str(path),
                           "--formula", "edges")
        assert code == 4
        assert "numerical" in err

    def test_nonpositive_vertex_count_exit_3(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("%n -3\n")
        proc = run_process("simulate", "--network", str(path), "--formula",
                           "edges", "--coef", "0")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "error: data" in proc.stderr

    def test_non_numeric_stats_row_exit_3(self, tmp_path):
        path = tmp_path / "stats.tsv"
        path.write_text("edges\n3.0\nthree\n")
        proc = run_process("ess", "--stats", str(path))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "error: data" in proc.stderr

    def test_non_numeric_coefficient_exit_3(self, capsys, net10):
        code, _, err = run(capsys, "simulate", "--network", net10,
                           "--formula", "edges", "--coef", "abc")
        assert code == 3
        assert "not a number" in err

    def test_nonpositive_n_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "0", "--formula", "edges", "--coef", "0"])
        assert exc.value.code == 2

    def test_nan_coefficient_exit_3(self, net10):
        proc = run_process("simulate", "--network", net10, "--formula",
                           "edges", "--coef", "nan", "--nsim", "5")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["san", "--n", "10", "--formula", "edges", "--targets", "5"],
        ["bench", "mixing", "--n", "10", "--formula", "edges", "--coef=-1",
         "--proposals", "a=.", "--total-proposals", "100"],
        ["bench", "san", "--n", "10", "--formula", "edges", "--targets", "5",
         "--proposals", "a=.", "--total-proposals", "100"],
    ], ids=["san", "bench-mixing", "bench-san"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_trace_interval_must_be_positive(self, argv, value):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--trace-interval", value])
        assert exc.value.code == 2

    BENCH = ["--n", "10", "--formula", "edges", "--proposals", "a=.",
             "--total-proposals", "100", "--nsim", "10"]

    @pytest.mark.parametrize("argv,code", [
        # zero used to fall back to the default, or to crash (--maxit)
        (["fit", "--network", "{obs}", "--formula", "edges", "--maxit", "0"], 2),
        (["fit", "--network", "{obs}", "--formula", "edges",
          "--interval", "0"], 2),
        (["fit", "--network", "{obs}", "--formula", "edges",
          "--target-stats", "30", "--san-steps", "0"], 2),
        (["loglik", "--network", "{obs}", "--formula", "edges", "--coef",
          "0.3", "--interval", "0"], 2),
        (["san", "--n", "10", "--formula", "edges", "--targets", "5",
          "--steps", "0"], 2),
        (["san", "--n", "10", "--formula", "edges", "--targets", "5",
          "--runs", "0"], 2),
        # malformed values and missing vectors
        (["bench", "ess", *BENCH, "--coef=-1", "--race-freqs", "A:x"], 3),
        (["bench", "ess", *BENCH, "--coef=-1", "--race-freqs", "A"], 3),
        (["bench", "ess", *BENCH, "--coef=-1", "--race-freqs", "A:nan"], 3),
        (["bench", "mixing", *BENCH], 3),
        (["bench", "ess", *BENCH], 3),
        (["bench", "san", *BENCH], 3),
        (["simulate", "--n", "12", "--attrs", "{attrs}", "--formula", "edges",
          "--coef=-1", "--constraints", 'strat(attr="grp", pmat="{pmat}")'], 3),
        # degree caps admit no closed-form baseline log-likelihood
        (["loglik", "--network", "{capped}", "--formula", "edges + triangle",
          "--coef=-0.3,0.4", "--constraints", "bd(maxout=2)"], 3),
        # counts and temperatures out of range
        (["simulate", "--n", "6", "--formula", "edges", "--coef=-1",
          "--workers", "0"], 2),
        (["simulate", "--n", "6", "--formula", "edges", "--coef=-1",
          "--workers", "-1"], 2),
        (["bench", "mixing", *BENCH[:-4], "--coef=-1",
          "--total-proposals", "0"], 2),
        (["bench", "mixing", *BENCH[:-4], "--coef=-1",
          "--total-proposals", "-5"], 2),
        (["bench", "san", *BENCH[:-4], "--targets", "5",
          "--total-proposals", "0"], 2),
        # fewer proposals than one trace interval print no trace row
        (["bench", "mixing", *BENCH[:-4], "--coef=-1",
          "--total-proposals", "999"], 2),
        (["bench", "san", *BENCH[:-4], "--targets=-5",
          "--total-proposals", "100"], 2),
        (["san", "--n", "10", "--formula", "edges", "--targets", "5",
          "--tau", "-1"], 3),
        (["san", "--n", "10", "--formula", "edges", "--targets", "5",
          "--tau", "inf"], 3),
        # term arguments of the wrong kind
        (["simulate", "--n", "12", "--attrs", "{attrs}", "--formula",
          'nodecov("grp")', "--coef", "0.1"], 3),
        (["simulate", "--n", "12", "--attrs", "{attrs}", "--formula",
          'absdiff("grp")', "--coef", "0.1"], 3),
        (["simulate", "--n", "12", "--formula", 'gwesp(decay="a")',
          "--coef", "0.1"], 3),
        (["simulate", "--n", "12", "--formula", 'gwdegree(decay="a")',
          "--coef", "0.1"], 3),
        # a single vertex has no dyad to propose
        (["simulate", "--n", "1", "--formula", "edges", "--coef=-1",
          "--nsim", "2", "--interval", "1"], 3),
        (["simulate", "--network", "{one}", "--formula", "edges", "--coef=-1",
          "--nsim", "2", "--interval", "1"], 3),
        # draws must be finite
        (["ess", "--stats", "{stats-nan}"], 3),
        (["ess", "--stats", "{stats-inf}"], 3),
        # NaN offsets and non-finite targets are data errors
        (["mple", "--network", "{obs}", "--formula", "edges + offset(triangle)",
          "--offset-coef", "nan"], 3),
        (["fit", "--n", "10", "--formula", "edges", "--target-stats", "nan"], 3),
        (["fit", "--n", "10", "--formula", "edges", "--target-stats", "nan",
          "--allow-inexact-targets"], 3),
        (["fit", "--n", "10", "--formula", "edges", "--target-stats", "inf"], 3),
        (["san", "--n", "10", "--formula", "edges", "--targets", "nan",
          "--allow-inexact"], 3),
        (["san", "--n", "10", "--formula", "edges + offset(triangle)",
          "--targets", "5", "--offset-coef", "nan", "--allow-inexact"], 3),
    ], ids=["maxit", "fit-interval", "san-steps", "loglik-interval",
            "san-steps-per-run", "san-runs", "race-freqs-value",
            "race-freqs-pair", "race-freqs-nan", "mixing-no-coef",
            "ess-no-coef", "san-no-targets", "pmat-entry", "loglik-bd",
            "workers-0", "workers-neg", "mixing-total-0", "mixing-total-neg",
            "bench-san-total-0", "mixing-total-below-trace",
            "san-total-below-trace", "san-tau-neg", "san-tau-inf",
            "nodecov-categorical",
            "absdiff-categorical", "gwesp-decay-string",
            "gwdegree-decay-string", "one-vertex-n", "one-vertex-network",
            "ess-stats-nan", "ess-stats-inf", "mple-offset-nan",
            "fit-targets-nan", "fit-targets-nan-inexact", "fit-targets-inf",
            "san-targets-nan", "san-offset-nan"])
    def test_bad_input_exit_code(self, observed_net, tmp_path, argv, code):
        attrs = VertexAttributes(12)
        attrs.add("grp", ["X" if v % 3 == 0 else "Y" for v in range(12)])
        write_attributes(attrs, tmp_path / "attrs.csv")
        (tmp_path / "pm.tsv").write_text("1\tx\n0\t1\n")
        capped = Network(6)     # degrees at most 2: legal under bd(maxout=2)
        for i, j in [(0, 1), (2, 3), (0, 5), (1, 4)]:
            capped.toggle(i, j)
        write_network(capped, tmp_path / "capped.txt")
        write_network(Network(1), tmp_path / "one.txt")
        rows = [f"{v % 7}\t{v % 5}" for v in range(40)]
        for bad in ("nan", "inf"):
            rows[20] = f"3\t{bad}"
            (tmp_path / f"stats-{bad}.tsv").write_text(
                "\n".join(["edges\ttriangle"] + rows) + "\n")
        files = {"{obs}": observed_net,
                 "{capped}": str(tmp_path / "capped.txt"),
                 "{attrs}": str(tmp_path / "attrs.csv"),
                 "{pmat}": str(tmp_path / "pm.tsv"),
                 "{one}": str(tmp_path / "one.txt"),
                 "{stats-nan}": str(tmp_path / "stats-nan.tsv"),
                 "{stats-inf}": str(tmp_path / "stats-inf.tsv")}
        for key, path in files.items():
            argv = [a.replace(key, path) for a in argv]
        proc = run_process(*argv)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default 1000" in out  # interval default documented
        assert "default stats" in out


# argument values of every kind the formula grammar reads, well formed
# or not: integers, reals (nan and inf included), bools, quoted strings
# naming existing and missing attributes or levels, and level sets
_VALUES = st.one_of(
    st.integers(-3, 8).map(str), st.integers().map(str), st.floats().map(repr),
    st.sampled_from(["true", "false", "diag"]),
    st.sampled_from(["age", "grp", "A", "nope"]).map('"{}"'.format),
    st.lists(st.one_of(st.integers(-4, 4).map(str), st.just('"A"')),
             min_size=1, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]"))


# values each argument takes in a well-formed call, so that many drawn
# formulas get as far as sampling
_TYPICAL = {
    "attr": st.sampled_from(['"age"', '"grp"']),
    "diff": st.sampled_from(["true", "false"]),
    "levels": st.sampled_from(["1", "-1", "[1, 2]"]),
    "d": st.integers(0, 3).map(str),
    "decay": st.floats(0.0, 2.0).map(repr),
    "fixed": st.just("true"),
    "maxout": st.integers(0, 3).map(str),
    "levels2": st.just("diag"),
    "empirical": st.sampled_from(["true", "false"]),
}


@st.composite
def _calls(draw, catalog):
    """One term or atom of `catalog`, with a drawn subset of its named
    arguments."""
    name = draw(st.sampled_from(sorted(catalog)))
    args = []
    for key in catalog[name]:
        typical = _TYPICAL.get(key, _VALUES)
        value = draw(st.one_of(typical, typical, typical, _VALUES, st.none()))
        if value is not None:
            args.append(f"{key}={value}")
    args = ", ".join(args)
    return f"{name}({args})" if args else name


_FORMULAS = st.lists(
    st.tuples(_calls(TERM_CATALOG), st.integers(0, 3)).map(
        lambda t: f"offset({t[0]})" if t[1] == 0 else t[0]),
    min_size=1, max_size=3).map(" + ".join)
_CONSTRAINTS = st.one_of(st.just("."), st.lists(
    _calls(CONSTRAINT_ATOMS), min_size=1, max_size=2).map(" + ".join))


@pytest.fixture(scope="module")
def six_vertex_inputs(tmp_path_factory):
    """A 6-vertex network with one numeric and one categorical attribute."""
    root = tmp_path_factory.mktemp("six")
    net = Network(6)
    for i, j in [(0, 1), (1, 2), (3, 4), (0, 5)]:
        net.toggle(i, j)
    attrs = VertexAttributes(6)
    attrs.add("age", [20.0, 31.5, 18.0, 44.0, 25.0, 60.0])
    attrs.add("grp", ["A", "B", "A", "B", "A", "B"])
    write_network(net, root / "net.txt")
    write_attributes(attrs, root / "attrs.csv")
    return net, attrs, str(root / "net.txt"), str(root / "attrs.csv")


class TestFormulaProperty:
    @given(formula=_FORMULAS, constraints=_CONSTRAINTS)
    @example(formula='nodecov("grp")', constraints=".")
    @example(formula='gwesp(decay="a")', constraints=".")
    @settings(max_examples=120, deadline=None)
    def test_simulate_ends_in_documented_exit_code(self, six_vertex_inputs,
                                                   formula, constraints):
        net, attrs, net_path, attrs_path = six_vertex_inputs
        try:
            model = bind(formula, net, attrs)
            free, offsets = model.n_free, len(model.offset_index)
        except Exception:   # the CLI run below reports it
            free, offsets = 1, 0
        argv = ["simulate", "--network", net_path, "--attrs", attrs_path,
                "--formula", formula, "--constraints", constraints,
                "--coef=" + ",".join(["-0.5"] * free),
                "--offset-coef=" + ",".join(["-1"] * offsets),
                "--nsim", "2", "--interval", "1", "--burnin", "0"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse usage errors
                code = exc.code
        assert code in (0, 2, 3, 4, 5), argv


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second at start-up; the package needs no
    # scipy at all (see test_run_leaves_scipy_unloaded)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ergmkit.__file__)))
    code = "import sys, ergmkit; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# the runs that reach a stopping rule's quantile or a Hotelling p-value:
# the README fit (confidence rule), an ESS-targeted simulate (Geweke
# test) and a fit under the hotelling rule
_STOPPING_RUNS = {
    "fit-readme": ["fit", "--n", "10", "--formula", "edges",
                   "--target-stats", "30", "--samplesize", "512",
                   "--interval", "20", "--eval-loglik"],
    "simulate-target-ess": CORPUS["simulate-target-ess"][0],
    "fit-hotelling": ["fit", "--n", "10", "--formula", "edges",
                      "--target-stats", "30", "--samplesize", "512",
                      "--interval", "20", "--termination", "hotelling",
                      "--seed", "2"],
}


@pytest.mark.parametrize("name", sorted(_STOPPING_RUNS))
def test_run_leaves_scipy_unloaded(name, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ergmkit.__file__)))
    code = ("import contextlib, io, sys\n"
            "from ergmkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({_STOPPING_RUNS[name]!r})\n"
            "print(code, sorted(m for m in sys.modules "
            "if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


# well-formed input files, line by line, for the malformed-file property
_NET_LINES = [b"%n 6", b"%directed 0", b"%bipartite 0", b"1 2", b"2 3",
              b"4 5", b"1 6"]
_ATTR_LINES = [b"vertex,age,grp", b"1,20,A", b"2,31.5,B", b"3,18,A",
               b"4,44,B", b"5,25,A", b"6,60,B"]
_STATS_LINES = [b"edges\ttriangle"] + [
    b"%d\t%d" % (3 + (k * 7) % 5, (k * 3) % 2) for k in range(12)]
# field values: out of range, duplicate-prone, non-integer, non-finite,
# empty, and bytes that are not UTF-8
_FIELDS = st.sampled_from([b"0", b"-1", b"1", b"7", b"99", b"x", b"1.5",
                           b"", b"nan", b"inf", b"\xff", b"caf\xe9"])
_BAD_LINES = st.sampled_from([b"%n", b"%n 6 6", b"%n x", b"%n -2",
                              b"%directed 2", b"%bipartite 9", b"%vertices 6",
                              b"vertex", b"\xff\xfe", b"1 2 3"])


@st.composite
def _mutated_file(draw, lines, sep):
    """The lines of a valid file, each kept, dropped, doubled, or with a
    field replaced, added or removed, plus possibly an inserted bad line;
    the empty file is one of the outcomes."""
    out = []
    for line in lines:
        action = draw(st.sampled_from(
            ["keep"] * 4 + ["drop", "double", "field", "extra", "short"]))
        fields = line.split(sep)
        if action == "drop":
            continue
        if action == "double":
            out += [line, line]
            continue
        if action == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_FIELDS)
        elif action == "extra":
            fields.append(draw(_FIELDS))
        elif action == "short":
            fields.pop()
        out.append(sep.join(fields))
    if draw(st.booleans()):
        out.insert(draw(st.integers(0, len(out))), draw(_BAD_LINES))
    return b"\n".join(out) + b"\n" if out else b""


_INPUT_FILES = st.one_of(
    st.tuples(st.just("network"), _mutated_file(_NET_LINES, b" ")),
    st.tuples(st.just("attrs"), _mutated_file(_ATTR_LINES, b",")),
    st.tuples(st.just("stats"), _mutated_file(_STATS_LINES, b"\t")))


class TestInputFileProperty:
    """Malformed network, attribute and stats files end in a documented
    exit code (0, 2 or 3), never in an escaping exception."""

    @given(case=_INPUT_FILES)
    @example(case=("network", b"%n 6\n1 2\n3 \xff\n"))
    @example(case=("attrs", b"vertex,grp\n1,caf\xe9\n"))
    @example(case=("stats", b"edges\n\xff\n"))
    @example(case=("network", b"%n 6\n%directed 2\n1 2\n"))
    @settings(max_examples=60, deadline=None)
    def test_cli_ends_in_documented_exit_code(self, tmp_path_factory, case):
        kind, data = case
        root = tmp_path_factory.mktemp("input")
        files = {"network": b"\n".join(_NET_LINES) + b"\n",
                 "attrs": b"\n".join(_ATTR_LINES) + b"\n",
                 "stats": b"\n".join(_STATS_LINES) + b"\n", kind: data}
        for name, content in files.items():
            (root / name).write_bytes(content)
        if kind == "stats":
            argv = ["ess", "--stats", str(root / "stats")]
        else:
            argv = ["simulate", "--network", str(root / "network"),
                    "--attrs", str(root / "attrs"),
                    "--formula", 'edges + nodematch("grp")',
                    "--coef=-0.5,0.2", "--nsim", "2", "--interval", "1",
                    "--burnin", "0"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse usage errors
                code = exc.code
        assert code in (0, 2, 3), (kind, data)
