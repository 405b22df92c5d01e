"""CLI contract: subcommands, determinism, exit codes, TSV shapes."""

import math
import os
import subprocess
import sys

import pytest

import ergmkit
from ergmkit.cli import main
from ergmkit.network import Network, VertexAttributes, read_network, \
    write_network, write_attributes


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
        i, j = net.random_dyad(rng)
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
    ], ids=["maxit", "fit-interval", "san-steps", "loglik-interval",
            "san-steps-per-run", "san-runs", "race-freqs-value",
            "race-freqs-pair", "race-freqs-nan", "mixing-no-coef",
            "ess-no-coef", "san-no-targets", "pmat-entry", "loglik-bd"])
    def test_bad_input_exit_code(self, observed_net, tmp_path, argv, code):
        attrs = VertexAttributes(12)
        attrs.add("grp", ["X" if v % 3 == 0 else "Y" for v in range(12)])
        write_attributes(attrs, tmp_path / "attrs.csv")
        (tmp_path / "pm.tsv").write_text("1\tx\n0\t1\n")
        capped = Network(6)     # degrees at most 2: legal under bd(maxout=2)
        for i, j in [(0, 1), (2, 3), (0, 5), (1, 4)]:
            capped.toggle(i, j)
        write_network(capped, tmp_path / "capped.txt")
        argv = [a.replace("{obs}", observed_net)
                 .replace("{capped}", str(tmp_path / "capped.txt"))
                 .replace("{attrs}", str(tmp_path / "attrs.csv"))
                 .replace("{pmat}", str(tmp_path / "pm.tsv")) for a in argv]
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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second at start-up; the few special
    # functions the stopping rules need come from scipy.special, late
    src = os.path.dirname(os.path.dirname(os.path.abspath(ergmkit.__file__)))
    code = "import sys, ergmkit; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
