"""End-to-end CLI subcommand tests on small inputs."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lavasim
from lavasim import cli
from lavasim.cli import CONFIG_KEYS, PoolConfig, main
from lavasim.sched import LavaConfig, NilasConfig
from lavasim.sim import DefragConfig, SimConfig
from lavasim.workload import TraceRecord, parse_trace, vm_terms, write_trace

CONFIG_INI = """\
[pool]
hosts = 6
cpu_m = 16000
mem_mib = 65536

[sim]
warmup = 0
"""


README = Path(__file__).resolve().parents[1] / "README.md"


def _refuse_runs(monkeypatch):
    """Make any replay or theorem run fail the test: a bad grid must be
    rejected before the first one."""
    def ran(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(cli, "run_one", ran)
    monkeypatch.setattr(cli, "gap_vs_m", ran)


def _expect_one_line_exit_2(rc, capsys, out, start):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(start) and err.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "small.tsv"
    rc = main(["generate", "--num-vms", "800", "--rate", "128",
               "--seed", "3", "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "pool.ini"
    path.write_text(CONFIG_INI)
    return str(path)


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            assert main(["generate", "--num-vms", "50", "--seed", "7",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_bad_rate_exits_2(self, tmp_path, capsys, rate):
        """A NaN rate would write garbage arrival times, an infinite one put
        every arrival at second 0."""
        out = tmp_path / "t.tsv"
        assert main(["generate", "--num-vms", "5", "--rate", rate, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_row_count(self, trace_path):
        with open(trace_path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 801  # header + one row per VM


class TestRun:
    def test_outputs_and_determinism(self, trace_path, config_path, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            rc = main(["run", "--trace", trace_path, "--config", config_path,
                       "--algo", "nilas", "--out", str(out)])
            assert rc == 0
        for name in ("series.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        summary = json.loads((outs[0] / "summary.json").read_text())
        assert summary["algorithm"] == "nilas"
        assert summary["config"]["pool"]["hosts"] == 6

    def test_series_header(self, trace_path, config_path, tmp_path):
        out = tmp_path / "r"
        main(["run", "--trace", trace_path, "--config", config_path,
              "--algo", "baseline", "--out", str(out)])
        first = (out / "series.csv").read_text().splitlines()[0]
        assert first == "# lavasim-series v1"

    def test_unknown_algorithm(self, trace_path, tmp_path):
        rc = main(["run", "--trace", trace_path, "--algo", "mystery",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["compare", "sweep-accuracy", "defrag-compare"])
    def test_unknown_algorithm_one_line(self, trace_path, tmp_path, capsys, command):
        flags = {"compare": ["--algos", "mystery", "nilas"],
                 "sweep-accuracy": ["--algos", "mystery", "nilas"],
                 "defrag-compare": ["--algo", "mystery"]}[command]
        out = tmp_path / "x"
        rc = main([command, "--trace", trace_path, "--out", str(out)] + flags)
        _expect_one_line_exit_2(rc, capsys, out, "error: unknown algorithm 'mystery' "
                                "(choose from baseline, la-binary, nilas, lava)")

    @pytest.mark.parametrize("command", ["compare", "sweep-accuracy"])
    def test_unknown_algorithm_before_any_replay(self, trace_path, tmp_path, capsys,
                                                 monkeypatch, command):
        """Every name is checked before the first cell replays, not when its
        own cell starts."""
        _refuse_runs(monkeypatch)
        out = tmp_path / "x"
        rc = main([command, "--trace", trace_path, "--out", str(out),
                   "--algos", "nilas", "mystery"])
        _expect_one_line_exit_2(rc, capsys, out, "error: unknown algorithm 'mystery' "
                                "(choose from baseline, la-binary, nilas, lava)")

    @pytest.mark.parametrize("command", ["run", "compare", "sweep-accuracy", "defrag-compare"])
    def test_empty_trace_exits_2(self, tmp_path, capsys, command):
        """A header-only trace has nothing to measure; its summary would
        report 0 % empty hosts."""
        trace = tmp_path / "empty.tsv"
        write_trace([], trace)
        args = {"run": ["--algo", "nilas"], "compare": ["--algos", "baseline", "nilas"],
                "sweep-accuracy": ["--num-seeds", "1"], "defrag-compare": []}[command]
        out = tmp_path / "x"
        rc = main([command, "--trace", str(trace), "--out", str(out)] + args)
        _expect_one_line_exit_2(rc, capsys, out, "error: the trace has no VMs to replay")

    @pytest.mark.parametrize("spec", ["noisy:abc", "noisy:", "noisy:0.5:1", "noisy:1.5",
                                      "empirical:", "gbdt"])
    def test_bad_predictor_spec_one_line(self, trace_path, tmp_path, capsys, spec):
        out = tmp_path / "x"
        rc = main(["run", "--trace", trace_path, "--algo", "nilas", "--predictor", spec,
                   "--out", str(out)])
        _expect_one_line_exit_2(rc, capsys, out, f"error: bad predictor spec {spec!r}: expected "
                                "oracle, noisy:<accuracy in [0,1]> or empirical:<model file>")

    def test_missing_trace(self, tmp_path):
        rc = main(["run", "--trace", str(tmp_path / "nope.tsv"),
                   "--algo", "nilas", "--out", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("case", ["trace is a directory", "out is a file"])
    def test_io_error_is_one_line(self, case, trace_path, config_path, tmp_path, capsys):
        trace, out = trace_path, tmp_path / "x"
        if case == "trace is a directory":
            trace = str(tmp_path)
        else:
            out.write_text("")
        rc = main(["run", "--trace", trace, "--config", config_path, "--algo", "nilas",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_check_invariants_flag_changes_no_output(self, trace_path, config_path, tmp_path):
        """A checked replay writes the unchecked one's bytes; only the
        summary's copy of the flag differs."""
        outs = {}
        for flags in ((), ("--check-invariants",)):
            out = tmp_path / ("checked" if flags else "plain")
            assert main(["run", "--trace", trace_path, "--config", config_path,
                         "--algo", "lava", "--out", str(out), *flags]) == 0
            outs[flags] = out
        plain, checked = outs[()], outs[("--check-invariants",)]
        assert (plain / "series.csv").read_bytes() == (checked / "series.csv").read_bytes()
        want, got = (json.loads((o / "summary.json").read_text()) for o in (plain, checked))
        assert (want["config"]["sim"]["check_invariants"],
                got["config"]["sim"]["check_invariants"]) == (False, True)
        got["config"]["sim"]["check_invariants"] = False
        assert got == want

    def test_cold_start_flag(self, trace_path, config_path, tmp_path):
        out = tmp_path / "cold"
        main(["run", "--trace", trace_path, "--config", config_path,
              "--algo", "nilas", "--cold-start", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["sim"]["warmup"] is False
        assert summary["measure_start_s"] == parse_trace(trace_path)[0].create_time_s


class TestCompare:
    def test_all_algorithms(self, trace_path, config_path, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--trace", trace_path, "--config", config_path,
                   "--algos", "baseline", "la-binary", "nilas", "lava",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 6  # banner + header + 4 algorithms
        assert lines[2].startswith("baseline,")
        # the first algorithm's delta column is zero by construction
        assert float(lines[2].split(",")[2]) == 0.0

    def test_jobs_match_serial(self, trace_path, config_path, tmp_path, monkeypatch):
        """Two runs start two workers under ``--jobs 2`` and ``--jobs 4``, and
        write the serial output."""
        workers = []

        class Recording(cli.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
        outs = {}
        for jobs in ("1", "2", "4"):
            out = tmp_path / f"jobs{jobs}"
            rc = main(["compare", "--trace", trace_path, "--config", config_path,
                       "--algos", "baseline", "nilas", "--jobs", jobs, "--out", str(out)])
            assert rc == 0
            outs[jobs] = (out / "comparison.csv").read_bytes()
        assert workers == [2, 2]
        assert outs["1"] == outs["2"] == outs["4"]

    def test_parses_the_trace_once(self, trace_path, config_path, tmp_path, monkeypatch):
        """Three replays on one parse, each equal to the replay run alone."""
        parses = []

        def counting_parse(path):
            parses.append(path)
            return parse_trace(path)
        monkeypatch.setattr(cli, "parse_trace", counting_parse)
        algos = ["baseline", "nilas", "lava"]
        out = tmp_path / "cmp"
        assert main(["compare", "--trace", trace_path, "--config", config_path,
                     "--algos"] + algos + ["--out", str(out)]) == 0
        assert parses == [trace_path]
        rows = (out / "comparison.csv").read_text().splitlines()[2:]
        for algo, row in zip(algos, rows):
            alone = tmp_path / algo
            assert main(["run", "--trace", trace_path, "--config", config_path,
                         "--algo", algo, "--out", str(alone)]) == 0
            summary = json.loads((alone / "summary.json").read_text())
            assert row.split(",")[:2] == [algo, f"{summary['avg_empty_hosts_pct']:.6f}"]

    def test_needs_two_algorithms(self, trace_path, tmp_path, capsys, monkeypatch):
        _refuse_runs(monkeypatch)
        out = tmp_path / "x"
        rc = main(["compare", "--trace", trace_path, "--algos", "nilas", "--out", str(out)])
        _expect_one_line_exit_2(rc, capsys, out, "error: compare needs at least two algorithms")

    @pytest.mark.parametrize("command,args", [
        ("compare", ["--algos", "baseline", "nilas"]),
        ("sweep-accuracy", ["--num-seeds", "1"]),
    ])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_2(self, trace_path, tmp_path, capsys, monkeypatch,
                                    command, args, jobs):
        _refuse_runs(monkeypatch)
        out = tmp_path / "x"
        rc = main([command, "--trace", trace_path, "--jobs", jobs, "--out", str(out)] + args)
        _expect_one_line_exit_2(rc, capsys, out, f"error: --jobs must be >= 1, got {jobs}")


class TestSweepAccuracy:
    def test_grid_rows(self, trace_path, config_path, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep-accuracy", "--trace", trace_path, "--config",
                   config_path, "--algos", "nilas", "--accuracies", "0.9,1.0",
                   "--num-seeds", "1", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4  # banner + header + 2 cells

    def test_bad_accuracy(self, trace_path, tmp_path, capsys, monkeypatch):
        _refuse_runs(monkeypatch)
        out = tmp_path / "x"
        rc = main(["sweep-accuracy", "--trace", trace_path,
                   "--accuracies", "0.5,1.5", "--out", str(out)])
        _expect_one_line_exit_2(rc, capsys, out, "error: accuracy 1.5 outside [0,1]")

    def test_zero_seeds_exits_2(self, trace_path, tmp_path, capsys, monkeypatch):
        _refuse_runs(monkeypatch)
        out = tmp_path / "x"
        rc = main(["sweep-accuracy", "--trace", trace_path, "--num-seeds", "0",
                   "--out", str(out)])
        _expect_one_line_exit_2(rc, capsys, out, "error: --num-seeds must be >= 1")


class TestDefragCompare:
    def test_report_written(self, trace_path, tmp_path):
        cfg = tmp_path / "defrag.ini"
        cfg.write_text(CONFIG_INI + "\n[defrag]\nempty_host_trigger = 0.9\n"
                       "check_interval_s = 1800\n")
        out = tmp_path / "defrag"
        rc = main(["defrag-compare", "--trace", trace_path, "--config",
                   str(cfg), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "defrag_report.json").read_text())
        assert report["lars_migrations"] <= report["baseline_migrations"]


class TestTheorem:
    def test_outputs(self, tmp_path):
        out = tmp_path / "thm"
        rc = main(["theorem", "--ms", "10,20", "--num-seeds", "2",
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "theorem.csv").read_text().splitlines()
        assert len(rows) == 6  # banner + header + 2 ms x 2 seeds
        summary = json.loads((out / "theorem_summary.json").read_text())
        assert {"slope", "p_value", "eq1_example"} <= summary.keys()

    @pytest.mark.parametrize("flags,start", [
        (["--ms", "20,40", "--num-seeds", "0"], "error: --num-seeds must be >= 1"),
        (["--ms", "20"], "error: --ms needs at least two distinct values"),
        (["--ms", "20,20"], "error: --ms needs at least two distinct values"),
    ], ids=["zero-seeds", "one-m", "repeated-m"])
    def test_empty_grid_exits_2(self, tmp_path, capsys, monkeypatch, flags, start):
        """A zero-seed grid would write NaN into the summary, and one m value
        would run every experiment before the regression fails."""
        _refuse_runs(monkeypatch)
        out = tmp_path / "thm"
        rc = main(["theorem", "--out", str(out)] + flags)
        _expect_one_line_exit_2(rc, capsys, out, start)

    @staticmethod
    def _fresh_cli_modules():
        # a fresh interpreter: this one has numpy and scipy loaded by other test modules
        code = "import sys, lavasim, lavasim.cli; print(' '.join(sys.modules))"
        env = dict(os.environ, PYTHONPATH=str(Path(lavasim.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return {name.split(".")[0] for name in out.split()}

    def test_only_theorem_loads_scipy(self):
        assert "scipy" not in self._fresh_cli_modules()

    def test_cli_loads_no_numpy(self):
        """Only the generator and the theorem experiment use numpy, so every
        other command starts without it."""
        assert "numpy" not in self._fresh_cli_modules()


class TestTrainEval:
    def test_train_then_eval(self, trace_path, tmp_path):
        model_path = tmp_path / "model.json"
        rc = main(["train", "--trace", trace_path, "--out", str(model_path)])
        assert rc == 0
        report_path = tmp_path / "report.json"
        rc = main(["eval-model", "--model", str(model_path), "--trace",
                   trace_path, "--train-trace", trace_path,
                   "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["f1"] <= 1.0

    @pytest.mark.parametrize("train_seed, warning", [
        (1_000_007, ""),
        (7, "warning: 600 test VMs also appear in the training trace\n"),
    ])
    def test_overlap_counts_shared_rows(self, tmp_path, capsys, train_seed, warning):
        """Generated traces number their VMs from 0, so only whole rows tell
        whether a test VM was trained on: a disjoint trace gives no warning,
        the test trace itself all 600 rows."""
        paths = {}
        for seed in (7, train_seed):
            paths[seed] = str(tmp_path / f"t{seed}.tsv")
            assert main(["generate", "--num-vms", "600", "--seed", str(seed),
                         "--out", paths[seed]]) == 0
        model = str(tmp_path / "m.txt")
        assert main(["train", "--trace", paths[train_seed], "--out", model]) == 0
        capsys.readouterr()
        assert main(["eval-model", "--model", model, "--trace", paths[7],
                     "--train-trace", paths[train_seed],
                     "--out", str(tmp_path / "report.json")]) == 0
        assert capsys.readouterr().err == warning


class TestBadModelInput:
    """A broken empirical model file or an empty training trace exits 2 with
    a one-line error, never a traceback or a run on a silently empty model."""

    @pytest.fixture(scope="class")
    def model_text(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("model")
        trace, model = root / "t.tsv", root / "m.txt"
        assert main(["generate", "--num-vms", "300", "--seed", "1", "--out", str(trace)]) == 0
        assert main(["train", "--trace", str(trace), "--out", str(model)]) == 0
        return str(trace), model.read_text()

    def run_with(self, model_text, tmp_path, capsys, edit):
        trace, text = model_text
        bad = tmp_path / "bad.txt"
        bad.write_text(edit(text))
        rc = main(["run", "--trace", trace, "--algo", "nilas", "--cold-start",
                   "--predictor", f"empirical:{bad}", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()
        return err

    def test_header_without_min_count(self, model_text, tmp_path, capsys):
        err = self.run_with(model_text, tmp_path, capsys,
                            lambda t: t.replace(" min_count=10", "", 1))
        assert "line 1: " in err and "min_count" in err

    def test_no_global_curve(self, model_text, tmp_path, capsys):
        def drop_global(text):
            return "".join(line for line in text.splitlines(keepends=True)
                           if not line.startswith("__global__"))
        err = self.run_with(model_text, tmp_path, capsys, drop_global)
        assert "no __global__ curve" in err

    def test_global_curve_without_pairs(self, model_text, tmp_path, capsys):
        def empty_global(text):
            lines = text.splitlines()
            assert lines[-1].startswith("__global__\t")
            return "\n".join(lines[:-1] + ["__global__\t"]) + "\n"
        err = self.run_with(model_text, tmp_path, capsys, empty_global)
        lineno = model_text[1].count("\n")
        assert f"line {lineno}: " in err and "no <lifetime>:<count> pairs" in err

    def test_train_on_header_only_trace(self, tmp_path, capsys):
        trace = tmp_path / "empty.tsv"
        write_trace([], trace)
        rc = main(["train", "--trace", str(trace), "--out", str(tmp_path / "m.txt")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: no training examples\n"
        assert not (tmp_path / "m.txt").exists()


class TestConfigFile:
    @staticmethod
    def readme_ini(tmp_path):
        """The ``ini`` block under the README's configuration heading, as a file."""
        section = README.read_text().split("## Pool and simulation configuration", 1)[1]
        cfg = tmp_path / "pool.ini"
        cfg.write_text(section.split("```ini\n", 1)[1].split("```", 1)[0])
        return str(cfg)

    def test_readme_example_loads(self, tmp_path):
        """Every key the README's pool.ini sets reaches its config dataclass
        with the value written there; a key or value the dataclasses no
        longer accept fails ``load_config`` or ``resolve_configs``."""
        raw = cli.load_config(self.readme_ini(tmp_path))
        pool, nilas, lava, sim = cli.resolve_configs(raw, argparse.Namespace())
        configs = {"pool": pool, "nilas": nilas, "lava": lava, "sim": sim,
                   "defrag": sim.defrag}
        assert set(raw) == set(configs)
        for name, values in raw.items():
            assert values, name
            for key, value in values.items():
                assert getattr(configs[name], key) == value, (name, key)

    def test_readme_example_verbatim(self, tmp_path):
        """The README's pool.ini, inline comments included, is read as
        written, on a trace that outlasts its 2-day warm-up (7 000 VMs at
        128/h arrive over 55 h)."""
        trace = tmp_path / "long.tsv"
        assert main(["generate", "--num-vms", "7000", "--rate", "128",
                     "--seed", "3", "--out", str(trace)]) == 0
        out = tmp_path / "readme"
        rc = main(["run", "--trace", str(trace), "--config", self.readme_ini(tmp_path),
                   "--algo", "nilas", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["samples"] > 0
        config = summary["config"]
        assert config["sim"]["warmup"] is True
        assert config["sim"]["defrag"]["enabled"] is True
        assert config["sim"]["defrag"]["ordering"] == "lars"
        assert config["nilas"]["bucket_boundaries_s"] == [
            0, 1800, 3600, 5400, 7200, 10800, 14400, 21600, 43200, 86400, 604800]

    @pytest.mark.parametrize("command", ["run", "compare", "sweep-accuracy", "defrag-compare"])
    def test_warmup_past_the_trace_exits_2(self, trace_path, tmp_path, capsys, command):
        """The 800-VM trace ends after 6.25 h, inside the README's 2-day
        warm-up: nothing is measured, and every replaying command says so
        instead of reporting an empty window as an empty pool."""
        args = {"run": ["--algo", "nilas"], "compare": ["--algos", "baseline", "nilas"],
                "sweep-accuracy": ["--num-seeds", "1"], "defrag-compare": []}[command]
        rc = main([command, "--trace", trace_path, "--config", self.readme_ini(tmp_path),
                   "--out", str(tmp_path / "x")] + args)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: no sample between the end of warm-up at ")
        assert err.count("\n") == 1 and "--cold-start" in err
        assert not (tmp_path / "x").exists()

    def test_config_keys_are_dataclass_fields(self):
        """A key missing from its dataclass would reach the constructor as a
        ``TypeError``, a traceback rather than exit 2.  The keys derived from
        the dataclasses are exactly the documented ones, each read by the
        type of its default."""
        sections = {"pool": PoolConfig, "nilas": NilasConfig, "lava": LavaConfig,
                    "sim": SimConfig, "defrag": DefragConfig}
        assert sections.keys() == CONFIG_KEYS.keys()
        for name, cls in sections.items():
            fields = {f.name for f in dataclasses.fields(cls) if f.init}
            assert CONFIG_KEYS[name].keys() <= fields, name
        assert {name: {key: read.__name__ for key, read in keys.items()}
                for name, keys in CONFIG_KEYS.items()} == {
            "pool": {"hosts": "int", "cpu_m": "int", "mem_mib": "int"},
            "nilas": {"bucket_boundaries_s": "_int_list"},
            "lava": {"recycle_threshold": "float", "deadline_factor": "float"},
            "sim": {"warmup": "bool", "warmup_s": "float", "sample_interval_s": "float",
                    "check_invariants": "bool", "measure_stranding": "bool"},
            "defrag": {"enabled": "bool", "empty_host_trigger": "float",
                       "check_interval_s": "float", "candidates_per_round": "int",
                       "ordering": "str", "max_concurrent": "int", "migration_s": "float"},
        }

    def test_nilas_position_flag_is_gone(self, trace_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--trace", trace_path, "--algo", "nilas",
                  "--nilas-position", "highest", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("ini", [
        "[sim]\nwarmup = maybe\n",
        "[defrag]\nordering = fifo\n",
        "[pool]\nhosts = many\n",
        "[pool]\nhost = 6\n",
        "[pools]\nhosts = 6\n",
        "[pool]\nhosts = 6\nhosts = 7\n",
        "hosts = 6\n",
        "[nilas]\nposition = highest\n",
        # out-of-range values, each of which would hang a run, end it in a
        # traceback or silently change it
        "[sim]\nsample_interval_s = 0\n",
        "[sim]\nsample_interval_s = -300\n",
        "[sim]\nsample_interval_s = nan\n",
        "[sim]\nwarmup_s = -1\n",
        "[defrag]\nenabled = true\ncheck_interval_s = 0\n",
        "[defrag]\nmax_concurrent = 0\n",
        "[defrag]\ncandidates_per_round = -1\n",
        "[defrag]\nmigration_s = -1200\n",
        "[pool]\nhosts = 0\n",
        "[pool]\ncpu_m = 0\n",
        "[pool]\nmem_mib = -1\n",
        "[lava]\ndeadline_factor = nan\n",
    ])
    def test_bad_config_exits_2(self, trace_path, tmp_path, capsys, ini):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        rc = main(["run", "--trace", trace_path, "--config", str(cfg),
                   "--algo", "lava", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "bad.tsv"
        trace.write_text("not a trace\n")
        rc = main(["run", "--trace", str(trace), "--algo", "nilas",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_zero_shape_trace_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "zero.tsv"
        write_trace([TraceRecord(0, 0, 600, *vm_terms(0, 0))], trace)
        rc = main(["run", "--trace", str(trace), "--algo", "nilas",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "zero shape" in err

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_duplicate_vm_id_exits_2(self, tmp_path, capsys, command):
        trace = tmp_path / "dup.tsv"
        write_trace([TraceRecord(1, t, 600, *vm_terms(1000, 4096)) for t in (0, 60)], trace)
        args = ["--algo", "nilas"] if command == "run" else []
        out = tmp_path / "x"
        rc = main([command, "--trace", str(trace), "--out", str(out)] + args)
        _expect_one_line_exit_2(rc, capsys, out, "error: line 3: duplicate vm id 1\n")

    @pytest.mark.parametrize("command", ["run", "train"])
    @pytest.mark.parametrize("column, text", [("has_ssd", "yes"), ("provisioning_model", "true")])
    def test_boolean_column_not_0_or_1_exits_2(self, tmp_path, capsys, command, column, text):
        """Any text but 0 or 1 would silently read as false and move the VM
        to another stratum of the empirical model."""
        trace = tmp_path / "bool.tsv"
        write_trace([TraceRecord(0, 0, 600, *vm_terms(1000, 4096))], trace)
        header, row = trace.read_text().splitlines()
        cols = row.split("\t")
        cols[header.split("\t").index(column)] = text
        trace.write_text("\n".join((header, "\t".join(cols))) + "\n")
        args = ["--algo", "nilas"] if command == "run" else []
        out = tmp_path / "x"
        rc = main([command, "--trace", str(trace), "--out", str(out)] + args)
        _expect_one_line_exit_2(rc, capsys, out,
                                f"error: line 2: {column} must be 0 or 1, got {text!r}\n")
