"""Tests for the experiment registry, the CLI, and quick runs.

Real-OS experiments run in quick mode so the whole suite stays fast;
each experiment's *shape* assertions live in its own notes/tests.
"""

import json

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.experiments import all_experiments, base, get, run
from repro.errors import BenchError


class TestRegistry:
    EXPECTED = {"fig1-real", "fig1-sim", "t1-api", "t2-micro",
                "t3-overcommit", "t4-compose", "t7-templates", "t8-gateway",
                "t9-chaos", "t10-xproc", "f2-scaling", "a1-ablation",
                "a2-aslr", "a3-emulation", "a4-fdtable", "calibrate"}

    def test_every_design_md_experiment_registered(self):
        assert {e.experiment_id for e in all_experiments()} == self.EXPECTED

    def test_get_unknown_raises(self):
        with pytest.raises(BenchError):
            get("fig9-imaginary")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BenchError):
            base.register("t1-api", "dup", "dup")(lambda: None)

    def test_each_has_paper_artifact(self):
        for experiment in all_experiments():
            assert experiment.paper_artifact
            assert experiment.title


class TestQuickRuns:
    def test_t1_api(self):
        result = run("t1-api")
        assert "special cases" in result.text
        assert len(result.rows) >= 23

    def test_fig1_sim_quick(self):
        result = run("fig1-sim", quick=True)
        assert len(result.rows) == 3
        assert "fork" in result.text

    def test_t3_overcommit(self):
        result = run("t3-overcommit")
        assert any(r["fork"] == "ENOMEM" for r in result.rows)

    def test_t4_compose(self):
        result = run("t4-compose")
        outcomes = {r["api"]: r["outcome"] for r in result.rows
                    if "api" in r}
        assert outcomes["fork"] == "deadlock"
        assert outcomes["spawn"] == "ok"
        assert outcomes["fork+atfork"] == "ok"

    def test_f2_scaling_quick(self):
        result = run("f2-scaling", quick=True)
        assert result.rows[-1]["per_vma_ops_per_sec"] > \
            result.rows[-1]["one_lock_ops_per_sec"]

    def test_a1_ablation_quick(self):
        result = run("a1-ablation", quick=True)
        assert any("huge pages" in r["variant"] for r in result.rows)

    def test_a2_aslr_quick(self):
        result = run("a2-aslr", quick=True)
        fork_row = next(r for r in result.rows if r["mechanism"] == "fork")
        assert fork_row["entropy_bits"] == 0.0

    def test_result_as_dict(self):
        result = run("t1-api")
        data = result.as_dict()
        assert data["id"] == "t1-api"
        assert isinstance(data["rows"], list)


@pytest.mark.slow
class TestRealExperiments:
    def test_fig1_real_quick(self):
        result = run("fig1-real", quick=True)
        assert len(result.rows) == 3
        assert result.rows[0]["posix_spawn_ns"] > 0

    def test_t2_micro_quick(self):
        result = run("t2-micro", quick=True)
        mechanisms = {r["mechanism"] for r in result.rows}
        assert "posix_spawn" in mechanisms
        assert {"real", "sim"} == {r["side"] for r in result.rows}


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1-sim" in out and "t4-compose" in out

    def test_run_one(self, capsys):
        assert cli_main(["run", "t1-api"]) == 0
        assert "special cases" in capsys.readouterr().out

    def test_run_json(self, capsys):
        assert cli_main(["run", "t1-api", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["id"] == "t1-api"

    def test_run_unknown(self, capsys):
        assert cli_main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_no_command_lists(self, capsys):
        assert cli_main([]) == 0
        assert "fig1-real" in capsys.readouterr().out

    def test_run_comma_list(self, capsys):
        assert cli_main(["run", "t1-api,t3-overcommit"]) == 0
        out = capsys.readouterr().out
        assert out.index("== t1-api") < out.index("== t3-overcommit")

    def test_run_parallel_deterministic_order(self, capsys):
        assert cli_main(["run", "t1-api,t3-overcommit", "--quick",
                         "--parallel", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.index("== t1-api") < out.index("== t3-overcommit")

    def test_run_parallel_unknown_fails_fast(self, capsys):
        assert cli_main(["run", "nope", "--parallel"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_set_overrides_kwargs(self, capsys):
        # fig1-sim takes a list kwarg; --set decodes JSON values.
        assert cli_main(["run", "fig1-sim", "--quick", "--json",
                         "--set", "sizes=[1048576,2097152]"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rows"]) == 2

    def test_set_rejects_malformed_pair(self, capsys):
        assert cli_main(["run", "t1-api", "--set", "nonsense"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err
