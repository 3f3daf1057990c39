"""CLI tests for ``macross plan`` and planner-aware ``--partitioner``."""

from repro.cli import main


class TestPlanCommand:
    def test_plan_prints_strategy_table_and_front(self, capsys):
        assert main(["plan", "dct", "--cores", "4"]) == 0
        out = capsys.readouterr().out
        # strategy comparison covers every registered partitioner
        for name in ("lpt", "contiguous", "opt"):
            assert name in out
        assert "makespan" in out and "memory" in out
        assert "optimizer:" in out
        assert "vectorization:" in out
        assert "Pareto front" in out

    def test_plan_gpu_like_target(self, capsys):
        assert main(["plan", "dct", "--cores", "4",
                     "--target", "gpu-like"]) == 0
        out = capsys.readouterr().out
        assert "gpu-like" in out
        assert "COMM 160" in out

    def test_plan_target_is_machine_alias(self, capsys):
        assert main(["plan", "dct", "--machine", "gpu-like"]) == 0
        assert "gpu-like" in capsys.readouterr().out

    def test_plan_memory_budget_dual(self, capsys):
        assert main(["plan", "dct", "--cores", "4",
                     "--memory-budget", "0"]) == 0
        out = capsys.readouterr().out
        assert "memory budget 0" in out

    def test_plan_infeasible_budget_exits_2(self, capsys):
        assert main(["plan", "dct", "--memory-budget", "-5"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "negative" in err

    def test_plan_unknown_target_exits_2_with_listing(self, capsys):
        assert main(["plan", "dct", "--target", "tpu"]) == 2
        err = capsys.readouterr().err
        assert "unknown target" in err
        assert "gpu-like" in err  # registry listing follows

    def test_plan_unknown_benchmark_errors(self, capsys):
        assert main(["plan", "nosuchbench"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestPartitionerFlag:
    def test_multicore_accepts_registered_opt(self, capsys):
        assert main(["multicore", "dct", "--cores", "2",
                     "--partitioner", "opt", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "opt partitioner" in out
        assert "MISMATCH" not in out

    def test_multicore_accepts_alias(self, capsys):
        assert main(["multicore", "dct", "--cores", "2",
                     "--partitioner", "contig", "--iterations", "1"]) == 0
        assert "MISMATCH" not in capsys.readouterr().out

    def test_unknown_partitioner_exits_2_with_did_you_mean(self, capsys):
        assert main(["multicore", "dct", "--partitioner", "ltp"]) == 2
        err = capsys.readouterr().err
        assert "unknown partitioner 'ltp'" in err
        assert "did you mean 'lpt'" in err
        assert "contiguous, lpt, opt" in err
