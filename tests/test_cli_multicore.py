"""CLI tests for ``macross run --cores`` and ``macross multicore``."""

from repro.cli import main


class TestRunCores:
    def test_run_with_cores_reports_parallel_stats(self, capsys):
        assert main(["run", "DCT", "--iterations", "2", "--cores", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 cores" in out
        assert "parallel run" in out
        assert "channel(s)" in out and "stall(s)" in out

    def test_run_single_core_stays_sequential(self, capsys):
        assert main(["run", "DCT", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "parallel run" not in out

    def test_run_cores_compiled_backend(self, capsys):
        assert main(["run", "DCT", "--iterations", "2", "--cores", "2",
                     "--backend", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "kernel cache" in out
        assert "outputs identical: " in out


class TestMulticoreCommand:
    def test_table_shape_and_parity(self, capsys):
        assert main(["multicore", "dct", "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "lpt partitioner" in out
        assert "model cyc/out" in out and "wall ms" in out
        assert "scalar" in out and "+MacroSS" in out
        assert "MISMATCH" not in out
        assert out.count(" ok") >= 2  # scalar + SIMD rows

    def test_default_core_counts(self, capsys):
        assert main(["multicore", "DCT", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        for cores in ("1  scalar", "2  scalar", "4  scalar"):
            assert cores in out.replace("   ", "  ")

    def test_repeatable_cores_and_partitioner(self, capsys):
        assert main(["multicore", "DCT", "--cores", "2", "--cores", "3",
                     "--partitioner", "contiguous"]) == 0
        out = capsys.readouterr().out
        assert "contiguous partitioner" in out

    def test_compiled_backend(self, capsys):
        assert main(["multicore", "DCT", "--cores", "2",
                     "--backend", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "compiled backend" in out
        assert "MISMATCH" not in out

    def test_unknown_benchmark_raises(self, capsys):
        assert main(["multicore", "NotABench"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_trace_capture(self, tmp_path, capsys):
        path = tmp_path / "mc.jsonl"
        assert main(["multicore", "DCT", "--cores", "2",
                     "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert path.is_file()
        assert "written to" in out
        text = path.read_text()
        assert "core0" in text and "parallel_execute" in text
