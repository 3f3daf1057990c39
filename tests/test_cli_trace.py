"""CLI coverage for the observability surface: ``macross trace``, the
``--trace FILE`` flags, and kernel-cache statistics on ``run``/``profile``.

Exit-code tests pin the contract CI relies on; snapshot-style assertions
pin the table headers and the cache-stats line format.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs import read_jsonl
from repro.simd import PASS_NAMES


class TestTraceCommand:
    def test_exit_code_and_pass_table(self, capsys):
        assert main(["trace", "FMRadio"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm-1 passes:" in out
        for pass_name in PASS_NAMES:
            assert pass_name in out
        assert "hottest actors" in out
        # Default backend is compiled => cache stats are reported.
        assert "kernel cache:" in out
        assert "lookups" in out

    def test_table_headers_snapshot(self, capsys):
        assert main(["trace", "DCT", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "ms" in out and "actors" in out \
            and "tapes" in out and "detail" in out
        assert "firings" in out and "share" in out \
            and "dominant class" in out

    def test_interp_backend_has_no_cache_stats(self, capsys):
        assert main(["trace", "DCT", "--backend", "interp"]) == 0
        out = capsys.readouterr().out
        assert "kernel cache:" not in out
        assert "[interp backend" in out

    def test_sagu_variant(self, capsys):
        assert main(["trace", "MatrixMult", "--sagu"]) == 0
        assert "sagu" in capsys.readouterr().out

    def test_trace_file_covers_compile_and_runtime(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["trace", "FMRadio", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"written to {path}" in out
        doc = json.loads(path.read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        for pass_name in PASS_NAMES:
            assert pass_name in names
        assert "execute" in names and "runtime.steady" in names

    def test_unknown_benchmark_raises(self, capsys):
        assert main(["trace", "NotABench"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestTraceFlags:
    def test_compile_trace_flag(self, tmp_path, capsys):
        path = tmp_path / "compile.json"
        assert main(["compile", "DCT", "--trace", str(path)]) == 0
        assert path.exists()
        doc = json.loads(path.read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        assert "compile_graph" in names
        assert "execute" not in names  # compile does not run the graph

    def test_run_trace_flag_jsonl(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["run", "DCT", "--iterations", "1",
                     "--trace", str(path)]) == 0
        events = read_jsonl(path)
        names = [e.name for e in events]
        # scalar execute + compile + SIMD execute all in one capture
        assert names.count("execute") == 2
        assert "compile_graph" in names

    def test_fuzz_trace_flag(self, tmp_path, capsys):
        path = tmp_path / "fuzz.json"
        assert main(["fuzz", "--seed", "0", "--budget", "2",
                     "--trace", str(path)]) == 0
        doc = json.loads(path.read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        assert "fuzz.campaign" in names
        assert any(n.startswith("fuzz.program[") for n in names)

    def test_no_trace_flag_writes_nothing(self, tmp_path, capsys):
        assert main(["compile", "DCT"]) == 0
        assert "written to" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestKernelCacheReporting:
    def test_run_compiled_reports_cache_stats(self, capsys):
        assert main(["run", "DCT", "--iterations", "1",
                     "--backend", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "kernel cache:" in out
        assert "compiled)" in out and "resident" in out

    def test_run_interp_omits_cache_stats(self, capsys):
        assert main(["run", "DCT", "--iterations", "1"]) == 0
        assert "kernel cache:" not in capsys.readouterr().out

    def test_profile_compiled_reports_cache_stats(self, capsys):
        assert main(["profile", "DCT", "--backend", "compiled"]) == 0
        out = capsys.readouterr().out
        assert out.count("kernel cache:") == 2  # scalar and MacroSS runs
        assert "TOTAL" in out

    def test_profile_interp_omits_cache_stats(self, capsys):
        assert main(["profile", "DCT"]) == 0
        assert "kernel cache:" not in capsys.readouterr().out
