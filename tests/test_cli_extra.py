"""CLI coverage beyond the basics (profile, sagu variants, errors)."""

import pytest

from repro.cli import main


class TestProfileCommand:
    def test_profile_prints_both_variants(self, capsys):
        assert main(["profile", "BitonicSort"]) == 0
        out = capsys.readouterr().out
        assert "--- scalar ---" in out
        assert "--- MacroSS ---" in out
        assert "TOTAL" in out
        assert "event class" in out

    def test_profile_sagu(self, capsys):
        assert main(["profile", "MatrixMult", "--sagu"]) == 0
        assert "TOTAL" in capsys.readouterr().out


class TestCompileVariants:
    def test_compile_sagu_reports_sagu_strategies(self, capsys):
        assert main(["compile", "MatrixMult", "--sagu"]) == 0
        out = capsys.readouterr().out
        assert "sagu" in out

    def test_unknown_benchmark_raises(self, capsys):
        """An unknown name is a usage error (exit 2), not a traceback."""
        assert main(["run", "NotABench"]) == 2
        assert "unknown benchmark 'NotABench'" in capsys.readouterr().err

    def test_run_reports_speedup(self, capsys):
        assert main(["run", "DES", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "x)" in out and "cycles/output" in out

    @pytest.mark.parametrize("app", ["FMRadio", "FilterBank"])
    def test_run_exit_code_follows_output_parity(self, app, capsys,
                                                 monkeypatch):
        """``run`` must fail on a wrong answer: with the mover lane map
        rotated the SIMDized outputs diverge and the exit code says so."""
        import repro.runtime.movers as movers_mod
        argv = ["run", app, "--backend", "compiled", "--iterations", "2"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "outputs identical" in captured.out
        assert captured.err == ""
        monkeypatch.setattr(movers_mod, "_MUT_MOVER_SHIFT", 1)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "outputs identical" in captured.out
        assert "diverge" in captured.err


class TestRunTapeFallbacks:
    def test_run_prints_one_line_per_tape_fallback(self, capsys,
                                                   monkeypatch):
        """FMRadio's vector tapes hold float64 rows: no ``tape fallback``
        line.  With every row refused (both places a tape admits one),
        each batched actor on a degraded tape gets one line naming the
        reason."""
        pytest.importorskip("numpy")
        from repro.runtime.tape import NdTape
        argv = ["run", "FMRadio", "--backend", "vector", "--iterations", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "vectorized actors: 14/14" in out
        assert "tape fallback" not in out

        def refuse_column(tape, values):
            tape._degrade("ragged vector payload")

        monkeypatch.setattr(NdTape, "_row_reason", classmethod(
            lambda cls, value, width: "ragged vector payload"))
        monkeypatch.setattr(NdTape, "_admit_rows", refuse_column)
        assert main(argv) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "tape fallback" in line]
        assert len(lines) == 8, lines
        for line in lines:
            assert line.startswith("    tape fallback ")
            assert line.endswith(": ragged vector payload")


#: Every command line whose only fault is a name no registry knows.
UNKNOWN_NAMES = [
    ["run", "nosuchapp"],
    ["profile", "nosuchapp"],
    ["dot", "nosuchapp"],
    ["plan", "nosuchapp"],
    ["trace", "nosuchapp"],
    ["multicore", "nosuchapp"],
    ["compile", "dct", "--pipeline", "fulll"],
    ["fig11", "--benchmarks", "nosuchapp"],
    ["serve", "nosuchapp"],
    ["loadgen", "--apps", "nosuchapp"],
]


class TestExitCodes:
    @pytest.mark.parametrize("argv", UNKNOWN_NAMES, ids=" ".join)
    def test_unknown_name_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err

    def test_known_name_exits_zero(self, capsys):
        assert main(["run", "dct"]) == 0
        assert capsys.readouterr().err == ""

    def test_keyerror_inside_a_command_still_tracebacks(self, monkeypatch):
        """Only the up-front name lookups are usage errors: a KeyError
        raised while a command works is a bug and must escape."""
        import repro.experiments.harness as harness

        def broken(name):
            raise KeyError("bug")

        monkeypatch.setattr(harness, "scalar_graph", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["run", "dct"])

    def test_channel_stall_exits_3_with_diagnostics(self, monkeypatch,
                                                     capsys):
        import repro.runtime as runtime
        from repro.multicore.channels import ChannelStallTimeout

        def stalled(*args, **kwargs):
            raise ChannelStallTimeout(
                "tape3: pop side stalled", channel="tape3", side="pop",
                occupancy=0, needed=2, capacity=8, timeout_s=1.5)

        monkeypatch.setattr(runtime, "execute", stalled)
        assert main(["run", "dct", "--cores", "2"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0] == ("error: parallel run deadlocked: tape3: pop side "
                          "stalled")
        assert err[1:] == ["  channel:   tape3 (pop side)",
                           "  occupancy: 0/8, needed 2",
                           "  timeout:   1.5s (adjust with --stall-timeout)"]


class TestFigureCommands:
    def test_fig12_subset(self, capsys):
        assert main(["fig12", "--benchmarks", "DCT", "FFT"]) == 0
        out = capsys.readouterr().out
        assert "SAGU improvement" in out
        assert "DCT" in out and "FFT" in out
