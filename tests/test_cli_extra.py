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

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            main(["run", "NotABench"])

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


class TestFigureCommands:
    def test_fig12_subset(self, capsys):
        assert main(["fig12", "--benchmarks", "DCT", "FFT"]) == 0
        out = capsys.readouterr().out
        assert "SAGU improvement" in out
        assert "DCT" in out and "FFT" in out
