"""CLI target-registry surface: ``macross targets``, ``--machine``,
``--pipeline``, and the unknown-target error path."""

from repro.cli import main


class TestTargetsCommand:
    def test_lists_every_registered_target(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        for name in ("core-i7-sse4", "core-i7-sse4+sagu", "neon-like",
                     "sve-like"):
            assert name in out

    def test_lists_capabilities_and_aliases(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        assert "SAGU" in out
        assert "vector math" in out
        assert "sve" in out
        assert "i7+sagu" in out


class TestMachineFlag:
    def test_compile_on_named_target(self, capsys):
        assert main(["compile", "RunningExample", "--machine",
                     "sve-like"]) == 0
        assert "sve-like" in capsys.readouterr().out

    def test_alias_resolution(self, capsys):
        assert main(["compile", "RunningExample", "--machine", "sve"]) == 0
        assert "sve-like" in capsys.readouterr().out

    def test_case_insensitive(self, capsys):
        assert main(["compile", "RunningExample", "--machine", "NEON"]) == 0
        assert "neon-like" in capsys.readouterr().out

    def test_machine_composes_with_sagu_flag(self, capsys):
        assert main(["compile", "MatrixMult", "--machine", "neon",
                     "--sagu"]) == 0
        assert "neon-like+sagu" in capsys.readouterr().out

    def test_run_on_named_target(self, capsys):
        assert main(["run", "RunningExample", "--machine", "sve",
                     "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "sve-like" in out
        assert "cycles/output" in out

    def test_unknown_target_exits_2_with_listing(self, capsys):
        assert main(["compile", "RunningExample", "--machine", "sv3"]) == 2
        err = capsys.readouterr().err
        assert "unknown target 'sv3'" in err
        assert "did you mean 'sve'" in err
        # the full registry listing follows the error
        assert "core-i7-sse4" in err
        assert "neon-like" in err


class TestPipelineFlag:
    def test_named_pipeline(self, capsys):
        assert main(["compile", "RunningExample", "--pipeline",
                     "scalar"]) == 0
        out = capsys.readouterr().out
        assert "scalar" in out

    def test_unknown_pipeline_raises_with_hint(self, capsys):
        assert main(["compile", "RunningExample", "--pipeline",
                     "single-onyl"]) == 2
        err = capsys.readouterr().err
        assert "unknown pipeline 'single-onyl'" in err
        assert "did you mean 'single-only'" in err


class TestFuzzMachineFlag:
    def test_restricted_machine_axis(self, capsys):
        assert main(["fuzz", "--budget", "2", "--machine", "sve",
                     "--machine", "i7"]) == 0
        out = capsys.readouterr().out
        assert "programs" in out
