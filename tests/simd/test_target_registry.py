"""Target registry: lookup, aliases, errors, registration rules."""

import pytest

from repro.simd.machine import (
    CORE_I7,
    CORE_I7_SAGU,
    NEON_LIKE,
    SVE_LIKE,
    MachineDescription,
    UnknownTargetError,
    _TARGET_ALIASES,
    _TARGETS,
    get_target,
    list_targets,
    register_target,
    target_aliases,
)


class TestLookup:
    def test_canonical_names_resolve(self):
        assert get_target("core-i7-sse4") is CORE_I7
        assert get_target("core-i7-sse4+sagu") is CORE_I7_SAGU
        assert get_target("neon-like") is NEON_LIKE
        assert get_target("sve-like") is SVE_LIKE

    def test_lookup_is_case_insensitive(self):
        assert get_target("Core-i7-SSE4") is CORE_I7
        assert get_target("SVE-LIKE") is SVE_LIKE

    def test_aliases_resolve(self):
        assert get_target("i7") is CORE_I7
        assert get_target("sse4") is CORE_I7
        assert get_target("sagu") is CORE_I7_SAGU
        assert get_target("neon") is NEON_LIKE
        assert get_target("sve") is SVE_LIKE

    def test_description_passes_through(self):
        custom = MachineDescription(name="unregistered",
                                    simd_width=4,
                                    prices=CORE_I7.prices)
        assert get_target(custom) is custom

    def test_list_targets_sorted_canonical(self):
        names = list_targets()
        assert names == sorted(names)
        assert "sve-like" in names
        assert "i7" not in names  # aliases are not canonical names

    def test_target_aliases(self):
        assert "i7" in target_aliases("core-i7-sse4")
        assert "sve" in target_aliases(SVE_LIKE)
        # the canonical name itself is excluded
        assert "sve-like" not in target_aliases("sve")


class TestErrors:
    def test_unknown_target_did_you_mean(self):
        with pytest.raises(UnknownTargetError) as exc:
            get_target("sve-lik")
        message = str(exc.value)
        assert "sve-lik" in message
        assert "did you mean" in message
        assert "sve" in message
        assert "core-i7-sse4" in message  # full listing

    def test_unknown_target_is_a_key_error(self):
        """Callers that catch KeyError keep working."""
        with pytest.raises(KeyError):
            get_target("not-a-target")

    def test_str_is_not_reprd(self):
        """KeyError.__str__ would repr() the message; ours must not."""
        try:
            get_target("nope")
        except UnknownTargetError as exc:
            assert not str(exc).startswith('"')


class TestRegistration:
    def _cleanup(self, name, aliases):
        _TARGETS.pop(name, None)
        for alias in aliases:
            _TARGET_ALIASES.pop(alias, None)
        _TARGET_ALIASES.pop(name, None)

    def test_register_and_resolve_new_target(self):
        name, aliases = "test-target-reg", ("ttr",)
        try:
            machine = register_target(
                MachineDescription(name=name, simd_width=4,
                                   prices=CORE_I7.prices),
                aliases=aliases)
            assert get_target("TEST-TARGET-REG") is machine
            assert get_target("ttr") is machine
            assert name in list_targets()
        finally:
            self._cleanup(name, aliases)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_target(MachineDescription(name="sve-like",
                                               simd_width=4,
                                               prices=CORE_I7.prices))

    def test_alias_collision_rejected(self):
        name = "test-target-collide"
        try:
            with pytest.raises(ValueError, match="alias"):
                register_target(
                    MachineDescription(name=name, simd_width=4,
                                       prices=CORE_I7.prices),
                    aliases=("i7",))
        finally:
            self._cleanup(name, ("i7",) if
                          _TARGET_ALIASES.get("i7") == name else ())
