"""Parameter validation of ``key=value`` overrides (positioned errors)."""

import pytest

from repro.scenario import cli as bench_cli
from repro.scenario.model import ConfigError, apply_overrides
from repro.scenario.runner import KINDS

LOAD = KINDS["load"]


class TestSchema:
    """An override is checked against the kind's ParamSpec and located by
    its position on the command line."""

    def test_valid_scenario_resolves_defaults(self):
        params = apply_overrides(LOAD, ["users=2"])
        assert params["users"] == [2]
        assert params["messages"] == 16  # kind default
        assert apply_overrides(LOAD, []) == LOAD.defaults()

    def test_unknown_param_key_names_file_line_and_known_keys(self):
        with pytest.raises(ConfigError) as err:
            apply_overrides(LOAD, ["messages=4", "bogus=1"])
        message = str(err.value)
        assert message.startswith("<command line>:2: ")
        assert "bogus" in message and "users" in message

    def test_type_mismatch_names_file_and_line(self):
        with pytest.raises(ConfigError) as err:
            apply_overrides(LOAD, ['messages="many"'])
        message = str(err.value)
        assert message.startswith("<command line>:1: ")
        assert "must be int" in message

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError):
            apply_overrides(LOAD, ["messages=true"])
        with pytest.raises(ConfigError):
            apply_overrides(KINDS["scale"], ["skip_reference=1"])

    def test_unknown_kind_lists_known_kinds(self, capsys):
        assert bench_cli.main(["nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'nope'" in err
        for name in KINDS:
            assert f"  {name} " in err

    def test_sweep_values_are_type_checked(self):
        """``load``'s capacity-curve points are its ``users`` list; each
        element must be an int."""
        with pytest.raises(ConfigError) as err:
            apply_overrides(LOAD, ['users=[1, "two"]'])
        assert "must be a list of int" in str(err.value)
        assert apply_overrides(LOAD, ["users=1,2"])["users"] == [1, 2]
