"""Scenario file parsing and schema validation (file/line errors)."""

import pytest

from repro.scenario.config import ConfigError, parse_config
from repro.scenario.model import load_scenario_text
from repro.scenario.sweep import expand


class TestParser:
    def test_sections_keys_and_types(self):
        data, lines = parse_config(
            '[scenario]\n'
            'name = "x"  # trailing comment\n'
            'count = 3\n'
            'ratio = 0.5\n'
            'flag = true\n'
            'items = [1, 2, 3]\n'
            'words = ["a", "b"]\n',
            "x.toml",
        )
        head = data["scenario"]
        assert head["name"] == "x"
        assert head["count"] == 3 and isinstance(head["count"], int)
        assert head["ratio"] == 0.5
        assert head["flag"] is True
        assert head["items"] == [1, 2, 3]
        assert head["words"] == ["a", "b"]

    def test_line_map_tracks_sections_and_keys(self):
        _data, lines = parse_config(
            '\n[scenario]\nname = "x"\n\n[params]\nseed = 1\n', "x.toml"
        )
        assert lines["scenario"] == 2
        assert lines["scenario.name"] == 3
        assert lines["params"] == 5
        assert lines["params.seed"] == 6

    def test_duplicate_key_is_an_error_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config('[a]\nk = 1\nk = 2\n', "dup.toml")
        assert "dup.toml:3" in str(err.value)

    def test_top_level_key_is_rejected_by_the_schema(self):
        data, _lines = parse_config('k = 1\n', "x.toml")
        assert data == {"k": 1}
        with pytest.raises(ConfigError) as err:
            load_scenario_text('k = 1\n[scenario]\nname = "t"\nkind = "load"\n')
        assert "k" in str(err.value)

    def test_malformed_line_is_an_error_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config('[a]\nwhat even is this\n', "bad.toml")
        assert "bad.toml:2" in str(err.value)


class TestSchema:
    def scenario_text(self, params="", sweep="", head_extra=""):
        text = f'[scenario]\nname = "t"\nkind = "load"\n{head_extra}'
        if params:
            text += f"\n[params]\n{params}"
        if sweep:
            text += f"\n[sweep]\n{sweep}"
        return text

    def test_valid_scenario_resolves_defaults(self):
        scenario = load_scenario_text(
            self.scenario_text(params="users = 2\n"), "t.toml"
        )
        assert scenario.params["users"] == 2
        assert scenario.params["messages"] == 16  # kind default
        assert scenario.baseline is None

    def test_unknown_section_names_file_and_line(self):
        with pytest.raises(ConfigError) as err:
            load_scenario_text(
                '[scenario]\nname = "t"\nkind = "load"\n\n[nope]\nx = 1\n',
                "t.toml",
            )
        assert "t.toml:5" in str(err.value)
        assert "[nope]" in str(err.value)

    def test_unknown_param_key_names_file_line_and_known_keys(self):
        with pytest.raises(ConfigError) as err:
            load_scenario_text(self.scenario_text(params="bogus = 1\n"), "t.toml")
        message = str(err.value)
        assert message.startswith("t.toml:6")
        assert "bogus" in message and "users" in message

    def test_type_mismatch_names_file_and_line(self):
        with pytest.raises(ConfigError) as err:
            load_scenario_text(
                self.scenario_text(params='users = "many"\n'), "t.toml"
            )
        message = str(err.value)
        assert message.startswith("t.toml:6")
        assert "must be int" in message

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError):
            load_scenario_text(self.scenario_text(params="users = true\n"), "t.toml")

    def test_unknown_kind_lists_known_kinds(self):
        with pytest.raises(ConfigError) as err:
            load_scenario_text('[scenario]\nname = "t"\nkind = "nope"\n', "t.toml")
        assert "unknown kind" in str(err.value)
        assert "load" in str(err.value)

    def test_missing_required_scenario_keys(self):
        with pytest.raises(ConfigError):
            load_scenario_text('[scenario]\nname = "t"\n', "t.toml")
        with pytest.raises(ConfigError):
            load_scenario_text('[params]\nusers = 1\n', "t.toml")

    def test_list_typed_param_cannot_be_swept(self):
        text = (
            '[scenario]\nname = "t"\nkind = "scale"\n\n'
            "[sweep]\nworkers = [1, 2]\n"
        )
        with pytest.raises(ConfigError) as err:
            load_scenario_text(text, "t.toml")
        assert "cannot be swept" in str(err.value)

    def test_sweep_values_are_type_checked(self):
        with pytest.raises(ConfigError) as err:
            load_scenario_text(
                self.scenario_text(sweep='users = [1, "two"]\n'), "t.toml"
            )
        assert "must be int" in str(err.value)

    def test_baseline_is_only_what_the_file_states(self):
        """An ad-hoc scenario of a gated kind cannot ``--write`` over the
        committed baseline: no kind supplies a default file."""
        scenario = load_scenario_text(
            '[scenario]\nname = "s"\nkind = "scale"\n', "s.toml"
        )
        assert scenario.baseline is None


class TestSweepExpansion:
    def load(self):
        return load_scenario_text(
            '[scenario]\nname = "t"\nkind = "load"\n\n'
            "[sweep]\nusers = [1, 2]\nmessages = [4, 8, 16]\n",
            "t.toml",
        )

    def test_matrix_is_row_major_over_sorted_keys(self):
        points = expand(self.load())
        assert points == [
            {"messages": 4, "users": 1},
            {"messages": 4, "users": 2},
            {"messages": 8, "users": 1},
            {"messages": 8, "users": 2},
            {"messages": 16, "users": 1},
            {"messages": 16, "users": 2},
        ]

    def test_double_expansion_is_identical(self):
        scenario = self.load()
        assert expand(scenario) == expand(scenario)
