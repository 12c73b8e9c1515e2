"""``repro.settings.Settings``: the one resolver of ``REPRO_*`` knobs.

Malformed values fail fast, naming the variable, in the process that
resolves them — before any CLI starts a run, the daemon binds a socket
or the supervisor forks a worker.  The resolved settings travel to pool
workers in their task tuples, not through the environment.
"""

import dataclasses
import os
import re

import pytest

from repro.config import ALL_ON
from repro.evalharness.parallel import run_configs
from repro.settings import Settings, SettingsError
from repro.workloads import CHEBYSHEV, DOTPRODUCT

_KNOBS = dataclasses.fields(Settings)

#: Rejected by every field's parser: not a number, not a switch, not a
#: choice or a fault point, and no path may hold a NUL byte.
_MALFORMED = "5s\x00"

_README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _env_id(knob) -> str:
    return knob.metadata["env"]


class TestParsing:
    def test_defaults_without_environment(self):
        assert Settings.from_env({}) == Settings()

    def test_blank_value_means_unset(self):
        env = {_env_id(knob): "  " for knob in _KNOBS}
        assert Settings.from_env(env) == Settings()

    @pytest.mark.parametrize("knob", _KNOBS, ids=_env_id)
    def test_malformed_value_names_the_variable(self, knob):
        name = _env_id(knob)
        with pytest.raises(SettingsError, match=name):
            Settings.from_env({name: _MALFORMED})

    def test_formerly_silent_values_now_fail(self):
        for name, value in [("REPRO_JOBS", "abc"),
                            ("REPRO_HEARTBEAT_TIMEOUT", "5s"),
                            ("REPRO_TASK_TIMEOUT", "x"),
                            ("REPRO_DEGRADE", "maybe"),
                            ("REPRO_SERVE_PROCS", "0")]:
            with pytest.raises(SettingsError, match=name):
                Settings.from_env({name: value})

    def test_overrides_win_and_are_validated(self):
        env = {"REPRO_JOBS": "4", "REPRO_DEGRADE": "1"}
        settings = Settings.from_env(env, jobs=2, degrade=False,
                                     backend=None)
        assert (settings.jobs, settings.degrade, settings.backend) == \
            (2, False, "threaded")
        with pytest.raises(SettingsError, match="task_timeout"):
            Settings.from_env({}, task_timeout=-1)
        with pytest.raises(TypeError):
            Settings().override(no_such_knob=1)

    def test_result_key_is_the_tagged_fields(self):
        tagged = {knob.name for knob in _KNOBS
                  if knob.metadata["result_affecting"]}
        assert {name for name, _ in Settings().result_key()} == tagged
        assert tagged == {"faults", "degrade"}


class TestEntryPointsFailFast:
    """A malformed knob exits 2 in the parent, before any work."""

    @pytest.mark.parametrize("entry", [
        "evalharness", "workloads", "serve", "supervisor",
    ])
    def test_exit_2_before_work(self, monkeypatch, capsys, entry):
        from repro.evalharness.__main__ import main as harness_main
        from repro.serve.__main__ import main as serve_main
        from repro.serve.supervisor import main as supervisor_main
        from repro.workloads.__main__ import main as workloads_main
        mains = {
            # Each would otherwise print a table, run a workload, bind
            # and serve forever, or fork a fleet.
            "evalharness": (harness_main, ["table1"]),
            "workloads": (workloads_main, ["dotproduct"]),
            "serve": (serve_main, ["--port", "0"]),
            "supervisor": (supervisor_main, ["--port", "0"]),
        }
        main, argv = mains[entry]
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "5s")
        assert main(argv) == 2
        assert "REPRO_HEARTBEAT_TIMEOUT" in capsys.readouterr().err


class TestExplicitHandOff:
    def test_pool_workers_get_the_callers_settings(self, monkeypatch):
        """The fault spec reaches the workers in the task tuple: the
        environment has none, yet every pooled run degrades."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        settings = Settings(faults="specializer.entry:once", jobs=2)
        tasks = [(DOTPRODUCT.name, ALL_ON), (CHEBYSHEV.name, ALL_ON)]
        results = run_configs(tasks, settings=settings)
        assert all(result.degraded for result in results)
        assert not any(result.degraded
                       for result in run_configs(tasks, jobs=2))


class TestReadmeTable:
    def test_table_lists_exactly_the_settings(self):
        with open(_README, encoding="utf-8") as handle:
            text = handle.read()
        start = text.index("| env var")
        table = text[start:text.index("\n\n", start)]
        names = set(re.findall(r"^\| `(REPRO_[A-Z_]+)`", table, re.M))
        assert names == {_env_id(knob) for knob in _KNOBS}
