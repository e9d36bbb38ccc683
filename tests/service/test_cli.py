"""CLI smoke tests: ``python -m repro`` subcommands end to end."""

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from repro import __version__
from repro.service import cli
from repro.service.cli import build_parser, main

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


def run_cli(*argv, cache_dir):
    """Run the CLI in a subprocess (the documented invocation path)."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env={**os.environ, "PYTHONPATH": _SRC, "REPRO_CACHE_DIR": str(cache_dir)},
        capture_output=True, text=True, timeout=600,
    )


class TestImports:
    def test_service_entry_points_do_not_import_networkx(self):
        """networkx is imported only by the graph conversions that need it."""
        probe = ("import sys, repro.service.cli, repro.service.executor; "
                 "print('networkx' in sys.modules)")
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": _SRC},
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"


class TestDiscover:
    def test_diamond_smoke(self, tmp_path):
        completed = run_cli("discover", "--dataset", "diamond",
                            "--method", "var_granger", "--length", "140",
                            cache_dir=tmp_path / "cache")
        assert completed.returncode == 0, completed.stderr
        assert "discovered" in completed.stdout
        assert "f1=" in completed.stdout

    def test_json_output_and_cache_hit(self, tmp_path):
        args = ["discover", "--dataset", "fork", "--method", "var_granger",
                "--length", "140", "--json"]
        cache_dir = tmp_path / "cache"
        first = run_cli(*args, cache_dir=cache_dir)
        second = run_cli(*args, cache_dir=cache_dir)
        assert first.returncode == 0, first.stderr
        payload = json.loads(second.stdout)
        assert payload["job"]["method"] == "var_granger"
        assert payload["scores"]["f1"] == json.loads(first.stdout)["scores"]["f1"]

    def test_config_override_and_artifacts(self, tmp_path):
        completed = run_cli("discover", "--dataset", "fork",
                            "--method", "causalformer", "--length", "120",
                            "--config", "max_epochs=2", "--config", "window=8",
                            "--no-cache", "--run-dir", str(tmp_path / "runs"),
                            cache_dir=tmp_path / "cache")
        assert completed.returncode == 0, completed.stderr
        run_dir = tmp_path / "runs" / "run-0001"
        assert (run_dir / "manifest.json").is_file()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["jobs"][0]["config"]["max_epochs"] == 2

    def test_failure_exit_code(self, tmp_path):
        completed = run_cli("discover", "--dataset", "fork",
                            "--method", "causalformer", "--length", "120",
                            "--config", "window=9999", "--no-cache",
                            cache_dir=tmp_path / "cache")
        assert completed.returncode == 1
        assert "failed" in completed.stderr


class TestSweep:
    def test_parallel_sweep_and_cache_info(self, tmp_path):
        cache_dir = tmp_path / "cache"
        completed = run_cli("sweep", "--datasets", "fork,diamond",
                            "--methods", "var_granger", "--seeds", "0,1",
                            "--length", "140", "--workers", "2",
                            cache_dir=cache_dir)
        assert completed.returncode == 0, completed.stderr
        assert "4 jobs" in completed.stdout
        assert "fork" in completed.stdout and "diamond" in completed.stdout

        info = run_cli("cache", "info", cache_dir=cache_dir)
        assert info.returncode == 0
        assert "entries: 4" in info.stdout

        cleared = run_cli("cache", "clear", cache_dir=cache_dir)
        assert "removed 4 entries" in cleared.stdout


class TestInProcessEntryPoints:
    """The console-script entry point, exercised without a subprocess."""

    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "causalformer" in output and "lorenz96" in output

    def test_sweep_in_process(self, tmp_path, capsys):
        code = main(["sweep", "--datasets", "fork", "--methods", "var_granger",
                     "--seeds", "0", "--length", "140",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "1 jobs" in capsys.readouterr().out

    def test_bad_config_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["discover", "--dataset", "fork", "--method", "var_granger",
                  "--config", "oops", "--cache-dir", str(tmp_path / "cache")])


def _subcommands():
    (action,) = [action for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
    return sorted(action.choices)


class TestParser:
    """The argument parser's shape: documented subcommands, help, version."""

    def test_subcommands_match_the_module_docstring(self):
        section = cli.__doc__.split("Subcommands\n-----------\n")[1]
        documented = re.findall(r"^``(\w+)``$", section, flags=re.MULTILINE)
        assert sorted(documented) == _subcommands()

    @pytest.mark.parametrize("command", ["discover", "sweep", "cache", "list",
                                         "report", "lint"])
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: python -m repro {command}" in capsys.readouterr().out

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"
