"""The package namespace, the command-line options, the README quickstart,
what importing the command line loads, and the benchmark's hooks.

``perfbench/spans.py`` wraps pipow functions by module and attribute name
and reads their arguments by parameter name, so a rename or a dropped
parameter in ``src/`` breaks the traced benchmark run silently; these
tests catch it in the regular suite.
"""

import argparse
import doctest
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pipow
from pipow import bench, cli, reference, series

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RecordingArguments:
    """Bound arguments that remember every name read and answer 1."""

    def __init__(self):
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return 1


class TestBenchmarkHooks:
    def test_every_target_resolves_and_reads_only_its_parameters(self):
        read = set()
        for module_name, attribute, name, counter in load_spans().TARGETS:
            owner = importlib.import_module(module_name)
            for part in attribute.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (module_name, attribute)
            parameters = inspect.signature(owner).parameters
            for probe in (name, counter):
                if not callable(probe):
                    continue
                arguments = RecordingArguments()
                if probe is counter:
                    probe(arguments, 1)
                else:
                    probe(arguments)
                assert arguments.read <= set(parameters), (
                    module_name, attribute, arguments.read - set(parameters))
                read |= arguments.read
        assert read >= {"n_vars", "depth", "truncation", "scale", "mode",
                        "digits", "powers", "display_digits"}

    def test_kernel_backend_is_published(self):
        assert isinstance(pipow.KERNEL_BACKEND, str)


class TestNamespace:
    def test_all_names_resolve(self):
        assert sorted(pipow.__all__) == [
            "KERNEL_BACKEND", "converge", "partial_sum", "reference_value",
            "tail_bound"]
        for name in pipow.__all__:
            assert hasattr(pipow, name), name

    def test_module_names_are_pinned(self):
        # A public name that comes back must change this table.
        assert sorted(series.__all__) == [
            "EXACT_TRUNCATION_LIMIT", "STEP_CEILING", "SeriesResult",
            "converge", "converged_plan", "partial_sum", "partial_sum_work",
            "required_truncation", "row_work_floor", "series_results",
            "sinc_plan", "sinc_product", "sinc_series", "sinc_work",
            "sum_plan", "tail_bound"]
        assert sorted(reference.__all__) == [
            "MAX_PI_DIGITS", "PiCache", "REFERENCE_GUARD", "basel_power",
            "pi_digits", "pi_power_work", "reference_value", "sinc_taylor"]
        assert sorted(bench.__all__) == [
            "BenchRow", "NAIVE_ENUMERATION_CEILING", "newton_cross_check",
            "partial_sum_naive", "partial_sum_prefix", "run_benchmark"]
        for module in (series, reference, bench):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_readme_quickstart(self):
        text = (ROOT / "README.md").read_text()
        block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
        test = doctest.DocTestParser().get_doctest(
            block, {}, "README quickstart", "README.md", 0)
        runner = doctest.DocTestRunner()
        runner.run(test)
        assert runner.summarize(verbose=False) == (0, 7)


class TestCommandLineSurface:
    # Every option of every subcommand; a new knob must change this table.
    OPTIONS = {
        "sum": {"--depth", "--upto", "--mode", "--as-decimal", "--digits"},
        "converge": {"--depth", "--digits"},
        "table": {"--max-depth", "--digits"},
        "verify-theorem": {"--m"},
        "sinc": {"--x", "--terms", "--digits"},
        "bench": set(),
    }
    SHARED = {"-h", "--help", "--format", "--out"}

    @staticmethod
    def commands(parser):
        return next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))

    def test_option_sets_are_pinned(self):
        commands = self.commands(cli.build_parser())
        assert set(commands) == set(self.OPTIONS)
        for name, command in commands.items():
            options = {option for action in command._actions
                       for option in action.option_strings}
            assert options == self.OPTIONS[name] | self.SHARED, name

    def test_actions_are_shapes_the_plain_reader_models(self):
        # cli._plain_args reads help, one-value store options and
        # store_true flags; a positional, an nargs or an append must fail
        # here before it is misread.
        for name, command in self.commands(cli.build_parser()).items():
            for action in command._actions:
                assert (type(action) in (argparse._HelpAction,
                                         argparse._StoreTrueAction)
                        or type(action) is argparse._StoreAction
                        and action.nargs is None
                        and action.option_strings), (name, action.dest)
        assert None not in cli._plain_commands().values()

    @pytest.mark.parametrize("add", [
        lambda command: command.add_argument("--tag", action="append"),
        lambda command: command.add_argument("--pair", nargs=2),
        lambda command: command.add_argument("name"),
    ], ids=["append", "nargs-2", "positional"])
    def test_plain_reader_declines_other_shapes(self, monkeypatch, add):
        parser = cli.build_parser()
        add(self.commands(parser)["sum"])
        monkeypatch.setattr(cli, "_parser", lambda: parser)
        cli._plain_commands.cache_clear()
        try:
            assert cli._plain_args(
                ["sum", "--depth", "2", "--upto", "3"]) is None
            assert cli._plain_args(["converge", "--depth", "2"]) is not None
        finally:
            cli._plain_commands.cache_clear()


class TestStartUp:
    # Loaded on first use: the symbolic engine and the benchmark (with its
    # sweep kernel) by their commands, json by its format. csv is never
    # loaded: the CLI quotes its csv cells itself (cli._csv_line).
    # dataclasses would pull in inspect, ast and dis on every start.
    # threading and typing are not needed to start at all (7 to 11 ms of
    # a bare start): PiCache locks with _thread, and SeriesResult is a
    # collections.namedtuple.
    LAZY = ["csv", "dataclasses", "inspect", "json", "pipow._backend",
            "pipow.bench", "pipow.symmetric", "threading", "typing"]
    # Nor after any of these commands: the plans and the expansion
    # report are collections.namedtuple classes too.
    NEVER = ["dataclasses", "inspect", "typing"]
    SERIES = [["sum", "--depth", "2", "--upto", "3", "--format", "csv"],
              ["converge", "--depth", "2", "--digits", "5"],
              ["table", "--max-depth", "3", "--digits", "4"],
              ["sinc", "--x", "1/2", "--terms", "30"]]
    VERIFY = ["verify-theorem", "--m", "3", "--format", "csv"]

    def test_cli_import_loads_only_what_every_command_runs(self, capsys):
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from pipow.cli import main\n"
            "print(sorted(set(%r) & set(sys.modules)))\n"
            "for argv in %r:\n"
            "    main(argv)\n"
            "print(sorted(set(%r) & set(sys.modules)))\n"
            "main(%r)\n"
            "print(sorted(set(%r) & set(sys.modules)))\n"
            % (str(ROOT / "src"), self.LAZY, self.SERIES, self.NEVER,
               self.VERIFY, self.NEVER))
        out = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True,
            text=True, check=True, timeout=60).stdout
        for argv in self.SERIES:
            cli.main(argv)
        expected = "[]\n" + capsys.readouterr().out + "[]\n"
        cli.main(self.VERIFY)
        assert out == expected + capsys.readouterr().out + "[]\n"
