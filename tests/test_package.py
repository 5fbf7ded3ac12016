import argparse
import ast
import importlib.util
import inspect
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import duelsim
from duelsim import bounds, cli


def test_all_names_resolve_without_duplicates():
    assert len(duelsim.__all__) == len(set(duelsim.__all__))
    for name in duelsim.__all__:
        assert hasattr(duelsim, name), name


def raised_names(package_dir):
    """Names of the exceptions raised by `raise X` or `raise X(...)` in package_dir."""
    names = set()
    for path in Path(package_dir).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_one_failure_convention():
    """Every library failure is a one-line ValueError, or an OSError from a file:
    callers and the CLI catch one way, and no second hierarchy may fork from it."""
    assert raised_names(Path(duelsim.__file__).parent) <= {"ValueError", "OSError"}


def test_no_errstate_in_src():
    """Hot-path numpy must not raise floating-point warnings that need silencing:
    masks keep invalid cells out, and inputs that overflow are rejected."""
    package_dir = Path(duelsim.__file__).parent
    users = [p.name for p in package_dir.rglob("*.py") if "errstate" in p.read_text("utf-8")]
    assert users == []


def test_integer_type_test_only_in_bounds():
    """Counts are checked by bounds.check_count alone: no second integer rule may fork
    from it, as delays and ExperimentConfig once did."""
    package_dir = Path(duelsim.__file__).parent
    users = [
        p.name
        for p in package_dir.rglob("*.py")
        if "numbers.Integral" in p.read_text("utf-8") or "np.integer" in p.read_text("utf-8")
    ]
    assert users == ["bounds.py"]


def test_each_size_is_stated_once():
    """The tau table's length fixes the estimator's window M, and a built-in's
    CSV fixes its arm count: no constructor takes M beside the table, and the
    registry holds no count beside the file."""
    for cls in (duelsim.DelayCorrectedEstimator, duelsim.RucbDelay, duelsim.RrDbDelay):
        params = inspect.signature(cls).parameters
        assert "tau_table" in params and not {"window", "m_window"} & params.keys(), cls
    specs = duelsim.datasets.BUILTIN_SPECS
    assert all(isinstance(f, str) and f.endswith(".csv") for f in specs.values()), specs


def test_bench_trace_targets_resolve():
    """Every method the bench tracer wraps still exists; install() skips a missing
    one silently, and its per-layer metric would then read 0."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {
        (owner, attr)
        for module, owner, attr, _ in tracing.TARGETS
        if attr not in vars(getattr(getattr(duelsim, module), owner))
    }
    # the policies without anonymous-count feedback have no observe_count, and the
    # estimator's one statistics query is matrices: pair_stats is gone
    assert missing <= {
        ("RucbDelay", "observe_count"),
        ("RrDbDelay", "observe_count"),
        ("DelayCorrectedEstimator", "pair_stats"),
    }


def subparsers(parser):
    """parser's one set of subcommands; .choices maps each name to its subparser."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action


def test_calculators_take_only_checked_arguments():
    """Each calculator parameter is a constant that COUNTS or DOMAINS names, and each
    `duelsim bounds` subcommand has exactly one flag per parameter of its function,
    required when the parameter has no default, and that function's first
    docstring line as its help."""
    # the functions bounds._calculator wraps, by name
    calculators = {name: f for name, f in vars(bounds).items() if hasattr(f, "__wrapped__")}
    assert len(calculators) == 6
    for name, function in calculators.items():
        params = inspect.signature(function).parameters.keys()
        assert params <= bounds.COUNTS.keys() | bounds.DOMAINS.keys(), name
    commands = subparsers(subparsers(cli.build_parser()).choices["bounds"])
    helps = {choice.dest: choice.help for choice in commands._choices_actions}
    assert len(commands.choices) == 6
    for command, parser in commands.choices.items():
        function = parser.get_default("function")
        # lower-bound picks one of lower_bound_value's two results
        assert function in [*calculators.values(), cli._lower_bound], command
        params = inspect.signature(function).parameters
        dests = {action.dest for action in parser._actions if action.dest != "help"}
        assert dests == params.keys(), command
        required = {action.dest for action in parser._actions if action.required}
        assert required == {name for name, p in params.items() if p.default is p.empty}, command
        assert helps[command] == inspect.getdoc(function).splitlines()[0], command


def test_import_leaves_the_process_pool_out():
    """Only run_many with workers > 1 needs concurrent.futures.process; a fresh
    `import duelsim` must not pay for it."""
    src = str(Path(duelsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, duelsim; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def readme_cli_commands():
    """(argv, shown) for each `duelsim ...` command in README's bash block under
    `## CLI`, continuations joined; shown is the output after `# ->`, else None."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("\n```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        command, arrow, shown = line.partition("# ->")
        if command.startswith("duelsim "):
            commands.append((shlex.split(command)[1:], shown.strip() if arrow else None))
    return commands


def flags_of(parser, argv):
    """The option strings of the (sub)command that argv names."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction) and argv[0] in action.choices:
            return flags_of(action.choices[argv[0]], argv[1:])
    return {flag for action in parser._actions for flag in action.option_strings}


def test_readme_cli_block_is_checked(capsys):
    """Every README CLI command parses (argparse exits 2 on an unknown flag) and
    spells each flag in full, since argparse also takes the prefix of a renamed
    flag; every `bounds` command shows its output, and each command that shows
    one prints exactly that."""
    commands = readme_cli_commands()
    assert len(commands) == 8
    for argv, _ in commands:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: duelsim {shlex.join(argv)}")
        used = {word for word in argv if word.startswith("--")}
        assert used <= flags_of(cli.build_parser(), argv), shlex.join(argv)
    assert all(out is not None for argv, out in commands if argv[0] == "bounds")
    for argv, out in commands:
        if out is not None:
            assert cli.main(argv) == 0, shlex.join(argv)
            assert capsys.readouterr().out == out + "\n", shlex.join(argv)
