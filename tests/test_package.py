"""The package's public surface, and that every function in it serves a command."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import crankspace
from crankspace import cli, verify
from crankspace.cli import UsageError
from crankspace.laurent import CrankspaceError, LaurentPoly
from crankspace.partitions import BoundExceeded, InvalidEll
from crankspace.qseries import InvalidK
from crankspace.verify import HypothesisViolation, InvalidCase

SRC = Path(crankspace.__file__).resolve().parent


def test_package_root_binds_only_its_version_and_modules():
    # one import path per public name: each is imported from the module that defines it
    stray = [name for name, value in vars(crankspace).items() if not name.startswith("_")
             and not (isinstance(value, types.ModuleType) and value.__name__ == f"crankspace.{name}")]
    assert stray == []
    assert isinstance(crankspace.__version__, str)


def _tracer_names() -> dict[str, object]:
    """The LAYERS and PREDICATES tuples of perfbench/tracer.py, read from its source."""
    tree = ast.parse((SRC.parents[1] / "perfbench" / "tracer.py").read_text())
    return {target.id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name) and target.id in ("LAYERS", "PREDICATES")}


def test_cli_import_loads_every_layer_module():
    # The benchmark's contract: perfbench/tracer.py's install() looks each of its
    # LAYERS, and laurent, up in sys.modules right after `from crankspace import cli`,
    # and fails with a KeyError if one is not loaded yet; then it wraps each of its
    # PREDICATES on LaurentPoly by name, and fails with an AttributeError if one is
    # missing.  It holds until ROADMAP item 1 Step B retires those lookups; till then
    # no layer module may become a lazy import of cli, and no predicate may go.
    names = _tracer_names()
    assert set(names) == {"LAYERS", "PREDICATES"} and names["PREDICATES"]
    script = "import sys\nfrom crankspace import cli\nprint(sorted(sys.modules))\n"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(eval(done.stdout))
    assert {f"crankspace.{layer}" for layer in (*names["LAYERS"], "laurent")} <= loaded
    assert [name for name in names["PREDICATES"] if not hasattr(LaurentPoly, name)] == []


def test_package_needs_only_the_standard_library_and_its_declared_python():
    # every import names the package or a standard-library module, and pyproject.toml's [project]
    # table declares no runtime dependency (read as lines: tomllib is not in 3.10's standard
    # library).  feature_version checks the grammar of requires-python's floor only, not whether
    # an API called exists there
    project = (SRC.parents[1] / "pyproject.toml").read_text().split("\n[project]\n")[1].split("\n[")[0]
    assert {'requires-python = ">=3.10"', "dependencies = []"} <= set(project.splitlines())
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported and imported - {"crankspace"} <= sys.stdlib_module_names


def test_refusals_share_one_base():
    assert issubclass(CrankspaceError, ValueError)
    for error in (UsageError, BoundExceeded, InvalidEll, InvalidK, InvalidCase, HypothesisViolation):
        assert issubclass(error, CrankspaceError)


def test_no_plain_value_error_is_raised_on_purpose():
    # a plain ValueError escaping the package is a fault (exit 3), not a refusal (exit 2)
    assert [p.name for p in SRC.glob("*.py") if "raise ValueError" in p.read_text()] == []


# Small in-process CLI calls, each run as `crankspace --threads 1 <argv>`: every
# command in every format, and the refusals (exit 2).  (expected exit code, argv)
REACHING_CALLS = [
    (0, ["poly", "rank", "--n", "1"]),
    (0, ["--format", "json", "poly", "crank", "--n", "6"]),
    (0, ["--format", "csv", "poly", "modified-rank", "--ell", "5", "--n", "1"]),
    (0, ["poly", "modified-crank", "--ell", "7", "--n", "1"]),
    (0, ["quotient", "--ell", "5", "--poly", "mrank:5:1"]),
    (0, ["--format", "json", "quotient", "--ell", "5", "--squared", "--poly", "crank:4"]),
    (0, ["--format", "csv", "quotient", "--ell", "5", "--negated", "--poly", "mcrank:5:0"]),
    (0, ["quotient", "--ell", "5", "--poly", "rank:3"]),
    (0, ["--format", "json", "quotient", "--ell", "3", "--poly", "z^-1 + 1 + z"]),
    (0, ["--format", "csv", "quotient", "--ell", "3", "--poly", "0"]),
    (0, ["--format", "json", "quotient", "--ell", "3", "--poly", "1"]),
    (0, ["--format", "csv", "quotient", "--ell", "3", "--poly", "1"]),
    (0, ["verify", "--list"]),
    (0, ["verify", "conj1.1-part1", "--n-max", "1"]),
    (0, ["verify", "conj1.1-part3-ell11", "--n-max", "1"]),
    (0, ["--format", "json", "verify", "conj1.1-part2", "--n-max", "1"]),
    (0, ["--format", "csv", "verify", "conj1.3", "--n-max", "8", "--n-lo", "5"]),
    (0, ["--format", "json", "verify", "conj1.3", "--n-max", "6"]),
    (0, ["verify", "thm2.2", "--n-max", "1"]),
    (0, ["verify", "lem2.4", "--n-max", "6"]),
    (0, ["verify", "crank-n22-gap"]),
    (0, ["verify", "thm1.2", "--n-max", "1"]),
    (0, ["verify", "thm1.2-k1-h4-ell5", "--n-max", "1"]),
    (0, ["verify", "cor3.5", "--n-max", "1"]),
    (0, ["verify", "cor3.5-A-k6-ell5", "--n-max", "1"]),
    (0, ["verify", "conj1.4", "--n-max", "12"]),
    (0, ["verify", "conj4.2", "--n-max", "12"]),
    (0, ["search", "--k-lo", "3", "--k-hi", "4", "--n-hi", "12"]),
    (0, ["--format", "json", "search", "--k-lo", "3", "--k-hi", "3", "--n-hi", "12"]),
    (0, ["colored", "pk", "--k", "3", "--n", "10"]),
    (0, ["--format", "json", "colored", "pk", "--k", "3", "--n", "10"]),
    (0, ["--format", "csv", "colored", "pk", "--k", "3", "--n", "10"]),
    (0, ["asymptotic", "--n", "20"]),
    (0, ["--format", "json", "asymptotic", "--n", "20", "--m", "1"]),
    (0, ["--format", "csv", "asymptotic", "--n", "20", "--m", "1"]),
    (2, ["--threads", "0", "poly", "rank", "--n", "1"]),
    (2, ["poly", "rank", "--n", "-1"]),  # refused by partitions._check_size
    (2, ["poly", "modified-crank", "--ell", "5", "--n", "-1"]),  # by partitions._modified_size
    (2, ["poly", "rank", "--n", "5001"]),
    (2, ["poly", "rank", "--n", "9" * 61]),
    (2, ["poly", "x" * 61, "--n", "1"]),  # argparse's own refusal, shortened
    (2, ["poly", "rank", "--ell", "5", "--n", "1"]),
    (2, ["poly", "modified-rank", "--n", "1"]),
    (2, ["poly", "modified-rank", "--ell", "11", "--n", "1"]),
    (2, ["quotient", "--ell", "5", "--squared", "--negated", "--poly", "1"]),
    (2, ["quotient", "--ell", "10007", "--poly", "1"]),
    (2, ["quotient", "--ell", "4", "--poly", "1"]),
    (2, ["quotient", "--ell", "5", "--poly", "wat:xx"]),
    (2, ["quotient", "--ell", "5", "--poly", "z^10001 + 1"]),
    (2, ["quotient", "--ell", "5", "--poly", "rank:4:1"]),
    (2, ["quotient", "--ell", "5", "--poly", "mrank:5"]),
    (2, ["verify"]),
    (2, ["verify", "nope"]),
    (2, ["verify", "thm2.2", "--n-lo", "3"]),
    (2, ["verify", "conj1.3", "--n-max", "0"]),
    (2, ["verify", "all", "--n-max", "600"]),
    (2, ["verify", "cor3.5-B-k8-ell5"]),
    (2, ["verify", "thm1.2-k1-h5-ell5"]),
    (2, ["search", "table1", "--k-lo", "3"]),
    (2, ["search", "--k-lo", "2"]),
    (2, ["search", "--k-hi", "30"]),
    (2, ["colored", "pk", "--k", "0", "--n", "1"]),
    (2, ["colored", "pk", "--k", "1", "--n", "-1"]),  # by partitions._check_colored
    (2, ["colored", "pk", "--k", "2000", "--n", "1"]),
    (2, ["asymptotic", "--n", "0"]),
    (2, ["asymptotic", "--n", "10", "--m", "100000"]),
]

# Functions no command enters, each with its reason; nothing else may be missed.
NOT_REACHED = {
    "laurent.LaurentPoly.__eq__": "a value type compares by value",
    "laurent.LaurentPoly.__hash__": "equal values must hash equal",
    "laurent.LaurentPoly.__repr__": "a value type shows its value",
    "laurent.LaurentPoly.is_unimodal": "the tests' reference predicate, which perfbench/tracer.py "
                                       "wraps by name; it moves to tests/helpers.py with ROADMAP "
                                       "item 1 Step B",
}


def _defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every def and lambda in the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                decorators = getattr(child, "decorator_list", [])
                line = min([child.lineno] + [d.lineno for d in decorators])
                name = prefix + getattr(child, "name", f"<lambda>@{line}")
                found[(str(path), line)] = name
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem + ".")
    return found


def test_every_function_is_reached_by_a_command(capsys, monkeypatch):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for _, argv in REACHING_CALLS:
            try:
                codes.append(cli.main(["--threads", "1", *argv]))
            except SystemExit as exc:  # argparse's own refusals
                codes.append(exc.code)
        # a failed claim (exit 1): rank increases below the onset count as violations at onset 0
        monkeypatch.setattr(verify, "RANK_MONOTONE_ONSET", 0)
        codes.append(cli.main(["--threads", "1", "verify", "conj1.3", "--n-max", "8"]))
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [code for code, _ in REACHING_CALLS] + [1]
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered}
    missed = {name for key, name in _defined_functions().items() if key not in reached}
    assert missed == set(NOT_REACHED)
