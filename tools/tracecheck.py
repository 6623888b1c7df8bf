"""pytest plugin: fail the run if a line of beamfade never runs, or if a
`_require` check never raises.

Load it on the whole suite, from the repository root (a partial run reports
every line that its subset of tests leaves unrun):

    PYTHONPATH=src python -m pytest -q -p tools.tracecheck --hypothesis-seed=0

It needs only the standard library.  The executable lines of a module are
those that `code.co_lines()` names in its compiled source.  Exempt are the
body of `entry_point` and of the `if __name__ == "__main__":` guard, which run
only as a console script, in a fresh process.  A `_require(...)` call site
fires when the `_require` frame it opened raises ValueError.
"""

import ast
import importlib.util
import os
import sys

import pytest

_ROOT = os.path.realpath(importlib.util.find_spec("beamfade").submodule_search_locations[0])
_ran = set()     # (file, line) executed
_fired = set()   # (file, line) of a `_require` call that raised
_mine = {}       # co_filename -> its real path if under _ROOT, else None
_faults = pytest.StashKey[list]()


def _local(frame, event, arg):
    if event == "line":
        _ran.add((_mine[frame.f_code.co_filename], frame.f_lineno))
    elif event == "exception" and frame.f_code.co_name == "_require" and arg[0] is ValueError:
        caller = frame.f_back
        _fired.add((_mine.get(caller.f_code.co_filename), caller.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _mine:
        path = os.path.realpath(name)
        _mine[name] = path if path.startswith(_ROOT + os.sep) else None
    return _local if _mine[name] else None


def _lines(code):
    yield from (line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _lines(const)


def _audit():
    """(file, line, what) of each line that never ran and each check that never fired."""
    for name in sorted(os.listdir(_ROOT)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(_ROOT, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        exempt, checks = set(), set()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.FunctionDef) and node.name == "entry_point"
                    or isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"):
                exempt.update(range(node.body[0].lineno, node.end_lineno + 1))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require":
                checks.add(node.lineno)
        for line in sorted(set(_lines(compile(source, path, "exec"))) - exempt):
            if (path, line) not in _ran:
                yield name, line, "never runs"
        for line in sorted(checks):
            if (path, line) not in _fired:
                yield name, line, "_require never raises"


def pytest_configure():
    sys.settrace(_global)


def pytest_sessionfinish(session):
    replaced = sys.gettrace() is not _global
    sys.settrace(None)
    faults = [f"{name}:{line}: {what}" for name, line, what in _audit()]
    if replaced:
        faults.append("the line trace was replaced during the run")
    session.config.stash[_faults] = faults
    if faults and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    faults = config.stash.get(_faults, [])
    terminalreporter.section("tracecheck", red=bool(faults), green=not faults)
    for fault in faults:
        terminalreporter.line(fault)
    if not faults:
        terminalreporter.line("every line ran and every _require check fired")

