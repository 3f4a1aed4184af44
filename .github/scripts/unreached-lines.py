#!/usr/bin/env python3
"""List the executable lines of src/ptdimer that no tier-1 test runs.

Usage: unreached-lines.py [PYTEST_ARGS...] (from any directory)

Installs a line tracer for the frames of files under src/ptdimer before the
package is imported, then runs the tier-1 suite in this process
(``pytest.main`` from the repository root, with src first on sys.path and on
PYTHONPATH). Prints each line that compiles to bytecode (``co_lines``) but
never ran, with its path, number and text, then their count. Code that runs
only in a subprocess, such as the ``__main__`` entry points, is listed. The
exit status is pytest's. Standard library and pytest only.
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "ptdimer"
# the lines run, by the resolved path of each of the package's files; None
# for any other file a frame runs
ran: dict[str, set[int] | None] = {}


def _trace(frame, event, arg):
    """Global tracer: a local tracer for the package's frames only."""
    name = frame.f_code.co_filename
    if name not in ran:
        path = Path(os.path.realpath(name))
        ran[name] = ran.setdefault(str(path), set()) \
            if path.parent == PACKAGE else None
    lines = ran[name]
    if lines is None:
        return None
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local
    return local


def executable_lines(code: types.CodeType):
    """Line numbers of every instruction of ``code`` and its nested code."""
    for _, _, line in code.co_lines():
        if line:  # None or 0: no source line
            yield line
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from executable_lines(const)


def main() -> int:
    # the package from this checkout, here and in the tests' subprocesses
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    os.chdir(ROOT)
    sys.settrace(_trace)
    threading.settrace(_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        lines = set(executable_lines(compile(source, str(path), "exec")))
        for line in sorted(lines - (ran.get(str(path)) or set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            unreached += 1
    print(f"{unreached} executable lines of src/ptdimer not run by the tests")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
