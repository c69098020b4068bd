"""List the lines of ``src/`` that no test executes.

    python tools/linecov.py [PYTEST_ARGS...]

Stdlib only; it is a development aid, not part of the test suite. It
runs pytest in a child process whose PYTHONPATH starts with a temporary
directory holding a ``sitecustomize`` module. Every Python process that
starts with that path, the CLI subprocesses the tests spawn and the
forked ``simulate --jobs`` workers included, records the ``src/`` lines
it runs with ``sys.settrace`` and writes them to that directory as it
exits. A code object stops being traced once all of its lines have run.
Hypothesis runs with ``--hypothesis-seed=0``, ahead of the caller's own
arguments, so two runs on one tree draw the same examples and list the
same lines.

A module's executable lines are those its compiled code objects map
instructions to. The report lists, per module, each of them that no
process ran, then pytest's exit status. Tracing slows the suite down
about fivefold (about 4 minutes on 2 vCPUs), so a test that asserts a
wall-time bound may fail under it; the lines it ran still count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# installed as sitecustomize.py; {src} is the traced source prefix
HOOK = '''\
import atexit, json, os, sys, threading

_SRC = {src!r}
_OUT = os.path.dirname(os.path.abspath(__file__))
_hits = {{}}  # code object -> lines run
_todo = {{}}  # code object -> executable lines not yet run


def _lines(frame, event, arg):
    if event == "line":
        code = frame.f_code
        _hits[code].add(frame.f_lineno)
        todo = _todo[code]
        todo.discard(frame.f_lineno)
        if not todo:
            frame.f_trace = None
            return None
    return _lines


def _calls(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(_SRC):
        return None
    if code not in _hits:
        _hits[code] = set()
        _todo[code] = {{l for _, _, l in code.co_lines() if l is not None}}
    _hits[code].add(frame.f_lineno)
    _todo[code].discard(frame.f_lineno)
    return _lines if _todo[code] else None


def _dump():
    sys.settrace(None)
    out = {{}}
    for code, lines in _hits.items():
        out.setdefault(code.co_filename, set()).update(lines)
    path = os.path.join(_OUT, f"hits-{{os.getpid()}}.json")
    with open(path, "w") as fh:
        json.dump({{f: sorted(ls) for f, ls in out.items()}}, fh)


def _forked():
    # pool workers leave through os._exit, past atexit
    exit_now = os._exit

    def _exit(code):
        _dump()
        exit_now(code)

    os._exit = _exit


atexit.register(_dump)
os.register_at_fork(after_in_child=_forked)
threading.settrace(_calls)
sys.settrace(_calls)
'''


def executable_lines(path: Path) -> set[int]:
    stack = [compile(path.read_text(), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(l for _, _, l in code.co_lines() if l is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="linecov-") as tmp:
        Path(tmp, "sitecustomize.py").write_text(HOOK.format(src=str(SRC)))
        paths = [tmp, str(SRC), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        status = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *argv],
            cwd=ROOT, env=env,
        )
        ran: dict[str, set[int]] = {}
        for hits in Path(tmp).glob("hits-*.json"):
            for name, lines in json.loads(hits.read_text()).items():
                ran.setdefault(name, set()).update(lines)
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        total += len(missed)
        text = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines no test runs")
        for line in missed:
            print(f"  {line:4d}  {text[line - 1].strip()}")
    print(f"{total} lines unrun in all; pytest exit status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
