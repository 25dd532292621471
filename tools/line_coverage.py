"""List the ``src/`` lines that the tier-1 suite never runs.

Runs the tier-1 suite (``tests/``) in this process under a ``sys.settrace``
line tracer that follows only frames of code under ``src/``, then compares
the lines that ran with each module's executable lines: every line that the
line table of a code object compiled from the module names.  An unrun line
fails the check unless ``ALLOWED`` names it, with the reason it cannot run
in-process; an ``ALLOWED`` entry that now runs, or names no line, fails it
too, so the list stays exact.  ``MUST_RUN`` names lines that must show as
run, however the allowlist changes.

Usage, from the repository root (a minute or two; not part of tier-1, and
pytest does not collect it):

    python tools/line_coverage.py [extra pytest arguments]

Exit status: the suite's own status if it fails, else 1 if the check
fails, else 0.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# (path under src/, stripped source line): why tier-1 never runs it in-process
ALLOWED = {
    ("mtjsnn/cli.py", "sys.exit(main())"):
        "runs only when the module is the program (python -m mtjsnn.cli); the "
        "console-script step of CI runs the same main()",
    # the child's try line holds a no-op of its own in the line table
    ("mtjsnn/network.py", "try:   # the child leaves only through os._exit, whatever is raised"):
        "runs only in the forked child",
    ("mtjsnn/network.py", "os.write(w, _write_tails(tables, tails, starts[half:]))"):
        "runs only in the forked child",
    ("mtjsnn/network.py", "os._exit(0)"): "runs only in the forked child",
    ("mtjsnn/network.py", "os._exit(1)"): "runs only in the forked child",
}

# (path under src/, stripped source line) that tier-1 must run: the two
# branches of the macrospin integrator, a full trace's recording and a
# latency probe's crossing window; in the threshold search, the v_hi probe
# that runs only when no bisection probe switched, and the stop at a
# bracket whose ends are adjacent floats; and the CSV writer's fork
MUST_RUN = (
    ("mtjsnn/macrospin.py", "put_v(v)"),
    ("mtjsnn/macrospin.py", "c_prev, last = c, (v, i_dev, x, y, z)"),
    ("mtjsnn/macrospin.py", "window = np.array([last, (v, i_dev, x, y, z)])"),
    ("mtjsnn/macrospin.py", "if measure_latency(params, v_hi, dt, horizon) is None:"),
    ("mtjsnn/macrospin.py",
     "break   # v_lo and v_hi are adjacent floats (or their sum overflowed)"),
    ("mtjsnn/network.py", "pid = os.fork()"),
)


def executable_lines(path: str) -> set[int]:
    """Every line named by the line table of a code object in ``path``."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer; its exit status and the
    lines that ran, by file."""
    ran = defaultdict(set)
    prefix = SRC + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def check(ran: dict[str, set[int]]) -> list[str]:
    """The check's failures, one line each; prints every unrun line."""
    failures, unrun_keys, texts = [], set(), set()
    for dirpath, _, names in os.walk(SRC):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, SRC).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                source = f.read().splitlines()
            texts.update((rel, line.strip()) for line in source)
            for line in sorted(executable_lines(path) - ran.get(path, set())):
                key = (rel, source[line - 1].strip())
                unrun_keys.add(key)
                reason = ALLOWED.get(key)
                print(f"src/{rel}:{line}: {key[1]}  [{reason or 'NOT ALLOWED'}]")
                if reason is None:
                    failures.append(f"src/{rel}:{line} never runs")
    for key in ALLOWED:
        if key not in unrun_keys:
            state = "now runs" if key in texts else "names no line"
            failures.append(f"allowed line {key[0]}: {key[1]!r} {state}")
    for key in MUST_RUN:
        if key not in texts:
            failures.append(f"must-run line {key[0]}: {key[1]!r} names no line")
        elif key in unrun_keys:
            failures.append(f"must-run line {key[0]}: {key[1]!r} never runs")
    return failures


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    status, ran = run_traced(["-q", "-p", "no:cacheprovider", *argv])
    if status != 0:
        print(f"the tier-1 suite failed (pytest exit {status}); no coverage check")
        return status
    failures = check(ran)
    for failure in failures:
        print("FAIL:", failure)
    print(f"{sum(map(len, ran.values()))} src lines ran; {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
