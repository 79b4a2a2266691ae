"""The CLI contract as data: each :class:`Case` is one command and what it must give.

``check(case, ran)`` asserts a case against the :class:`Ran` that the ``cli``
fixture (``conftest.py``) returned.  ``CASES`` are the commands that no named
test in ``test_cli.py`` runs; the named tests check their own commands with
:func:`run` and add assertions of their own.
"""

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import NamedTuple

from spinorbit import __version__

FIG2 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benches", "fig2.bench")
ERROR, WARNING = "spinorbit: error: ", "spinorbit: warning: "
CONSOLE = shutil.which("spinorbit")
NO_CONSOLE = "no spinorbit script on PATH: the CLI cases ran through cli.main only"
# The script runs in another directory, so relative entries are resolved here.
_PYTHONPATH = os.pathsep.join(os.path.abspath(entry) for entry in
                              os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry)


def console_env(env: dict) -> dict:
    """The environment for the installed script: this one, plus ``env``."""
    return {**os.environ, **env, **({"PYTHONPATH": _PYTHONPATH} if _PYTHONPATH else {})}


class Ran(NamedTuple):
    code: int
    out: str
    err: str
    files: dict  # each entry of the working directory: its bytes, None for a directory


@dataclass(frozen=True)
class Case:
    """``argv`` runs with the input ``files`` and with ``env`` added to the
    environment, and must exit with ``code``.  ``out`` holds whole lines stdout
    must contain.  ``err`` is stderr's exact text, ``err_lines`` its line count
    and ``err_prefix`` the start of one of its lines.  Each ``json`` check is
    (file, dotted key, op, value): file "" reads stdout, op is "==", ">" or
    "absent"."""

    id: str
    argv: tuple
    code: int = 0
    files: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    out: tuple = ()
    err: str | None = None
    err_lines: int | None = None
    err_prefix: str | None = None
    json: tuple = ()


def check(case: Case, ran) -> None:
    """Assert ``case`` on a run, and always that stderr holds no traceback and
    that a failed command left nothing but its input files."""
    assert ran.code == case.code, ran
    assert "Traceback" not in ran.err, ran.err
    lines, err = ran.out.splitlines(), ran.err.splitlines()
    for line in case.out:
        assert line in lines, (line, ran.out)
    if case.err is not None:
        assert ran.err == case.err
    if case.err_lines is not None:
        assert len(err) == case.err_lines, ran.err
    if case.err_prefix is not None:
        assert any(line.startswith(case.err_prefix) for line in err), ran.err
    if case.code:
        assert set(ran.files) == {name.rstrip("/") for name in case.files}, ran.files
    for name, key, op, value in case.json:
        *path, last = key.split(".")
        doc = json.loads(ran.files[name] if name else ran.out)
        for part in path:
            doc = doc[part]
        if op == "absent":
            assert last not in doc, (key, doc)
        elif op == ">":
            assert doc[last] > value, (key, doc[last])
        else:
            assert doc[last] == value, (key, doc[last])


def run(cli, case: Case):
    """Run ``case`` through the ``cli`` fixture and check it; returns what it ran."""
    ran = cli(case.argv, case.files, case.env)
    check(case, ran)
    return ran


def bench(name: str, text, *options, **expected) -> Case:
    """``spinorbit run <name>.bench [options]``, the bench file written first."""
    return Case(name, ("run", f"{name}.bench", *options), files={f"{name}.bench": text},
                **expected)


CASES = [
    Case("version", ("--version",), out=(__version__,), err=""),
    Case("sweep-sampled", ("sweep", "--points", "8", "--shots", "100", "--out", "s.csv")),
    Case("run-json-shots", ("run", FIG2, "--shots", "100", "--seed", "1", "--json")),
    Case("chsh-montecarlo", ("chsh", "--mode", "montecarlo", "--shots", "10000", "--seed", "7"),
         out=("S = 2.8228", "standard error = 0.014170109667888953")),
    Case("nchv", ("nchv",), out=("gap                           = 0.82842712474619118",)),
    bench("bad", "source spdc\nhwp theta=0 side=both\n", code=2, err_prefix="line 2: "),
    bench("variant", "source spdc\nfilter xx\n", code=2, err_lines=1,
          err_prefix="line 2, column 8: "),
    bench("kind", "source kind=spdc\n", code=2, err_lines=1, err_prefix="line 1, column 8: "),
    bench("huge", "source spdc\nqplate q=1e308\nherald\n", code=1, err_prefix=ERROR),
    bench("alice", "source spdc\nqwp theta=0.3 side=alice\nhwp theta=1.1 side=alice\n"
          "filter smf side=bob\nqplate q=1 side=bob\nherald basis=V side=alice\n",
          out=("analyzer OAM magnitude m = 2",), err=""),
    bench("repeated", "source spdc\nhwp theta=x\nhwp theta=x\n", code=2,
          err_prefix="line 2, column 11: "),
    bench("open", "source spdc\n", code=2, err_lines=1,
          err="bench has no herald stage; nothing to analyze\n"),
    # Fixed edge inputs: one error line each, and no output file.
    bench("non-utf8", b"source spdc\n\xff\xfe\n", code=1,
          err=ERROR + "non-utf8.bench: line 2 is not UTF-8 (byte 0xff)\n"),
    Case("run-directory", ("run", "d"), files={"d/": None}, code=1, err_lines=1,
         err_prefix=ERROR),
    Case("sweep-out-directory", ("sweep", "--out", "d"), files={"d/": None}, code=1,
         err_lines=1, err_prefix=ERROR),
    Case("chsh-nan", ("chsh", "--chi-a", "nan"), code=1, err_lines=1, err_prefix=ERROR),
]
assert len({case.id for case in CASES}) == len(CASES), "case ids must be unique"
