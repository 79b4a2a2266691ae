"""The ``cli`` fixture: ``cli(argv, files={name: text}, env={...})`` writes the
input files (a name ending in "/" makes a directory) into the test's fresh
temporary directory (one per test), runs one spinorbit command there and
returns a ``Ran``.
It runs through ``cli.main``, and again through the installed ``spinorbit``
script when one is on PATH; nothing else picks the backend."""

import subprocess

import pytest
from cli_cases import CONSOLE, Ran, console_env

from spinorbit.cli import main


def pytest_generate_tests(metafunc):
    # Without a script nothing is parametrized, so each test keeps its plain id.
    if CONSOLE and "cli" in metafunc.fixturenames:
        metafunc.parametrize("cli", ["main", "console"], indirect=True)


@pytest.fixture
def cli(request, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    console = getattr(request, "param", "main") == "console"

    def run(argv, files={}, env={}) -> Ran:
        for name, text in files.items():
            path = tmp_path / name
            if name.endswith("/"):
                path.mkdir()
            else:
                (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        if console:
            proc = subprocess.run([CONSOLE, *argv], capture_output=True, text=True,
                                  env=console_env(env), timeout=60)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            capsys.readouterr()
            with monkeypatch.context() as patch:
                for name, value in env.items():
                    patch.setenv(name, value)
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse: usage errors exit 1, --version 0
                    code = exc.code
            out, err = capsys.readouterr()
        left = {path.name: None if path.is_dir() else path.read_bytes()
                for path in sorted(tmp_path.iterdir())}
        return Ran(code, out, err, left)

    return run
