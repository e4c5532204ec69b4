"""README drift: its Python examples run, and its `simrt` commands exit 0."""

import pathlib
import re
import shlex

from simrt.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
FENCES = re.findall(r"^```(\w*)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def simrt_commands() -> list:
    """argv of every `simrt` line of the sh blocks, joined across `\\` continuations."""
    commands = []
    for lang, body in FENCES:
        if lang == "sh":
            for line in body.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["simrt"]:
                    commands.append(argv[1:])
    return commands


def test_python_blocks_run():
    blocks = [body for lang, body in FENCES if lang == "python"]
    assert blocks
    for body in blocks:
        exec(compile(body, "README.md", "exec"), {})


def test_sh_commands_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # gen writes the files that later commands read
    monkeypatch.delenv("SIMRT_PROFILE_DIR", raising=False)
    commands = simrt_commands()
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv
