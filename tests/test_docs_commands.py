"""Docs-sync gate for command lines: every documented CLI example parses.

README.md, EXPERIMENTS.md and DESIGN.md show the CLI in fenced code blocks.
Each ``python -m repro ...`` line there goes through the real
:func:`repro.cli.build_parser`, so a flag that is renamed or deleted cannot
linger in an example.
"""

import shlex
from pathlib import Path
from typing import List, Tuple

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")
COMMAND = "python -m repro"


def documented_commands(path: Path) -> List[Tuple[int, List[str]]]:
    """``(line number, argv)`` of every fenced ``python -m repro`` line in ``path``.

    Backslash continuations are joined, and ``#`` comments and a trailing
    ``&`` are dropped.  ``argv`` is what follows ``python -m repro``.
    """
    commands: List[Tuple[int, List[str]]] = []
    inside = False
    pending, first = "", 0
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.lstrip().startswith("```"):
            inside, pending = not inside, ""
            continue
        if not inside:
            continue
        if not pending:
            first = number
        line = pending + line
        if line.rstrip().endswith("\\"):
            pending = line.rstrip()[:-1] + " "
            continue
        pending = ""
        if COMMAND not in line:
            continue
        words = shlex.split(line[line.index(COMMAND) + len(COMMAND) :], comments=True)
        if words[-1:] == ["&"]:
            words.pop()
        commands.append((first, words))
    return commands


def test_continuations_comments_and_background_marks_are_handled(tmp_path):
    document = tmp_path / "doc.md"
    document.write_text(
        "python -m repro prose is not a command\n"
        "```bash\n"
        "python -m repro figures fig6 \\\n"
        "    --quick   # smoke\n"
        "PYTHONPATH=src python -m repro serve --port 0 &   # background\n"
        "echo done\n"
        "```\n"
    )
    assert documented_commands(document) == [
        (3, ["figures", "fig6", "--quick"]),
        (5, ["serve", "--port", "0"]),
    ]


def test_every_documented_command_line_parses():
    parser = build_parser()
    checked = 0
    failures = []
    for name in DOCUMENTS:
        for number, argv in documented_commands(ROOT / name):
            checked += 1
            try:
                parser.parse_args(argv)
            except SystemExit as error:
                if error.code:
                    failures.append(f"{name}:{number}: {COMMAND} {' '.join(argv)}")
    assert checked, "no fenced `python -m repro` line found in the documents"
    assert not failures, "command lines that no longer parse:\n" + "\n".join(failures)
