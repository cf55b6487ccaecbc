"""The README's examples: the library quickstart runs as printed, the CLI
examples parse, and the documented pipeline configuration is the default one."""

import json
import re
import shlex
from pathlib import Path

from certaintrust import PipelineConfig, config_from_dict
from certaintrust.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(language: str) -> list[str]:
    """The bodies of the README's fenced code blocks in ``language``."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_python_quickstart_runs(capsys):
    (code,) = blocks("python")
    exec(compile(code, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_cli_examples_parse():
    text = "".join(blocks("bash")).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()
                if line.startswith("certaintrust ")]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv[1:]).func), argv


def test_json_config_is_the_default():
    (document,) = blocks("json")
    assert config_from_dict(json.loads(document)) == PipelineConfig()
