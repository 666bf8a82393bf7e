"""Byte-for-byte pins on what users see: the `cube-lab verify` report at the
default seed and the stdout of every README "CLI examples" command.

The expected text lives in tests/golden/.  A refactor that changes either
output shows up here as a diff against those files.
"""

import hashlib
import io
import json
import shlex
from pathlib import Path

from cube_lab.cli import main
from cube_lab.verify import run_suite

GOLDEN = Path(__file__).parent / "golden"

# sha256 of the stdout of `cube-lab verify` (seed 2024, 47 checks)
VERIFY_SHA256 = "2ab94c892a791cef226b088e2b7eaa590c61378f8a2dd5b7a732a95142367435"

GHZ_JSON = '{"a":"1","b":["0","0","0"],"c":"1","d":["0","0","0"]}'

# the README's `python3 -c` stage between compose-cube and verify-cube
CUBE_FILTER = ("python3 -c 'import json,sys; "
               "print(json.dumps(json.load(sys.stdin)[\"cube\"]))'")

# every README "CLI examples" command, in README order; a tuple of stages is a
# shell pipeline, each stage reading the previous stage's stdout
README_EXAMPLES = (
    (["cube", "det", "--cube", GHZ_JSON],),
    (["cube", "trace", "--cube", GHZ_JSON],),
    (["cube", "kostant", "--s", "4"], ["cube", "forms", "--pretty"]),
    (["cube", "kostant", "--s", "0"], ["cube", "classify"]),
    (["cube", "act", "--cube", GHZ_JSON,
      "--g1", "0,1;-1,0", "--g2", "1,0;0,1", "--g3", "1,0;0,1"],),
    (["forms", "reduce", "--form", "6,-1,1"],),
    (["forms", "equivalent", "--q1", "2,1,3", "--q2", "2,-1,3"],),
    (["forms", "compose", "--q1", "2,1,3", "--q2", "2,1,3"],),
    (["forms", "classgroup", "-D", "-23"],),
    (["compose-cube", "--q1", "2,1,3", "--q2", "2,1,3", "-D", "-23"],),
    (["compose-cube", "--q1", "2,1,3", "--q2", "2,1,3", "-D", "-23"],
     CUBE_FILTER, ["verify-cube"]),
    (["variants", "cubic-disc", "--cubic", "-1/4,0,1,0"],),
    (["variants", "resolvent", "--cubic", "-1/4,0,1,0"],),
    (["variants", "quartic-ij", "--quartic", "0,1,0,3/4,5"],),
    (["variants", "pair-disc", "--pair", "3,0,1,0,1,0"],),
    (["variants", "gram-n", "--n", "8", "--v1", "5,1,0,0,0,0,0,0",
      "--v2", "0,0,1,1,1,1,1,1"],),
    (["variants", "inv233", "--m", "1,0,0;0,1,0;0,0,1", "--n", "0,0,0;0,1,0;0,0,2"],),
    (["variants", "spherical-check", "--type", "A", "--rank", "1", "--j", "3"],),
    (["variants", "components-check"],),
)


def _run_pipeline(stages, capsys, monkeypatch) -> str:
    """Transcript of one pipeline: the command line, the last stage's stdout
    and the last stage's exit code."""
    text, code, shown = "", 0, []
    for stage in stages:
        if stage == CUBE_FILTER:
            text = json.dumps(json.loads(text)["cube"]) + "\n"
            shown.append(stage)
            continue
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(stage)
        text = capsys.readouterr().out
        shown.append("cube-lab " + shlex.join(stage))
    return f"$ {' | '.join(shown)}\n{text}[exit {code}]\n"


def test_verify_default_seed_is_pinned():
    report = run_suite()
    text = "\n".join(report.lines()) + "\n"
    assert report.ok and len(report.results) == 47
    assert text == (GOLDEN / "verify_seed2024.txt").read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_SHA256


def test_readme_cli_examples_are_pinned(capsys, monkeypatch):
    got = "".join(_run_pipeline(stages, capsys, monkeypatch) for stages in README_EXAMPLES)
    assert got == (GOLDEN / "readme_cli.txt").read_text()
