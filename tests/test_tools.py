"""Tests for tools/unreached_lines.py on a synthetic module, with a
hand-made set of executed lines, and for tools/cli_digests.py's command
list, parsed only, so that no digest command runs."""

import shlex
import sys
import textwrap
from pathlib import Path

from hardyz.cli import build_parser

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from cli_digests import COMMANDS  # noqa: E402
from unreached_lines import unreached_ranges  # noqa: E402

MODULE = textwrap.dedent('''\
    """Module docstring."""


    def reached(x):
        """A docstring inside a reached function."""
        if x > 0:
            return 1
        y = -x
        if y > 5:
            y += 1
            return y
        return 0


    def unreached():
        """A docstring inside a function that never ran."""
        return 2
    ''')


def _ranges(tmp_path, ran):
    path = tmp_path / "synthetic.py"
    path.write_text(MODULE)
    return unreached_ranges(path, ran)


def test_an_unreached_branch_of_a_reached_function_is_one_range(tmp_path):
    # import ran both def lines; reached(0) ran lines 6, 8, 9 and 12
    assert _ranges(tmp_path, {4, 6, 8, 9, 12, 15}) == [(7, 7), (10, 11), (17, 17)]


def test_docstrings_never_count(tmp_path):
    # nothing ran: one range, from the first statement after the module
    # docstring; the unreached function's own range starts after its
    # docstring (the first test), and every line but the docstrings
    # running leaves nothing unreached
    assert _ranges(tmp_path, set()) == [(4, 17)]
    assert _ranges(tmp_path, {4, 6, 7, 8, 9, 10, 11, 12, 15, 17}) == []


def test_every_digest_command_parses():
    # a mistyped command would digest the same usage error on both trees
    parser = build_parser()
    for command in COMMANDS:
        args = parser.parse_args(shlex.split(command))
        assert args.format in args.formats, command
    assert len(set(COMMANDS)) == len(COMMANDS)
