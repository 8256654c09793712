"""``tools/code_lines.py``: which lines of a module count as code."""

import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def _count(source: str) -> int:
    return code_lines.code_lines(textwrap.dedent(source))


def test_docstrings_comments_and_blank_lines_do_not_count():
    assert _count('''\
        """A module docstring
        on two lines."""

        # a comment


        class Thing:
            """A class docstring."""

            def method(self):
                """A method
                docstring."""
                # a comment inside

                return 1  # a trailing comment


        def function():
            """One line."""
            return 2


        async def waiting():
            """An async function's docstring."""
            return 3
        ''') == 7  # class, def, return, def, return, async def, return


def test_each_line_of_a_statement_on_three_lines_counts():
    assert _count('''\
        total = (1 +
                 2 +
                 3)
        ''') == 3


def test_a_string_that_is_no_docstring_counts():
    assert _count('''\
        """The docstring."""
        TEXT = """first
        second"""


        def function():
            value = 1
            """Not the first statement, so not a docstring."""
            return value
        ''') == 6


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    second.write_text("y = [\n    2,\n]\n", encoding="utf-8")
    code_lines.main([str(first), str(second)])
    assert capsys.readouterr().out.splitlines() == [
        "     1  a.py", "     3  b.py", "     4  total"]
