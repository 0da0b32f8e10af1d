import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

# A comment line.
import os  # a trailing comment


class Record:
    """A class docstring."""

    def size(self):
        """A function docstring
        over two lines.
        """

        total = (1,
                 2)
        "a string that is not a docstring"
        return total
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, class, def, the two lines of the tuple, the bare string, return.
    assert code_lines.code_lines(FIXTURE) == 7


def test_package_total_is_the_sum_of_the_module_rows(capsys):
    code_lines.main()
    lines = capsys.readouterr().out.splitlines()
    rows = [re.fullmatch(r"(\S+)\s+([\d,]+)\s+([\d,]+)", line).groups() for line in lines[1:]]
    counts = {name: (int(a.replace(",", "")), int(b.replace(",", ""))) for name, a, b in rows}
    total = counts.pop("total")
    modules = sorted(path.name for path in code_lines.PACKAGE.glob("*.py"))
    assert sorted(counts) == modules and "sweep.py" in modules
    assert total == tuple(map(sum, zip(*counts.values())))
    for name, (length, code) in counts.items():
        source = (code_lines.PACKAGE / name).read_text()
        assert (length, code) == (len(source.splitlines()), code_lines.code_lines(source))
        assert 0 < code < length
