from code_lines import code_lines, main

_SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class Shape:
    """Class docstring."""

    size = 2


def f(x):
    """Function docstring,
    over two lines.
    """
    # an indented comment
    text = """a string
    that is no docstring"""
    return (x +
            len(text))
'''


def test_only_lines_that_hold_code_count(tmp_path, capsys):
    # import, class, size, def, the two lines of the string, the two of the
    # return; no blank, comment or docstring line
    assert code_lines(_SOURCE) == 8
    assert code_lines("") == 0
    path = tmp_path / "sample.py"
    path.write_text(_SOURCE)
    main([str(path), str(path)])
    assert capsys.readouterr().out.split() == ["sample", "8", "sample", "8", "total", "16"]
