"""The README's library tour runs as written, and its route matrices match
the route table."""

import doctest
import re
from pathlib import Path

from fibcubes import cli, verify

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lineno = text[:text.index(block)].count("\n")
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md library tour",
                                               str(README), lineno)
    assert len(test.examples) >= 10
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)


def _matrix(header: str) -> tuple[list[str], list[list[str]]]:
    # The README table whose first line starts with ``header``: its column
    # names and its body rows, one list of stripped cells per line.
    lines = [line.strip() for line in README.read_text(encoding="utf-8").splitlines()]
    start = lines.index(next(line for line in lines if line.startswith(header)))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    head, _, *body = rows
    return head, body


def test_readme_count_matrix_matches_the_route_table():
    head, body = _matrix("| quantity")
    routes = verify._routes()
    assert head[1:] == list(dict.fromkeys(method for _, method in routes))
    assert [row[0].strip("`") for row in body] == list(dict.fromkeys(q for q, _ in routes))
    for quantity, *cells in body:
        for method, cell in zip(head[1:], cells):
            scalar = routes.get((quantity.strip("`"), method), {}).get("scalar")
            if scalar is None:
                assert cell == "—", (quantity, method, cell)
            elif scalar.__name__ == "<lambda>":  # an oracle route: names its enumeration
                assert re.fullmatch(r"`\w+`", cell), (quantity, method, cell)
            else:
                assert cell == f"`{scalar.__name__}`", (quantity, method, cell)


def test_readme_table_kinds_name_their_entries():
    _, body = _matrix("| kind")
    routes = verify._routes()
    assert {row[0].strip("`") for row in body} == set(cli._TABLE_ROUTES)
    for kind, entry, row, _ in body:
        key = tuple(re.findall(r"`([\w-]+)`", entry))
        assert cli._TABLE_ROUTES[kind.strip("`")] == key, (kind, entry)
        assert row == f"`{routes[key]['row'].__name__}`", (kind, row)
