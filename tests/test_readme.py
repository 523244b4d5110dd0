"""The README's library tour runs as written."""

import doctest
from pathlib import Path

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
