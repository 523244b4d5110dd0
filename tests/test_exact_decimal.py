"""Sequence-backed output made in exact Decimal arithmetic.

``seq`` and the h-by-n tables run their sequences from ``Decimal(1)`` when
the largest value is predicted to be long, because a Decimal prints in time
linear in its digits.  Every value, and every printed token, must be the
one the int route gives.
"""

import decimal
import io
import os
import re
import subprocess
import sys
from contextlib import nullcontext, redirect_stdout
from decimal import Decimal

import pytest

from fibcubes import cli, counting
from fibcubes.counting import (
    EXTENDED_FIBONACCI,
    EXTENDED_LUCAS,
    FIBONACCI,
    LUCAS,
    HSequence,
    cycle_count_row,
    cycle_edges,
    cycle_edges_row,
    path_count_row,
    path_edges,
    path_edges_row,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

KINDS = [FIBONACCI, LUCAS, EXTENDED_FIBONACCI, EXTENDED_LUCAS,
         counting._PATH_TOTALS, counting._CYCLE_TOTALS]
ROWS = [path_count_row, cycle_count_row, path_edges_row, cycle_edges_row]
# A printed integer: no exponent, no "-0", no leading zeros, no point.
INTEGER = re.compile(r"0|-?[1-9][0-9]*")


def exact():
    """The CLI's Decimal unit and its exact context."""
    unit, context = cli._exact_numbers(0, 10 ** 6)
    assert type(unit) is Decimal
    return unit, context


def same_tokens(decimals, ints):
    tokens = list(map(str, decimals))
    assert tokens == list(map(str, ints))
    assert all(INTEGER.fullmatch(t) for t in tokens), tokens


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), h=st.integers(0, 12), n=st.integers(-14, 400))
def test_decimal_sequences_equal_int_sequences(kind, h, n):
    if kind in (EXTENDED_FIBONACCI, EXTENDED_LUCAS):
        h = max(h, 2)  # the extended kinds start at -h, so n reaches zeros and, for L-ext, -h
    unit, context = exact()
    ints = HSequence(kind, h)
    with context:
        decimals = HSequence(kind, h, unit)
        same_tokens(decimals.prefix(n), ints.prefix(n))
        if n >= ints.min_index:
            assert decimals.term(n) == ints.term(n)
            assert type(decimals.term(n)) is Decimal
        beta = decimals.numerator(n + 20)
    assert beta == ints.numerator(n + 20)
    assert all(type(c) is int for _, c in beta)  # small coefficients stay cheap to apply


@settings(max_examples=80, deadline=None)
@given(row=st.sampled_from(ROWS), h=st.integers(0, 12), n_max=st.integers(-1, 400))
def test_decimal_rows_equal_int_rows(row, h, n_max):
    unit, context = exact()
    with context:
        same_tokens(row(n_max, h, unit), row(n_max, h))


def _jump_units(monkeypatch):
    """The unit of every power of x that a jump makes, as it is made."""
    units, real = [], counting._x_power
    monkeypatch.setattr(counting, "_x_power",
                        lambda m, taps, unit: units.append(unit) or real(m, taps, unit))
    return units


def _refuse(*args):
    raise AssertionError("this route must not run")


@pytest.mark.parametrize("kind", KINDS)
def test_decimal_term_past_the_crossover_jumps(kind, monkeypatch):
    # As an int sequence does, a Decimal one jumps this far past its seeds,
    # with its powers of x in Decimal, and keeps its type.
    h, steps = 3, 2000
    ints = HSequence(kind, h)
    n = ints._last + steps
    assert counting._jump_pays(h, steps)
    expected = ints._iterate(n)
    units = _jump_units(monkeypatch)
    monkeypatch.setattr(HSequence, "__iter__", _refuse)
    unit, context = exact()
    with context:
        value = HSequence(kind, h, unit).term(n)
    assert [type(u) for u in units] == [Decimal]
    assert type(value) is Decimal
    same_tokens([value], [expected])


@pytest.mark.parametrize("h", [1, 3])
@pytest.mark.parametrize("second", [FIBONACCI, LUCAS])
def test_decimal_convolution_past_the_crossover_jumps(second, h, monkeypatch):
    # F * F and F * L past _conv_jump_pays take the jump under P^2 in
    # Decimal, streaming only its 2d-1 seeds; the ints are the closed forms.
    n = 5000
    assert counting._conv_jump_pays(h, n - 1)
    expected = path_edges(n, h) if second == FIBONACCI else cycle_edges(n + h, h)
    units = _jump_units(monkeypatch)
    streamed, driven = [], counting._driven
    monkeypatch.setattr(counting, "_driven", lambda a, n: streamed.append(n) or driven(a, n))
    unit, context = exact()
    with context:
        value = counting.convolve(HSequence(FIBONACCI, h, unit), HSequence(second, h, unit), n)
    assert [type(u) for u in units] == [Decimal]
    assert streamed == [4 * h + 3], streamed  # 2d - 1 = 4h + 3
    assert type(value) is Decimal
    same_tokens([value], [expected])


def _contexts_that_round():
    """The default context, and exact ones that leave Inexact or Rounded
    untrapped."""
    _, context = exact()
    for signal in (decimal.Inexact, decimal.Rounded):
        with context:
            partial = decimal.getcontext().copy()
        partial.traps[signal] = False
        yield decimal.localcontext(partial)
    yield nullcontext()


@pytest.mark.parametrize("make", [
    lambda unit: HSequence(FIBONACCI, 1, unit).term(1000),  # past the crossover: the jump
    lambda unit: HSequence(LUCAS, 3, unit).term(2),  # a seed
    lambda unit: HSequence(FIBONACCI, 2, unit).prefix(10),
    lambda unit: next(iter(HSequence(EXTENDED_LUCAS, 2, unit))),
    lambda unit: counting.convolve(HSequence(FIBONACCI, 1, unit), HSequence(LUCAS, 1, unit), 5000),
    lambda unit: path_edges_row(20, 1, unit),
    lambda unit: cycle_count_row(20, 2, unit),
], ids=["jump", "seed", "prefix", "iteration", "convolution-jump", "edge-row", "count-row"])
def test_decimal_terms_refuse_a_context_that_rounds(make):
    # Under the default context, F(1000) would round to 28 digits,
    # 4.346655768693745643568852769E+208, with no error.
    unit, context = exact()
    for rounding in _contexts_that_round():
        with rounding, pytest.raises(ValueError, match="^Decimal terms need a context that "
                                                       "traps Inexact and Rounded$"):
            make(unit)
    with context:
        make(unit)
    assert make(1) is not None  # int terms need no context


def test_negative_zero_is_why_tokens_are_checked():
    # Any product of a Decimal zero with a negative number prints "-0"; the
    # extended Lucas seeds hold both a zero and -h.
    unit, context = exact()
    with context:
        assert str(Decimal(0) * -3) == "-0"
        ext = HSequence(EXTENDED_LUCAS, 3, unit).prefix(5)
    same_tokens(ext, [4, -3, 0, 0, 4, 1, 1, 1, 5])


@pytest.mark.parametrize("rounding,signal", [
    (lambda unit: Decimal("1.5").to_integral_exact(), decimal.Inexact),
    (lambda unit: Decimal("1.0").quantize(unit), decimal.Rounded),
    (lambda unit: unit // 0, decimal.DivisionByZero),
    (lambda unit: Decimal("NaN") < unit, decimal.InvalidOperation),
], ids=["inexact", "rounded", "division-by-zero", "invalid"])
def test_the_context_raises_on_any_rounding(rounding, signal):
    unit, context = exact()
    with context, pytest.raises(signal):
        rounding(unit)


def test_a_rounding_while_the_output_is_written_raises(monkeypatch):
    # The seeds are made lazily, as _emit drains the chunks, so the context
    # must still be active then; it is gone once the command returns.
    before = decimal.getcontext()
    monkeypatch.setattr(counting, "_fib_base",
                        lambda h, n: Decimal(n).scaleb(-1).to_integral_exact())
    with redirect_stdout(io.StringIO()), pytest.raises(decimal.Inexact):
        cli.main(["seq", "F", "--h", "1", "--n-max", "5000"])
    assert decimal.getcontext() is before


def test_digit_prediction_tracks_the_sequences():
    for h in range(11):
        n = 3000
        digits = len(str(HSequence(FIBONACCI, h).term(n)))
        assert abs(digits - n * cli._digits_per_index(h)) < 3, h


def test_the_switch_takes_any_int(capsys):
    # Sizes are compared with floats, never converted to them.
    huge = 10 ** 400
    assert type(cli._exact_numbers(huge, 5)[0]) is int
    assert type(cli._exact_numbers(1, huge)[0]) is Decimal
    assert type(cli._exact_numbers(-1, 10)[0]) is int
    assert cli.main(["seq", "F", "--h", str(huge), "--n-max", "3"]) == 0
    assert capsys.readouterr() == ("1\t1\n2\t1\n3\t1\n", "")
    assert cli.main(["seq", "F", "--h", "1", "--n-max", str(huge)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _switch(h):
    """The last n_max on int and the first on Decimal, for gap h."""
    bound = cli._DECIMAL_DIGITS / cli._digits_per_index(h)
    first = next(n for n in range(10 ** 6) if n >= bound)
    below, above = cli._exact_numbers(h, first - 1), cli._exact_numbers(h, first)
    assert type(below[0]) is int and type(above[0]) is Decimal
    return first - 1, first


def _out(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


SWITCH_ARGVS = (
    [(["table", which, "--h", "0:3", "--format", fmt], 0)
     for which in "pcFLHM" for fmt in ("tsv", "csv", "json")]
    + [(["seq", kind, "--h", "3", "--format", fmt], 3)
       for kind in ("F", "L", "F-ext", "L-ext") for fmt in ("tsv", "json")])


@pytest.mark.parametrize("argv,h", SWITCH_ARGVS, ids=[" ".join(a) for a, _ in SWITCH_ARGVS])
def test_output_is_the_same_on_both_sides_of_the_switch(argv, h, monkeypatch):
    for n_max in _switch(h):
        full = argv + ["--n-max", str(n_max)]
        printed = _out(full)
        with monkeypatch.context() as m:
            m.setattr(cli, "_DECIMAL_DIGITS", float("inf"))  # int throughout
            same = printed == _out(full)  # not diffed: the texts run to megabytes
        assert same, f"output differs at --n-max {n_max}"


def test_count_and_small_tables_leave_decimal_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = """if True:
        import io, sys
        from contextlib import nullcontext, redirect_stdout
        from fibcubes import cli
        def run(*argv):
            with redirect_stdout(io.StringIO()):
                assert cli.main(list(argv)) == 0
            return "decimal" in sys.modules
        print(run("count", "path", "20000", "1"),
              run("count", "path-edges", "3000", "2", "--route", "conv"),
              run("table", "pk", "--h", "1", "--n-max", "400", "--format", "json"),
              run("table", "F", "--h", "0:10", "--n-max", "1000"),
              run("seq", "F", "--h", "1", "--n-max", "2000"),
              run("seq", "F", "--h", "1", "--n-max", "5000"))
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout == "False False False False False True\n"
