import pytest

from phasorlisp import (
    Atom,
    IntLiteral,
    ListExpr,
    ParseError,
    parse_one,
    parse_program,
    tokenize,
)


def test_tokenize_splits_parens_and_atoms():
    toks = tokenize("(+ 12 foo)")
    assert [t.text for t in toks] == ["(", "+", "12", "foo", ")"]
    assert [t.position for t in toks] == [0, 1, 3, 6, 9]


def test_tokenize_drops_comments():
    toks = tokenize("(a ; rest of line\n b)")
    assert [t.text for t in toks] == ["(", "a", "b", ")"]


def test_parse_int_literal():
    assert parse_one("42") == IntLiteral(42)
    assert parse_one("-7") == IntLiteral(-7)
    assert parse_one("+3") == IntLiteral(3)


def test_parse_symbol_atom():
    assert parse_one("foo") == Atom("foo")
    assert parse_one("eq?") == Atom("eq?")
    assert parse_one("1+") == Atom("1+")


def test_parse_nested_list():
    got = parse_one("(+ 1 (car x))")
    assert got == ListExpr(
        (Atom("+"), IntLiteral(1), ListExpr((Atom("car"), Atom("x"))))
    )


def test_empty_list_reads_as_nil():
    assert parse_one("()") == Atom("nil")
    assert parse_one("(quote ())") == ListExpr((Atom("quote"), Atom("nil")))


def test_parse_program_returns_all_forms():
    forms = parse_program("(a)\n(b c)\n7")
    assert len(forms) == 3
    assert forms[2] == IntLiteral(7)


def test_unbalanced_open_reports_offset():
    with pytest.raises(ParseError) as e:
        parse_one("((")
    assert "at offset 2" in str(e.value)
    assert e.value.kind == "parse"


def test_unbalanced_close_rejected():
    with pytest.raises(ParseError):
        parse_one("(a))")
    with pytest.raises(ParseError):
        parse_program(")")


def test_parse_one_rejects_trailing_form():
    with pytest.raises(ParseError):
        parse_one("(a) (b)")


def test_parse_empty_source():
    with pytest.raises(ParseError):
        parse_one("   ; only a comment")
    assert parse_program("  ; nothing\n") == []


def test_parse_reads_nesting_deeper_than_the_python_stack():
    depth = 2000
    (form,) = parse_program("(quote " + "(" * depth + "a" + ")" * depth + ")")
    expr = form.items[1]
    for _ in range(depth - 1):
        (expr,) = expr.items
    assert expr == ListExpr((Atom("a"),))


def test_an_over_long_literal_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse_program("(+ 1 " + "7" * 5000 + ")")
    assert info.value.position == 5
