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
    assert "at offset 1" in str(e.value)
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


_DIGITS = "7" * 5000

#: source -> (parse_one's error, parse_program's error or forms), each
#: error as (message, offset)
_PINNED = {
    "": (("unexpected end of input", 0), []),
    "  ; c\n": (("unexpected end of input", 6), []),
    "(": (("unbalanced parenthesis", 0), ("unbalanced parenthesis", 0)),
    "((": (("unbalanced parenthesis", 1), ("unbalanced parenthesis", 1)),
    ")": (("unexpected )", 0), ("unexpected )", 0)),
    "a )": (("trailing token ')'", 2), ("unexpected )", 2)),
    "(a))": (("trailing token ')'", 3), ("unexpected )", 3)),
    "(a) )": (("trailing token ')'", 4), ("unexpected )", 4)),
    "(a) (b": (("trailing token '('", 4), ("unbalanced parenthesis", 4)),
    "(a) b": (
        ("trailing token 'b'", 4),
        [ListExpr((Atom("a"),)), Atom("b")],
    ),
    "(+ 1 " + _DIGITS + ")": (
        ("integer literal of 5000 characters is too long", 5),
        ("integer literal of 5000 characters is too long", 5),
    ),
    "(a) " + _DIGITS: (
        (f"trailing token {_DIGITS!r}", 4),
        ("integer literal of 5000 characters is too long", 4),
    ),
}


def _outcome(parse, source):
    try:
        return parse(source)
    except ParseError as exc:
        return str(exc).removesuffix(f" at offset {exc.position}"), exc.position


@pytest.mark.parametrize("source", list(_PINNED), ids=lambda s: repr(s[:12]))
def test_parse_errors_keep_their_message_and_offset(source):
    # parse_one stops at the end of its first form: a token after it is
    # a trailing token, even one that would not parse
    one, program = _PINNED[source]
    assert _outcome(parse_one, source) == one
    assert _outcome(parse_program, source) == program


def test_dotted_lists_read_with_their_tail():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert parse_one("(a . b)") == ListExpr((a,), tail=b)
    assert parse_one("(a b . c)") == ListExpr((a, b), tail=c)
    assert parse_one("(x . 1)") == ListExpr((Atom("x"),), tail=IntLiteral(1))
    assert parse_one("((a . b) . (c))") == ListExpr((ListExpr((a,), tail=b), c))
    assert parse_one("(a b)") == ListExpr((a, b)) == ListExpr((a, b), tail=None)
    assert repr(parse_one("(a . b)")) == "ListExpr([Atom('a')], tail=Atom('b'))"


def test_a_list_or_nil_after_a_dot_reads_as_list_notation():
    for dotted, plain in [
        ("(a . (b))", "(a b)"),
        ("(a . (b c))", "(a b c)"),
        ("(a . (b . c))", "(a b . c)"),
        ("(a . (b . (c . nil)))", "(a b c)"),
        ("(a . ())", "(a)"),
        ("(a . nil)", "(a)"),
        ("(+ 1 . (2))", "(+ 1 2)"),
    ]:
        assert parse_one(dotted) == parse_one(plain), dotted
    assert parse_one("(a . (b . c))").tail == Atom("c")


def test_a_dot_inside_a_token_is_part_of_a_symbol():
    assert parse_one("a.b") == Atom("a.b")
    assert parse_one("eval.") == Atom("eval.")
    assert parse_one(".5") == Atom(".5")
    assert parse_one("(a .b)") == ListExpr((Atom("a"), Atom(".b")))


@pytest.mark.parametrize(
    "source, offset",
    [
        (".", 0),
        ("(quote .)", 7),
        ("(. a)", 1),
        ("(a .)", 3),
        ("(a . b c)", 3),
        ("(a . . b)", 5),
        ("(a . b . c)", 7),
        ("((. a))", 2),
    ],
)
def test_a_stray_dot_is_a_parse_error_at_its_offset(source, offset):
    for parse in (parse_one, parse_program):
        with pytest.raises(ParseError) as info:
            parse(source)
        assert info.value.position == offset
        assert str(info.value) == f"unexpected . at offset {offset}"


def test_a_dot_between_forms_is_a_parse_error_or_a_trailing_token():
    assert _outcome(parse_program, "(a) . (b)") == ("unexpected .", 4)
    assert _outcome(parse_one, "(a) . (b)") == ("trailing token '.'", 4)


def test_an_unclosed_dotted_list_is_unbalanced():
    # the innermost open paren, not the dot that heads the tail's frame
    assert _outcome(parse_program, "(a . b") == ("unbalanced parenthesis", 0)


@pytest.mark.parametrize(
    "source, offset",
    [("(a (b", 3), ("(a (b . c", 3), ("(a . (b", 5), ("(a) ((b) c", 4)],
)
def test_an_unclosed_list_reports_its_innermost_open_paren(source, offset):
    assert _outcome(parse_program, source) == ("unbalanced parenthesis", offset)

