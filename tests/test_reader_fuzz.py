from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from phasorlisp import ParseError, parse_one, parse_program


#: text that is mostly reader syntax, with any other character mixed in
_SOURCES = st.text(
    st.one_of(st.sampled_from("().;-+ \t\n0123456789abxyz"), st.characters()),
    max_size=300,
)


# derandomized and without an example database, so that every run tries
# the same inputs; one second per input bounds a reader that would go
# quadratic or hang
@settings(
    derandomize=True, database=None, max_examples=400, deadline=timedelta(seconds=1)
)
@given(_SOURCES)
def test_the_reader_returns_forms_or_raises_a_parse_error(source):
    try:
        forms = parse_program(source)
    except ParseError as exc:
        assert 0 <= exc.position <= len(source)
        forms = None
    # parse_one reads one form where parse_program reads exactly one
    try:
        one = parse_one(source)
    except ParseError as exc:
        assert 0 <= exc.position <= len(source)
        one = None
    if forms is not None and len(forms) == 1:
        assert one == forms[0]
    elif forms is not None:
        assert one is None
