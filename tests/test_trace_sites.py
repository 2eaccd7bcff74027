"""The benchmark tracer still finds and fires every site it wraps.

``perfbench/tracing.py`` wraps phasorlisp functions by module and
attribute name.  A rename in ``src/`` that moves work past a wrapper
would otherwise surface only when the benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

from phasorlisp import Session  # noqa: E402

PROGRAM = """
(define sq (lambda (x) (* x x)))
(define xs (quote (a b)))
(sq (+ 2 3))
(car (cons 1 xs))
"""


def test_every_wrapped_site_fires_on_a_small_session(tmp_path):
    tracer = tracing.Tracer()
    path = tmp_path / "traced.vls"
    with tracing.installed(tracer):
        session = Session()
        assert list(session.eval_source(PROGRAM)) == ["sq", "xs", "25", "1"]
        session.save(path)
        restored = Session.restore(path)
        assert list(restored.eval_source("(sq 4)")) == ["16"]
    assert tracing.self_check("repl", tracer) == []
    # programs also requires residue's own decode_residue, reached by *
    assert tracing.self_check("programs", tracer) == []


SYMBOLS_ONLY = """
(define rev (lambda (l acc)
  (cond ((eq? l nil) acc) (t (rev (cdr l) (cons (car l) acc))))))
(rev (quote (a b c)) nil)
"""


def test_a_symbol_only_session_fires_the_lists_sites(tmp_path):
    # lists requires every recall site to fire and no integer decode
    tracer = tracing.Tracer()
    path = tmp_path / "traced.vls"
    with tracing.installed(tracer):
        session = Session()
        assert list(session.eval_source(SYMBOLS_ONLY)) == ["rev", "(c b a)"]
        session.save(path)
        restored = Session.restore(path)
        assert list(restored.eval_source("(rev (quote (x y)) nil)")) == ["(y x)"]
    assert tracing.self_check("lists", tracer) == []
