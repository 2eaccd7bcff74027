"""The package's public names and the CLI's exit-code contract."""

import importlib
import io
from pathlib import Path

import pytest

import phasorlisp
from phasorlisp import cli, errors

#: The modules whose ``__all__`` lists the package republishes.
MODULES = ("bench", "errors", "fhrr", "lisp", "memory", "reader", "residue", "resonator")

#: Names earlier releases of the package export; it keeps every one.
EXPORTED_BEFORE = {
    "__version__", "Config", "Session", "Resolved", "CleanupMemory",
    "Environment", "RecallResult", "ModuliSet", "ResidueCodebook",
    "FactorCodebook", "ResonatorState", "BenchResult", "SExpr", "Atom",
    "IntLiteral", "ListExpr", "Token", "parse_one", "parse_program",
    "tokenize", "bind", "unbind", "superpose", "normalize", "similarity",
    "random_symbol", "identity", "phase_angles", "new_rng", "make_codebook",
    "encode_residue", "decode_residue", "add_bind", "mul_bind", "negate",
    "mod_inverse", "crt_reconstruct", "cleanup", "factorize", "list_encode",
    "list_decode", "list_add", "run_benchmark", "write_csv",
    "write_plot_data", "growth_exponent", "flatness_ratio", "PhasorError",
    "DimensionError", "InvalidModuliError", "DecodeError", "NoInverseError",
    "MemoryEmptyError", "NoMatchError", "DanglingPointerError", "ParseError",
    "EvalError", "UnboundSymbolError", "NotApplicableError", "ArityError",
    "LispTypeError", "RecursionDepthError", "ConfigError", "SessionIOError",
}

#: The exit code of each error that ends a run, as the ``cli`` docstring
#: states it: 2 for a missing file or bad configuration, 3 for a syntax
#: error, 1 for every other (runtime) error.
EXIT_CODES = {
    "ConfigError": 2,
    "InvalidModuliError": 2,
    "SessionIOError": 2,
    "ParseError": 3,
}


def test_the_package_exports_each_modules_public_names_once():
    names = ["__version__"]
    for module in MODULES:
        names += importlib.import_module(f"phasorlisp.{module}").__all__
    assert len(names) == len(set(names)) == 75
    assert sorted(phasorlisp.__all__) == sorted(names)
    assert EXPORTED_BEFORE <= set(names)
    assert all(hasattr(phasorlisp, name) for name in names)


def test_errors_lists_every_error_class():
    classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.PhasorError)
    }
    assert classes == set(errors.__all__)
    assert len(classes) == 17


@pytest.mark.parametrize("name", errors.__all__)
def test_an_error_ending_a_run_exits_with_its_documented_code(
    name, monkeypatch, capsys
):
    cls = getattr(errors, name)
    exc = cls("boom", 7) if cls is errors.ParseError else cls("boom")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "make_config", fail)
    assert cli.main(["run", "x.vl"]) == EXIT_CODES.get(name, 1)
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ERROR:{cls.kind}: {exc}\n"


def test_meta_command_errors_print_through_the_repls_one_handler(
    monkeypatch, capsys
):
    stdin = ":sim a\n:sim t qq\n:decode\n:bogus\n(+ 1 1)\n"
    monkeypatch.setattr(cli.sys, "stdin", io.StringIO(stdin))
    assert cli.main(["repl"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "ERROR:eval: usage: :sim <name> <name>",
        "ERROR:no-match: unknown symbol 'qq'",
        "ERROR:eval: nothing evaluated yet",
        "ERROR:eval: unknown meta-command :bogus",
        "2",
    ]
    assert err == ""


def test_the_readme_table_states_each_class_kind_and_exit_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert f"| `{name}` | `{cls.kind}` | {cls.exit_code} |" in readme
