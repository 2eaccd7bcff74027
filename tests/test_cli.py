import json
import resource
import struct
import subprocess
import sys
from pathlib import Path

import pytest

#: Address-space limit for cases that allocate more than any machine has:
#: without it such an allocation may succeed lazily and exhaust memory.
MEMORY_LIMIT = 1536 << 20


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def cli(*args, stdin="", limit_memory=False):
    """Run the command line in a subprocess, return (exit, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "phasorlisp.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_limit_memory if limit_memory else None,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_repl_evaluates_piped_forms():
    code, out, _ = cli("repl", stdin="(+ 2 3)\n(car (cons 1 nil))\n")
    assert code == 0
    assert out == "5\n1\n"


def test_repl_quit_command():
    code, out, _ = cli("repl", stdin=":quit\n(+ 1 1)\n")
    assert code == 0
    assert out == ""


def test_repl_error_keeps_the_session_alive():
    code, out, _ = cli("repl", stdin="(car 5)\n(+ 1 1)\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("ERROR:type:")
    assert lines[1] == "2"


def test_repl_sim_command():
    code, out, _ = cli("repl", stdin=":sim t t\n")
    assert code == 0
    assert out.strip() == "1.0000"


def test_repl_env_lists_interned_symbols():
    code, out, _ = cli("repl", stdin="(define x 1)\n:env\n")
    assert code == 0
    names = out.splitlines()
    assert "x" in names
    assert "nil" in names


def test_repl_decode_reports_the_last_value():
    code, out, _ = cli("repl", stdin="(- 2 3)\n:decode\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "-1"
    assert lines[1] == "-1 raw=104 confidence=1.0000"


def test_run_script(tmp_path):
    script = tmp_path / "prog.vl"
    script.write_text(
        "; squares a number\n"
        "(define square (lambda (x) (* x x)))\n"
        "(square 9)\n"
    )
    code, out, _ = cli("run", str(script))
    assert code == 0
    assert out == "square\n-24\n"


def test_run_is_byte_identical_across_invocations(tmp_path):
    script = tmp_path / "prog.vl"
    script.write_text("(define g (lambda (x) (+ x 1)))\n(g 10)\n(quote (a b))\n")
    first = cli("run", str(script))
    second = cli("run", str(script))
    assert first == second
    assert first[0] == 0


def test_missing_script_exits_2():
    code, out, err = cli("run", "no-such-file.vl")
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:io:")


def test_script_that_is_a_directory_exits_2(tmp_path):
    code, out, err = cli("run", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:io:")
    assert "Traceback" not in err


def test_script_that_is_not_utf8_exits_2(tmp_path):
    script = tmp_path / "latin1.vl"
    script.write_bytes(b"(quote caf\xe9)\n")
    code, out, err = cli("run", str(script))
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:io:")
    assert "Traceback" not in err


def test_session_path_that_is_a_directory_exits_2(tmp_path):
    script = tmp_path / "x.vl"
    script.write_text("(+ 1 2)\n")
    code, out, err = cli("--session", str(tmp_path), "run", str(script))
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:io:")
    assert "Traceback" not in err


def test_syntax_error_exits_3(tmp_path):
    script = tmp_path / "bad.vl"
    script.write_text("(+ 1")
    code, _, err = cli("run", str(script))
    assert code == 3
    assert err.startswith("ERROR:parse:")


def test_a_stray_dot_exits_3(tmp_path):
    script = tmp_path / "dot.vl"
    script.write_text("(cdr (quote (a . b)))\n(quote .)\n")
    code, out, err = cli("run", str(script))
    assert code == 3
    assert out == ""
    assert err == "ERROR:parse: unexpected . at offset 29\n"


def test_an_over_long_literal_exits_3(tmp_path):
    script = tmp_path / "long.vl"
    script.write_text("(+ 1 2)\n(+ 1 " + "7" * 5000 + ")\n")
    code, out, err = cli("run", str(script))
    assert code == 3
    assert out == ""
    assert err == (
        "ERROR:parse: integer literal of 5000 characters is too long"
        " at offset 13\n"
    )


def test_runtime_error_exits_1(tmp_path):
    script = tmp_path / "bad.vl"
    script.write_text("(mystery 1)")
    code, _, err = cli("run", str(script))
    assert code == 1
    assert err.startswith("ERROR:unbound:")


def test_a_symbol_named_like_a_cell_leaves_the_cell_a_fresh_name(tmp_path):
    script = tmp_path / "prog.vl"
    script.write_text("(quote cell-0)\n(cons 1 2)\n")
    code, out, err = cli("run", str(script))
    assert (code, err) == (0, "")
    assert out == "cell-0\n(1 . 2)\n"


def test_a_program_cannot_name_an_internal_pointer(tmp_path):
    script = tmp_path / "prog.vl"
    script.write_text("(define x (quote (a b)))\n(car (quote cell-1))\n")
    code, out, err = cli("run", str(script))
    assert code == 1
    assert out == "x\n"
    assert err.startswith("ERROR:eval: 'cell-1' names an internal entry")


def test_a_failed_integer_read_reports_decode(tmp_path):
    # 47,027 codes at dim 1000: the resonator cannot read 3, and recall of
    # the failed read finds only the bare integer type tag
    script = tmp_path / "x.vl"
    script.write_text("(+ 1 2)\n")
    code, out, err = cli("--moduli", "31,37,41", "run", str(script))
    assert code == 1
    assert out == ""
    assert err.startswith("ERROR:decode:")


@pytest.mark.parametrize("method", ["exhaustive", "resonator"])
def test_a_decode_table_too_large_to_allocate_exits_2(tmp_path, method):
    script = tmp_path / "x.vl"
    script.write_text("1\n")
    code, out, err = cli(
        "--moduli", "3,5,1000003", "--decode", method, "run", str(script),
        limit_memory=True,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:config:")
    assert "3,5,1000003" in err
    assert "Traceback" not in err


#: three u32 moduli: a range of about 7.9e28, past int64, so neither the
#: frequencies of the exhaustive transform nor its length fit an array
_U32_MODULI = "4294967291,4294967279,4294967231"


@pytest.mark.parametrize("method", ["exhaustive", "resonator"])
def test_a_range_past_int64_is_a_config_error(tmp_path, method):
    script = tmp_path / "x.vl"
    script.write_text("(+ 1 2)\n")
    code, out, err = cli(
        "--moduli", _U32_MODULI, "--decode", method, "run", str(script),
        limit_memory=True,
    )
    assert (code, out) == (2, "")
    assert err.startswith("ERROR:config:")
    assert _U32_MODULI in err
    assert "Traceback" not in err


def test_decode_at_a_range_past_int64_keeps_the_repl_alive():
    code, out, err = cli(
        "--moduli", _U32_MODULI, "repl",
        stdin="(quote a)\n:decode\n(quote b)\n",
        limit_memory=True,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a"
    assert lines[1].startswith("ERROR:config:")
    assert "transform" in lines[1] and _U32_MODULI in lines[1]
    assert lines[2] == "b"
    assert "Traceback" not in err


def test_a_dimension_too_large_to_allocate_exits_2(tmp_path):
    script = tmp_path / "x.vl"
    script.write_text("1\n")
    # the first table, 3 x 10**13 phases, fails to allocate at once
    code, out, err = cli(
        "--dim", "10000000000000", "run", str(script), limit_memory=True
    )
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:config:")
    assert "10000000000000" in err
    assert "Traceback" not in err


def test_a_meta_command_error_keeps_the_repl_alive():
    code, out, err = cli(
        "--moduli", "3,5,1000003", "--decode", "exhaustive", "repl",
        stdin="(quote a)\n:decode\n(quote b)\n",
        limit_memory=True,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a"
    assert lines[1].startswith("ERROR:config:")
    assert lines[2] == "b"
    assert "Traceback" not in err


def test_bad_moduli_exit_2():
    code, _, err = cli("--moduli", "4,6", "repl", stdin="")
    assert code == 2
    assert err.startswith("ERROR:moduli:")


def test_small_dimension_exit_2():
    code, _, err = cli("--dim", "16", "repl", stdin="")
    assert code == 2
    assert err.startswith("ERROR:config:")


def test_negative_seed_exits_2(tmp_path):
    script = tmp_path / "x.vl"
    script.write_text("(+ 1 2)")
    code, out, err = cli("--seed", "-1", "run", str(script))
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:config:")
    assert "Traceback" not in err


# Session file layout at the CLI defaults (dim 1000, moduli 3,5,7): the
# magic, dim and modulus count, then the rest of the key (the moduli, the
# seed and the draw counter), the entry count, and the first entry, which
# here is the row of the list's last cell, named by its stream position.
DIM, N_MODULI = 1000, 3
HEADER_END = 4 + 8
KEY_END = HEADER_END + 4 * N_MODULI + 8 + 8
COUNT_END = KEY_END + 4
NAME_LEN_END = COUNT_END + 4
FIRST = b"pointer:cell-0"
NAME_END = NAME_LEN_END + len(FIRST)
POSITION_END = NAME_END + 8


@pytest.fixture(scope="module")
def saved_session(tmp_path_factory):
    path = tmp_path_factory.mktemp("saved") / "work.vls"
    code, _, _ = cli(
        "--session", str(path), "repl", stdin="(define xs (quote (a 2)))\n"
    )
    assert code == 0
    data = path.read_bytes()
    assert data[:4] == b"RHC2"
    assert data[NAME_LEN_END:NAME_END] == FIRST
    return data


def _run_with_session(tmp_path, data, **kwargs):
    sess = tmp_path / "corrupt.vls"
    sess.write_bytes(data)
    script = tmp_path / "prog.vl"
    script.write_text("(+ 1 2)\n")
    return cli("--session", str(sess), "run", str(script), **kwargs)


def _assert_io_error(result):
    code, out, err = result
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:io:")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "cut",
    [
        pytest.param(2, id="magic"),
        pytest.param(10, id="header"),
        pytest.param(HEADER_END + 20, id="key"),
        pytest.param(KEY_END + 2, id="count"),
        pytest.param(COUNT_END + 1, id="name-length"),
        pytest.param(NAME_LEN_END + 3, id="name"),
        pytest.param(NAME_END + 5, id="position"),
        pytest.param(None, id="vector"),
        pytest.param(-5, id="last-vector"),
    ],
)
def test_truncated_session_file_exits_2(saved_session, tmp_path, cut):
    if cut is None:  # inside the first vector, which is cell-0's chunk
        cut = saved_session.index(b"chunk:cell-0") + len(b"chunk:cell-0") + 7
    _assert_io_error(_run_with_session(tmp_path, saved_session[:cut]))


def test_session_name_that_is_not_utf8_exits_2(saved_session, tmp_path):
    data = bytearray(saved_session)
    data[NAME_LEN_END:NAME_LEN_END + 2] = b"\xff\xfe"
    _assert_io_error(_run_with_session(tmp_path, bytes(data)))


def test_session_file_with_a_chunk_stored_twice_exits_2(
    saved_session, tmp_path
):
    key = b"chunk:cell-0"
    start = saved_session.index(key) - 4
    assert saved_session.count(key) == 1
    entry = saved_session[start:start + 4 + len(key) + 16 * DIM]
    (count,) = struct.unpack("<I", saved_session[KEY_END:COUNT_END])
    data = (
        saved_session[:KEY_END]
        + struct.pack("<I", count + 1)
        + saved_session[COUNT_END:]
        + entry
    )
    _assert_io_error(_run_with_session(tmp_path, data))


@pytest.mark.parametrize("modulus", [1, 10])
def test_session_file_with_bad_moduli_exits_2(saved_session, tmp_path, modulus):
    # the first modulus follows the magic, dim and count; 1 is below 2,
    # and 10 shares a factor with the 5 after it
    data = bytearray(saved_session)
    data[12:16] = struct.pack("<I", modulus)
    _assert_io_error(_run_with_session(tmp_path, bytes(data)))


def test_session_file_with_a_modulus_too_large_to_decode_exits_2(
    saved_session, tmp_path
):
    # 1000003 is prime, so the moduli stay valid, but no decode table fits
    data = bytearray(saved_session)
    data[20:24] = struct.pack("<I", 1000003)
    code, out, err = _run_with_session(tmp_path, bytes(data), limit_memory=True)
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:config:")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e300])
@pytest.mark.parametrize("entry", [b"bind:env-0:xs"], ids=["vector"])
def test_session_file_with_a_corrupt_component_exits_2(
    saved_session, tmp_path, entry, value
):
    data = bytearray(saved_session)
    key = struct.pack("<I", len(entry)) + entry
    assert data.count(key) == 1
    at = data.index(key) + len(key)
    data[at:at + 8] = struct.pack("<d", value)
    _assert_io_error(_run_with_session(tmp_path, bytes(data)))


def test_a_session_file_of_the_old_format_exits_2(saved_session, tmp_path):
    # RHC1 files held the codebook and every row as floats
    err = _assert_io_error(
        _run_with_session(tmp_path, b"RHC1" + saved_session[4:])
    )
    assert "RHC1" in err and "RHC2" in err


@pytest.mark.parametrize("past", [0, 1, 2**63], ids=["at", "past", "far-past"])
def test_a_position_at_or_past_the_draw_counter_exits_2(
    saved_session, tmp_path, past
):
    data = bytearray(saved_session)
    (drawn,) = struct.unpack("<Q", data[KEY_END - 8:KEY_END])
    data[NAME_END:POSITION_END] = struct.pack("<Q", drawn + past)
    err = _assert_io_error(_run_with_session(tmp_path, bytes(data)))
    assert "draw counter" in err


@pytest.mark.parametrize("taken", ["bootstrap", "row"])
def test_a_position_another_row_takes_exits_2(saved_session, tmp_path, taken):
    # position 2 is nil's; the second row's entry follows the first
    data = bytearray(saved_session)
    if taken == "bootstrap":
        position = struct.pack("<Q", 2)
    else:
        (length,) = struct.unpack_from("<I", data, POSITION_END)
        at = POSITION_END + 4 + length
        position = data[at:at + 8]
    data[NAME_END:POSITION_END] = position
    err = _assert_io_error(_run_with_session(tmp_path, bytes(data)))
    assert "taken" in err


@pytest.mark.parametrize("dim", [65_792, 4_194_304, 16_777_216])
def test_a_session_file_with_a_mutated_dim_exits_2_without_allocating(
    saved_session, tmp_path, dim
):
    # every vector's length follows from dim, and the whole file is read
    # before a codebook or row is built, so the first chunk runs short
    data = bytearray(saved_session)
    data[4:8] = struct.pack("<I", dim)
    err = _assert_io_error(
        _run_with_session(tmp_path, bytes(data), limit_memory=True)
    )
    assert "truncated" in err


def test_a_session_file_keeps_its_seed(tmp_path):
    path = tmp_path / "seeded.vls"
    code, _, _ = cli(
        "--seed", "7", "--session", str(path), "repl",
        stdin="(define xs (quote (a b)))\n",
    )
    assert code == 0
    code, out, err = cli(
        "--verbose", "--session", str(path), "repl", stdin="(cdr xs)\n"
    )
    assert code == 0
    assert out == "(b)\n"
    assert "seed=7" in err


@pytest.mark.parametrize(
    "entry, index, value",
    [(b"bind:env-0:xs", 0, 8.6e37), (b"chunk:cell-4", 459, 1.7e38)],
)
def test_session_file_with_a_binding_or_chunk_beyond_its_bound_exits_2(
    tmp_path, entry, index, value
):
    # within float32 range: unbounded, the restored xs printed wrong, or
    # a float32 score overflowed with a RuntimeWarning
    path = tmp_path / "small.vls"
    code, _, _ = cli(
        "--dim", "256", "--session", str(path), "repl",
        stdin="(define xs (quote (a 2 (b c))))\n(define ys (quote (a b c d)))\n",
    )
    assert code == 0
    data = bytearray(path.read_bytes())
    key = struct.pack("<I", len(entry)) + entry
    assert data.count(key) == 1
    at = data.index(key) + len(key) + 8 * index
    data[at:at + 8] = struct.pack("<d", value)
    code, out, err = _run_with_session(tmp_path, bytes(data))
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:io:")


def test_a_mutated_session_file_restores_or_raises_a_phasor_error():
    # Under the memory limit a corrupt dimension or count cannot allocate
    # lazily what no machine has.  A case takes milliseconds; the bound
    # catches a hang.
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "fuzz_restore.py"), "1", "300"],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["escaped"] == []
    assert report["wrong"] == []
    assert report["slowest"] < 2.0


def test_deep_recursion_reports_depth_and_keeps_the_session():
    length = (
        "(define length (lambda (l) (cond ((eq? l nil) 0)"
        " (t (+ 1 (length (cdr l)))))))"
    )
    items = " ".join(f"a{i}" for i in range(160))
    code, out, _ = cli(
        "repl",
        stdin=f"{length}\n(length (quote ({items})))\n(length (quote (a b)))\n",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "length"
    assert lines[1].startswith("ERROR:depth:")
    assert lines[2] == "2"



def test_run_reports_deep_nesting_as_depth(tmp_path):
    depth = 2000
    script = tmp_path / "deep.vl"
    script.write_text("(quote " + "(" * depth + "a" + ")" * depth + ")")
    code, out, err = cli("run", str(script))
    assert code == 1
    assert out == ""
    assert err.startswith("ERROR:depth:")
    assert "Traceback" not in err

def test_session_file_persists_definitions(tmp_path):
    sess = tmp_path / "work.vls"
    code, out, _ = cli(
        "--session", str(sess), "repl",
        stdin="(define double (lambda (x) (+ x x)))\n",
    )
    assert code == 0
    assert sess.exists()
    code, out, _ = cli("--session", str(sess), "repl", stdin="(double 21)\n")
    assert code == 0
    assert out == "42\n"


def test_verbose_banner_on_stderr():
    code, out, err = cli("--verbose", "repl", stdin="(+ 1 1)\n")
    assert code == 0
    assert out == "2\n"
    assert "dim=1000" in err
    assert "moduli=3,5,7" in err


def test_raw_ints_flag():
    code, out, _ = cli("--raw-ints", "repl", stdin="(- 2 3)\n")
    assert code == 0
    assert out == "104\n"


def test_custom_decode_flag():
    code, out, _ = cli("--decode", "exhaustive", "repl", stdin="(+ 2 3)\n")
    assert code == 0
    assert out == "5\n"


def test_bench_writes_csv(tmp_path):
    out_csv = tmp_path / "b.csv"
    code, out, _ = cli(
        "bench", "--magnitudes", "2,4", "--reps", "5",
        "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "encoding,magnitude,median_ns,reps,dimension"
    assert len(lines) == 5
    assert "flatness ratio" in out
    assert "growth exponent" in out


def test_bench_plot_data(tmp_path):
    prefix = tmp_path / "curve"
    code, _, _ = cli(
        "bench", "--magnitudes", "2,3", "--reps", "5",
        "--out", str(tmp_path / "b.csv"), "--plot-data", str(prefix),
    )
    assert code == 0
    assert (tmp_path / "curve_rhc.dat").exists()
    assert (tmp_path / "curve_list.dat").exists()


@pytest.mark.parametrize("magnitudes", ["0,5", "5", "5,5"])
def test_bench_rejects_magnitudes_no_exponent_can_be_fit_to(tmp_path, magnitudes):
    code, out, err = cli(
        "bench", "--magnitudes", magnitudes, "--reps", "5",
        "--out", str(tmp_path / "b.csv"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:config:")
    assert "Traceback" not in err
    assert not (tmp_path / "b.csv").exists()
