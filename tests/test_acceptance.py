"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line (visible with -s) and also
fails the normal pytest way, so the suite works both as a gate and as a
report.  Runtime budgets are asserted where the guarantee carries one.
"""

import math
import time

import numpy as np

from phasorlisp import (
    Config,
    FactorCodebook,
    ModuliSet,
    NoInverseError,
    Session,
    bind,
    decode_residue,
    encode_residue,
    factorize,
    flatness_ratio,
    growth_exponent,
    make_codebook,
    new_rng,
    normalize,
    parse_one,
    random_symbol,
    run_benchmark,
    similarity,
    superpose,
    unbind,
)

from oracles import inverse_mod, nearest_product

D = 1000
MODULI = (3, 5, 7)
RANGE = 105


def report(n, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n} ({label}): {status} [{detail}]")
    assert ok, f"criterion {n} ({label}): {detail}"


def test_criterion_1_residue_roundtrip():
    t0 = time.perf_counter()
    default = make_codebook(ModuliSet(MODULI), D, new_rng(42))
    default_ok = all(
        decode_residue(default, encode_residue(default, x), method=m) == x
        for x in range(RANGE)
        for m in ("exhaustive", "resonator")
    )

    total = 0
    hits = 0
    for seed in range(20):
        cb = make_codebook(ModuliSet(MODULI), D, new_rng(seed))
        for x in range(RANGE):
            v = encode_residue(cb, x)
            for m in ("exhaustive", "resonator"):
                total += 1
                try:
                    hits += decode_residue(cb, v, method=m) == x
                except Exception:
                    pass
    rate = hits / total
    elapsed = time.perf_counter() - t0
    ok = default_ok and rate >= 0.99 and elapsed < 30
    report(
        1,
        "residue roundtrip",
        ok,
        f"default seed {'100%' if default_ok else 'FAILED'}, "
        f"20 seeds {rate:.2%}, {elapsed:.1f}s",
    )


def test_criterion_2_arithmetic_homomorphisms():
    t0 = time.perf_counter()
    s = Session(Config(decode="exhaustive"))
    rng = new_rng(99)
    mismatches = 0
    for _ in range(500):
        a = int(rng.integers(0, RANGE))
        b = int(rng.integers(0, RANGE))
        add = s.resolve(s.prim_add(s.encode_int(a), s.encode_int(b))).value
        sub = s.resolve(s.prim_sub(s.encode_int(a), s.encode_int(b))).value
        mul = s.resolve(s.prim_mul(s.encode_int(a), s.encode_int(b))).value
        mismatches += add != (a + b) % RANGE
        mismatches += sub != (a - b) % RANGE
        mismatches += mul != (a * b) % RANGE

    div_bad = 0
    for b in range(RANGE):
        u = s.encode_int(53)
        v = s.encode_int(b)
        if b and math.gcd(b, RANGE) == 1:
            got = s.resolve(s.prim_div(u, v)).value
            div_bad += got != (53 * inverse_mod(b, RANGE)) % RANGE
        else:
            try:
                s.prim_div(u, v)
                div_bad += 1
            except NoInverseError:
                pass
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and div_bad == 0 and elapsed < 60
    report(
        2,
        "arithmetic homomorphisms",
        ok,
        f"1500 add/sub/mul checks, {mismatches} wrong; "
        f"105 div checks, {div_bad} wrong; {elapsed:.1f}s",
    )


def test_criterion_3_integer_discriminator():
    s = Session()
    wrong = 0
    for x in range(RANGE):
        wrong += s.print_value(s.prim_int_test(s.encode_int(x))) != "t"
    for name in ("t", "f", "nil"):
        wrong += s.print_value(s.prim_int_test(s.symbol(name))) != "f"
    rng = new_rng(123)
    for _ in range(100):
        junk = random_symbol(rng, D)
        wrong += s.print_value(s.prim_int_test(junk)) != "f"
    ok = wrong == 0
    report(3, "int? discriminator", ok, f"208 probes, {wrong} wrong")


def test_criterion_4_resonator_vs_oracle():
    rng = new_rng(2024)
    books = [
        FactorCodebook(
            np.stack([random_symbol(rng, D) for _ in range(8)]),
            label=f"slot{k}",
        )
        for k in range(3)
    ]
    raw = [b.atoms for b in books]
    matches = 0
    worst_iters = 0
    for _ in range(100):
        idx = tuple(int(rng.integers(0, 8)) for _ in range(3))
        s = bind(bind(raw[0][idx[0]], raw[1][idx[1]]), raw[2][idx[2]])
        want = nearest_product(s, raw)
        state = factorize(s, books, max_iters=50)
        matches += state.indices == want
        worst_iters = max(worst_iters, state.iterations)
    ok = matches >= 95 and worst_iters <= 50
    report(
        4,
        "resonator vs oracle",
        ok,
        f"{matches}/100 agree, worst {worst_iters} iterations",
    )


def test_criterion_5_interpreter_suite():
    t0 = time.perf_counter()
    s = Session()
    got = []
    got.append(s.print_value(s.eval_expr(parse_one("(car (cons 1 nil))"))))
    got.append(s.print_value(s.eval_expr(parse_one("((lambda (x) (* x x)) 6)"))))
    got.append(
        s.print_value(
            s.eval_expr(
                parse_one("((lambda (x) ((lambda (y) (+ x y)) 2)) 3)")
            )
        )
    )
    s.eval_expr(
        parse_one(
            "(define length (lambda (l) (cond ((eq? l nil) 0)"
            " (t (+ 1 (length (cdr l)))))))"
        )
    )
    got.append(
        s.print_value(s.eval_expr(parse_one("(length (quote (1 2 3 4 5)))")))
    )
    want = ["1", "36", "5", "5"]
    elapsed = time.perf_counter() - t0
    ok = got == want and elapsed < 10
    report(5, "interpreter suite", ok, f"results {got}, {elapsed:.1f}s")


def test_criterion_6_addition_cost_shape():
    # Each shape is the median of three timed runs: one run's exponent
    # dips below 1 by chance on a loaded machine.
    t0 = time.perf_counter()
    runs = [run_benchmark() for _ in range(3)]
    flat = float(np.median([flatness_ratio(r) for r in runs]))
    slope = float(np.median([growth_exponent(r) for r in runs]))
    elapsed = time.perf_counter() - t0
    ok = flat <= 2.0 and slope >= 1.0 and elapsed < 300
    report(
        6,
        "addition cost shape",
        ok,
        f"rhc flatness {flat:.2f} (<= 2), "
        f"list exponent {slope:.2f} (>= 1), {elapsed:.0f}s",
    )


def test_criterion_7_vsa_algebra_properties():
    rng = new_rng(7)
    problems = []

    # exact unbind of bind
    worst = 0.0
    for _ in range(50):
        u = random_symbol(rng, D)
        v = random_symbol(rng, D)
        worst = max(worst, float(np.max(np.abs(unbind(bind(u, v), u) - v))))
    if worst >= 1e-12:
        problems.append(f"unbind residual {worst:.2e}")

    # binding is an isometry of the similarity kernel
    drift = 0.0
    for _ in range(50):
        u = random_symbol(rng, D)
        v = random_symbol(rng, D)
        w = random_symbol(rng, D)
        drift = max(
            drift,
            abs(similarity(bind(u, w), bind(v, w)) - similarity(u, v)),
        )
    if drift >= 1e-9:
        problems.append(f"isometry drift {drift:.2e}")

    # unit modulus survives long bind chains
    chain = random_symbol(rng, D)
    for _ in range(100):
        chain = bind(chain, random_symbol(rng, D))
    off = float(np.max(np.abs(np.abs(chain) - 1.0)))
    if off >= 1e-9:
        problems.append(f"modulus drift {off:.2e}")

    # quasi-orthogonality of random pairs
    bound = 4 / math.sqrt(D)
    inside = sum(
        abs(similarity(random_symbol(rng, D), random_symbol(rng, D))) < bound
        for _ in range(1000)
    )
    if inside < 990:
        problems.append(f"only {inside}/1000 pairs within 4/sqrt(D)")

    # a 7-item bundle still points at its own constituents
    clean = 0
    for _ in range(200):
        parts = [random_symbol(rng, D) for _ in range(7)]
        bundle = parts[0]
        for p in parts[1:]:
            bundle = superpose(bundle, p)
        bundle = normalize(bundle)
        outs = [random_symbol(rng, D) for _ in range(7)]
        worst_in = min(similarity(bundle, p) for p in parts)
        best_out = max(similarity(bundle, q) for q in outs)
        clean += worst_in > best_out
    if clean < 198:
        problems.append(f"bundle cleanup {clean}/200")

    ok = not problems
    report(
        7,
        "vsa algebra properties",
        ok,
        "; ".join(problems) if problems else
        f"orthogonality {inside}/1000, bundle {clean}/200",
    )
