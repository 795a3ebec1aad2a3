"""Acceptance gate: the nine headline guarantees, one test and one printed
pass/fail line each. Run with -s to see the lines as they go by.

Every exact check demands residual identically zero; float checks carry the
tolerance stated next to them. Criteria with a time budget assert it too.
"""

import random
import time
from fractions import Fraction

from jordan_osc import (
    ACTION_RULES,
    Params,
    Poly2,
    build_psi,
    chain_psi,
    check_actions,
    check_explicit_forms,
    check_irrep,
    check_relation,
    check_structure,
    energy,
    gram_block,
    h_block,
    inner_product,
    load_negative_controls,
    make_operator,
    apply,
    quadrature_oracle,
)

from zz_pairing import zz_moment

F = Fraction
REFERENCE = Params.exact(1, F(1, 2))  # a = 1, b = 1/4


def _report(num: int, desc: str, ok: bool, elapsed: float, bound: float | None) -> None:
    in_time = bound is None or elapsed < bound
    status = "PASS" if (ok and in_time) else "FAIL"
    budget = "" if bound is None else f" / budget {bound:.0f}s"
    print(f"[{status}] criterion {num}: {desc} ({elapsed:.2f}s{budget})")
    assert ok, f"criterion {num} failed: {desc}"
    assert in_time, f"criterion {num} exceeded its {bound}s budget ({elapsed:.2f}s)"


def _random_admissible(rng: random.Random) -> Params:
    # rational p > q > 0, i.e. a > b > 0
    p = F(rng.randint(3, 12), rng.randint(2, 5))
    q = p * F(rng.randint(1, 3), rng.randint(4, 7))
    return Params.exact(p, q)


def test_criterion_1_structure_relations():
    """Exact residual 0 for every catalog relation at the reference point and
    at two seeded random admissible points; under 5 seconds."""
    start = time.perf_counter()
    rng = random.Random(20260819)
    ok = True
    for P in (REFERENCE, _random_admissible(rng), _random_admissible(rng)):
        reports = check_structure(P)
        ok = ok and all(r.passed and r.residual == "0" for r in reports)
    elapsed = time.perf_counter() - start
    _report(1, "structure suite exact at 3 parameter points", ok, elapsed, 5.0)


def test_criterion_2_explicit_forms():
    """The 14 compositionally built superalgebra generators equal their
    independently transcribed explicit forms, exactly; under 1 second."""
    start = time.perf_counter()
    reports = check_explicit_forms(REFERENCE)
    ok = len(reports) == 14 and all(r.passed and r.residual == "0" for r in reports)
    elapsed = time.perf_counter() - start
    _report(2, "explicit-form cross-check of 14 generators", ok, elapsed, 1.0)


def test_criterion_3_jordan_chains():
    """(H - E_n) psi_{n,m} = psi_{n,m-1} exactly for all 0 <= m <= n <= 10
    (with psi_{n,-1} = 0); under 10 seconds."""
    start = time.perf_counter()
    P = REFERENCE
    ham = make_operator(P, "H")
    ok = True
    for n in range(11):
        e_n = energy(P, n)
        for m in range(n + 1):
            # apply reads and returns the chain form (w, zbar)
            got = apply(P, ham, chain_psi(P, n, m)) - chain_psi(P, n, m).scale(e_n)
            want = chain_psi(P, n, m - 1) if m else Poly2.zero(P.mode)
            ok = ok and (got == want)
    elapsed = time.perf_counter() - start
    _report(3, "Jordan chain action of H on all levels n <= 10", ok, elapsed, 10.0)


def test_criterion_4_action_suite():
    """Every operator-action formula (ladder, quadratic, gl(2), boson, super)
    reproduced exactly on all basis functions with n <= 10; under 30 seconds."""
    start = time.perf_counter()
    reports = check_actions(REFERENCE, n_max=10)
    ok = len(reports) == len(ACTION_RULES) and all(
        r.passed and r.residual == "0" for r in reports
    )
    elapsed = time.perf_counter() - start
    _report(4, "action suite, 23 formulas, n <= 10", ok, elapsed, 30.0)


def test_criterion_5_biorthogonality():
    """Gram blocks are exactly the anti-diagonal identity for n <= 8, chain
    heads are self-orthogonal for 1 <= n <= 8, and <<psi00|psi00>> = 1; under
    20 seconds."""
    start = time.perf_counter()
    P = REFERENCE
    ok = True
    for n in range(9):
        block = gram_block(P, n)
        for m in range(n + 1):
            for mp in range(n + 1):
                ok = ok and block[m][mp] == (1 if m + mp == n else 0)
    ground = chain_psi(P, 0, 0)
    ok = ok and inner_product(P, ground, ground) == 1
    for n in range(1, 9):
        head = chain_psi(P, n, 0)
        ok = ok and inner_product(P, head, head) == 0
    elapsed = time.perf_counter() - start
    _report(5, "biorthogonality and zero-norm chain heads, n <= 8", ok, elapsed, 20.0)


def test_criterion_6_jordan_blocks_of_pairing():
    """The paired Hamiltonian matrix <<psi_{n,n-k}|H psi_{n,m}>> is exactly
    the Jordan block E_n I + superdiagonal for every n <= 8."""
    start = time.perf_counter()
    P = REFERENCE
    ok = True
    for n in range(9):
        block = h_block(P, n)
        e_n = energy(P, n)
        for k in range(n + 1):
            for m in range(n + 1):
                want = e_n if k == m else 1 if m == k + 1 else 0
                ok = ok and block[k][m] == want
    elapsed = time.perf_counter() - start
    _report(6, "Jordan form of the pairing with H, n <= 8", ok, elapsed, None)


def test_criterion_7_oracle_equivalence():
    """The pairing vs Gauss-Hermite quadrature: relative error <= 1e-8 on all
    (z, zbar) moments with p + q <= 12, from the test-side recursion, and on 20
    seeded random basis pairs, paired in chain form."""
    start = time.perf_counter()
    P = REFERENCE
    FP = Params.from_ab(1.0, 0.25)
    ok = True

    def agree(exact_value: complex, estimate: complex) -> bool:
        if exact_value == 0:
            return abs(estimate) <= 1e-8
        return abs(estimate - exact_value) / abs(exact_value) <= 1e-8

    one = Poly2.one(FP.mode)
    for p in range(13):
        for q in range(13 - p):
            want = complex(zz_moment(P, p, q))
            mono = Poly2.monomial(p, q, 1.0)
            got = quadrature_oracle(FP, mono, one)
            ok = ok and agree(want, got)
    rng = random.Random(7)
    for _ in range(20):
        n1 = rng.randint(0, 8)
        m1 = rng.randint(0, n1)
        n2 = rng.randint(0, 8)
        m2 = rng.randint(0, n2)
        want = complex(inner_product(P, chain_psi(P, n1, m1), chain_psi(P, n2, m2)))
        got = quadrature_oracle(FP, build_psi(FP, n1, m1), build_psi(FP, n2, m2))
        ok = ok and agree(want, got)
    elapsed = time.perf_counter() - start
    _report(7, "quadrature oracle agreement, rel. 1e-8", ok, elapsed, None)


def test_criterion_8_irrep_coefficients():
    """Representation ladder coefficients: squared values exact for n <= 10,
    float-mode direct check with normalized residual <= 1e-10."""
    start = time.perf_counter()
    reports = check_irrep(REFERENCE, n_max=10, tol=1e-10)
    sq = [r for r in reports if r.relation_id.endswith(".sq")]
    fl = [r for r in reports if r.relation_id.endswith(".float")]
    # a ladder claim's operator moves (n, m): its action rule's one term shifts it
    ladders = sum(rule.claim is not None and rule.terms[0][:2] != (0, 0) for rule in ACTION_RULES)
    ok = (
        len(sq) == ladders
        and len(fl) == ladders
        and all(r.passed for r in reports)
        and all(r.residual == "0" for r in sq)
        and all(float(r.residual) <= 1e-10 for r in fl)
    )
    elapsed = time.perf_counter() - start
    _report(8, "irrep coefficients, exact squares + float 1e-10", ok, elapsed, None)


def test_criterion_9_negative_controls():
    """All five shipped corrupted relations are detected: each check fails and
    the report carries the corrupted relation's id."""
    start = time.perf_counter()
    controls = load_negative_controls()
    ok = len(controls) == 5
    for spec in controls:
        report = check_relation(REFERENCE, spec)
        ok = ok and (not report.passed) and report.relation_id == spec.rel_id
        ok = ok and report.residual != "0"
    elapsed = time.perf_counter() - start
    _report(9, "negative controls all detected and named", ok, elapsed, None)
