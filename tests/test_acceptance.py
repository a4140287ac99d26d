"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Each test computes its verdict first, prints exactly one summary line, then
asserts — so the printed ledger is complete even when a criterion fails.
Run with `pytest -s tests/test_acceptance.py` to watch the lines appear.
"""

from __future__ import annotations

import random

from crankspace.cyclotomic import (
    divides_squared,
    divides_standard,
    exact_quotient,
)
from crankspace.laurent import LaurentPoly
from crankspace.partitions import (
    beta,
    crank_poly,
    modified_crank_poly,
    modified_rank_poly,
    rank_poly,
)
from crankspace.search import exhaustive_search
from crankspace.verify import (
    CongruenceCase,
    HypothesisViolation,
    InvalidCase,
    check_family_unimodality,
    enumerate_congruence_cases,
    run_claims,
    run_plan,
    verify_colored_congruence,
    verify_colored_quotients,
    verify_crank_constancy,
    verify_crank_mod10,
    verify_crank_squared,
    verify_modified_crank,
    verify_rank_monotonic,
)

from helpers import (
    TABLE1_ROWS,
    TABLE1_SCAN_BOUND,
    add,
    crank_poly_enumerated,
    divides_by_division,
    mul,
    phi,
    rank_poly_enumerated,
)


def _announce(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {verdict} — {detail}")


def test_criterion_1_reference_table_reproduction():
    results = exhaustive_search(3, 6, n_hi=TABLE1_SCAN_BOUND)
    got = [(r.spec.k, r.spec.a, r.threshold) for r in results]
    ok = got == TABLE1_ROWS
    mismatches = [
        (a, want, have)
        for (k, a, want), (_, _, have) in zip(TABLE1_ROWS, got)
        if want != have
    ]
    _announce(
        1,
        ok,
        f"threshold scan k 3..6 bound 75 reproduces all {len(TABLE1_ROWS)} "
        f"reference rows exactly"
        + ("" if ok else f"; mismatches: {mismatches[:5]}"),
    )
    assert ok


def test_criterion_2_series_equal_enumeration():
    bad = []
    for n in range(1, 31):
        # whole polynomials: every m at once, one enumeration per n
        if rank_poly(n) != rank_poly_enumerated(n):
            bad.append(("rank", n))
        if crank_poly(n) != crank_poly_enumerated(n):
            bad.append(("crank", n))
    ok = not bad
    _announce(
        2,
        ok,
        "generating-function counts equal enumeration counts for both "
        "statistics, all m, n <= 30" + ("" if ok else f"; first bad: {bad[:5]}"),
    )
    assert ok


def test_criterion_3_proven_theorem_suites():
    plans = [verify_crank_squared(n_max=99)]            # sizes 5n+4 <= 499
    for ell, n_max in ((5, 99), (7, 70), (11, 44)):     # sizes ell*n+beta <= 500
        plans.append(verify_modified_crank(ell, n_max=n_max))
    plans.append(verify_crank_mod10(n_max=99))
    plans.append(verify_crank_constancy(n_max=60))
    cases = enumerate_congruence_cases(12)
    assert len(cases) == 24
    for case in cases:
        plans.append(verify_colored_congruence(case, n_max=50))
    reports = [run_plan(plan) for plan in plans]
    failing = [r.claim_id for r in reports if r.status != "pass"]
    ok = not failing
    _announce(
        3,
        ok,
        f"{len(reports)} proven-statement suites (squared-divisor quotients, "
        f"modified crank for ell=5/7/11, mod-10 split, tail constancy, "
        f"24 congruence cases) all pass"
        + ("" if ok else f"; failing: {failing}"),
    )
    assert ok


def test_criterion_4_dual_route_divisibility_corpus():
    rng = random.Random(411)
    trials_per_ell = 1000
    disagreements = 0
    multiples_seen = 0
    for ell in (5, 7, 11):
        for trial in range(trials_per_ell):
            lo = rng.randrange(-10, 5)
            width = rng.randrange(1, 18)
            f = LaurentPoly(lo, [rng.randrange(-9, 10) for _ in range(width)])
            if trial % 2:
                f = mul(f, phi(ell))
            if divides_by_division(f, phi(ell)):
                multiples_seen += 1
            if divides_standard(f, ell) != divides_by_division(f, phi(ell)):
                disagreements += 1
            if divides_squared(f, ell) != divides_by_division(
                f, phi(ell, "squared")
            ):
                disagreements += 1
    ok = disagreements == 0 and multiples_seen >= trials_per_ell
    _announce(
        4,
        ok,
        f"residue-sum and exact-division routes agree on {trials_per_ell} "
        f"random polynomials per modulus (both variants, "
        f"{multiples_seen} true multiples exercised)",
    )
    assert ok


def test_criterion_5_conjecture_scans():
    rank_rep = run_plan(verify_rank_monotonic(n_max=200, n_lo=39))
    family_rep = run_plan(check_family_unimodality(n_hi=100))
    ok = rank_rep.status == "pass" and family_rep.status == "pass"
    _announce(
        5,
        ok,
        "rank interior monotonicity clean on 39 <= n <= 200; family "
        "unimodality clean for k 3..12, n <= 99 past onsets 15/24"
        + ("" if ok else f"; got {rank_rep.status}/{family_rep.status}"),
    )
    assert ok


def test_criterion_6_colored_quotient_divisibility():
    # The named second-family instance with k=7 cannot exist: every
    # admissible modulus for h in {6, 14} fails its residue clause.
    seven_impossible = True
    for h in (6, 14):
        for ell in range(5, 7 + h + 1):
            try:
                case = CongruenceCase.make(7, h, ell)
            except InvalidCase:
                continue
            try:
                verify_colored_quotients("B", case, n_max=1)
                seven_impossible = False
            except HypothesisViolation:
                continue
    # the three instances, on two workers, as `verify cor3.5 --threads 2` runs them
    statuses = {r.claim_id: r.status for r in run_claims("cor3.5", threads=2)}
    ok = seven_impossible and statuses == dict.fromkeys(
        ("cor3.5-A-k6-ell5", "cor3.5-B-k9-ell23", "cor3.5-B-k11-ell5"), "pass")
    _announce(
        6,
        ok,
        "progression slices divisible for sizes <= 300 on (A,k=6,ell=5), "
        "(B,k=9,ell=23), (B,k=11,ell=5); the nominal (B,k=7) instance is "
        "proven inadmissible, so the two valid second-family instances "
        "stand in for it" + ("" if ok else f"; got {statuses}"),
    )
    assert ok


def test_criterion_7_hand_verified_fixed_points():
    checks = []

    # smallest modified-rank slice, re-derived from the enumeration oracle
    size = beta(5)
    boundary_rank = LaurentPoly.from_coeff_map(
        {size - 2: 1, size - 1: -1, 2 - size: 1, 1 - size: -1}
    )
    oracle_rank = add(rank_poly_enumerated(size), boundary_rank)
    checks.append(oracle_rank == modified_rank_poly(5, 0))
    checks.append(exact_quotient(oracle_rank, 5) == LaurentPoly(-2, (1,)))

    # smallest modified-crank slice
    boundary_crank = LaurentPoly.from_coeff_map(
        {size - 5: 1, size: -1, 5 - size: 1, -size: -1}
    )
    oracle_crank = add(crank_poly_enumerated(size), boundary_crank)
    checks.append(oracle_crank == modified_crank_poly(5, 0))
    checks.append(exact_quotient(oracle_crank, 5) == LaurentPoly(-2, (1,)))

    # plain size-4 crank polynomial against the squared-argument divisor
    checks.append(
        exact_quotient(crank_poly_enumerated(4), 5, "squared")
        == LaurentPoly(-4, (1,))
    )

    ok = all(checks)
    _announce(
        7,
        ok,
        "fixed points: both smallest modified slices quotient to z^-2 and "
        "the size-4 crank polynomial quotients to z^-4, straight from the "
        "enumeration oracle" + ("" if ok else f"; checks: {checks}"),
    )
    assert ok
