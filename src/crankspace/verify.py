"""Verification suites for the rank/crank divisibility and unimodality claims.

Each suite re-derives one numeric claim over a caller-chosen range: it
raises every refusal before any work and returns a Plan, which run_plan runs
and times into a Report: pass (clean), fail (a genuine violation of the
claim), or partial (the claim holds but informative findings are attached:
outside its stated range, or past what a finite scan decides).
Counterexample payloads carry enough parameters to reproduce the violation,
plus the offending polynomial where one exists.
The claim registry at the bottom (CLAIMS, run_claims) names every claim and
resolves claim ids, their ell variants and their instance patterns; every
request runs its plans on search's fork map, the costliest first, and
reports them in registry order.

Divisibility is decided twice, by the residue-sum criterion and by
exact_quotient's sparse division, and only in _quotient; a disagreement
between the routes is itself reported as a violation, not silently resolved.

Default ranges are sized so that the slowest suite, cor3.5-B-k11-ell5, takes
about two seconds on one core.  Everything is exact integer arithmetic
except the quarantined floating-point asymptotic diagnostic.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import time
from typing import Callable, Iterable, NamedTuple

from . import partitions, qseries, search
from .cyclotomic import (
    NotDivisible,
    _is_odd_prime,
    divides_squared,
    divides_standard,
    exact_quotient,
    hat_sums,
)
from .laurent import CrankspaceError, LaurentPoly, parse_int, quote

RANK_MONOTONE_ONSET = 39
CRANK_UNIMODAL_ONSET = 44
FAMILY_A_ONSET = 15
FAMILY_B_ONSET = 24
# lem2.4 checks the near-top crank columns M(n - k, n) for every k up to this.
CONSTANCY_K_MAX = 10
# The (kind, k) families conj1.4 scans: the range its registry line states (k <= 12).
FAMILIES = tuple([("A", k) for k in range(3, 13)] + [("B", k) for k in range(7, 13, 2)])

class InvalidCase(CrankspaceError):
    """Raised for congruence-case parameters the hypotheses do not admit."""


class HypothesisViolation(CrankspaceError):
    """Raised when a suite is invoked outside its claim's hypotheses."""


class Counterexample(NamedTuple):
    params: dict
    poly: LaurentPoly | None = None

    def to_json_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "poly": self.poly.to_json_dict() if self.poly is not None else None,
        }


class Report(NamedTuple):
    """What one suite checked (range), what it found, and how long it took.

    status is derived from the counterexamples: fail if any lies within the
    claim, partial if all of them are informative, else pass.
    """

    claim_id: str
    range: str
    counterexamples: list[Counterexample]
    elapsed_s: float

    @property
    def status(self) -> str:
        if any(c.params.get("within_claim") for c in self.counterexamples):
            return "fail"
        return "partial" if self.counterexamples else "pass"

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "range": self.range,
            "status": self.status,
            "counterexamples": [c.to_json_dict() for c in self.counterexamples],
            "elapsed_s": self.elapsed_s,
        }


class Plan(NamedTuple):
    """An admitted request: work() checks it and returns (range note, counterexamples)."""

    claim_id: str
    work: Callable[[], tuple[str, list[Counterexample]]]
    cost: int = 0  # a colored scan's search.scan_work: run_claims starts the costliest first


def run_plan(plan: Plan) -> Report:
    """Run an admitted plan's work; its Report, timed over that work alone."""
    t0 = time.perf_counter()
    note, found = plan.work()
    return Report(plan.claim_id, note, found, time.perf_counter() - t0)


def _violation(kind: str, poly: LaurentPoly | None = None, **params) -> Counterexample:
    return Counterexample({"kind": kind, "within_claim": True, **params}, poly)


def _info(kind: str, poly: LaurentPoly | None = None, **params) -> Counterexample:
    return Counterexample({"kind": kind, "within_claim": False, **params}, poly)


def _quotient(params: dict, f: LaurentPoly, ell: int, variant: str,
              violations: list[Counterexample]) -> LaurentPoly | None:
    """f's quotient if both routes find f divisible, else None with the violation appended.

    variant `standard` divides by Phi_ell, `squared` by Phi_ell(z^2).
    """
    criterion = (divides_squared if variant == "squared" else divides_standard)(f, ell)
    try:
        q = exact_quotient(f, ell, variant)
    except NotDivisible:
        q = None
    if criterion and q is not None:
        return q
    kind = "route-disagreement" if criterion or q is not None else "not-divisible"
    violations.append(_violation(kind, f, **params))
    return None


def _check_slices(slices: Iterable[tuple[dict, int, list[int]]], ell: int,
                  onset: int, quotient_onset: int = 0):
    """Check (params, size, half) slices against the Phi_ell quotient claim.

    Each half is mirrored once (LaurentPoly.from_half), for both divisibility
    routes and any counterexample, so each slice is symmetric.  It must be
    divisible by both routes, unimodal (LaurentPoly.unimodal_half) from size
    `onset` on, and have a non-negative quotient from size `quotient_onset`
    on.  Returns (violations, wobbles, negatives), the latter two listing the
    below-onset sizes that were not unimodal or had a negative quotient.

    A symmetric unimodal f divisible by Phi_ell (ell an odd prime) has a
    non-negative quotient q = f (1 - z) / (1 - z^ell): q_n sums differences
    f_i - f_(i-1) with i <= n, none negative up to the centre, and q is a
    palindrome.  So a negative quotient of a unimodal slice is an arithmetic
    fault, not a finding, and raises ArithmeticError.
    """
    violations: list[Counterexample] = []
    wobbles: list[int] = []
    negatives: list[int] = []
    for params, size, half in slices:
        f = LaurentPoly.from_half(half)
        if (q := _quotient(params, f, ell, "standard", violations)) is None:
            continue
        unimodal = LaurentPoly.unimodal_half(half)
        if not unimodal:
            if size >= onset:
                violations.append(_violation("not-unimodal", f, **params | {"size": size}))
            else:
                wobbles.append(size)
        if not q.is_nonnegative():
            if unimodal:
                raise ArithmeticError(f"a symmetric unimodal multiple of Phi_{ell} has a negative "
                                      f"quotient at {params}")
            if size >= quotient_onset:
                violations.append(_violation("negative-quotient", q, **params))
            else:
                negatives.append(size)
    return violations, wobbles, negatives


# -- modified rank / crank quotients -------------------------------------------


def _modified_quotients(claim: str, statistic: str, onset: int, ell: int,
                        n_max: int | None) -> Plan:
    beta = partitions._modified_size(statistic, ell, 0)  # refuses an unsupported ell
    if n_max is None:
        n_max = (500 - beta) // ell  # every size up to 500
    partitions._check_size(max(ell * n_max + beta, 0))

    def work():
        slices = (({"ell": ell, "n": n}, ell * n + beta,
                   partitions._modified_half(statistic, ell, n)) for n in range(n_max + 1))
        violations, wobbles, _ = _check_slices(slices, ell, onset)
        note = f"ell={ell}, n in [0, {n_max}] (sizes ell*n+{beta})"
        if wobbles:
            note += f"; non-unimodal below size {onset} at sizes {wobbles}"
        return note, violations
    return Plan(f"{claim}-ell{ell}", work)


def verify_modified_rank(ell: int, n_max: int = 50) -> Plan:
    """Modified rank polynomials on the progression ell*n + beta(ell).

    Claim: each is symmetric and divisible by Phi_ell with a non-negative
    quotient, and is unimodal once the size reaches the rank monotonicity
    onset (39).  Smaller sizes genuinely wobble near the center; those are
    expected, so they are tallied in the range note rather than reported
    as counterexamples.
    """
    return _modified_quotients("conj1.1-part1", "rank", RANK_MONOTONE_ONSET, ell, n_max)


def verify_crank_squared(n_max: int = 99) -> Plan:
    """Crank polynomials at 5n + 4 against Phi_5(z^2).

    Claim: each is divisible with a non-negative quotient.  The quotient is
    not symmetric by itself; z^4 times it is, and that normalization is
    checked.  Interior zero coefficients of the quotient are counted and
    surfaced in the range note (non-negativity, not strict positivity, is
    the claim).
    """
    partitions._check_size(max(5 * n_max + 4, 0))

    def work():
        violations: list[Counterexample] = []
        interior_zeros = 0
        for n, N in enumerate(range(4, 5 * n_max + 5, 5)):
            params = {"n": n, "size": N}
            if (q := _quotient(params, partitions.crank_poly(N), 5, "squared", violations)) is None:
                continue
            if not q.is_nonnegative():
                violations.append(_violation("negative-quotient", q, **params))
            if not q.shift(4).is_symmetric():
                violations.append(_violation("normalized-quotient-asymmetric", q, **params))
            if any(c == 0 for c in q.coeffs):
                interior_zeros += 1
        note = (f"sizes 5n+4 <= {5 * n_max + 4}; "
                f"interior zeros in {interior_zeros} of {n_max + 1} quotients")
        return note, violations
    return Plan("conj1.1-part2", work)


def verify_modified_crank(ell: int, n_max: int | None = None) -> Plan:
    """Modified crank polynomials on the progression ell*n + beta(ell).

    Claim: each is symmetric and divisible by Phi_ell with a non-negative
    quotient for ell in {5, 7, 11}, and is unimodal once the size reaches
    the crank monotonicity onset (44).  Below that onset the raw crank
    counts oscillate with parity near the center (e.g. the counts of 9
    run 3, 2, 3 around zero), so small sizes can fail unimodality while
    the quotient claim still holds; such sizes are tallied in the range
    note rather than reported as counterexamples.
    """
    return _modified_quotients("conj1.1-part3", "crank", CRANK_UNIMODAL_ONSET, ell, n_max)


# -- rank monotonicity and crank columns ----------------------------------------


def verify_rank_monotonic(n_max: int = 200, n_lo: int = 1) -> Plan:
    """Weak decrease of rank counts over the window 0 <= m <= n - 2.

    Checks N(m, n) >= N(m+1, n) for consecutive pairs inside the window
    (the count at m = n - 1 is the lone largest-part partition and sits
    above an empty class, so the window cannot extend further).  The claim
    starts at n >= 39; violations below that onset are reported
    informatively and the largest such n lands in the range note.
    """
    if n_lo < 0:
        raise CrankspaceError(f"n_lo must be >= 0, got {n_lo}")
    partitions._check_size(max(n_max, 0))

    def work():
        violations: list[Counterexample] = []
        infos: list[Counterexample] = []
        worst_below = None
        for n in range(n_lo, n_max + 1):
            f = partitions.rank_poly(n)
            run = f.coeffs[-f.lo :]  # N(0, n), N(1, n), ...: a rank polynomial starts at z^-(n-1)
            for m in itertools.compress(range(n - 2), map(operator.lt, run, run[1 : n - 1])):
                a, b = run[m], run[m + 1]
                if n >= RANK_MONOTONE_ONSET:
                    violations.append(_violation("rank-increase", n=n, m=m, lhs=a, rhs=b))
                else:
                    infos.append(_info("rank-increase", n=n, m=m, lhs=a, rhs=b))
                    worst_below = n
        note = f"n in [{n_lo}, {n_max}], claim onset n >= {RANK_MONOTONE_ONSET}"
        if worst_below is not None:
            note += f"; largest below-onset violation at n={worst_below}"
        return note, violations + infos
    return Plan("conj1.3", work)


def verify_crank_mod10(n_max: int = 99) -> Plan:
    """Crank residue classes mod 10 at sizes 5n + 4.

    Claim: five times the count in class 2k + j mod 10 equals the count in
    class j mod 2, for j in {0, 1} and every k in 0..4.
    """
    partitions._check_size(max(5 * n_max + 4, 0))

    def work():
        violations: list[Counterexample] = []
        for n in range(n_max + 1):
            N = 5 * n + 4
            sums = hat_sums(partitions.crank_poly(N), 10)
            for j in (0, 1):
                whole = sum(sums[j::2])
                for k in range(5):
                    part = sums[2 * k + j]
                    if 5 * part != whole:
                        violations.append(
                            _violation("mod10-imbalance", n=n, size=N, j=j, k=k,
                                       lhs=5 * part, rhs=whole)
                        )
        return f"sizes 5n+4 <= {5 * n_max + 4}", violations
    return Plan("thm2.2", work)


def verify_crank_constancy(n_max: int = 60) -> Plan:
    """Stability of crank counts near the top: M(n-k, n) constant in n.

    Claim: for each fixed k <= CONSTANCY_K_MAX, M(n-k, n) does not depend on
    n once n >= max(2k, 2), and the extreme columns are M(n-1, n) = 0 and
    M(n, n) = 1 from n = 2 on.
    """
    partitions._check_size(max(n_max, 0))

    def work():
        violations: list[Counterexample] = []
        polys = {n: partitions.crank_poly(n) for n in range(2, n_max + 1)}
        for k in range(CONSTANCY_K_MAX + 1):
            start = max(2 * k, 2)
            if start > n_max:
                continue
            values = [polys[n].coefficient(n - k) for n in range(start, n_max + 1)]
            const = values[0]
            for i, v in enumerate(values):
                if v != const:
                    violations.append(
                        _violation("not-constant", k=k, n=start + i, value=v, expected=const)
                    )
            if k == 0 and const != 1:
                violations.append(_violation("top-value", k=0, value=const, expected=1))
            if k == 1 and const != 0:
                violations.append(_violation("top-value", k=1, value=const, expected=0))
        return f"k <= {CONSTANCY_K_MAX}, n <= {n_max}", violations
    return Plan("lem2.4", work)


def verify_n22_gap() -> Plan:
    """Named regression: the crank constancy gap at progression index 22.

    For ell in {5, 7, 11} and N = ell*22 + beta(ell), checks
    M(N-ell-1, N) - M(N-ell, N) - 1 >= 0, recomputed from the crank formula.
    """
    def work():
        violations: list[Counterexample] = []
        for ell in (5, 7, 11):
            N = ell * 22 + partitions.beta(ell)
            f = partitions.crank_poly(N)
            gap = f.coefficient(N - ell - 1) - f.coefficient(N - ell) - 1
            if gap < 0:
                violations.append(_violation("gap-negative", ell=ell, size=N, gap=gap))
        return "ell in {5,7,11}, n=22", violations
    return Plan("crank-n22-gap", work)


# -- colored congruences and quotients -------------------------------------------

_CLAUSES = (
    ((4, 8, 14), 3, 2),
    ((6, 10), 4, 3),
    ((26,), 12, 11),
)

H_VALUES = (4, 6, 8, 10, 14, 26)


def _clause_holds(h: int, ell: int) -> bool:
    return any(h in hs and ell % mod == res for hs, mod, res in _CLAUSES)


class CongruenceCase(NamedTuple):
    """One admissible colored congruence: ell | p_k(ell*n + delta).

    Requires a prime ell >= 5 dividing k + h, and one of the admissible
    (h, ell) residue clauses: h in {4,8,14} with ell = 2 mod 3, h in {6,10}
    with ell = 3 mod 4, or h = 26 with ell = 11 mod 12.  delta is the unique
    residue with 24*delta = k mod ell.
    """

    k: int
    h: int
    ell: int
    delta: int

    @classmethod
    def make(cls, k: int, h: int, ell: int) -> CongruenceCase:
        if k < 1:
            raise InvalidCase(f"k must be >= 1, got {k}")
        if h not in H_VALUES:
            raise InvalidCase(f"h must be in {H_VALUES}, got {h}")
        if ell >= 5 and (k + h) % ell != 0:
            raise InvalidCase(f"k + h = {k + h} is not a multiple of ell = {ell}")
        if ell < 5 or not _is_odd_prime(ell):
            raise InvalidCase(f"ell must be a prime >= 5, got {ell}")
        if not _clause_holds(h, ell):
            raise InvalidCase(f"(h={h}, ell={ell}) fits no admissible residue clause")
        return cls(k, h, ell, partitions.delta(k, ell))


def enumerate_congruence_cases(k_max: int) -> list[CongruenceCase]:
    """All admissible cases with k <= k_max, ordered by (k, h, ell)."""
    cases = []
    for k in range(1, k_max + 1):
        for h in H_VALUES:
            s = k + h
            for ell in range(5, s + 1):
                if s % ell:
                    continue
                try:
                    cases.append(CongruenceCase.make(k, h, ell))
                except InvalidCase:
                    continue
    return cases


def verify_colored_congruence(case: CongruenceCase, n_max: int = 50) -> Plan:
    """ell | p_k(ell*n + delta) for the given admissible case.

    The largest size is checked against the colored-count bounds before any
    count is computed; the work reads every size from one p_k series.
    """
    top = case.ell * n_max + case.delta
    if n_max >= 0:
        partitions._check_colored(case.k, top)

    def work():
        violations: list[Counterexample] = []
        series = qseries.colored_coeffs(case.k, top) if n_max >= 0 else ()
        for n, value in enumerate(series[case.delta :: case.ell]):
            size = case.ell * n + case.delta
            if value % case.ell:
                violations.append(
                    _violation("congruence", k=case.k, ell=case.ell, n=n, size=size,
                               residue=value % case.ell)
                )
        note = f"k={case.k}, h={case.h}, ell={case.ell}, delta={case.delta}, n in [0, {n_max}]"
        return note, violations
    return Plan(f"thm1.2-k{case.k}-h{case.h}-ell{case.ell}", work)


def _family_spec(kind: str, k: int) -> qseries.CrankSpec:
    return qseries.ak_spec(k) if kind == "A" else qseries.bk_spec(k)


def _check_family_hypotheses(kind: str, case: CongruenceCase) -> int:
    """Validate the (kind, case) pairing; return the unimodality onset."""
    if kind == "A":
        banned = (14, 26) if case.k % 2 else (26,)
        if case.h in banned:
            raise HypothesisViolation(
                f"kind=A with k={case.k} excludes h in {banned}, got h={case.h}"
            )
        return FAMILY_A_ONSET
    if kind == "B":
        if case.k % 2 == 0 or case.k < 7:
            raise HypothesisViolation(f"kind=B needs odd k >= 7, got k={case.k}")
        if case.h not in (6, 14):
            raise HypothesisViolation(f"kind=B needs h in (6, 14), got h={case.h}")
        return FAMILY_B_ONSET
    raise HypothesisViolation(f"kind must be 'A' or 'B', got {kind!r}")


def verify_colored_quotients(kind: str, case: CongruenceCase, n_max: int | None = None) -> Plan:
    """Cyclotomic divisibility of progression slices of a distinguished family.

    Claim: Phi_ell divides the q^(ell*n + delta) coefficient of the kind-A or
    kind-B product for every n in range (unconditional), and once the size
    reaches the family's unimodality onset the slice is unimodal and the
    quotient is non-negative.  Below-onset negative quotients or
    non-unimodal slices are expected for some small sizes; they are tallied
    in the range note rather than reported as counterexamples.  Sizes run
    to 300 by default; a scan whose search.scan_work passes the bound is refused.
    """
    onset = _check_family_hypotheses(kind, case)
    spec = _family_spec(kind, case.k)
    if n_max is None:
        n_max = (300 - case.delta) // case.ell
    if n_max < 0:
        raise CrankspaceError(f"n_max must be >= 0, got {n_max}")
    top = case.ell * n_max + case.delta
    cost = search.scan_work(len(spec.a), top, len(spec.a), sum(spec.a))
    search.refuse_past_bound(cost, f"a scan of the {kind}-k{case.k} product to size {top}")

    def work():
        sizes = range(case.delta, top + 1, case.ell)
        [(_, [built])] = qseries.iter_ck_slices([(spec.a, (spec.delta,))], sizes)
        slices = (({"n": n, "size": size}, size, half) for n, (size, half) in enumerate(built))
        violations, wobbles, negatives = _check_slices(slices, case.ell, onset, onset)
        note = (f"kind={kind}, k={case.k}, ell={case.ell}, delta={case.delta}, "
                f"sizes <= {top}, onset {onset}")
        if wobbles:
            note += f"; non-unimodal below onset at sizes {wobbles}"
        if negatives:
            note += f"; negative quotient below onset at sizes {negatives}"
        return note, violations
    return Plan(f"cor3.5-{kind}-k{case.k}-ell{case.ell}", work, cost)


# -- weight-tuple scans ---------------------------------------------------------


def check_first_gap_criterion(n_hi: int = search.DEFAULT_SCAN_BOUND,
                              threads: int | None = None) -> Plan:
    """Eventual unimodality iff the two largest weights are adjacent.

    Tests the equivalence, in both directions, on `search.exhaustive_search`
    below n_hi, which the plan's work runs, so its time is the claim's.  A
    scan to a finite bound decides neither direction: a tuple whose top
    slice is not unimodal may turn unimodal past the bound, and one whose top
    slice is may fail later.  So every mismatch is informative (status
    partial), and the range note records the bounds used.
    """
    if n_hi < 2:
        raise CrankspaceError(f"n_hi must be >= 2, got {n_hi}")
    cost = search.check_scan_work(n_hi=n_hi)

    def work():
        results = search.exhaustive_search(n_hi=n_hi, threads=threads)
        infos: list[Counterexample] = []
        for r in results:
            adjacent = len(r.spec.a) >= 2 and r.spec.a[0] - r.spec.a[1] == 1
            if r.eventually_unimodal and not adjacent:
                infos.append(
                    _info("unimodal-without-adjacent-pair", k=r.spec.k, a=list(r.spec.a),
                          threshold=r.threshold, n_hi=r.n_hi)
                )
            if adjacent and not r.eventually_unimodal:
                infos.append(
                    _info("adjacent-pair-not-unimodal", k=r.spec.k, a=list(r.spec.a),
                          largest_nonunimodal=r.largest_nonunimodal, n_hi=r.n_hi)
                )
        ks = sorted({r.spec.k for r in results})
        bounds = sorted({r.n_hi for r in results})
        return f"{len(results)} weight tuples, k in {ks}, scan bounds {bounds}", infos
    return Plan("conj4.2", work, cost)


def check_family_unimodality(n_hi: int = 100, threads: int | None = None) -> Plan:
    """Unimodality of the distinguished families FAMILIES above their onsets.

    Kind A is scanned for every k in [3, 12] with onset 15; kind B for odd
    k >= 7 with onset 24.  Non-unimodal slices at or above the onset are
    violations; below-onset ones are expected for small sizes and are
    tallied in the range note.  The scan builds the families as two chains
    (search.slice_defects), yet its cost sums each spec's tuple built alone:
    a chain member past the first runs one theta pass and one pentagonal
    pass, cheaper than a theta pass at its frame, where a lone build runs
    r >= 3, so even at their widest member's slots the chains cost less
    (0.67 of their tuples' lone costs).
    """
    if n_hi < 2:
        raise CrankspaceError(f"n_hi must be >= 2, got {n_hi}")
    specs = [_family_spec(kind, k) for kind, k in FAMILIES]
    cost = sum(search.scan_work(len(s.a), n_hi - 1, len(s.a), sum(s.a)) for s in specs)
    search.refuse_past_bound(cost, f"family scan over k 3..12 below n_hi {n_hi}")

    def work():
        violations: list[Counterexample] = []
        below_notes: list[str] = []
        for (kind, k), bad in zip(FAMILIES, search.slice_defects(specs, n_hi, threads)):
            onset = FAMILY_A_ONSET if kind == "A" else FAMILY_B_ONSET
            below = [n for n in bad if n < onset]
            for n in bad:
                if n >= onset:
                    violations.append(_violation("not-unimodal", family=kind, k=k, n=n))
            if below:
                below_notes.append(f"{kind}{k} at {below}")
        note = (f"k in [3, 12], 1 <= n < {n_hi}, "
                f"onsets A >= {FAMILY_A_ONSET}, B >= {FAMILY_B_ONSET} (B for odd k >= 7)")
        if below_notes:
            note += "; below-onset non-unimodal: " + "; ".join(below_notes)
        return note, violations
    return Plan("conj1.4", work, cost)


# -- floating-point diagnostic (quarantined) --------------------------------------


class AsymptoticSample(NamedTuple):
    """One comparison of N(m, n) against its sech^2 large-n approximation."""

    n: int
    m: int
    gamma: float
    predicted: float
    actual: int
    rel_error: float
    out_of_range: bool

    def to_json_dict(self) -> dict:
        return self._asdict()


def rank_asymptotic_samples(n: int, m_values: Iterable[int] | None = None) -> list[AsymptoticSample]:
    """Compare exact rank counts with (gamma/4) sech^2(gamma m / 2) p(n).

    gamma = pi / sqrt(6n).  The approximation is only claimed for
    |m| <= sqrt(n) log(n) / (pi sqrt(6)); samples outside that window are
    still computed but flagged out_of_range.  This is the package's only
    inexact computation.
    """
    if n < 1:
        raise CrankspaceError("n must be >= 1")
    f = partitions.rank_poly(n)  # refuses n past POLY_BOUND before any float is formed
    gamma = math.pi / math.sqrt(6 * n)
    window = math.sqrt(n) * math.log(n) / (math.pi * math.sqrt(6))
    if m_values is None:
        m_values = range(0, int(window) + 3)
    pn = float(partitions.colored_count(1, n))
    samples = []
    for m in m_values:
        actual = f.coefficient(m)
        try:  # far from 0, cosh overflows or sech^2 underflows to 0
            sech = 1.0 / math.cosh(gamma * m / 2.0)
            predicted = (gamma / 4.0) * sech * sech * pn
            rel = abs(actual - predicted) / predicted
        except (OverflowError, ZeroDivisionError):
            raise CrankspaceError(f"m={m} is out of reach at n={n}: the prediction is 0") from None
        samples.append(
            AsymptoticSample(n, m, gamma, predicted, actual, rel, abs(m) > window)
        )
    return samples


# -- claim registry ----------------------------------------------------------------


class Claim(NamedTuple):
    """One registry entry: a claim id, its `verify --list` line and its planner.

    plan(instance, n_max, n_lo, threads) is the suite's call for one instance:
    its Plan, or the suite's refusal (None keeps a suite default).  The bare
    id selects every instance: the `ells` of a group entry, which also answers
    to `<id>-ell<L>`, or else what `instances()` returns, built only when a
    request selects them (_resolve is the one caller).  A pattern entry answers
    to every id `parse` turns into an instance.  n_min is the smallest n_max
    whose range is not empty; takes_n_lo marks the entries whose suite reads
    n_lo.
    """

    claim_id: str
    description: str
    plan: Callable[..., Plan]
    ells: tuple[int, ...] = ()
    instances: Callable[[], tuple] = lambda: (None,)
    pattern: str = ""
    parse: Callable[[str], object] | None = None
    n_min: int = 0
    takes_n_lo: bool = False


def _given(**kwargs) -> dict:
    """The keyword arguments that are not None, so a suite keeps its default."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _n_hi(n_max: int | None) -> dict:
    """The scan bound a family or tuple scan takes for n_max: slices n <= n_max."""
    return _given(n_hi=None if n_max is None else n_max + 1)


def _instance_k(digits: str) -> int:
    """An instance id's k, refused past COLORED_K_BOUND before its ell is tested for primality.

    CongruenceCase.make needs ell | k + h, so ell is then at most k + 26.
    """
    k = parse_int(digits)
    if k > partitions.COLORED_K_BOUND:
        raise partitions.BoundExceeded(
            f"k = {k} exceeds the colored-count bound k <= {partitions.COLORED_K_BOUND}")
    return k


def _thm12_instance(claim_id: str) -> CongruenceCase | None:
    match = re.match(r"^thm1\.2-k(\d+)-h(\d+)-ell(\d+)$", claim_id)
    return match and CongruenceCase.make(_instance_k(match[1]), parse_int(match[2]),
                                         parse_int(match[3]))


def _cor35_instance(claim_id: str) -> tuple[str, CongruenceCase] | None:
    """The (kind, case) a cor3.5 instance id names, with the smallest valid h."""
    match = re.match(r"^cor3\.5-([AB])-k(\d+)-ell(\d+)$", claim_id)
    if not match:
        return None
    kind, k, ell = match[1], _instance_k(match[2]), parse_int(match[3])
    for h in H_VALUES:
        try:
            case = CongruenceCase.make(k, h, ell)
            _check_family_hypotheses(kind, case)
            return kind, case
        except (InvalidCase, HypothesisViolation):
            continue
    raise HypothesisViolation(f"no admissible progression for kind={kind}, k={k}, ell={ell}")


# Planners name their suites at call time, so a wrapper installed on a module
# attribute (as a tracer does) sees every call; instances are built the same way.
CLAIMS: tuple[Claim, ...] = (
    Claim("conj1.1-part1", "modified rank: cyclotomic quotient non-negative (ell=5,7)",
          lambda ell, n_max, n_lo, threads: verify_modified_rank(ell, **_given(n_max=n_max)),
          ells=partitions.MODIFIED_RANK_ELLS),
    Claim("conj1.1-part2", "crank at 5n+4: quotient by squared-argument divisor non-negative",
          lambda _, n_max, n_lo, threads: verify_crank_squared(**_given(n_max=n_max))),
    Claim("conj1.1-part3", "modified crank: cyclotomic quotient non-negative (ell=5,7,11)",
          lambda ell, n_max, n_lo, threads: verify_modified_crank(ell, n_max),
          ells=partitions.MODIFIED_CRANK_ELLS),
    Claim("conj1.3", "rank counts weakly decreasing over the window (onset 39)",
          lambda _, n_max, n_lo, threads: verify_rank_monotonic(**_given(n_max=n_max, n_lo=n_lo)),
          n_min=1, takes_n_lo=True),
    Claim("thm2.2", "crank residue classes mod 10 at 5n+4 are 1/5 of the mod-2 classes",
          lambda _, n_max, n_lo, threads: verify_crank_mod10(**_given(n_max=n_max))),
    Claim("lem2.4", "near-top crank counts M(n-k, n) are constant in n",
          lambda _, n_max, n_lo, threads: verify_crank_constancy(**_given(n_max=n_max)), n_min=2),
    Claim("crank-n22-gap", "named regression: constancy gap at progression index 22",
          lambda *_: verify_n22_gap()),
    Claim("thm1.2", "colored congruences, all admissible cases with k <= 12",
          lambda case, n_max, n_lo, threads: verify_colored_congruence(case, **_given(n_max=n_max)),
          instances=lambda: tuple(enumerate_congruence_cases(12)),
          pattern="thm1.2-k<K>-h<H>-ell<L>", parse=_thm12_instance),
    Claim("cor3.5", "distinguished-family slices: divisibility and onset positivity",
          lambda instance, n_max, n_lo, threads: verify_colored_quotients(*instance, n_max),
          instances=lambda: tuple(map(_cor35_instance, ("cor3.5-A-k6-ell5", "cor3.5-B-k9-ell23",
                                                        "cor3.5-B-k11-ell5"))),
          pattern="cor3.5-<A|B>-k<K>-ell<L>", parse=_cor35_instance),
    Claim("conj1.4", "distinguished families unimodal above onsets 15/24 (k <= 12)",
          lambda _, n_max, n_lo, threads: check_family_unimodality(threads=threads, **_n_hi(n_max)),
          n_min=1),
    Claim("conj4.2", "eventual unimodality iff the top two weights are adjacent (k <= 6)",
          lambda _, n_max, n_lo, threads: check_first_gap_criterion(threads=threads, **_n_hi(n_max)),
          n_min=1),
)

VARIANTS: dict[str, tuple[Claim, tuple[int]]] = {
    f"{claim.claim_id}-ell{ell}": (claim, (ell,)) for claim in CLAIMS for ell in claim.ells
}


def _resolve(claim_id: str) -> tuple[Claim, tuple]:
    """The registry entry claim_id names, with the instances it selects."""
    if claim_id in VARIANTS:
        return VARIANTS[claim_id]
    for claim in CLAIMS:
        if claim_id == claim.claim_id:
            return claim, claim.ells or claim.instances()
        instance = claim.parse and claim.parse(claim_id)
        if instance:
            return claim, (instance,)
    raise CrankspaceError(f"unknown claim id {quote(claim_id)} (try `verify --list`)")


def run_claims(claim_id: str, n_max: int | None = None, n_lo: int | None = None,
               threads: int | None = None) -> list[Report]:
    """Reports for the claim claim_id names, or for every claim when it is `all`.

    Every selected instance is planned before any plan runs, so each refusal
    comes before any work: an unknown id, an n_lo for a claim that does not
    take one, an n_max below the lowest index a claim checks (its n_min,
    raised to n_lo when given) or an instance its suite refuses raises
    CrankspaceError, and a BoundExceeded names the first refused instance of
    every claim.  None for n_max, n_lo or threads keeps each suite's own
    default.

    The plans run on search._pool_map, the costliest first, so a failure
    resolves the same way at every worker count; several plans are each
    planned with threads=1, so that no worker forks again.  The reports come
    back in registry order whatever the worker count.
    """
    ids = [claim.claim_id for claim in CLAIMS] if claim_id == "all" else [claim_id]
    selected = list(map(_resolve, ids))
    several = sum(len(instances) for _, instances in selected) > 1
    plans: list[Plan] = []
    refused = []
    for claim, instances in selected:
        if n_lo is not None and not claim.takes_n_lo:
            raise CrankspaceError(f"{claim.claim_id} does not take n_lo")
        lo = claim.n_min if n_lo is None else max(claim.n_min, n_lo)
        if n_max is not None and n_max < lo:
            raise CrankspaceError(f"empty range: {claim.claim_id} checks nothing "
                                  f"with n_max={n_max} (needs n_max >= {lo})")
        try:
            plans += [claim.plan(instance, n_max, n_lo, 1 if several else threads)
                      for instance in instances]
        except partitions.BoundExceeded as exc:
            refused.append(f"{claim.claim_id}: {exc}")
    if refused:
        raise partitions.BoundExceeded("; ".join(refused))
    ranked = sorted(plans, key=operator.attrgetter("cost"), reverse=True)
    reports = dict(zip(ranked, search._pool_map(run_plan, ranked, threads)))
    return [reports[plan] for plan in plans]
