"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values come from independent routes: joint-support enumeration,
set-partition counting, formal-polynomial evaluation at degree+1 points,
and 5-sigma statistics against exact targets.  Tolerances are pinned
here: identity criteria demand exact rational equality, the series
evaluation 1e-10 relative, the sampling battery a >= 99% pass rate at
five standard errors over 50 seeds.
"""

import random
import time
from fractions import Fraction

from probdowling import (Bernoulli, Binomial, DiscreteUniform, Geometric,
                         Params, PointMass, Poisson, bell_partial,
                         bell_partial_series,
                         check_bell_expansion, check_bell_rwhitney,
                         check_binom_bell, check_binomial_inversion,
                         check_convolution, check_derivative, check_recurrence,
                         check_stirling_bell, check_sum_identity,
                         degen_falling, dobinski_eval, dowling_poly_r,
                         egf_coeff, estimate_sum_degen_moment,
                         falling, stirling2, stirling2_degen, stirling2_prob,
                         whitney_prob, whitney_prob_r)
from probdowling.dowling import WHITNEY_ROUTES

from oracles import bell_args_series, bell_complete, egf_exp

BUILTIN_MODELS = [
    PointMass(Fraction(1)),
    Bernoulli(Fraction(1, 2)),
    Binomial(3, Fraction(1, 3)),
    DiscreteUniform(2),
    Poisson(Fraction(1)),
    Geometric(Fraction(1, 2)),
]
STOCHASTIC_MODELS = BUILTIN_MODELS[1:]
M_VALUES = (1, 2, 3)
LAM_VALUES = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 3))


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_four_route_whitney_agreement():
    start = time.monotonic()
    mismatches = []
    for Y in BUILTIN_MODELS:
        for m in M_VALUES:
            for lam in LAM_VALUES:
                params = Params(m, lam, 1)
                for n in range(13):
                    for k in range(n + 1):
                        vals = {r: whitney_prob(Y, params, n, k, r)
                                for r in WHITNEY_ROUTES}
                        if len(set(vals.values())) != 1:
                            mismatches.append((Y, m, lam, n, k, vals))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 120.0
    report("criterion 1: four-route Whitney agreement, n<=12", ok,
           f"{len(mismatches)} mismatches, {elapsed:.1f}s")


def test_criterion_2_defining_relations_point_mass():
    pm = PointMass(Fraction(1))
    bad = []
    for m in M_VALUES:
        for lam in LAM_VALUES:
            for r in (0, 1, 2):
                params = Params(m, lam, r)
                for n in range(11):
                    # degree+1 distinct points pin the degree-n identity.
                    for x in [Fraction(i, 2) for i in range(-2, n + 1)]:
                        lhs = degen_falling(m * x + r, n, lam)
                        rhs = sum(whitney_prob_r(pm, params, n, k)
                                  * Fraction(m)**k * falling(x, k)
                                  for k in range(n + 1))
                        if lhs != rhs:
                            bad.append((m, lam, r, n, x))
                        if lam == 0 and lhs != (m * x + r) ** n:
                            bad.append(("classical", m, r, n, x))
    report("criterion 2: defining relations for the deterministic model, "
           "n<=10, r in {0,1,2}", not bad, f"{len(bad)} failures")


def test_criterion_3_theorem_suite_green():
    start = time.monotonic()
    xs = [Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(1),
          Fraction(2), Fraction(3)]
    failures = []

    def note(rep):
        if not rep.passed:
            failures.append(rep)

    for Y in BUILTIN_MODELS:
        for m in M_VALUES:
            for lam in LAM_VALUES:
                params = Params(m, lam, 1)
                for n in range(9):
                    for N in range(7):
                        note(check_sum_identity(Y, params, n, N))
                    note(check_bell_expansion(Y, params, n))
                    note(check_recurrence(Y, params, n))
                    for x in xs:
                        note(check_binom_bell(Y, params, n, x))
                        for k in range(n + 1):
                            note(check_bell_rwhitney(Y, params, n, k, x))
                            note(check_stirling_bell(Y, params, n, k, x))
                    for k in range(1, n + 1):
                        note(check_derivative(Y, params, n, k))
                for n in range(7):
                    note(check_convolution(Y, params, n))
    rng = random.Random(2024)
    for _ in range(20):
        seq = [Fraction(rng.randint(-99, 99), rng.randint(1, 20))
               for _ in range(rng.randint(1, 10))]
        note(check_binomial_inversion(seq))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    report("criterion 3: identity suite exact over the full model grid, n<=8",
           ok, f"{len(failures)} failures, {elapsed:.1f}s")


def test_criterion_4_bell_oracle_equivalence():
    rng = random.Random(99)
    bad = 0
    for _ in range(100):
        args = [Fraction(rng.randint(-40, 40), rng.randint(1, 10))
                for _ in range(10)]
        inner = bell_args_series(args, 10)
        exp_series = egf_exp(inner)
        for n in range(11):
            for k in range(n + 1):
                enum = bell_partial(n, k, args[:max(n - k + 1, 0)] or [])
                via_series = egf_coeff(bell_partial_series(k, inner), n)
                if enum != via_series:
                    bad += 1
            if bell_complete(n, args[:n]) != egf_coeff(exp_series, n):
                bad += 1
    report("criterion 4: partition enumeration vs series Bell values, "
           "100 random vectors, n<=10", bad == 0, f"{bad} disagreements")


def test_criterion_5_dobinski_convergence():
    bad = []
    rel_tol = 1e-10
    param_choices = [Params(1, Fraction(1, 2), 1), Params(2, Fraction(1, 3), 0),
                     Params(2, Fraction(-1, 3), 2), Params(3, Fraction(0), 1)]
    for Y in STOCHASTIC_MODELS:
        for params in param_choices:
            for n in range(7):
                for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
                    got = dobinski_eval(Y, params, n, x, rel_tol)
                    exact = float(dowling_poly_r(Y, params, n).evaluate(x))
                    gap = abs(got - exact)
                    if gap > rel_tol * max(1.0, abs(exact)):
                        bad.append((Y, params, n, x, got, exact))
    report("criterion 5: series evaluation matches exact polynomials at "
           "1e-10 relative", not bad, f"{len(bad)} out of tolerance")


def test_criterion_6_monte_carlo_battery():
    runs = 0
    hits = 0
    misses = []
    for Y in (Bernoulli(Fraction(1, 2)), Poisson(Fraction(1)),
              DiscreteUniform(2)):
        for k, n in ((1, 1), (2, 2), (3, 3)):
            for seed in range(50):
                est = estimate_sum_degen_moment(
                    Y, k, 2, 1, n, Fraction(1, 2),
                    samples=100_000, seed=seed)
                runs += 1
                if est.within(5):
                    hits += 1
                else:
                    misses.append((Y, k, n, seed))
    rate = hits / runs
    report("criterion 6: sampling within 5 standard errors, 50-seed battery",
           rate >= 0.99,
           f"pass rate {rate:.4f} over {runs} runs; misses: {misses}")


def test_criterion_7_stirling_bridges():
    pm = PointMass(Fraction(1))
    bad = 0
    for n in range(13):
        for k in range(n + 1):
            if stirling2_degen(n, k, Fraction(0)) != stirling2(n, k):
                bad += 1
            for lam in LAM_VALUES:
                if stirling2_prob(pm, n, k, lam) != stirling2_degen(n, k, lam):
                    bad += 1
    report("criterion 7: degenerate Stirling bridges (classical limit and "
           "deterministic model)", bad == 0, f"{bad} mismatches")
