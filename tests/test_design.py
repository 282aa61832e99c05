"""Checks for power and sample-size planning.

Reference values were computed with an independent implementation
(scipy.stats noncentral F, quadrature for the truncation factor) and
frozen here.
"""

import math

import pytest
import scipy.stats

from eods import design
from eods._util import MIN_ESTIMATE_PAIRS, round_half_away_from_zero
from eods.design import (
    DesignSpec,
    cohen_f2,
    min_gamma_for_power,
    min_nfull_for_power,
    power_eods,
    power_full,
    variance_inflation,
)
from eods.errors import DomainError, Infeasible

TOL_VIF = 1e-9
TOL_POWER = 1e-9
TOL_EQUIV = 1e-9

REF_VIF = {
    0.05: 5.5820092756719495,
    0.1: 4.392860642787847,
    0.2: 3.2491016203854444,
    0.4: 2.1781094840353084,
    0.8: 1.2446969041989382,
    1.0: 1.0,
}
REF_POWER_FULL_118 = 0.8982732846403645
REF_POWER_FULL_119 = 0.9007211162695624
# Extreme design at n=200, f=0.3, alpha=0.05.
REF_EODS_010 = {"power": 0.7578792489492417, "ncp": 7.907149157018125, "df2": 18}
REF_EODS_009 = {"power": 0.7241786606192634, "ncp": 7.405247008840628, "df2": 16}
# Smallest even subset reaching 90% power at n=200, f=0.3.
REF_MIN_GAMMA_200 = (0.19, 38, 0.9072932747413873)
REF_MIN_NFULL_G1 = 119
REF_MIN_NFULL_G01 = 287


def test_cohen_f2():
    assert cohen_f2(0.0) == 0.0
    assert abs(cohen_f2(math.sqrt(0.5)) - 1.0) < 1e-12
    assert abs(cohen_f2(0.6) - 0.5625) < 1e-12
    for bad in (1.0, -1.0, 1.5):
        with pytest.raises(DomainError):
            cohen_f2(bad)


def test_variance_inflation_reference_values():
    for gamma, want in REF_VIF.items():
        assert abs(variance_inflation(gamma) - want) < TOL_VIF, gamma


def test_variance_inflation_monotone_and_bounded():
    prev = math.inf
    for i in range(1, 101):
        gamma = i / 100.0
        cur = variance_inflation(gamma)
        assert cur >= 1.0 - 1e-12
        assert cur < prev
        prev = cur
    assert abs(variance_inflation(1.0) - 1.0) < 1e-12


def test_variance_inflation_tiny_gamma():
    # 1 - gamma/2 rounds to 1 below gamma of about 1e-16, so z is taken
    # from the lower tail
    prev = math.inf
    for gamma in (1e-17, 1e-16, 2e-16, 1e-12, 1e-6):
        cur = variance_inflation(gamma)
        assert math.isfinite(cur)
        assert cur < prev, gamma
        prev = cur
    gamma = 1e-16
    z = scipy.stats.norm.isf(gamma / 2.0)
    want = (2.0 * z * scipy.stats.norm.pdf(z) + gamma) / gamma
    assert abs(variance_inflation(gamma) - want) < TOL_VIF * want


def test_variance_inflation_domain():
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(DomainError):
            variance_inflation(bad)


def test_power_full_reference_values():
    assert abs(power_full(118, 0.3, 0.05) - REF_POWER_FULL_118) < TOL_POWER
    assert abs(power_full(119, 0.3, 0.05) - REF_POWER_FULL_119) < TOL_POWER


def test_power_full_null_effect_gives_size():
    for n in (10, 50, 119):
        assert abs(power_full(n, 0.0, 0.05) - 0.05) < 1e-9


def test_power_eods_reference_values():
    got = power_eods(DesignSpec(200, 0.10, 0.3, 0.05))
    assert got.df1 == 1
    assert got.df2 == REF_EODS_010["df2"]
    assert abs(got.ncp - REF_EODS_010["ncp"]) < 1e-9
    assert abs(got.power - REF_EODS_010["power"]) < TOL_POWER

    got = power_eods(DesignSpec(200, 0.09, 0.3, 0.05))
    assert got.df2 == REF_EODS_009["df2"]
    assert abs(got.ncp - REF_EODS_009["ncp"]) < 1e-9
    assert abs(got.power - REF_EODS_009["power"]) < TOL_POWER


def test_power_eods_null_effect_gives_size():
    got = power_eods(DesignSpec(200, 0.2, 0.0, 0.05))
    assert abs(got.power - 0.05) < 1e-6


def test_power_eods_gamma_one_equals_full():
    for n in (50, 119, 200, 801):
        for f in (0.1, 0.3, 0.6):
            sub = power_eods(DesignSpec(n, 1.0, f, 0.05)).power
            assert abs(sub - power_full(n, f, 0.05)) < TOL_EQUIV


def test_power_eods_monotonicities():
    powers_n = [
        power_eods(DesignSpec(n, 0.2, 0.3, 0.05)).power
        for n in (100, 200, 400, 800)
    ]
    assert all(b > a for a, b in zip(powers_n, powers_n[1:]))
    powers_f = [
        power_eods(DesignSpec(200, 0.2, f, 0.05)).power
        for f in (0.0, 0.1, 0.2, 0.3, 0.5)
    ]
    assert all(b > a for a, b in zip(powers_f, powers_f[1:]))


def test_power_at_least_size():
    for n in (20, 100, 400):
        for gamma in (0.1, 0.3, 1.0):
            if round_half_away_from_zero(gamma * n) < 3:
                continue
            got = power_eods(DesignSpec(n, gamma, 0.0, 0.05))
            assert got.power >= 0.05 - 0.001


def test_subset_never_outpowers_full_sample():
    # gamma * variance_inflation(gamma) < 1 for gamma < 1, so the
    # extreme design loses power relative to testing everyone
    for gamma in (0.05, 0.1, 0.2, 0.4, 0.8):
        assert gamma * variance_inflation(gamma) < 1.0
        sub = power_eods(DesignSpec(400, gamma, 0.3, 0.05)).power
        assert sub < power_full(400, 0.3, 0.05)


def test_design_spec_validation():
    with pytest.raises(DomainError):
        DesignSpec(4, 0.5, 0.3, 0.05)
    with pytest.raises(DomainError):
        DesignSpec(100, 0.0, 0.3, 0.05)
    with pytest.raises(DomainError):
        DesignSpec(100, 0.5, -0.1, 0.05)
    with pytest.raises(DomainError):
        DesignSpec(100, 0.5, 0.3, 1.0)
    with pytest.raises(DomainError, match="selects only 2 of 100 rows"):
        DesignSpec(100, 0.02, 0.3, 0.05)
    with pytest.raises(DomainError, match="n_full must be an integer"):
        DesignSpec(10.5, 0.4, 0.3, 0.05)
    with pytest.raises(DomainError, match="n must be an integer"):
        power_full(10.5, 0.3, 0.05)


def test_design_spec_refuses_a_selection_the_estimator_cannot_fit():
    with pytest.raises(
        DomainError,
        match="selects only 3 of 25 rows; the estimator needs at least 4",
    ):
        DesignSpec(25, 0.1, 5.0, 0.05)
    assert DesignSpec(40, 0.1, 5.0, 0.05).n_selected == 4


def test_min_gamma_reference_search():
    gamma, n_selected, achieved = min_gamma_for_power(200, 0.3, 0.05, 0.90)
    assert n_selected == REF_MIN_GAMMA_200[1]
    assert abs(gamma - REF_MIN_GAMMA_200[0]) < 1e-12
    assert abs(achieved - REF_MIN_GAMMA_200[2]) < 1e-9
    assert n_selected % 2 == 0
    assert achieved >= 0.90
    # one even step down falls short of the target
    prev = power_eods(DesignSpec(200, (n_selected - 2) / 200, 0.3, 0.05))
    assert prev.power < 0.90


def test_min_gamma_feasibility_boundary():
    cap = power_eods(DesignSpec(200, 1.0, 0.3, 0.05)).power
    target = 0.9985
    if target > cap:
        with pytest.raises(Infeasible):
            min_gamma_for_power(200, 0.3, 0.05, target)
    else:
        gamma, n_selected, achieved = min_gamma_for_power(200, 0.3, 0.05, target)
        assert achieved >= target
    # just under the cap must succeed
    gamma, n_selected, achieved = min_gamma_for_power(200, 0.3, 0.05, cap - 1e-6)
    assert achieved >= cap - 1e-6


def _scan_min_gamma(n_full, effect_f, alpha, target_power):
    """Every even subset size in turn: the reference for the bisection."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not alpha < target_power < 1.0:
        raise DomainError("target power must lie in (alpha, 1)")
    full = power_eods(DesignSpec(n_full, 1.0, effect_f, alpha))
    if full.power < target_power:
        raise Infeasible(
            f"even full sampling yields power {full.power:.4f} "
            f"below the target {target_power:.4f}"
        )
    for n_selected in range(4, n_full + 1, 2):
        gamma = n_selected / n_full
        result = power_eods(DesignSpec(n_full, gamma, effect_f, alpha))
        if result.power >= target_power:
            return gamma, n_selected, result.power
    # n_full odd and no even size reached the target: full sampling did
    return 1.0, n_full, full.power


def _outcome(search, *args):
    try:
        return search(*args)
    except (DomainError, Infeasible) as exc:
        return type(exc), str(exc)


def test_power_eods_monotone_in_even_selection_and_n_full():
    # the bracketing searches rely on both orderings
    for f, alpha in ((0.1, 0.05), (0.3, 5e-8), (0.6, 0.01)):
        for n_full in (10, 51, 200, 333):
            powers = [
                power_eods(DesignSpec(n_full, k / n_full, f, alpha)).power
                for k in range(4, n_full + 1, 2)
            ]
            assert all(b >= a for a, b in zip(powers, powers[1:])), (n_full, f)
    for f, alpha in ((0.1, 0.05), (0.3, 5e-8)):
        for gamma in (0.05, 0.19, 0.5, 1.0):
            powers = [
                power_eods(DesignSpec(n, gamma, f, alpha)).power
                for n in range(5, 301)
                if round_half_away_from_zero(gamma * n) >= MIN_ESTIMATE_PAIRS
            ]
            assert all(b >= a for a, b in zip(powers, powers[1:])), (gamma, f)


def test_min_gamma_matches_linear_scan():
    cells = [
        (n_full, f, alpha, target)
        for n_full in (10, 51, 200, 2001)
        for f in (0.08, 0.15, 0.3, 0.6)
        for alpha in (0.05, 5e-8)
        for target in (0.5, 0.9)
    ]
    # odd n_full that no even size serves, so full sampling answers
    cap = power_eods(DesignSpec(51, 1.0, 0.3, 0.05)).power
    cells.append((51, 0.3, 0.05, cap - 1e-9))
    cells += [(4, 0.3, 0.05, 0.9), (200, 0.3, 0.05, 0.05), (200, 0.3, 0.05, 1.0)]
    want = {cell: _outcome(_scan_min_gamma, *cell) for cell in cells}
    for cell in cells:
        assert _outcome(min_gamma_for_power, *cell) == want[cell], cell
    assert want[(51, 0.3, 0.05, cap - 1e-9)][:2] == (1.0, 51)
    assert want[(10, 0.08, 0.05, 0.9)][0] is Infeasible
    assert want[(4, 0.3, 0.05, 0.9)][0] is DomainError


def test_min_gamma_power_evaluations_at_100k(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return power_eods(spec)

    monkeypatch.setattr(design, "power_eods", counted)
    gamma, n_selected, achieved = min_gamma_for_power(100000, 0.012, 0.05, 0.90)
    assert n_selected == 25468
    assert achieved >= 0.90
    assert len(calls) <= 40


def _recorded(monkeypatch):
    specs = []

    def recorded(spec):
        specs.append(spec)
        return power_eods(spec)

    monkeypatch.setattr(design, "power_eods", recorded)
    return specs


def test_searches_evaluate_each_design_once(monkeypatch):
    cap_51 = power_eods(DesignSpec(51, 1.0, 0.3, 0.05)).power
    cap_200 = power_eods(DesignSpec(200, 1.0, 0.3, 0.05)).power
    specs = _recorded(monkeypatch)
    # odd n_full that no even size serves: full sampling is evaluated
    # after the search, once
    assert min_gamma_for_power(51, 0.3, 0.05, cap_51 - 1e-9) == (1.0, 51, cap_51)
    assert specs[-1] == DesignSpec(51, 1.0, 0.3, 0.05)
    assert len(set(specs)) == len(specs)
    # even n_full: the search's last size is full sampling, kept for the
    # infeasible message
    specs.clear()
    with pytest.raises(Infeasible, match=f"yields power {cap_200:.4f}"):
        min_gamma_for_power(200, 0.3, 0.05, 0.9999)
    assert specs[-1] == DesignSpec(200, 1.0, 0.3, 0.05)
    assert len(set(specs)) == len(specs)
    # a search that answers never evaluates full sampling
    specs.clear()
    min_gamma_for_power(200, 0.3, 0.05, 0.90)
    assert DesignSpec(200, 1.0, 0.3, 0.05) not in specs
    assert len(set(specs)) == len(specs)
    specs.clear()
    n_full, n_selected, achieved = min_nfull_for_power(0.2, 0.3, 0.05, 0.90)
    assert specs.count(DesignSpec(n_full, 0.2, 0.3, 0.05)) == 1
    assert len(set(specs)) == len(specs)


def test_cohort_ceiling():
    assert DesignSpec(10_000_000, 0.2, 0.1, 0.05).n_selected == 2_000_000
    for n_full in (10_000_001, 10**13, 10**18):
        with pytest.raises(DomainError, match="n_full must be at most 10000000"):
            DesignSpec(n_full, 0.2, 0.1, 0.05)
        with pytest.raises(DomainError, match="n_full must be at most 10000000"):
            min_gamma_for_power(n_full, 0.1, 0.05, 0.8)
    with pytest.raises(DomainError, match="n must be at most 10000000"):
        power_full(10_000_001, 0.1, 0.05)
    # the search cap reads the same ceiling
    with pytest.raises(Infeasible, match="no design up to n_full = 10000000 "):
        min_nfull_for_power(0.2, 1e-6, 0.05, 0.9)


def test_min_gamma_monotone_in_effect():
    sizes = [
        min_gamma_for_power(200, f, 0.05, 0.80)[1]
        for f in (0.25, 0.3, 0.35, 0.4, 0.5)
    ]
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_min_nfull_gamma_one():
    got, n_selected, achieved = min_nfull_for_power(1.0, 0.3, 0.05, 0.90)
    assert got == n_selected == REF_MIN_NFULL_G1
    assert achieved == power_eods(DesignSpec(got, 1.0, 0.3, 0.05)).power
    assert power_full(got, 0.3, 0.05) >= 0.90
    assert power_full(got - 1, 0.3, 0.05) < 0.90


def test_min_nfull_extreme_design():
    got, n_selected, achieved = min_nfull_for_power(0.1, 0.3, 0.05, 0.90)
    assert got == REF_MIN_NFULL_G01
    assert n_selected == DesignSpec(got, 0.1, 0.3, 0.05).n_selected
    assert achieved == power_eods(DesignSpec(got, 0.1, 0.3, 0.05)).power
    assert power_eods(DesignSpec(got, 0.1, 0.3, 0.05)).power >= 0.90
    assert power_eods(DesignSpec(got - 1, 0.1, 0.3, 0.05)).power < 0.90


def test_min_nfull_monotone_in_target():
    results = [
        min_nfull_for_power(0.2, 0.3, 0.05, t)[0]
        for t in (0.5, 0.7, 0.8, 0.9, 0.95)
    ]
    assert all(b >= a for a, b in zip(results, results[1:]))


def test_min_nfull_infeasible_null_effect():
    with pytest.raises(Infeasible):
        min_nfull_for_power(0.2, 0.0, 0.05, 0.90)


def test_planners_answer_only_designs_the_estimator_takes():
    # a huge effect meets the target at 3 selected rows, which
    # odeb.estimate refuses; the search answers the first 4-row design
    n_full, n_selected, _ = min_nfull_for_power(0.1, 5.0, 0.05, 0.8)
    assert n_full == 35
    assert n_selected == DesignSpec(n_full, 0.1, 5.0, 0.05).n_selected == 4
    # the 3-row design at n_full 25 would meet it, and no spec takes it
    ncp = 25 * 5.0**2 * 0.1 * design.variance_inflation(0.1)
    assert design._slope_test_power(0.05, 1, ncp) >= 0.8
    with pytest.raises(DomainError, match="the estimator needs at least 4"):
        DesignSpec(25, 0.1, 5.0, 0.05)
    # the smallest even subset the gamma search tries is 4 rows
    assert min_gamma_for_power(200, 5.0, 0.05, 0.8)[1] == 4
