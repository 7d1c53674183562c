"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines;
every tolerance is pinned here, not configurable.
"""

import math
import time
from pathlib import Path

import numpy as np

from fvariety import (
    HELLINGER,
    KL,
    PEARSON,
    RandomStream,
    RespondentFilter,
    SweepConfig,
    TVD,
    analyze,
    continuous_f_variety,
    draw_samples,
    empirical_f_variety,
    exact_discretized_joint,
    f_divergence,
    f_variety,
    get_preset,
    is_uninformative,
    load_survey,
    mix,
    run_sweep,
    tvd_variety_binary_closed_form,
    uninformative_projection,
)
from fvariety.cli import main as cli_main
from fvariety.special import regularized_incomplete_beta
from fvariety.fixtures import generate_two_group_survey

from conftest import random_joint, random_uninformative_joint

ALL_KINDS = (TVD, KL, PEARSON, HELLINGER)
PRESET_NAMES = ("uniform-1", "non-uniform-1", "uniform-2", "non-uniform-2")
FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "athletes_like"


def check(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {description} {detail}"


def test_criterion_1_theoretical_tvd_endpoints():
    targets = {
        "uniform-1": 0.329576,
        "non-uniform-1": 0.348710,
        "uniform-2": 0.152907,
        "non-uniform-2": 0.200000,
    }
    start = time.perf_counter()
    results = {
        name: continuous_f_variety(get_preset(name), TVD, tol=1e-8)
        for name in targets
    }
    elapsed = time.perf_counter() - start
    ok = all(abs(results[n] - targets[n]) <= 1e-3 for n in targets)
    check(
        1,
        "continuous tvd-variety matches all four preset endpoints to 1e-3",
        ok and elapsed < 5.0,
        f"values {[round(results[n], 6) for n in targets]}, {elapsed:.2f}s",
    )


def test_criterion_2_pearson_and_hellinger_reference_values():
    # pearson targets belong to the non-uniform presets (the uniform-1
    # pearson value is pinned against an independently computed constant,
    # 0.521423 by scipy QUADPACK on the same integrand)
    checks = [
        (PEARSON, "non-uniform-2", 0.0, 0.248505),
        (PEARSON, "non-uniform-1", 0.0, 0.572854),
        (PEARSON, "non-uniform-2", 0.5, 0.0660054),
        (PEARSON, "uniform-1", 0.0, 0.521423),
        (HELLINGER, "uniform-1", 0.0, 0.100891),
        (HELLINGER, "non-uniform-1", 0.0, 0.116269),
    ]
    deltas = []
    for kind, preset, ratio, target in checks:
        value = continuous_f_variety(get_preset(preset).with_ratio(ratio), kind, 1e-8)
        deltas.append(abs(value - target))
    check(
        2,
        "pearson/hellinger reference values match to 1e-3",
        all(d <= 1e-3 for d in deltas),
        f"max delta {max(deltas):.2e}",
    )


def test_criterion_3_monte_carlo_reproduces_large_sample_run():
    start = time.perf_counter()
    rows = run_sweep(
        SweepConfig(
            model=get_preset("uniform-1"),
            ratios=(0.0, 1.0),
            sample_sizes=(1000,),
            trials_per_point=100,
            divergences=("tvd",),
            base_seed=42,
        )
    )
    elapsed = time.perf_counter() - start
    by_ratio = {r.ratio: r for r in rows}
    mean_ok = (
        abs(by_ratio[0.0].empirical_mean - 0.3231) <= 0.004
        and abs(by_ratio[1.0].empirical_mean - 0.0384) <= 0.004
    )
    std_ok = (
        0.5 * 0.0115 <= by_ratio[0.0].empirical_std <= 1.5 * 0.0115
        and 0.5 * 0.0095 <= by_ratio[1.0].empirical_std <= 1.5 * 0.0095
    )
    check(
        3,
        "n=1000 simulation means within 0.004 and stds within 50% of reference",
        mean_ok and std_ok and elapsed < 60.0,
        f"means {by_ratio[0.0].empirical_mean:.4f}/{by_ratio[1.0].empirical_mean:.4f}, "
        f"stds {by_ratio[0.0].empirical_std:.4f}/{by_ratio[1.0].empirical_std:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_property_suite():
    rng = np.random.default_rng(0xACCE)
    start = time.perf_counter()
    failures: list[str] = []
    alphas = np.arange(0.1, 1.0, 0.1)

    for i in range(1000):
        n_c = int(rng.integers(2, 5))
        n_b = int(rng.integers(1, 12))
        dist = random_joint(rng, n_c, n_b)
        projected = uninformative_projection(dist)
        noise = random_uninformative_joint(rng, n_c, n_b)

        for kind in ALL_KINDS:
            value = f_variety(dist, kind)
            if value < -1e-12:
                failures.append(f"negative variety {value} ({kind.name})")
            if f_variety(projected, kind) != 0.0:
                failures.append(f"projection variety is not exactly 0 ({kind.name})")

        # monotonicity and tvd linearity on a per-instance random alpha,
        # plus the full alpha grid on a subsample to bound the runtime
        for alpha in alphas if i < 100 else (float(rng.uniform(0.1, 0.9)),):
            mixed = mix([(1 - alpha, dist), (alpha, noise)])
            for kind in ALL_KINDS:
                if f_variety(mixed, kind) > (1 - alpha) * f_variety(dist, kind) + 1e-9:
                    failures.append(f"monotonicity broken at alpha={alpha} ({kind.name})")
            if abs(
                f_variety(mixed, TVD) - (1 - alpha) * f_variety(dist, TVD)
            ) > 1e-9:
                failures.append(f"tvd linearity broken at alpha={alpha}")

        binary = random_joint(rng, 2, n_b)
        if abs(
            tvd_variety_binary_closed_form(binary) - f_variety(binary, TVD)
        ) > 1e-12:
            failures.append("closed form mismatch")

        # stability / additivity of the uninformative predicate
        other_noise = random_uninformative_joint(rng, n_c, n_b)
        lam = float(rng.uniform())
        if not is_uninformative(mix([(lam, noise), (1 - lam, other_noise)]), 1e-9):
            failures.append("stability broken")
        gap = float(np.max(np.abs(dist.mass - projected.mass)))
        if gap >= 1e-3:
            lam = float(rng.uniform(0.05, 1.0))
            if is_uninformative(mix([(lam, dist), (1 - lam, noise)]), 1e-9):
                failures.append("additivity broken")

        if i < 100:  # separation positive side needs a guaranteed gap
            informative = dist if gap >= 0.01 else None
            if informative is not None:
                for kind in ALL_KINDS:
                    if not f_variety(informative, kind) > 0.0:
                        failures.append(f"separation positive side ({kind.name})")

    elapsed = time.perf_counter() - start
    check(
        4,
        "property suite over 1000 random instances and all four builtins",
        not failures and elapsed < 30.0,
        f"{elapsed:.1f}s" + (f"; first failure: {failures[0]}" if failures else ""),
    )


def _oracle_f_divergence(p, q, kind):
    """Independent direct summation with the zero-mass conventions."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0 and qi == 0.0:
            continue
        if pi == 0.0:
            total += qi * kind.tail
        elif qi == 0.0:
            total += pi * kind.zero_limit
        else:
            total += pi * float(kind.generator(np.array([qi / pi]))[0])
    return total


def _oracle_binomial_cdf(a, b, x):
    n = a + b - 1
    return sum(math.comb(n, j) * x**j * (1 - x) ** (n - j) for j in range(a, n + 1))


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(0xABCDE)
    worst_div = 0.0
    for _ in range(500):
        length = int(rng.integers(2, 13))
        p = rng.dirichlet(np.ones(length))
        q = rng.dirichlet(np.ones(length))
        for vec in (p, q):
            kill = rng.random(length) < 0.25
            if kill.all():
                kill[0] = False
            vec[kill] = 0.0
            vec /= vec.sum()
        for kind in ALL_KINDS:
            expected = _oracle_f_divergence(p, q, kind)
            actual = f_divergence(p, q, kind)
            if math.isinf(expected) or math.isinf(actual):
                assert math.isinf(expected) and math.isinf(actual)
            else:
                worst_div = max(worst_div, abs(actual - expected))

    worst_beta = 0.0
    for a in range(1, 16):
        for b in range(1, 17 - a):
            for x in np.arange(0.1, 0.95, 0.1):
                worst_beta = max(
                    worst_beta,
                    abs(
                        regularized_incomplete_beta(a, b, float(x))
                        - _oracle_binomial_cdf(a, b, float(x))
                    ),
                )
    check(
        5,
        "divergence matches brute-force oracle to 1e-12; "
        "incomplete beta matches binomial sums to 1e-9",
        worst_div <= 1e-12 and worst_beta <= 1e-9,
        f"worst {worst_div:.2e} / {worst_beta:.2e}",
    )


def test_criterion_6_discretization_never_gains_information():
    worst = -math.inf
    for name in PRESET_NAMES:
        model = get_preset(name)
        for kind in ALL_KINDS:
            discretized = f_variety(exact_discretized_joint(model), kind)
            continuous = continuous_f_variety(model, kind, tol=1e-8)
            worst = max(worst, discretized - continuous)
    check(
        6,
        "discretized variety <= continuous variety + 1e-6 on presets x builtins",
        worst <= 1e-6,
        f"worst excess {worst:.2e}",
    )


def test_criterion_7_estimation_error_shrinks_with_n():
    root = RandomStream(0xC0DE)
    ok = True
    details = []
    for name in PRESET_NAMES:
        model = get_preset(name)
        target = f_variety(exact_discretized_joint(model), TVD)
        errors = {}
        for n in (100, 1000):
            values = [
                empirical_f_variety(
                    draw_samples(model, n, root.spawn(name, n, t)), TVD
                )
                for t in range(50)
            ]
            errors[n] = float(np.mean(np.abs(np.array(values) - target)))
        ok &= errors[1000] < errors[100]
        details.append(f"{name}: {errors[100]:.4f}->{errors[1000]:.4f}")
    check(7, "mean absolute error at n=1000 below n=100 for every preset", ok,
          "; ".join(details))


def test_criterion_8_survey_fixture_end_to_end():
    dataset = load_survey(
        str(FIXTURE_DIR / "responses.csv"), str(FIXTURE_DIR / "respondents.csv")
    )
    report = analyze(
        dataset,
        [q.question_id for q in dataset.questions],
        RespondentFilter.parse("watches_sports=often"),
        RespondentFilter.parse("watches_sports=rarely"),
        kind=TVD,
        trials=100,
        stream=RandomStream(7),
    )
    wins = sum(1 for r in report.rows if r.groups[0].variety > r.groups[1].variety)
    max_baseline = max(g.baseline for r in report.rows for g in r.groups)
    check(
        8,
        "expert group's variety beats the novice group's on >= 6/7 questions "
        "with both baselines near zero",
        wins >= 6 and max_baseline < 0.1 and len(report.rows) == 7,
        f"wins {wins}/7, max baseline {max_baseline:.3f}",
    )


def test_criterion_9_cli_simulate_is_byte_deterministic(tmp_path):
    args = [
        "simulate", "--preset", "uniform-2", "--divergence", "tvd,pearson",
        "--seed", "2024", "--trials", "20", "--ratios", "0,0.5,1",
        "--sizes", "100,200",
    ]
    paths = [tmp_path / name for name in ("run1.csv", "run2.csv", "run3.csv")]
    assert cli_main(args + ["--out", str(paths[0])]) == 0
    assert cli_main(args + ["--out", str(paths[1])]) == 0
    assert cli_main(args + ["--jobs", "4", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    check(
        9,
        "simulate output byte-identical across runs and parallelism levels",
        blobs[0] == blobs[1] == blobs[2],
        f"{len(blobs[0])} bytes",
    )


def test_shipped_fixture_matches_generator(tmp_path):
    # guard against drift between the committed files and the generator
    regenerated = generate_two_group_survey(str(tmp_path))
    for name in ("responses.csv", "respondents.csv"):
        shipped = (FIXTURE_DIR / name).read_bytes()
        fresh = Path(tmp_path, name).read_bytes()
        assert shipped == fresh, f"{name} drifted from the generator output"
