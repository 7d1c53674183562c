"""The four benchmark workloads: seeded inputs, job plans and output checks.

Inputs are generated here with numpy from the benchmark seed, never with
the library under test, so a change to the library's own RNG use cannot
change what is measured.  Output checks run in the parent process after
the timed jobs and compare against references computed here: they accept
float reordering in the 6th significant digit, not byte goldens.

A job plan is a list of CLI calls, each ``{"argv": [...], "stdout": path}``;
``{rep}`` in any string is replaced by the repetition's tag.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

N_BINS = 11
KINDS = ("tvd", "kl", "pearson", "hellinger")
DEFAULT_RATIOS = tuple(k / 10 for k in range(11))
DEFAULT_SIZES = (100, 200, 500, 1000)

# The library's four preset models, restated so the theory inputs do not
# depend on the library: (expert weight of choice 0, Beta of choice 0,
# Beta of choice 1); non-experts are Beta(2, 2).
PRESETS = {
    "uniform-1": (0.5, (8.0, 3.0), (4.0, 5.0)),
    "non-uniform-1": (0.3, (8.0, 3.0), (4.0, 5.0)),
    "uniform-2": (0.5, (6.0, 6.0), (2.0, 3.0)),
    "non-uniform-2": (0.3, (6.0, 6.0), (2.0, 3.0)),
}

# Values are written with 6 significant digits; summation order may move
# the last one.
REL_TOL = 2e-5
ABS_TOL = 1e-12


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def preset_model(name: str, ratio: float) -> dict:
    w, plus, minus = PRESETS[name]
    return {
        "n_choices": 2,
        "expert_weights": [w, 1.0 - w],
        "expert_beta": [list(plus), list(minus)],
        "nonexpert_beta": [2.0, 2.0],
        "nonexpert_ratio": ratio,
    }


def tvd_variety(counts: np.ndarray) -> float:
    """Total-variation variety of a (choices, bins) count table."""
    joint = counts / counts.sum()
    projection = np.broadcast_to(joint.sum(axis=0) / joint.shape[0], joint.shape)
    return 0.5 * float(np.abs(joint - projection).sum())


def choice_baseline(counts: np.ndarray) -> float | None:
    if counts.shape[0] != 2:
        return None
    return abs(float(counts[0].sum() / counts.sum()) - 0.5)


def read_csv(path: str | Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_question_rows(
    rows: list[dict[str, str]], expected: dict[str, dict], fields: dict[str, str]
) -> list[str]:
    """Compare CSV rows against per-question references.

    ``fields`` maps CSV column -> reference key; float columns are compared
    with :func:`close`, the rest as strings.
    """
    problems = []
    got_ids = [r["question_id"] for r in rows]
    if got_ids != list(expected):
        return [f"question ids {got_ids[:5]}... differ from {list(expected)[:5]}..."]
    for row in rows:
        ref = expected[row["question_id"]]
        for column, key in fields.items():
            want = ref[key]
            text = row[column]
            if want is None:
                ok = text == ""
            elif isinstance(want, float):
                ok = text != "" and close(float(text), want)
            else:
                ok = text == str(want)
            if not ok:
                problems.append(f"{row['question_id']} {column}={text!r}, expected {want!r}")
    return problems


class Workload:
    """Common shape: ``make_inputs``, ``plan``, ``units``, ``outputs``, ``check``."""

    def outputs(self, tag: str, job: str) -> list[Path]:
        return [self.work / f"{tag}.csv"]

    def same_output(self, tag_a: str, job_a: str, tag_b: str, job_b: str) -> bool:
        """Byte equality of two jobs' outputs (determinism across repeats and --jobs)."""
        read = lambda tag, job: [p.read_bytes() for p in self.outputs(tag, job)]
        return read(tag_a, job_a) == read(tag_b, job_b)


class Sweep(Workload):
    """`simulate` over the default grid at --jobs 1, and once per run at --jobs 2."""

    name = "sweep"
    throughput_unit = "trials/s"
    kinds = ("tvd", "pearson", "hellinger")

    # 20 trials per point, not the paper's 100: one 100-trial sweep takes
    # ~13 s, too long to repeat within a run (see run.py on job times)
    def __init__(self, trials: int = 20, ratios=DEFAULT_RATIOS, sizes=DEFAULT_SIZES):
        self.trials, self.ratios, self.sizes = trials, ratios, sizes

    def make_inputs(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed

    def _argv(self, jobs: int, out: str) -> list[str]:
        return [
            "simulate", "--preset", "uniform-1",
            "--divergence", ",".join(self.kinds),
            "--trials", str(self.trials),
            "--ratios", ",".join(f"{r:g}" for r in self.ratios),
            "--sizes", ",".join(str(n) for n in self.sizes),
            "--seed", str(self.seed), "--jobs", str(jobs), "--out", out,
        ]

    def plan(self) -> dict:
        return {
            "main": [{"argv": self._argv(1, str(self.work / "{rep}-j1.csv"))}],
            "fanout": [{"argv": self._argv(2, str(self.work / "{rep}-j2.csv"))}],
        }

    def units(self) -> int:
        return len(self.kinds) * len(self.ratios) * len(self.sizes) * self.trials

    def outputs(self, tag: str, job: str) -> list[Path]:
        return [self.work / f"{tag}-{'j1' if job == 'main' else 'j2'}.csv"]

    def check(self, tag: str, job: str) -> list[str]:
        [path] = self.outputs(tag, job)
        rows = read_csv(path)
        problems = []
        expected = len(self.kinds) * len(self.ratios) * len(self.sizes)
        if len(rows) != expected:
            problems.append(f"{path.name}: {len(rows)} rows, expected {expected}")
        for r in rows:
            mean, std = float(r["mean"]), float(r["std"])
            cont, disc = float(r["theory_cont"]), float(r["theory_disc"])
            if not (math.isfinite(mean) and mean >= 0 and math.isfinite(std) and std >= 0):
                problems.append(f"{path.name}: bad mean/std in {r}")
            if cont < disc - 1e-9 - REL_TOL * abs(disc):
                problems.append(f"{path.name}: continuous < discretized in {r}")
            if float(r["ratio"]) == 1.0 and disc != 0.0:
                problems.append(f"{path.name}: theory_disc at ratio 1 is {disc}, not 0")
        return problems


class Compare(Workload):
    """`analyze` with an equalized two-group comparison on the shipped fixture."""

    name = "compare"
    throughput_unit = "trials/s"
    filter_a = "watches_sports=often"
    filter_b = "watches_sports in often|rarely"

    def __init__(self, root: Path, trials: int = 1000):
        self.fixture = root / "fixtures" / "athletes_like"
        self.trials = trials

    def make_inputs(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed
        respondents = {r["respondent_id"]: r for r in read_csv(self.fixture / "respondents.csv")}
        responses = read_csv(self.fixture / "responses.csv")
        groups = {
            "a": lambda attrs: attrs["watches_sports"] == "often",
            "b": lambda attrs: attrs["watches_sports"] in ("often", "rarely"),
        }
        self.questions: dict[str, dict] = {}
        by_question: dict[str, list[dict]] = {}
        for r in responses:
            by_question.setdefault(r["question_id"], []).append(r)
        for qid, answers in by_question.items():
            options = sorted({a["choice"] for a in answers})
            ref: dict = {}
            for side, keep in groups.items():
                picked = [a for a in answers if keep(respondents[a["respondent_id"]])]
                choice = np.array([options.index(a["choice"]) for a in picked])
                bins = np.array([int(a["prediction_pct"]) // 10 for a in picked])
                counts = np.bincount(
                    choice * N_BINS + bins, minlength=len(options) * N_BINS
                ).reshape(len(options), N_BINS)
                ref[f"n_{side}"] = len({a["respondent_id"] for a in picked})
                ref[f"variety_{side}"] = tvd_variety(counts)
                ref[f"baseline_{side}"] = choice_baseline(counts)
            ref["subsample_size"] = min(ref["n_a"], ref["n_b"])
            ref["trials"] = self.trials
            ref["resampled_side"] = "b"
            self.questions[qid] = ref

    def plan(self) -> dict:
        argv = [
            "analyze",
            "--responses", str(self.fixture / "responses.csv"),
            "--respondents", str(self.fixture / "respondents.csv"),
            "--filter", self.filter_a, "--filter-b", self.filter_b,
            "--divergence", "tvd", "--trials", str(self.trials),
            "--seed", str(self.seed), "--format", "csv",
            "--out", str(self.work / "{rep}.csv"),
        ]
        return {"main": [{"argv": argv}]}

    def units(self) -> int:
        return len(self.questions) * self.trials

    def check(self, tag: str, job: str) -> list[str]:
        rows = read_csv(self.outputs(tag, job)[0])
        problems = _check_question_rows(rows, self.questions, {
            "respondents_a": "n_a", "respondents_b": "n_b",
            "variety_a": "variety_a", "variety_b": "variety_b",
            "baseline_a": "baseline_a", "baseline_b": "baseline_b",
            "resampled_side": "resampled_side", "trials": "trials",
            "subsample_size": "subsample_size",
        })
        for r in rows:
            mean, std = float(r["resampled_mean"]), float(r["resampled_std"])
            if not (0.0 < mean <= 1.0 and 0.0 < std < 1.0):
                problems.append(f"{r['question_id']}: subsample mean {mean} / std {std}")
        return problems


def _beta_pdf(x: np.ndarray, a: float, b: float) -> np.ndarray:
    from scipy.special import betaln

    return np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - betaln(a, b))


def continuous_tvd_reference(model: dict) -> float:
    """Un-binned TVD variety of a model by scipy.integrate.quad."""
    from scipy import integrate, optimize

    n = model["n_choices"]
    ratio = model["nonexpert_ratio"]
    a0, b0 = model["nonexpert_beta"]

    def density(c: int, x):
        a, b = model["expert_beta"][c]
        return (1.0 - ratio) * model["expert_weights"][c] * _beta_pdf(x, a, b) + (
            ratio / n
        ) * _beta_pdf(x, a0, b0)

    def gap(c: int, x):
        x = np.asarray(x, dtype=float)
        return density(c, x) - sum(density(k, x) for k in range(n)) / n

    total = 0.0
    grid = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    for c in range(n):
        g = gap(c, grid)
        roots = [
            optimize.brentq(lambda x: float(gap(c, x)), grid[i], grid[i + 1], xtol=1e-14)
            for i in np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
        ]
        value, _ = integrate.quad(
            lambda x: abs(float(gap(c, x))), 0.0, 1.0,
            points=roots or None, limit=500, epsabs=1e-13, epsrel=1e-12,
        )
        total += 0.5 * value
    return total


class Theory(Workload):
    """`theoretical --model` once per model of a seeded family plus the presets."""

    name = "theory"
    throughput_unit = "values/s"
    tol = 1e-8  # absolute quadrature tolerance asked of the program

    def __init__(self, family: int = 6, ratios=DEFAULT_RATIOS, presets=tuple(PRESETS)):
        self.family, self.ratios, self.presets = family, ratios, presets

    def make_inputs(self, work: Path, seed: int) -> None:
        self.work = work
        rng = np.random.default_rng([seed, 3])
        # Latin-hypercube shapes and ratios: every family spreads evenly over
        # the ranges, so seeds differ in the models, not in how much
        # quadrature work the family needs in total
        strata = lambda: (rng.permutation(self.family) + rng.random(self.family)) / self.family
        expert = 1.0 + 9.0 * np.stack([strata() for _ in range(8)], axis=1)
        # Non-expert alpha may fall below 1 (density infinite at x = 0, the
        # endpoint-NaN path of the kink scan).  Other shapes stay >= 1: an
        # expert shape below 1, or any beta below 1, makes `theoretical`
        # print nan for kl and pearson (see CHANGES.md).
        noise = np.stack([0.5 + 9.5 * strata(), 1.0 + 9.0 * strata()], axis=1)
        ratios = strata()
        models = []
        for i in range(self.family):
            k = 2 + i % 3
            weights = rng.dirichlet(np.ones(k))
            beta = np.vstack([expert[i, : 2 * k].reshape(k, 2), noise[i]])
            if i == 0:
                # keep a shape below 1 in every family, whatever the seed
                beta[k, 0] = rng.uniform(0.5, 1.0)
            models.append({
                "n_choices": k,
                "expert_weights": [float(w) for w in weights / weights.sum()],
                "expert_beta": beta[:k].tolist(),
                "nonexpert_beta": beta[k].tolist(),
                "nonexpert_ratio": float(ratios[i]),
            })
        for name in self.presets:
            models.extend(preset_model(name, r) for r in self.ratios)
        self.models = models
        for i, m in enumerate(models):
            (work / f"m{i}.json").write_text(json.dumps(m), encoding="utf-8")
        # a few reference values: the presets at ratio 0.3 and the random
        # models whose densities stay finite at the endpoints
        smooth = [
            i for i, m in enumerate(models[: self.family])
            if min(min(p) for p in m["expert_beta"] + [m["nonexpert_beta"]]) >= 1.0
        ][:2]
        picks = smooth + [
            i for i, m in enumerate(models) if i >= self.family
            and abs(m["nonexpert_ratio"] - 0.3) < 1e-12
        ]
        self.reference = {i: continuous_tvd_reference(models[i]) for i in picks}

    def plan(self) -> dict:
        calls = [
            {
                "argv": ["theoretical", "--model", str(self.work / f"m{i}.json"),
                         "--divergence", ",".join(KINDS), "--tol", f"{self.tol:g}"],
                "stdout": str(self.work / f"{{rep}}-m{i}.txt"),
            }
            for i in range(len(self.models))
        ]
        return {"main": calls}

    def units(self) -> int:
        return len(self.models) * len(KINDS)

    def outputs(self, tag: str, job: str) -> list[Path]:
        return [self.work / f"{tag}-m{i}.txt" for i in range(len(self.models))]

    def check(self, tag: str, job: str) -> list[str]:
        problems = []
        for i, path in enumerate(self.outputs(tag, job)):
            values: dict[tuple[str, str], float] = {}
            for line in path.read_text(encoding="utf-8").splitlines():
                kind, which, value = line.split()
                values[(kind, which)] = float(value)
            want = {(k, w) for k in KINDS for w in ("continuous", "discretized")}
            if set(values) != want:
                problems.append(f"model {i}: printed {sorted(values)}")
                continue
            for kind in KINDS:
                cont, disc = values[(kind, "continuous")], values[(kind, "discretized")]
                if not (math.isfinite(cont) and math.isfinite(disc)):
                    problems.append(f"model {i} {kind}: non-finite value")
                elif cont < disc - self.tol:  # binning never adds information
                    problems.append(f"model {i} {kind}: continuous {cont} < discretized {disc}")
            if i in self.reference and abs(values[("tvd", "continuous")] - self.reference[i]) > 1e-6:
                problems.append(
                    f"model {i} tvd continuous {values[('tvd', 'continuous')]} "
                    f"vs scipy {self.reference[i]}"
                )
        return problems


class SurveyScan(Workload):
    """Single-group `analyze` of every question of a large generated survey."""

    name = "survey-scan"
    throughput_unit = "rows/s"
    attribute_values = ("often", "sometimes", "rarely")

    def __init__(self, respondents: int = 5000, questions: int = 40):
        self.n_respondents, self.n_questions = respondents, questions
        # One respondent in 20 skips each question, as in real surveys: the
        # loader and the per-question scan then see ragged questions
        self.n_skip = respondents // 20

    def make_inputs(self, work: Path, seed: int) -> None:
        self.work = work
        rng = np.random.default_rng([seed, 4])
        n, q = self.n_respondents, self.n_questions
        watch = rng.choice(len(self.attribute_values), size=n, p=[0.3, 0.4, 0.3])
        region = rng.integers(0, 5, size=n)
        options = rng.integers(2, 5, size=q)
        answered = np.ones((n, q), dtype=bool)
        choice = np.empty((n, q), dtype=np.intp)
        bins = np.empty((n, q), dtype=np.intp)
        for j in range(q):
            answered[rng.choice(n, size=self.n_skip, replace=False), j] = False
            choice[:, j] = rng.integers(0, options[j], size=n)
            lean = rng.uniform(0.15, 0.85, size=options[j])
            bins[:, j] = rng.binomial(N_BINS - 1, lean[choice[:, j]])

        ids = [f"R{i:05d}" for i in range(n)]
        qids = [f"Q{j + 1:02d}" for j in range(q)]
        labels = "ABCD"
        self.responses_path = work / "responses.csv"
        self.respondents_path = work / "respondents.csv"
        with open(self.respondents_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("respondent_id,watches_sports,region\n")
            fh.writelines(
                f"{ids[i]},{self.attribute_values[watch[i]]},r{region[i]}\n" for i in range(n)
            )
        with open(self.responses_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("respondent_id,question_id,choice,prediction_pct\n")
            for i in range(n):
                fh.writelines(
                    f"{ids[i]},{qids[j]},{labels[choice[i, j]]},{10 * bins[i, j]}\n"
                    for j in range(q) if answered[i, j]
                )
        self.rows = int(answered.sum())

        keep = watch != self.attribute_values.index("rarely")
        # the program lists questions in order of first appearance in the file
        first_row = np.argmax(answered, axis=0)
        self.questions: dict[str, dict] = {}
        for j in sorted(range(q), key=lambda j: (first_row[j], j)):
            present = np.unique(choice[answered[:, j], j])  # options seen in the file
            sel = keep & answered[:, j]
            code = np.searchsorted(present, choice[sel, j])
            counts = np.bincount(
                code * N_BINS + bins[sel, j], minlength=len(present) * N_BINS
            ).reshape(len(present), N_BINS)
            self.questions[qids[j]] = {
                "n": int(sel.sum()),
                "variety": tvd_variety(counts),
                "baseline": choice_baseline(counts),
            }

    def plan(self) -> dict:
        argv = [
            "analyze",
            "--responses", str(self.responses_path),
            "--respondents", str(self.respondents_path),
            "--filter", "watches_sports!=rarely",
            "--divergence", "tvd", "--format", "csv",
            "--out", str(self.work / "{rep}.csv"),
        ]
        return {"main": [{"argv": argv}]}

    def units(self) -> int:
        return self.rows

    def check(self, tag: str, job: str) -> list[str]:
        rows = read_csv(self.outputs(tag, job)[0])
        return _check_question_rows(rows, self.questions, {
            "respondents": "n", "variety": "variety", "baseline": "baseline",
        })


WORKLOADS = ("sweep", "compare", "theory", "survey-scan")


def make_workload(name: str, root: Path):
    if name == "sweep":
        return Sweep()
    if name == "compare":
        return Compare(root)
    if name == "theory":
        return Theory()
    if name == "survey-scan":
        return SurveyScan()
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
