"""The four workloads and the closed loop that times them.

A section is the unit the loop times and repeats: one ``risnoma
syslevel`` invocation for a campaign, one pass over the run's instance
set for the pair study. Sections run back to back, one caller, until the
run's time is used; the run reports medians over them. Each untraced
section is bracketed by calibrations, the same kind of work on a small
fixed input run by the frozen copy of the package (``calibrate.py``),
which give the factor from its raw seconds to reference seconds.
"""

import contextlib
import functools
import io
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

import risnoma
import risnoma.cli  # noqa: F401  (imports experiments and tables too)

import calibrate
import checks
from spans import Tracer, layer_totals

# The CLI's default sweep, 0:170:10 degrees.
DELTAS_DEG = tuple(float(d) for d in range(0, 171, 10))
ALL_SCHEMES = ("oma", "mpa", "eepa", "srm")


@dataclass
class Section:
    wall: float
    evals: int  # scheme decisions: pairs x deltas x schemes
    attempted: int
    failed: int
    latencies: List[float]  # seconds per op
    outputs: Dict[str, float] = field(default_factory=dict)
    scale: float = 1.0  # raw to reference seconds, set by the closed loop


def invoke_cli(argv: Sequence[str], pkg=risnoma) -> bool:
    """Run one ``risnoma`` command in this process; True on exit code 0.

    ``pkg.cli.main`` is looked up at call time so that the traced run's
    wrapper is used when installed.
    """
    try:
        pkg.cli.main(list(argv), standalone_mode=False)
    except SystemExit as e:
        if e.code not in (0, None):
            print(f"risnoma {' '.join(argv)}: exit {e.code}", file=sys.stderr)
            return False
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False
    return True


def read_means(path: str) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        return list(checks.parse_csv(fh))


@dataclass(frozen=True)
class Campaign:
    """``risnoma syslevel`` at the default radio, by default with the
    default delta sweep. With ``to_files`` the means and CDF tables are
    written to files (``--out``); without, the means table goes to
    standard output and no CDF is made."""

    drops: int
    schemes: Sequence[str] = ALL_SCHEMES
    area_km2: float = 1.0
    to_files: bool = True
    deltas_deg: Sequence[float] = DELTAS_DEG

    def argv(self, seed: int, out: str) -> List[str]:
        argv = [
            "syslevel",
            "--seed", str(seed),
            "--drops", str(self.drops),
            "--scheme", ",".join(self.schemes),
            "--area-km2", repr(self.area_km2),
        ]
        if self.deltas_deg != DELTAS_DEG:
            argv += ["--delta-deg", ",".join(map(repr, self.deltas_deg))]
        return argv + ["--out", out] if self.to_files else argv


class CampaignWorkload:
    def __init__(self, campaign: Campaign, seed: int, outdir: str, pkg=risnoma):
        self.campaign = campaign
        self.seed = seed
        self.out = os.path.join(outdir, "means.csv")
        self.pkg = pkg

    def section(self, k: int) -> Section:
        # each section is a fresh deployment, so a run's median spans
        # several PPP draws rather than one
        argv = self.campaign.argv(self.seed * 1000 + k, self.out)
        deltas = self.campaign.deltas_deg
        cells = len(self.campaign.schemes) * len(deltas)
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            ok = invoke_cli(argv, self.pkg)
        wall = time.perf_counter() - t0
        if not ok:
            return Section(wall, 0, cells, cells, [wall])
        check = functools.partial(checks.check_campaign, schemes=self.campaign.schemes, deltas_deg=deltas,
                                  cdf_delta_deg=deltas[0])
        try:
            if self.campaign.to_files:
                means = read_means(self.out)
                with open(self.out + ".cdf.csv", newline="") as fh:
                    bad = check(means, checks.parse_csv(fh))
            else:
                means = list(checks.parse_csv(stdout.getvalue().splitlines()))
                bad = check(means, None)
        except OSError as e:
            print(f"missing campaign output: {e}", file=sys.stderr)
            return Section(wall, 0, cells, cells, [wall])
        if bad:
            print(f"seed {argv[2]}: failed cells {sorted(bad)}", file=sys.stderr)
        try:
            n_pairs = int(means[0]["n_pairs"])
        except (IndexError, KeyError, ValueError):
            n_pairs = 0
        return Section(wall, n_pairs * cells, cells, len(bad), [wall], {"pairs": n_pairs})

    def derive(self, layers: Dict[str, float], section: Section) -> None:
        work = section.outputs.get("pairs", 0) * len(self.campaign.deltas_deg)
        layers["eepa.dinkelbach_batch.feasible_frac"] = (
            layers.get("eepa.dinkelbach_batch.instances", 0.0) / work if work else 0.0
        )


class PairStudyWorkload:
    """``pair_study_table`` then ``render_csv`` per instance, all four
    schemes. Gamma1 ~ U(0, 20) dB, Gamma2 ~ U(0, Gamma1) dB and delta ~
    U(0, 90) degrees, drawn once per run from the seed.

    An instance is the unit of ``failed``/``attempted``. Latency is timed
    per group of GROUP consecutive instances: about half the instances
    need Dinkelbach and take three times as long as the rest, so the
    median of single-instance latencies falls in the gap between the two
    modes and jumps with the seed's mix."""

    SIZE = 2000
    GROUP = 20

    def __init__(self, seed: int, size: int = SIZE, pkg=risnoma):
        rng = np.random.default_rng(seed)
        g1 = rng.uniform(0.0, 20.0, size)
        g2 = rng.uniform(0.0, 1.0, size) * g1
        delta = rng.uniform(0.0, 90.0, size)
        self.gammas = [(float(a), float(b)) for a, b in zip(g1, g2)]
        ex = pkg.experiments
        self.configs = [
            ex.ExperimentConfig(kind=ex.ExperimentKind.PAIR_STUDY, gammas_db=g, delta_deg=(float(d),), seed=seed)
            for g, d in zip(self.gammas, delta)
        ]
        self.pkg = pkg
        self.meta = {"seed": seed}

    def section(self, k: int) -> Section:
        latencies, texts = [], []
        start = t0 = time.perf_counter()
        for i, cfg in enumerate(self.configs, 1):
            try:
                text = self.pkg.tables.render_csv(self.pkg.experiments.pair_study_table(cfg), self.meta)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                text = None
            texts.append(text)
            if i % self.GROUP == 0:
                t1 = time.perf_counter()
                latencies.append(t1 - t0)
                t0 = t1
        wall = time.perf_counter() - start

        failed = mpa_noma = eepa_noma = 0
        for text, gammas in zip(texts, self.gammas):
            if text is None:
                failed += 1
                continue
            rows = list(checks.parse_csv(text.splitlines()))
            problems = checks.check_pair_study(rows, gammas)
            if problems:
                failed += 1
                print(f"gammas_db {gammas}: {problems}", file=sys.stderr)
            modes = {r.get("scheme"): r.get("mode") for r in rows}
            mpa_noma += modes.get("mpa") == "noma"
            eepa_noma += modes.get("eepa") == "noma"
        n = len(self.configs)
        outputs = {"mpa_noma": mpa_noma, "eepa_noma": eepa_noma, "instances": n}
        return Section(wall, n * len(ALL_SCHEMES), n, failed, latencies, outputs)

    def derive(self, layers: Dict[str, float], section: Section) -> None:
        n = section.outputs["instances"]
        calls = layers.get("eepa.dinkelbach_allocate.calls", 0.0)
        layers["pairing.noma_frac.mpa"] = section.outputs["mpa_noma"] / n
        layers["pairing.noma_frac.eepa"] = section.outputs["eepa_noma"] / n
        # feasible instances per solve; pair_study_table solves each twice
        layers["eepa.dinkelbach_allocate.useful_frac"] = section.outputs["eepa_noma"] / calls if calls else 0.0


CLOSED_FORM = ("oma", "mpa", "srm")

# Sizes keep one section to 0.5-2 s on two cores; see README.md.
CAMPAIGNS = {
    "syslevel-eepa": Campaign(drops=1, to_files=False),
    "syslevel-closed": Campaign(drops=20, schemes=CLOSED_FORM),
    "syslevel-wide": Campaign(drops=1, schemes=CLOSED_FORM, area_km2=12.0),
}
WORKLOADS = tuple(CAMPAIGNS) + ("pair-study",)

# Each workload's calibration input (pair-study: instance count) and its
# median time in seconds on a 2-vCPU Intel Xeon VM; see calibrate.py.
CALIBRATIONS = {
    "syslevel-eepa": (Campaign(drops=1, area_km2=0.1, to_files=False, deltas_deg=(0.0, 30.0, 60.0, 90.0)), 0.095),
    "syslevel-closed": (Campaign(drops=4, schemes=CLOSED_FORM), 0.095),
    "syslevel-wide": (Campaign(drops=1, schemes=CLOSED_FORM, area_km2=3.0), 0.11),
    "pair-study": (300, 0.087),
}


def make(name: str, seed: int, outdir: str):
    if name == "pair-study":
        return PairStudyWorkload(seed)
    return CampaignWorkload(CAMPAIGNS[name], seed, outdir)


@dataclass
class Calibration:
    """A workload's kind of work on a small fixed input (seed 0), run by
    the frozen package; ``ref`` is its time at reference speed."""

    workload: object
    ref: float

    def seconds(self) -> float:
        return self.workload.section(0).wall


def make_calibration(name: str, outdir: str) -> Calibration:
    spec, ref = CALIBRATIONS[name]
    pkg = calibrate.frozen_package()
    if name == "pair-study":
        return Calibration(PairStudyWorkload(0, spec, pkg), ref)
    outdir = os.path.join(outdir, "calibration")
    os.makedirs(outdir, exist_ok=True)
    return Calibration(CampaignWorkload(spec, 0, outdir, pkg), ref)


@dataclass
class Traced:
    section: Section
    layers: Dict[str, float]


def traced_section(workload, k: int, tracer: Tracer) -> Traced:
    tracer.run_id = k
    tracer.counts.clear()
    first = len(tracer.spans)
    tracer.install()
    try:
        section = workload.section(k)
    finally:
        tracer.uninstall()
    layers = dict(layer_totals(tracer.spans[first:]))
    layers.update(tracer.counts)
    layers["trace.wall_s"] = section.wall
    workload.derive(layers, section)
    return Traced(section, layers)


def closed_loop(workload, calibration: Calibration, seconds: float, tracer: Optional[Tracer] = None):
    """One warm-up section, then sections back to back until ``seconds``
    have passed (at least one). Returns ``(warm_up, plain, traced)``; the
    warm-up's outputs are checked but its time is not used.

    Each plain section is bracketed by calibrations and carries the
    factor from raw to reference seconds in ``scale``. With a tracer,
    each plain section is followed by a traced one on the same inputs,
    so their difference is the tracing overhead."""
    warm_up = workload.section(0)
    plain: List[Section] = []
    traced: List[Traced] = []
    deadline = time.perf_counter() + seconds
    k = 1
    before = calibration.seconds()
    while True:
        section = workload.section(k)
        after = calibration.seconds()
        section.scale = calibrate.scale(calibration.ref, before, after)
        plain.append(section)
        before = after
        if tracer is not None:
            traced.append(traced_section(workload, k, tracer))
            before = calibration.seconds()
        k += 1
        if time.perf_counter() >= deadline:
            return warm_up, plain, traced


def tail_percentile(n: int) -> int:
    """p99, or with fewer than 1000 samples the highest percentile that
    still has ten samples beyond it (never below the median)."""
    return max(50, min(99, math.floor(100 * (1 - 10 / n))))


def percentile(values: Sequence[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
