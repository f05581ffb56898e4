"""End-to-end acceptance gate.

One criterion per test, each emitting a single PASS/FAIL line; the lines
are replayed in the terminal summary (see conftest.py) so the gate's
verdict is visible in plain pytest output.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from risnoma.channel import EffectiveCsi, PhaseModel, phase_error_gain_mc, rate_noma, sinc_sq
from risnoma.cli import main as cli_main
from risnoma.eepa import dinkelbach_allocate, pairing_criterion_eepa
from risnoma.experiments import ExperimentConfig, ExperimentKind, sweep_alpha2_table
from risnoma.mpa import (
    Mode,
    RateTargets,
    TargetPolicy,
    allocate_mpa,
    alpha2_lower,
    alpha2_upper,
    eta_kappa,
    pairing_criterion_mpa,
)
from risnoma.pairing import KERNELS, Scheme
from risnoma.syslevel import DeploymentConfig, RadioConfig, _build_drop, run_campaign
from oracles import best_kkt_candidate, grid_oracle_ee_rows, kkt_candidates, oma_decision

POLICY = TargetPolicy.oma_at_reference(0.0)
P0 = PhaseModel(0.0)


def _report(config, num: int, title: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"{verdict}: acceptance {num} — {title}{suffix}"
    print(line)
    if not hasattr(config, "acceptance_lines"):
        config.acceptance_lines = []
    config.acceptance_lines.append(line)


def test_acceptance_1_phase_gain_approximation(request):
    t0 = time.perf_counter()
    failures = []
    for delta in (0.1, 0.5, 1.0, 2.0):
        est = phase_error_gain_mc(1024, delta, 10_000, seed=int(delta * 1000))
        rel = abs(est - sinc_sq(delta)) / sinc_sq(delta)
        if rel > 0.02:
            failures.append((delta, rel))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _report(request.config, 1, "MC phase gain matches sinc^2 within 2%", ok, f"{elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 5.0


def test_acceptance_2_bound_tightness(request):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        g1_db = rng.uniform(0, 20)
        g2_db = rng.uniform(0, g1_db)
        csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g2_db)
        phase = PhaseModel(rng.uniform(0, 0.9 * math.pi))
        s = phase.degradation
        # targets constructed so both bounds land strictly inside (0, 1)
        r2bar = rng.uniform(0.05, 0.95) * math.log2(1 + csi2.gamma * s)
        lb = (2.0**r2bar - 1.0) / (csi2.gamma * s)
        u = lb + rng.uniform(0.05, 0.95) * (1 - lb)
        r1bar = math.log2(1 + csi1.gamma * s / (1 + u * csi2.gamma * s))
        targets = RateTargets(r1bar, r2bar)
        lb = alpha2_lower(targets, csi2, phase)
        ub = alpha2_upper(targets, csi1, csi2, phase)
        worst = max(worst, abs(rate_noma(1.0, lb, csi1, csi2, phase).weak - r2bar))
        worst = max(worst, abs(rate_noma(1.0, ub, csi1, csi2, phase).strong - r1bar))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(request.config, 2, "rate floors met with equality at both alpha2 bounds", ok,
            f"worst {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_acceptance_3_criterion_equivalence(request):
    rng = np.random.default_rng(102)
    violations = 0
    checked = 0
    for _ in range(10_000):
        g1_db = rng.uniform(0, 20)
        g2_db = rng.uniform(0, g1_db)
        csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g2_db)
        phase = PhaseModel(rng.uniform(0, 0.98 * math.pi))
        targets = RateTargets(rng.uniform(0, 3), rng.uniform(0, 3))
        lb = alpha2_lower(targets, csi2, phase)
        ub = alpha2_upper(targets, csi1, csi2, phase)
        crit = pairing_criterion_mpa(targets, csi1, phase)
        margin = phase.degradation - crit.sinc_sq_threshold
        if abs(ub - lb) < 1e-9 or abs(margin) < 1e-9:
            continue  # too close to the boundary to call either way
        checked += 1
        if (ub >= lb) != (margin >= 0):
            violations += 1
    ok = violations == 0
    _report(request.config, 3, "bound ordering equivalent to the sinc^2 criterion", ok,
            f"{checked} decisive instances")
    assert violations == 0


def test_acceptance_4_allocation_optimality(request):
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 1001)
    worst_gap = 0.0
    kkt_mismatches = 0
    done = 0
    while done < 10_000:
        g1_db = rng.uniform(0, 20)
        g2_db = rng.uniform(0, g1_db)
        csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g2_db)
        targets = POLICY.resolve(csi1, csi2, P0)
        crit = pairing_criterion_mpa(targets, csi1, P0)
        delta = rng.uniform(0.0, crit.delta_ub) if crit.delta_ub else rng.uniform(0, 3)
        phase = PhaseModel(delta)
        dec = allocate_mpa(targets, csi1, csi2, phase)
        if dec.mode is not Mode.NOMA:
            continue
        done += 1
        s = phase.degradation
        eta, kappa = eta_kappa(targets, csi1, csi2, phase)
        lb = alpha2_lower(targets, csi2, phase)
        # ASR grows with alpha1, and alpha1=1 is a grid point, so the full
        # 2-D grid maximum sits on the alpha1=1 column wherever feasible
        feas = (grid >= lb) & (kappa * grid + eta <= 1.0)
        if np.any(feas):
            asr_grid = np.log2(1.0 + (csi1.gamma + grid[feas] * csi2.gamma) * s)
            worst_gap = max(worst_gap, float(asr_grid.max()) - dec.asr)
        cands = kkt_candidates(eta, kappa, lb)
        best = best_kkt_candidate(cands, csi1, csi2)
        expected = (1.0, min(alpha2_upper(targets, csi1, csi2, phase), 1.0))
        if abs(best[0] - expected[0]) > 1e-12 or abs(best[1] - expected[1]) > 1e-12:
            kkt_mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 3e-3 and kkt_mismatches == 0 and elapsed < 60.0
    _report(request.config, 4, "closed-form allocation beats the dense grid and the KKT sweep", ok,
            f"gap {worst_gap:.2e}, {elapsed:.1f}s")
    assert worst_gap <= 3e-3
    assert kkt_mismatches == 0
    assert elapsed < 60.0


def test_acceptance_5_rate_sweep_shape(request):
    problems = []
    for gammas in ((8.0, 5.0), (8.0, 2.0)):
        cfg = ExperimentConfig(
            kind=ExperimentKind.SWEEP_ALPHA2,
            gammas_db=gammas,
            delta_deg=(0.0, 11.0),
            alpha2_step=1e-3,
        )
        table = sweep_alpha2_table(cfg)
        blocks = {
            d: [r for r in table.rows if r["delta_deg"] == d] for d in (0.0, 11.0)
        }
        for d, rows in blocks.items():
            r1 = [r["r1"] for r in rows]
            r2 = [r["r2"] for r in rows]
            asr = [r["asr"] for r in rows]
            if not all(b >= a - 1e-12 for a, b in zip(r2, r2[1:])):
                problems.append((gammas, d, "r2 not non-decreasing"))
            if not all(b >= a - 1e-12 for a, b in zip(asr, asr[1:])):
                problems.append((gammas, d, "asr not non-decreasing"))
            if not all(b <= a + 1e-12 for a, b in zip(r1, r1[1:])):
                problems.append((gammas, d, "r1 not non-increasing"))
            # crossing of r1 with the policy's OMA reference at alpha2_ub
            ub = rows[0]["alpha2_ub"]
            target = rows[0]["r1_target"]
            below = [r["alpha2"] for r in rows if r["r1"] < target - 1e-12]
            if ub <= 1.0:
                if not below or abs(below[0] - ub) > 1.5e-3:
                    problems.append((gammas, d, f"crossing at {below[:1]} != ub {ub}"))
            elif below:
                problems.append((gammas, d, "r1 dips under target despite ub > 1"))
        for a, b in zip(blocks[0.0], blocks[11.0]):
            if b["r1"] > a["r1"] + 1e-12 or b["r2"] > a["r2"] + 1e-12 or b["asr"] > a["asr"] + 1e-12:
                problems.append((gammas, "pointwise", "11-degree curve above 0-degree"))
                break
    ok = not problems
    _report(request.config, 5, "power-fraction sweep reproduces the rate-curve shape", ok)
    assert not problems, problems


def test_acceptance_6_phase_sweep_behavior(request):
    problems = []
    expected_ub = {(8.0, 5.0): 74.327, (8.0, 2.0): 86.828}
    for gammas, ub_deg in expected_ub.items():
        csi1, csi2 = EffectiveCsi.from_db(gammas[0]), EffectiveCsi.from_db(gammas[1])
        crit = pairing_criterion_mpa(POLICY.resolve(csi1, csi2, P0), csi1, P0)
        if abs(math.degrees(crit.delta_ub) - ub_deg) > 0.05:
            problems.append((gammas, f"delta_ub {math.degrees(crit.delta_ub):.3f}"))
        for tenth_deg in range(0, 900, 5):
            d = tenth_deg / 10.0
            phase = PhaseModel.from_degrees(d)
            targets = POLICY.resolve(csi1, csi2, phase)
            dec = allocate_mpa(targets, csi1, csi2, phase)
            ref = oma_decision(csi1, csi2, phase)
            if math.radians(d) < crit.delta_ub - 1e-9:
                if dec.mode is not Mode.NOMA:
                    problems.append((gammas, d, "fell back early"))
                elif dec.rates.strong < ref.rates.strong - 1e-9 or dec.rates.weak < ref.rates.weak - 1e-9:
                    problems.append((gammas, d, "NOMA below OMA"))
            elif math.radians(d) > crit.delta_ub + 1e-9 and dec != ref:
                problems.append((gammas, d, "no OMA fallback past delta_ub"))
    ok = not problems
    _report(request.config, 6, "NOMA dominates OMA up to delta_ub, then falls back", ok)
    assert not problems, problems


def test_acceptance_7_dinkelbach_correctness(request):
    rng = np.random.default_rng(104)
    worst_gap = 0.0
    problems = []
    done = 0
    while done < 1000:
        g1_db = rng.uniform(0, 20)
        g2_db = rng.uniform(0, g1_db)
        csi1, csi2 = EffectiveCsi.from_db(g1_db), EffectiveCsi.from_db(g2_db)
        targets = POLICY.resolve(csi1, csi2, P0)
        crit = pairing_criterion_eepa(targets, csi1, csi2, P0)
        if crit.delta_ub is None or crit.delta_ub <= 0:
            continue
        phase = PhaseModel(rng.uniform(0, 0.98 * crit.delta_ub))
        if not crit.feasible_at(phase.delta):
            continue
        done += 1
        res = dinkelbach_allocate(targets, csi1, csi2, phase)
        lams = [h[0] for h in res.history]
        if any(b < a - 1e-12 for a, b in zip(lams, lams[1:])):
            problems.append("lambda sequence decreased")
        if res.residual > 1e-8 or res.iterations > 100:
            problems.append(f"residual {res.residual:.1e} after {res.iterations} iters")
        _, _, ee_grid = grid_oracle_ee_rows(targets, csi1, csi2, phase, step=1e-3)
        if res.lambda_star < ee_grid - 1e-9:
            problems.append(f"solver below grid by {ee_grid - res.lambda_star:.1e}")
        worst_gap = max(worst_gap, abs(res.lambda_star - ee_grid))
    ok = not problems and worst_gap <= 2e-3
    _report(request.config, 7, "Dinkelbach converges and matches the EE grid oracle", ok,
            f"worst gap {worst_gap:.2e}")
    assert not problems, problems[:5]
    assert worst_gap <= 2e-3


def test_acceptance_8_system_level_shape(request):
    t0 = time.perf_counter()
    deploy = DeploymentConfig(seed=0, drops=200)
    sweep = [math.radians(d) for d in range(0, 171, 10)]
    radio = RadioConfig()
    table = run_campaign(deploy, radio, list(Scheme), sweep)
    elapsed = time.perf_counter() - t0

    def get(scheme, delta, key):
        return next(
            r[key] for r in table.rows
            if r["scheme"] == scheme and abs(r["delta"] - delta) < 1e-12
        )

    problems = []
    # (a) delta=0 ordering SRM = MPA >= EEPA >= OMA
    a = {s: get(s, 0.0, "mean_asr") for s in ("srm", "mpa", "eepa", "oma")}
    if abs(a["srm"] - a["mpa"]) > 1e-9 or not a["mpa"] >= a["eepa"] - 1e-9 >= a["oma"] - 2e-9:
        problems.append(f"(a) ordering {a}")
    # (b) per pair of the campaign and per delta: MPA keeps the weak user
    # at or above its OMA rate; SRM's perfect-phase allocation
    # alpha2 = min(sqrt(1+G1)/G2, 1) puts it below OMA's exactly where
    # G2 > 2 sqrt(1+G1) + (1+G1) sinc^2(delta)
    strong, weak = [], []
    for k in range(deploy.drops):
        drop = _build_drop(deploy, radio, k)
        if drop is not None:
            strong.append(drop.pair_gamma_strong)
            weak.append(drop.pair_gamma_weak)
    g1, g2 = np.concatenate(strong), np.concatenate(weak)
    if len(g1) != table.n_pairs:
        problems.append(f"(b) rebuilt {len(g1)} pairs, campaign has {table.n_pairs}")
    srm_below = srm_mismatch = mpa_below = 0
    for d in sweep:
        s = sinc_sq(d)
        targets = POLICY.rates(g1, g2, s)
        r2 = {sch: KERNELS[sch](g1, g2, s, *targets)[4] for sch in (Scheme.OMA, Scheme.SRM, Scheme.MPA)}
        for sch, arr in r2.items():
            if abs(arr.mean() - get(sch.value, d, "mean_r2")) > 1e-12:
                problems.append(f"(b) {sch.value} pairs differ from the campaign at {math.degrees(d):.0f} deg")
        margin = g2 - (2.0 * np.sqrt(1.0 + g1) + (1.0 + g1) * s)
        below = r2[Scheme.SRM] < r2[Scheme.OMA]
        srm_below += int(np.count_nonzero(below))
        srm_mismatch += int(np.count_nonzero((below != (margin > 0)) & (np.abs(margin) >= 1e-9)))
        mpa_below += int(np.count_nonzero(r2[Scheme.MPA] < r2[Scheme.OMA] - 1e-9))
    if srm_mismatch:
        problems.append(f"(b) SRM below OMA disagrees with the closed form on {srm_mismatch} pair-deltas")
    if mpa_below:
        problems.append(f"(b) MPA R2 below OMA's on {mpa_below} pair-deltas")
    # (c) convergence to OMA at the high-delta end
    oma_end = get("oma", sweep[-1], "mean_asr")
    for s in ("mpa", "eepa"):
        if abs(get(s, sweep[-1], "mean_asr") - oma_end) > 0.01 * oma_end:
            problems.append(f"(c) {s} does not converge to OMA")
    # (d) EEPA's mean EE dominates MPA's everywhere
    for d in sweep:
        if get("eepa", d, "mean_ee") < get("mpa", d, "mean_ee") - 1e-9:
            problems.append(f"(d) EE ordering broken at {math.degrees(d):.0f} deg")
            break
    if elapsed >= 600.0:
        problems.append(f"runtime {elapsed:.0f}s")
    ok = not problems
    _report(request.config, 8, "system-level campaign reproduces the figure orderings", ok,
            f"{table.n_pairs} pairs, {elapsed:.0f}s; SRM R2 < OMA's on {srm_below} pair-deltas, "
            f"max Gamma2 {10 * math.log10(g2.max()):.1f} dB" + ("; " + "; ".join(problems) if problems else ""))
    assert not problems, problems


def test_acceptance_9_deterministic_output(request, tmp_path):
    runner = CliRunner()

    def run_twice(args, name):
        outs = []
        for k in range(2):
            out = tmp_path / f"{name}{k}.csv"
            result = runner.invoke(cli_main, args + ["--out", str(out)])
            assert result.exit_code == 0, result.output
            lines = out.read_bytes().split(b"\r\n")
            outs.append([l for l in lines if not l.startswith(b"# generated")])
        return outs[0] == outs[1]

    same_sweep = run_twice(["sweep-delta", "--delta-deg", "0:90:5", "--seed", "11"], "sweep")
    same_sys = run_twice(
        [
            "syslevel", "--seed", "11", "--drops", "3",
            "--bs-density", "10", "--user-density", "200",
            "--delta-deg", "0:40:20", "--scheme", "oma,mpa,eepa,srm",
        ],
        "sys",
    )
    ok = same_sweep and same_sys
    _report(request.config, 9, "identical seeds give byte-identical CSV (timestamp aside)", ok)
    assert same_sweep
    assert same_sys
