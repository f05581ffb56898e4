"""The CLI's pair-level tables, built on arrays or on the schemes'
kernels, against the one-pair API they replace, bit for bit."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from risnoma import experiments as ex
from risnoma.channel import EffectiveCsi, PhaseModel, rate_noma, rate_oma
from risnoma.eepa import pairing_criterion_eepa
from risnoma.mpa import TargetPolicy, allocate_mpa, alpha2_lower, alpha2_upper, pairing_criterion_mpa
from risnoma.pairing import Scheme, run_scheme

POLICIES = (
    TargetPolicy.oma_at_reference(0.0),
    TargetPolicy.oma_at_reference(1.0),
    TargetPolicy.oma_at_current(),
    TargetPolicy.explicit(0.0, 0.0),
    TargetPolicy.explicit(0.8, 0.3),
)


def _degrees(delta_ub):
    return math.degrees(delta_ub) if delta_ub is not None else ""


def _study_row(scheme, dec, delta_ub_deg=""):
    """The pair study's row for one scheme's PairDecision."""
    return {
        "scheme": scheme.value,
        "mode": dec.mode.value,
        "alpha1": dec.alpha1,
        "alpha2": dec.alpha2,
        "r1": dec.rates.strong,
        "r2": dec.rates.weak,
        "asr": dec.asr,
        "ee": dec.ee,
        "delta_ub_deg": delta_ub_deg,
        "iterations": dec.iterations if dec.iterations is not None else "",
    }


def test_pair_tables_equal_the_one_pair_api():
    rng = np.random.default_rng(11)
    for k in range(40):
        policy = POLICIES[k % len(POLICIES)]
        gammas = tuple(sorted(rng.uniform(-40.0, 40.0, 2).tolist(), reverse=True))
        if k % 8 == 7:  # Gamma1 * sinc^2 below float resolution next to 1, under each policy
            gammas = (-400.0, -500.0)
        deltas = tuple(sorted(rng.uniform(0.0, 179.0, 4).tolist())) + (179.0,)
        csi1, csi2 = (EffectiveCsi.from_db(g) for g in gammas)

        def table(kind, fn, **kw):
            return fn(ex.ExperimentConfig(kind=kind, gammas_db=gammas, targets_policy=policy, **kw)).rows

        sweep = table(ex.ExperimentKind.SWEEP_ALPHA2, ex.sweep_alpha2_table, delta_deg=deltas, alpha2_step=0.01)
        decisions = table(ex.ExperimentKind.SWEEP_DELTA, ex.sweep_delta_table, delta_deg=deltas)
        assert len(sweep) == 101 * len(deltas) and len(decisions) == len(deltas)
        for i, d in enumerate(deltas):
            phase = PhaseModel.from_degrees(d)
            targets = policy.resolve(csi1, csi2, phase)
            r1_oma, r2_oma = rate_oma(csi1, phase), rate_oma(csi2, phase)
            for j, row in enumerate(sweep[101 * i : 101 * (i + 1)]):
                rates = rate_noma(1.0, j / 100, csi1, csi2, phase)
                assert row == {
                    "delta_deg": d,
                    "alpha2": j / 100,
                    "r1": rates.strong,
                    "r2": rates.weak,
                    "asr": rates.strong + rates.weak,
                    "r1_oma": r1_oma,
                    "r2_oma": r2_oma,
                    "r1_target": targets.r1_min,
                    "r2_target": targets.r2_min,
                    "alpha2_lb": alpha2_lower(targets, csi2, phase),
                    "alpha2_ub": alpha2_upper(targets, csi1, csi2, phase),
                }
            dec = allocate_mpa(targets, csi1, csi2, phase)
            assert decisions[i] == {
                "delta_deg": d,
                "mode": dec.mode.value,
                "alpha2": dec.alpha2,
                "r1": dec.rates.strong,
                "r2": dec.rates.weak,
                "asr": dec.asr,
                "r1_oma": r1_oma,
                "r2_oma": r2_oma,
                "asr_oma": r1_oma + r2_oma,
                "delta_ub_deg": _degrees(pairing_criterion_mpa(targets, csi1, phase).delta_ub),
            }
            # every row is run_scheme's decision, bit for bit (repr keeps -0.0 apart from 0.0)
            study = table(ex.ExperimentKind.PAIR_STUDY, ex.pair_study_table, delta_deg=(d,))
            delta_ub_deg = {
                Scheme.MPA: _degrees(pairing_criterion_mpa(targets, csi1, phase).delta_ub),
                Scheme.EEPA: _degrees(pairing_criterion_eepa(targets, csi1, csi2, phase).delta_ub),
            }
            expected = [
                _study_row(s, run_scheme(csi1, csi2, s, phase, targets), delta_ub_deg.get(s, ""))
                for s in ex.ExperimentConfig.schemes
            ]
            assert repr(list(study)) == repr(expected)

    # Gamma2 * sinc^2 = 0: with any scheme but OMA the study fails with
    # run_scheme's message; an OMA-only study decides the pair
    gammas = (-400.0, -5000.0)
    csi1, csi2 = (EffectiveCsi.from_db(g) for g in gammas)
    phase = PhaseModel(0.0)
    for policy in POLICIES:
        targets = policy.resolve(csi1, csi2, phase)

        def study(*schemes):
            return ex.pair_study_table(ex.ExperimentConfig(
                kind=ex.ExperimentKind.PAIR_STUDY, gammas_db=gammas, schemes=schemes, targets_policy=policy
            ))

        for scheme in (Scheme.MPA, Scheme.EEPA, Scheme.SRM):
            with pytest.raises(ValueError) as one_pair:
                run_scheme(csi1, csi2, scheme, phase, targets)
            for schemes in ((scheme,), (Scheme.OMA, scheme), (scheme, Scheme.OMA)):
                with pytest.raises(ValueError, match=f"^{re.escape(str(one_pair.value))}$"):
                    study(*schemes)
        dec = run_scheme(csi1, csi2, Scheme.OMA, phase, targets)
        assert repr(list(study(Scheme.OMA).rows)) == repr([_study_row(Scheme.OMA, dec)])


def test_decisions_meet_their_floors_up_to_the_gamma_bound():
    # Gamma up to experiments.MAX_GAMMA_DB, where MPA's alpha2 bound and
    # EEPA's Dinkelbach steps stay finite: no warning, no ConvergenceError,
    # and every NOMA decision of MPA and EEPA meets both floors
    deltas = (0.0, 40.0, 80.0)
    noma = {Scheme.MPA.value: 0, Scheme.EEPA.value: 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for policy in POLICIES:
            for g1 in np.linspace(0.0, ex.MAX_GAMMA_DB, 21).tolist():
                for gammas in ((g1, g1), (g1, g1 - 3.0), (g1, g1 - 30.0), (g1, g1 - 300.0)):
                    csi1, csi2 = (EffectiveCsi.from_db(g) for g in gammas)
                    cfg = ex.ExperimentConfig(kind=ex.ExperimentKind.SWEEP_DELTA, gammas_db=gammas, delta_deg=deltas,
                                              schemes=(Scheme.MPA, Scheme.EEPA), targets_policy=policy)
                    rows = [dict(r, scheme=Scheme.MPA.value) for r in ex.sweep_delta_table(cfg).rows]
                    for d in deltas:
                        study = ex.pair_study_table(replace(cfg, kind=ex.ExperimentKind.PAIR_STUDY, delta_deg=(d,)))
                        rows += [dict(r, delta_deg=d) for r in study.rows]
                    for row in rows:
                        targets = policy.resolve(csi1, csi2, PhaseModel.from_degrees(row["delta_deg"]))
                        if row["mode"] == "noma":
                            noma[row["scheme"]] += g1 >= 900.0
                            assert row["r1"] >= targets.r1_min - 1e-9, (policy, gammas, row)
                            assert row["r2"] >= targets.r2_min - 1e-9, (policy, gammas, row)
    assert min(noma.values()) > 0  # NOMA decisions near the bound were checked


def test_pair_study_resolves_floors_once(monkeypatch):
    # one TargetPolicy.rates call per study, whatever the policy and schemes
    calls = []
    rates = TargetPolicy.rates

    def counted(self, *args):
        calls.append(args)
        return rates(self, *args)

    monkeypatch.setattr(TargetPolicy, "rates", counted)
    for policy in POLICIES:
        for gammas, delta in (((15.0, 5.0), 0.0), ((8.0, 5.0), 60.0), ((20.0, 3.0), 30.0)):
            calls.clear()
            cfg = ex.ExperimentConfig(kind=ex.ExperimentKind.PAIR_STUDY, gammas_db=gammas, delta_deg=(delta,),
                                      targets_policy=policy)
            assert len(ex.pair_study_table(cfg)) == 4
            assert len(calls) == 1
