"""Tests of the benchmark's own code: output checks against planted
wrong outputs, span self-time arithmetic, hook installation, the
calibration arithmetic and the reference deviation.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference  # noqa: E402
from spans import Hook, Span, Tracer, layer_totals, self_times  # noqa: E402

SCHEMES = ("oma", "mpa", "eepa", "srm")
DELTAS = (0.0, 10.0, 20.0)
N_PAIRS = 3


def _means():
    """A consistent means table: MPA = SRM at 0, MPA >= EEPA >= OMA,
    OMA falling with delta."""
    rows = []
    for i, d in enumerate(DELTAS):
        asr = {"oma": 1.0 - 0.1 * i, "mpa": 2.0 - 0.2 * i, "eepa": 1.5 - 0.1 * i, "srm": 2.0 - 0.3 * i}
        for s in SCHEMES:
            row = {k: "0.01" for k in checks.MEAN_KEYS}
            row.update(scheme=s, delta_deg=repr(d), mean_asr=repr(asr[s]), n_pairs=str(N_PAIRS))
            rows.append(row)
    return rows


def _cdf():
    return [
        {"scheme": s, "asr": repr(0.5 * (i + 1)), "cdf": repr((i + 1) / N_PAIRS)}
        for s in SCHEMES
        for i in range(N_PAIRS)
    ]


def _check(means, cdf=None):
    return checks.check_campaign(means, _cdf() if cdf is None else cdf, SCHEMES, DELTAS, 0.0)


def _set(rows, scheme, delta, **values):
    for r in rows:
        if r["scheme"] == scheme and float(r["delta_deg"]) == delta:
            r.update({k: repr(v) if isinstance(v, float) else v for k, v in values.items()})
    return rows


def test_consistent_campaign_passes():
    assert _check(_means()) == set()


def test_delta_keys_survive_the_radian_round_trip():
    rows = _means()
    for r in rows:
        r["delta_deg"] = repr(math.degrees(math.radians(float(r["delta_deg"]))))
    assert _check(rows) == set()


@pytest.mark.parametrize(
    "scheme, delta, values, expected",
    [
        ("oma", 20.0, {"mean_asr": 1.5}, {("oma", 20.0)}),  # OMA rising with delta
        ("eepa", 10.0, {"mean_asr": 1.9}, {("mpa", 10.0), ("eepa", 10.0)}),  # EEPA above MPA
        ("oma", 0.0, {"mean_asr": 2.5}, {("mpa", 0.0), ("oma", 0.0)}),  # OMA above MPA
        ("srm", 0.0, {"mean_asr": 2.1}, {("mpa", 0.0), ("srm", 0.0)}),  # SRM != MPA at 0
        ("eepa", 20.0, {"n_pairs": "4"}, {("eepa", 20.0)}),  # n_pairs not common
        ("mpa", 10.0, {"mean_ee": "nan"}, {("mpa", 10.0)}),  # not finite
    ],
)
def test_planted_campaign_errors_are_caught(scheme, delta, values, expected):
    assert _check(_set(_means(), scheme, delta, **values)) == expected


def test_missing_and_duplicate_rows_fail():
    rows = _means()
    assert ("eepa", 20.0) in _check([r for r in rows if not (r["scheme"] == "eepa" and r["delta_deg"] == "20.0")])
    assert ("oma", 0.0) in _check(rows + [dict(rows[0])])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda rows: rows[:-1],  # one row short
        lambda rows: rows[:2] + [dict(rows[2], cdf="0.9")],  # does not end at 1
        lambda rows: [dict(rows[0], asr="9.0")] + rows[1:],  # not ascending
    ],
)
def test_planted_cdf_errors_are_caught(mutate):
    srm = [r for r in _cdf() if r["scheme"] == "srm"]
    others = [r for r in _cdf() if r["scheme"] != "srm"]
    assert _check(_means(), others + mutate(srm)) == {("srm", 0.0)}


def test_campaign_without_cdf_checks_means_only():
    assert checks.check_campaign(_means(), None, SCHEMES, DELTAS, 0.0) == set()


GAMMAS = (15.0, 5.0)
R1_MIN, R2_MIN = checks.oma_floor(GAMMAS[0]), checks.oma_floor(GAMMAS[1])


def _pair_rows():
    def row(scheme, mode, r1, r2, ee):
        return {"scheme": scheme, "mode": mode, "alpha1": "1.0", "alpha2": "1.0",
                "r1": repr(r1), "r2": repr(r2), "asr": repr(r1 + r2), "ee": repr(ee)}

    return [
        row("oma", "oma", R1_MIN, R2_MIN, (R1_MIN + R2_MIN) / 2),
        row("mpa", "noma", R1_MIN + 0.5, R2_MIN + 0.5, 2.0),
        row("eepa", "noma", R1_MIN + 0.1, R2_MIN, 3.0),
        row("srm", "noma", R1_MIN + 0.5, R2_MIN + 0.5, 2.0),
    ]


def _pair_with(scheme, **values):
    rows = _pair_rows()
    for r in rows:
        if r["scheme"] == scheme:
            r.update({k: repr(v) if isinstance(v, float) else v for k, v in values.items()})
            r["asr"] = repr(float(r["r1"]) + float(r["r2"]))
    return rows


def test_consistent_pair_study_passes():
    assert checks.check_pair_study(_pair_rows(), GAMMAS) == []


@pytest.mark.parametrize(
    "scheme, values, message",
    [
        ("eepa", {"r2": R2_MIN - 0.01}, "eepa NOMA row below a rate floor"),
        ("mpa", {"r1": R1_MIN - 0.01}, "mpa NOMA row below a rate floor"),
        ("oma", {"r1": R1_MIN + 2.0}, "mpa asr below oma"),
        ("eepa", {"r1": R1_MIN + 2.0}, "mpa asr below eepa"),
        ("mpa", {"mode": "oma"}, "eepa pairs where mpa does not"),
        ("mpa", {"ee": 3.5}, "mpa ee above eepa"),
        ("srm", {"ee": "inf"}, "non-finite or malformed row: srm"),
    ],
)
def test_planted_pair_study_errors_are_caught(scheme, values, message):
    assert message in checks.check_pair_study(_pair_with(scheme, **values), GAMMAS)


def test_pair_study_needs_every_scheme():
    assert checks.check_pair_study(_pair_rows()[:3], GAMMAS)


def test_oma_fallback_rows_are_not_held_to_the_floors():
    rows = _pair_with("eepa", mode="oma", r1=R1_MIN, r2=R2_MIN, ee=1.0)
    assert checks.check_pair_study(rows, GAMMAS) == []


# -- spans ------------------------------------------------------------

TREE = [
    Span(0, "root", 0.0, 10.0, None, 0),
    Span(1, "a", 1.0, 3.0, 0, 0),
    Span(2, "b", 2.0, 5.0, 0, 0),  # overlaps a: [1, 5] is covered once
    Span(3, "a", 7.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
    Span(4, "leaf", 2.5, 4.5, 2, 0),  # grandchild: only b loses this time
]


def test_self_time_subtracts_the_union_of_children():
    own = self_times(TREE)
    assert own[0] == pytest.approx(10.0 - 4.0 - 3.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[3] == pytest.approx(5.0)
    assert own[4] == pytest.approx(2.0)


def test_layer_totals_sum_per_name():
    totals = layer_totals(TREE)
    assert totals["a.s"] == pytest.approx(7.0)
    assert totals["a.self_s"] == pytest.approx(7.0)
    assert totals["root.self_s"] == pytest.approx(3.0)
    assert totals["b.s"] == pytest.approx(3.0)


def test_missing_hooks_are_reported_not_raised():
    tracer = Tracer([Hook("gone", "risnoma.syslevel", "no_such_function"), Hook("mod", "risnoma.no_such_module", "f")])
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"gone", "mod"}


def test_hooks_wrap_every_module_alias_and_restore():
    import risnoma
    import risnoma.syslevel as syslevel

    original = syslevel.drop_ppp

    def broken_counter(counts, name, args, kwargs, result):
        raise KeyError("changed signature")

    tracer = Tracer([Hook("syslevel.drop_ppp", "risnoma.syslevel", "drop_ppp", broken_counter)])
    tracer.install()
    try:
        assert risnoma.drop_ppp is syslevel.drop_ppp is not original
        tracer.call("outer", risnoma.drop_ppp, 10.0, 1.0, 0)
    finally:
        tracer.uninstall()
    assert risnoma.drop_ppp is syslevel.drop_ppp is original
    outer, inner = sorted(tracer.spans, key=lambda s: s.id)
    assert (outer.name, inner.name, inner.parent) == ("outer", "syslevel.drop_ppp", outer.id)
    assert tracer.counts["syslevel.drop_ppp.calls"] == 1
    assert tracer.missing == {"syslevel.drop_ppp (counter)"}


# -- metrics and reference ---------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    from workloads import tail_percentile

    assert tail_percentile(1000) == 99
    assert tail_percentile(200) == 95
    assert tail_percentile(20) == 50
    assert tail_percentile(3) == 50


def test_closed_loop_scales_each_section_by_its_calibrations():
    import workloads

    class Fixed:
        def __init__(self, walls):
            self.walls = iter(walls)
            self.ks = []

        def section(self, k):
            self.ks.append(k)
            return workloads.Section(wall=next(self.walls), evals=1, attempted=1, failed=0, latencies=[1.0])

    run = Fixed([5.0, 1.0])
    calibration = workloads.Calibration(Fixed([0.1, 0.2]), ref=0.3)
    warm_up, plain, traced = workloads.closed_loop(run, calibration, 0.0)
    assert run.ks == [0, 1] and calibration.workload.ks == [0, 0] and traced == []
    assert warm_up.scale == 1.0  # timed, but never used
    assert [s.scale for s in plain] == [pytest.approx(0.3 / 0.15)]


def test_frozen_copy_is_never_traced():
    import calibrate
    import layers

    frozen = calibrate.frozen_package()
    assert frozen.__name__ == "risnoma_seed"
    tracer = Tracer(layers.HOOKS)
    tracer.install()
    try:
        assert not hasattr(frozen.syslevel.dinkelbach_batch, "__wrapped__")
        assert not hasattr(frozen.cli.main, "__wrapped__")
    finally:
        tracer.uninstall()
    assert tracer.missing == set()


def test_max_rel_dev():
    ref = _means()
    assert reference.max_rel_dev(ref, ref) == 0.0
    assert reference.max_rel_dev(_set(_means(), "mpa", 10.0, mean_asr=1.62), ref) == pytest.approx(0.1)
    assert reference.max_rel_dev(ref[1:], ref) == 1.0


def test_reference_file_covers_the_reference_campaign():
    rows = reference.load()
    assert len(rows) == len(SCHEMES) * 18
    assert {r["scheme"] for r in rows} == set(SCHEMES)
