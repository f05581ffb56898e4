"""The layers the traced run measures: one hook per public function, the
counters each hook keeps, and the per-layer metrics reported by name.

Counters are computed from argument and result shapes at the layer
boundary; ``bytes_computed`` is the size of the users x BS x 2 float64
displacement array that association builds, not a measured traffic.
"""

from spans import Hook


def _count_points(counts, name, args, kwargs, result):
    counts[f"{name}.points"] += len(result)


def _count_entries(counts, name, args, kwargs, result):
    users, bss = args[0], args[1]
    entries = len(users) * len(bss)
    counts[f"{name}.entries"] += entries
    counts[f"{name}.bytes_computed"] += entries * 2 * 8


def _count_instances(counts, name, args, kwargs, result):
    counts[f"{name}.instances"] += len(args[0])


def _count_pairs(counts, name, args, kwargs, result):
    counts[f"{name}.pairs"] += result.n_pairs


def _count_cdf_rows(counts, name, args, kwargs, result):
    counts[f"{name}.cdf_rows"] += len(result[1].rows)


def _count_bytes_out(counts, name, args, kwargs, result):
    counts["tables.bytes_out"] += len(result)  # the output is ASCII


HOOKS = (
    Hook("cli.main", "risnoma.cli", "main"),
    Hook("experiments.syslevel_tables", "risnoma.experiments", "syslevel_tables", _count_cdf_rows),
    Hook("experiments.pair_study_table", "risnoma.experiments", "pair_study_table"),
    Hook("syslevel.run_campaign", "risnoma.syslevel", "run_campaign", _count_pairs),
    Hook("syslevel.drop_ppp", "risnoma.syslevel", "drop_ppp", _count_points),
    Hook("syslevel.associate_and_budget", "risnoma.syslevel", "associate_and_budget", _count_entries),
    Hook("eepa.dinkelbach_batch", "risnoma.eepa", "dinkelbach_batch", _count_instances),
    Hook("eepa.dinkelbach_allocate", "risnoma.eepa", "dinkelbach_allocate"),
    Hook("eepa.pairing_criterion_eepa", "risnoma.eepa", "pairing_criterion_eepa"),
    Hook("mpa.allocate_mpa", "risnoma.mpa", "allocate_mpa"),
    Hook("pairing.run_scheme", "risnoma.pairing", "run_scheme"),
    Hook("tables.render_csv", "risnoma.tables", "render_csv", _count_bytes_out),
    Hook("tables.write_table", "risnoma.tables", "write_table"),
)

S, COUNT, FRAC, BYTES = "s", "count", "frac", "B"

# name -> unit; every name is printed by a traced run, 0 where the layer
# is not reached on that workload.
PER_LAYER = {
    "eepa.dinkelbach_batch.s": S,
    "eepa.dinkelbach_batch.calls": COUNT,
    "eepa.dinkelbach_batch.instances": COUNT,
    "eepa.dinkelbach_batch.feasible_frac": FRAC,
    "syslevel.associate_and_budget.s": S,
    "syslevel.associate_and_budget.entries": COUNT,
    "syslevel.associate_and_budget.bytes_computed": BYTES,
    "syslevel.drop_ppp.s": S,
    "syslevel.drop_ppp.points": COUNT,
    "syslevel.run_campaign.s": S,
    "syslevel.run_campaign.self_s": S,
    "syslevel.run_campaign.pairs": COUNT,
    "experiments.syslevel_tables.self_s": S,
    "experiments.syslevel_tables.cdf_rows": COUNT,
    "tables.render_csv.s": S,
    "tables.write_table.s": S,
    "tables.bytes_out": BYTES,
    "experiments.pair_study_table.self_s": S,
    "pairing.run_scheme.s": S,
    "pairing.run_scheme.calls": COUNT,
    "mpa.allocate_mpa.s": S,
    "mpa.allocate_mpa.calls": COUNT,
    "eepa.pairing_criterion_eepa.s": S,
    "eepa.dinkelbach_allocate.s": S,
    "eepa.dinkelbach_allocate.calls": COUNT,
    "eepa.dinkelbach_allocate.useful_frac": FRAC,
    "pairing.noma_frac.mpa": FRAC,
    "pairing.noma_frac.eepa": FRAC,
    "cli.main.self_s": S,
    "trace.wall_s": S,
    "trace.overhead_s": S,
    "trace.hooks_missing": COUNT,
    "check.max_rel_dev": FRAC,
}
