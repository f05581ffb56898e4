"""Command-line front end.

Angles on the command line and in config files are degrees; the library
works in radians. A YAML config file can preset any option but --out,
--format, --print-config and --config: its values become click's
default map, so click applies defaults < file < flags and converts each
value as the flag's text would be. A boolean, list or mapping is
rejected, not cast. --print-config echoes the fully resolved option set
for reproducibility; config_sha256 hashes it without the output
destinations.

Exit codes: 0 success, 2 configuration or output error (click's usage
errors included), 3 numerical failure.
"""

import contextlib
import datetime
import hashlib
import json
import math
import os
import re
import sys

import click

from . import experiments as ex
from . import tables
from .channel import db_to_linear
from .eepa import ConvergenceError
from .mpa import TargetPolicy
from .pairing import Scheme
from .syslevel import DeploymentConfig, RadioConfig


def _parse_schemes(text: str):
    out = []
    for name in text.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            out.append(Scheme(name))
        except ValueError:
            raise ex.ConfigError(f"unknown scheme {name!r}, expected oma|mpa|eepa|srm")
    return tuple(out)


def _parse_policy(resolved: dict) -> TargetPolicy:
    kind = resolved["targets_policy"]
    if kind == "oma-ref":
        try:
            return TargetPolicy.oma_at_reference(math.radians(resolved["delta_ref_deg"]))
        except ValueError:
            raise ex.ConfigError(f"--delta-ref-deg {resolved['delta_ref_deg']} is outside [0, 180)") from None
    if kind == "oma-current":
        return TargetPolicy.oma_at_current()
    return TargetPolicy.explicit(resolved["r1_min"], resolved["r2_min"])


def _build_config(kind: ex.ExperimentKind, r: dict) -> ex.ExperimentConfig:
    kwargs = {
        "kind": kind,
        "seed": r["seed"],
        "targets_policy": _parse_policy(r),
    }
    if "gammas_db" in r:
        kwargs["gammas_db"] = ex.parse_float_list(r["gammas_db"])
    if "delta_deg" in r:
        kwargs["delta_deg"] = ex.parse_float_list(r["delta_deg"])
    if "alpha2_step" in r:
        kwargs["alpha2_step"] = r["alpha2_step"]
    if "scheme" in r:
        kwargs["schemes"] = _parse_schemes(r["scheme"])
    if "elements" in r:
        elements = ex.parse_float_list(r["elements"])
        if not all(n.is_integer() for n in elements):
            raise ex.ConfigError(f"element counts must be whole numbers, got {r['elements']!r}")
        kwargs["mc_elements"] = tuple(int(n) for n in elements)
    if "trials" in r:
        kwargs["mc_trials"] = r["trials"]
    if "cdf_delta_deg" in r and r["cdf_delta_deg"] is not None:
        kwargs["cdf_delta_deg"] = r["cdf_delta_deg"]
    if kind is ex.ExperimentKind.SYSLEVEL:
        kwargs["deploy"] = DeploymentConfig(
            bs_density=r["bs_density"],
            user_density=r["user_density"],
            area_km2=r["area_km2"],
            seed=r["seed"],
            drops=r["drops"],
        )
        kwargs["radio"] = RadioConfig(
            bs_antennas=r["bs_antennas"],
            ris_elements=r["ris_elements"],
            transmit_power=db_to_linear(r["tx_power_dbm"] - 30.0),
            noise_power=db_to_linear(r["noise_dbm"] - 30.0),
            pathloss_intercept=r["pathloss_intercept_db"],
            pathloss_exponent=r["pathloss_exponent"],
            ris_offset_m=r["ris_offset_m"],
        )
    return ex.ExperimentConfig(**kwargs)


_NOT_IN_FILE = {"config_path", "out", "fmt", "print_config"}


def _preset(ctx, param, path):
    """--config: the file's values become click's default map, so click
    applies defaults < file < flags and converts each value as the flag's
    text would be. Null is a value only where the option's default is None.
    The YAML parser is loaded here, so a run without --config never pays
    to import it."""
    if not path:
        return
    import yaml

    # YAML 1.1's base-60 int and float, e.g. 1:30 (90) and 0:10:0.5 (600.5)
    base_60 = re.compile(r"[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+(?:\.[0-9_]*)?$")

    class ConfigLoader(yaml.SafeLoader):
        """The safe loader without base-60 numbers: a plain 1:30 is the string
        "1:30", which --delta-deg reads as a range, not the int 90."""

        def resolve(self, kind, value, implicit):
            if kind is yaml.ScalarNode and implicit[0] and base_60.match(value):
                return self.DEFAULT_SCALAR_TAG
            return super().resolve(kind, value, implicit)

    try:
        # bytes: the parser detects UTF-8 or UTF-16 and reports bad bytes as a YAMLError
        with open(path, "rb") as fh:
            data = yaml.load(fh, Loader=ConfigLoader) or {}
    except (OSError, yaml.YAMLError) as e:  # both name the file
        raise click.UsageError(" ".join(str(e).split())) from None
    except (ValueError, RecursionError) as e:  # a tag that cannot build its value (!!int abc), or deep nesting
        raise click.UsageError(f"{path}: {e}") from None
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold a key/value mapping")
    defaults = {p.name: p.default for p in ctx.command.params if p.name not in _NOT_IN_FILE}
    ctx.default_map = {}
    for key, value in data.items():
        key = str(key).replace("-", "_")
        if key not in defaults:
            raise click.UsageError(f"unknown config key {key!r}")
        if value is None:
            if defaults[key] is not None:
                raise click.UsageError(f"config key {key!r} must not be null")
        elif isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise click.UsageError(f"config key {key!r} must be a number or a string, not {type(value).__name__}")
        else:
            ctx.default_map[key] = str(value)


def _meta(resolved: dict):
    # the hash names the configuration, not where its files go
    blob = json.dumps({k: v for k, v in resolved.items() if k != "cdf_out"}, sort_keys=True, default=str)
    return {
        "seed": resolved.get("seed", 0),
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _output_error(e: OSError, name):
    click.echo(f"output error: {name}: {e.strerror or e}", err=True)
    sys.exit(2)


def _echo(text: str):
    """Write text to stdout; a failed write (a full disk, a closed pipe) is an output error."""
    try:
        click.echo(text, nl=False)
    except OSError as e:
        # what stdout still buffers goes to devnull, not to a second error at exit
        with contextlib.suppress(AttributeError, OSError):  # no file descriptor behind stdout
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        _output_error(e, "<stdout>")


def _write_files(outputs, fmt, meta):
    """Write each (table, path), all or none: each table goes to a temporary
    file beside its target, and all are moved into place once all are
    written. An existing path that is no file (/dev/null) is written as it is."""
    staged = []
    try:
        for k, (table, path) in enumerate(outputs):
            target = os.path.realpath(path)
            if os.path.exists(target) and not os.path.isfile(target):  # a directory fails here
                tables.write_table(table, path, fmt, meta)
                continue
            staged.append((f"{target}.{os.getpid()}.{k}.tmp", path, target))
            tables.write_table(table, staged[-1][0], fmt, meta)
        for tmp, path, target in staged:
            os.replace(tmp, target)
    except OSError as e:
        _output_error(e, path)
    finally:  # tables are written as they render: a failure mid-table leaves no temporary file either
        for tmp, _, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)


def _config_error(e):
    click.echo(f"config error: {e}", err=True)
    sys.exit(2)


def _run(kind, table_fn, resolved):
    print_config = resolved.pop("print_config")
    out = resolved.pop("out")
    fmt = resolved.pop("fmt")
    try:
        cfg = _build_config(kind, resolved)
    except ValueError as e:  # ConfigError is a ValueError
        _config_error(e)
    if print_config:
        import yaml

        _echo(yaml.safe_dump(resolved, sort_keys=True))
        return
    cdf_out = resolved.get("cdf_out") or (f"{out}.cdf.{fmt}" if out else None)
    if out and cdf_out and os.path.realpath(out) == os.path.realpath(cdf_out):
        _config_error(f"--out and --cdf-out are the same file {out!r}")
    try:
        result = table_fn(cfg)
    except ConvergenceError as e:
        click.echo(f"numerical failure: {e}", err=True)
        sys.exit(3)
    except ValueError as e:  # inputs the library rejects, e.g. a deployment with no pairs
        _config_error(e)
    results = result if isinstance(result, tuple) else (result,)  # syslevel: (means, cdf); the CDF only to a file
    meta = _meta(resolved)  # one generated stamp for every output of the run
    _write_files([(table, path) for table, path in zip(results, (out, cdf_out)) if path], fmt, meta)
    if not out:
        _echo(tables.render_csv(results[0], meta) if fmt == "csv" else tables.render_json(results[0], meta))


def common_options(fn):
    for opt in reversed(
        [
            click.option("--config", "config_path", type=click.Path(), default=None, callback=_preset,
                         expose_value=False, help="YAML config file; flags override its values."),
            click.option("--out", type=click.Path(), default=None, help="Output path (stdout if omitted)."),
            click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv"),
            click.option("--seed", type=int, default=0),
            click.option("--targets-policy", type=click.Choice(["oma-ref", "oma-current", "explicit"]),
                         default="oma-ref"),
            click.option("--delta-ref-deg", type=float, default=0.0),
            click.option("--r1-min", type=float, default=0.0),
            click.option("--r2-min", type=float, default=0.0),
            click.option("--print-config", is_flag=True, default=False),
        ]
    ):
        fn = opt(fn)
    return fn


class _Group(click.Group):
    """Usage errors are one config error line, not click's usage block."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:  # no such command, a malformed flag, a bad config file
            _config_error(e.format_message())


@click.group(cls=_Group)
def main():
    """Spectral/energy-efficient user pairing for RIS-assisted uplink
    NOMA under imperfect phase compensation."""


@main.command("sweep-alpha2")
@common_options
@click.option("--gammas-db", default="8,5", help="Gamma1,Gamma2 in dB (strong first).")
@click.option("--delta-deg", default="0,11")
@click.option("--alpha2-step", type=float, default=0.001)
def sweep_alpha2(**kwargs):
    """Rates versus the weak user's power fraction (alpha1 fixed at 1)."""
    _run(ex.ExperimentKind.SWEEP_ALPHA2, ex.sweep_alpha2_table, kwargs)


@main.command("sweep-delta")
@common_options
@click.option("--gammas-db", default="8,5")
@click.option("--delta-deg", default="0:90:1")
def sweep_delta(**kwargs):
    """Single-pair MPA decision and OMA references versus phase error."""
    _run(ex.ExperimentKind.SWEEP_DELTA, ex.sweep_delta_table, kwargs)


@main.command("pair-study")
@common_options
@click.option("--gammas-db", default="8,5")
@click.option("--delta-deg", default="0")
@click.option("--scheme", default="oma,mpa,eepa,srm")
def pair_study(**kwargs):
    """Per-scheme decision dump for a single pair at one delta."""
    _run(ex.ExperimentKind.PAIR_STUDY, ex.pair_study_table, kwargs)


@main.command("syslevel")
@common_options
@click.option("--delta-deg", default="0:170:10")
@click.option("--scheme", default="oma,mpa,eepa,srm")
@click.option("--drops", type=int, default=200)
@click.option("--bs-density", type=float, default=25.0)
@click.option("--user-density", type=float, default=2000.0)
@click.option("--area-km2", type=float, default=1.0)
@click.option("--bs-antennas", type=int, default=8)
@click.option("--ris-elements", type=int, default=32)
@click.option("--tx-power-dbm", type=float, default=23.0)
@click.option("--noise-dbm", type=float, default=-94.0)
@click.option("--pathloss-intercept-db", type=float, default=32.4)
@click.option("--pathloss-exponent", type=float, default=3.0)
@click.option("--ris-offset-m", type=float, default=10.0)
@click.option("--cdf-delta-deg", type=float, default=None)
@click.option("--cdf-out", type=click.Path(), default=None)
def syslevel(**kwargs):
    """Monte-Carlo system-level campaign over PPP deployments."""
    _run(ex.ExperimentKind.SYSLEVEL, ex.syslevel_tables, kwargs)


@main.command("validate-approx")
@common_options
@click.option("--elements", default="4,16,64,256,1024")
@click.option("--delta-deg", default="5.73,28.65,57.3,114.59")
@click.option("--trials", type=int, default=10000)
def validate_approx(**kwargs):
    """Monte-Carlo check of the sinc^2 phase-error approximation."""
    _run(ex.ExperimentKind.VALIDATE_APPROX, ex.validate_approx_table, kwargs)


if __name__ == "__main__":
    main()
