"""Batch command-line front end.

One JSON configuration document (file or standard input) drives every
subcommand; flags exist only for selecting the config source.  Output is
plot-ready CSV or (``tau`` only) versioned JSON, with 17 significant
digits and a fixed enumeration order so identical configs produce
byte-identical files.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
error (pole, degeneracy, non-convergence).
"""

import json
import math
import sys

import click
import numpy as np

from .errors import BesselTauError, ConfigError
from .kernel import kernel_a, kernel_d, mode_matrix_a, mode_matrix_d, modes_by_quadrature
from .monodromy import MonodromyParams
from .nekrasov import SeriesTruncation, complex_fsum, tau_series_terms, z_dual_terms
from .tau import METHODS, TauRoute, _sigma_form_defect, _zeta, cross_validate, grids

CSV_HEADER = (
    "t_re,t_im,tau_fred_re,tau_fred_im,tau_maya_re,tau_maya_im,"
    "tau_nek_re,tau_nek_im,zeta_re,zeta_im,ode_residual,est_error"
)

DEFAULT_CONFIG = {
    "sigma": [-0.13, 0.0],
    "eta": [0.11, 0.0],
    "t_grid": {"start": 0.05, "stop": 0.05, "count": 1, "spacing": "linear"},
    "method": "all",
    "N_modes": 12,
    "weight_cutoff": 6,
    "charge_cutoff": 2,
    "tolerance": 1e-8,
    "output": None,
    "format": "csv",
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_config(path):
    cfg = dict(DEFAULT_CONFIG)
    cfg["t_grid"] = dict(DEFAULT_CONFIG["t_grid"])
    if path is None:
        return cfg
    try:
        if path == "-":
            user = json.load(sys.stdin)
        else:
            with open(path) as fh:
                user = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(user) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    grid = user.pop("t_grid", None)
    cfg.update(user)
    if grid is not None:
        if not isinstance(grid, dict):
            raise ConfigError("t_grid must be an object")
        bad = set(grid) - set(DEFAULT_CONFIG["t_grid"])
        if bad:
            raise ConfigError(f"unknown t_grid fields: {sorted(bad)}")
        cfg["t_grid"].update(grid)
    return cfg


def _real_field(val, name) -> float:
    """A JSON number, int or float but not bool, as a finite float."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{name} must be a number, got {val!r}")
    try:
        x = float(val)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {val!r}")
    return x


def _int_field(val, name) -> int:
    x = _real_field(val, name)
    if not x.is_integer():
        raise ConfigError(f"{name} must be an integer, got {val!r}")
    return int(x)


def _complex_field(cfg, name) -> complex:
    val = cfg[name]
    if not (isinstance(val, (list, tuple)) and len(val) == 2):
        raise ConfigError(f"{name} must be a [re, im] pair")
    return complex(_real_field(val[0], name), _real_field(val[1], name))


def _validate(cfg, command):
    """RunConfig -> (params, t values, methods, trunc, n_modes) or ConfigError."""
    sigma = _complex_field(cfg, "sigma")
    eta = _complex_field(cfg, "eta")
    try:
        params = MonodromyParams(sigma, eta)
    except BesselTauError as exc:
        raise ConfigError(str(exc)) from exc

    grid = cfg["t_grid"]
    start = _real_field(grid["start"], "t_grid.start")
    stop = _real_field(grid["stop"], "t_grid.stop")
    count = _int_field(grid["count"], "t_grid.count")
    spacing = grid.get("spacing", "linear")
    if count < 1:
        raise ConfigError(f"t_grid.count must be >= 1, got {count}")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"t_grid.spacing must be 'linear' or 'log', got {spacing!r}")
    if spacing == "log" and min(start, stop) <= 0:
        raise ConfigError(f"log spacing needs t_grid.start and stop > 0, got {start}, {stop}")
    if count == 1:
        ts = [start]
    elif spacing == "linear":
        ts = list(np.linspace(start, stop, count))
    else:
        ts = list(np.geomspace(start, stop, count))

    method = cfg["method"]
    if method == "all":
        methods = list(METHODS)
    elif method in METHODS:
        methods = [method]
    else:
        raise ConfigError(f"method must be one of {METHODS + ('all',)}, got {method!r}")

    n_modes = _int_field(cfg["N_modes"], "N_modes")
    if n_modes < 1:
        raise ConfigError(f"N_modes must be >= 1, got {n_modes}")
    w = _int_field(cfg["weight_cutoff"], "weight_cutoff")
    q = _int_field(cfg["charge_cutoff"], "charge_cutoff")
    if w < 0 or q < 0:
        raise ConfigError(f"cutoffs must be >= 0, got weight {w}, charge {q}")
    if _real_field(cfg["tolerance"], "tolerance") <= 0:
        raise ConfigError(f"tolerance must be > 0, got {cfg['tolerance']!r}")
    if cfg["output"] is not None and not isinstance(cfg["output"], str):
        raise ConfigError(f"output must be a path or null, got {cfg['output']!r}")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {cfg['format']!r}")
    if cfg["format"] == "json" and command != "tau":
        raise ConfigError(f"{command} has no JSON output; format 'json' is for tau only")
    return params, ts, methods, SeriesTruncation(w, q), n_modes


def _write(cfg, text):
    if not cfg["output"]:
        click.echo(text, nl=False, file=sys.stdout)
        return
    try:
        with open(cfg["output"], "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _emit_records(cfg, records):
    """Records are dicts of column name -> float or None."""
    columns = CSV_HEADER.split(",")
    if cfg["format"] == "json":
        payload = {"schema": 1, "records": records}
        _write(cfg, json.dumps(payload, indent=2, default=float) + "\n")
        return
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(
            ",".join("" if rec[c] is None else _fmt(rec[c]) for c in columns)
        )
    _write(cfg, "\n".join(lines) + "\n")


@click.group(help=__doc__ + f"\nCSV columns: {CSV_HEADER}")
def main():
    pass


def _command(name, summary):
    """Register ``fn(cfg, params, ts, methods, trunc, n_modes)`` as subcommand ``name``.

    The command takes the -c/--config option and validates its config under
    ``name``; a ConfigError exits 2 and a numerical failure exits 3, each
    with one line on stderr.
    """

    def register(fn):
        @main.command(name=name, help=summary)
        @click.option(
            "-c",
            "--config",
            "config_path",
            default=None,
            help="JSON config file ('-' for stdin); omit for built-in defaults.",
        )
        def command(config_path):
            try:
                cfg = _load_config(config_path)
                fn(cfg, *_validate(cfg, name))
            except ConfigError as exc:
                click.echo(f"config error: {exc}", file=sys.stderr)
                sys.exit(2)
            except (BesselTauError, np.linalg.LinAlgError) as exc:
                click.echo(f"numerical error: {exc}", file=sys.stderr)
                sys.exit(3)

        return fn

    return register


@_command("tau", "Evaluate tau (and zeta, ODE residual) over the t-grid.")
def tau_cmd(cfg, params, ts, methods, trunc, n_modes):
    routes = {m: TauRoute(params, m, n_modes, trunc) for m in methods}
    zeta_method = "maya" if "maya" in methods else methods[0]
    # on an error, grids raises what a pass per t meets first: each route's
    # tau, then zeta
    out = dict(zip(routes, grids(routes.values(), ts, routes[zeta_method])))
    thetas = out[zeta_method][1]
    col = {"fredholm": "tau_fred", "maya": "tau_maya", "nekrasov": "tau_nek"}
    records = []
    for i, t in enumerate(ts):
        rec = dict.fromkeys(CSV_HEADER.split(","))
        rec["t_re"], rec["t_im"] = t, 0.0
        est = 0.0
        for m, (values, _) in out.items():
            tv = values[i]
            rec[f"{col[m]}_re"], rec[f"{col[m]}_im"] = tv.tau.real, tv.tau.imag
            est = max(est, tv.est_error)
        if thetas[i] is not None:
            z, zp, zpp, _ = _zeta(float(t), thetas[i])
            rec["zeta_re"], rec["zeta_im"] = z.real, z.imag
            rec["ode_residual"] = _sigma_form_defect(t, z, zp, zpp)
        rec["est_error"] = est
        records.append(rec)
    _emit_records(cfg, records)


@_command("series", "Emit series coefficients as a table of (exponent, coefficient).")
def series(cfg, params, _ts, methods, trunc, _n_modes):
    if methods == ["fredholm"]:
        raise ConfigError("series has no fredholm method; use maya, nekrasov or all")
    terms = (tau_series_terms if methods == ["maya"] else z_dual_terms)(params, trunc)
    lines = ["charge,weight,exponent_re,exponent_im,coeff_re,coeff_im"]
    for n, k, e, c in terms:
        e, c = complex(e), complex(c)
        lines.append(
            f"{n},{k},{_fmt(e.real)},{_fmt(e.imag)},{_fmt(c.real)},{_fmt(c.imag)}"
        )
    _write(cfg, "\n".join(lines) + "\n")


@_command("modes", "Emit closed-form mode matrices and their quadrature comparison.")
def modes(cfg, params, ts, _methods, _trunc, n_modes):
    t = ts[0]
    if t == 0:
        raise ConfigError("modes needs t_grid.start != 0; the d-kernel is undefined at t = 0")
    n = min(n_modes, 8)
    a_closed = mode_matrix_a(params, n)
    d_closed = mode_matrix_d(params, t, n)
    a_quad = modes_by_quadrature(lambda zp, z: kernel_a(params, zp, z), n, block="a")
    d_quad = modes_by_quadrature(lambda zp, z: kernel_d(params, t, zp, z), n, block="d")
    lines = ["block,row,col,closed_re,closed_im,quad_re,quad_im,abs_diff"]
    for name, closed, quad in (("a", a_closed, a_quad), ("d", d_closed, d_quad)):
        for r in range(2 * n):
            for c in range(2 * n):
                lines.append(
                    f"{name},{r},{c},{_fmt(closed[r, c].real)},"
                    f"{_fmt(closed[r, c].imag)},{_fmt(quad[r, c].real)},"
                    f"{_fmt(quad[r, c].imag)},{_fmt(abs(closed[r, c] - quad[r, c]))}"
                )
    _write(cfg, "\n".join(lines) + "\n")
    click.echo(
        f"max |closed - quadrature|: a = {np.max(np.abs(a_closed - a_quad)):.3e}, "
        f"d = {np.max(np.abs(d_closed - d_quad)):.3e}",
        file=sys.stderr,
    )


@_command("convergence", "Refinement study: determinant vs N and series vs weight cutoff.")
def convergence(cfg, params, ts, _methods, trunc, n_modes):
    if ts[0] == 0:
        raise ConfigError("convergence needs t_grid.start != 0; t**exponent is undefined at t = 0")
    t = complex(ts[0])
    terms = [(w, c * t**e) for (_, w, e, c) in tau_series_terms(params, trunc)]
    # the determinant at every even N <= N_modes from the leading blocks of one
    # build, the series as partial sums of one W table
    top = n_modes - n_modes % 2
    fred = TauRoute(params, "fredholm", top) if top else None
    rows = [
        ("fredholm_N", n, fred.leading(n).tau(t, force=True).tau)
        for n in range(2, top + 1, 2)
    ] + [
        ("maya_W", w, complex_fsum(v for k, v in terms if k <= w))
        for w in range(trunc.weight_cutoff + 1)
    ]
    lines = ["study,level,value_re,value_im,abs_change"]
    prev = {}
    for study, level, val in rows:
        change = abs(val - prev[study]) if study in prev else float("nan")
        lines.append(f"{study},{level},{_fmt(val.real)},{_fmt(val.imag)},{_fmt(change)}")
        prev[study] = val
    _write(cfg, "\n".join(lines) + "\n")


@_command("check", "Run the cross_validate check battery with a pass/fail summary.")
def check(cfg, params, ts, _methods, trunc, n_modes):
    t = next((x for x in ts if x > 0), None)
    if t is None:
        raise ConfigError("check needs a t_grid point > 0")
    rows = cross_validate(t, params, n_modes, trunc, cfg["tolerance"])
    width = max(len(name) for name, *_ in rows)
    for name, value, tol in rows:
        click.echo(
            f"{name:<{width}}  {value:12.3e}  < {tol:.0e}  "
            f"{'PASS' if value < tol else 'FAIL'}",
            file=sys.stdout,
        )
    if not all(value < tol for _, value, tol in rows):
        click.echo("one or more checks failed", file=sys.stderr)
        sys.exit(3)
    click.echo("all checks passed", file=sys.stdout)


if __name__ == "__main__":
    main()
