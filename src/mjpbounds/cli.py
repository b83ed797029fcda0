"""Command line interface.

Subcommands: ``validate``, ``spectrum``, ``simulate``, ``rate``, ``series``,
``bounds``, ``compare``.  Numeric CSV output is the canonical result format;
floats are printed with 17 significant digits so files round-trip exactly.
A timestamp comment line is written unless ``--no-timestamp`` is given, so
that result bodies can be compared byte for byte.  Exit codes: 0 success,
2 validation failure, 3 numerical failure, 4 domination-check failure under
``compare --strict``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import bounds as bnd
from . import combinatorics as comb
from .errors import NumericalError, ValidationError
from .modelio import _fmt, read_model_file
from .simulate import empirical_tail, time_averages
from .tilting import lambda0, lambda0_star

# every family but fsobolev, which needs --fsobolev-c
DEFAULT_FAMILIES = tuple(fam for fam in bnd.FAMILIES if fam != "fsobolev")
THREADS_ENV = "MJPBOUNDS_THREADS"
# ``compare --config`` keys (its flags other than --model and --config, with
# underscores) and the JSON types of their values; a t or u_grid list holds numbers
CONFIG_KEYS = {
    "t": (str, list), "u_grid": (str, list), "families": (str, list),
    "samples": (int,), "seed": (int,), "threads": (int,), "fsobolev_c": (int, float),
    "strict": (bool,), "no_timestamp": (bool,),
    "out": (str,), "summary_out": (str,),
}
# a bound counts as beaten by Monte Carlo only when p_hat exceeds it by more
# than this many 95% confidence half-widths
DOMINATION_SIGMA = 3.0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ValidationError(f"grid must look like lo:hi:n, got {spec!r}") from exc
    if n < 1:
        raise ValidationError(f"grid needs at least one point, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"grid endpoints must be finite, got {spec!r}")
    if n == 1:
        return np.array([lo])
    return np.linspace(lo, hi, n)


def _parse_t_list(spec: str) -> list[float]:
    try:
        values = [float(s) for s in spec.split(",") if s.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad time list {spec!r}") from exc
    if not values:
        raise ValidationError("time list is empty")
    return values


def _threads(value) -> int:
    """Thread count: ``value`` if given, else ``MJPBOUNDS_THREADS``, else 1.

    An empty ``MJPBOUNDS_THREADS`` counts as unset; any other value must be
    an integer of at least 1.
    """
    if value is not None:
        return value
    env = os.environ.get(THREADS_ENV)
    try:
        threads = int(env or 1)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValidationError(f"{THREADS_ENV} must be an integer >= 1, got {env!r}")
    return threads


def _write_row(fh, *cells):
    """Write one CSV row: floats with 17 significant digits, ``None`` as an
    empty cell, anything else with ``str``."""
    text = (
        "" if c is None else _fmt(c) if isinstance(c, (float, np.floating)) else str(c)
        for c in cells
    )
    fh.write(",".join(text) + "\n")


def _write_csv(path, no_timestamp, header, rows):
    """Write a whole CSV to ``path`` (``None`` or ``-`` is stdout): the
    timestamp comment unless ``no_timestamp``, the column ``header``, then
    ``rows``.  Commands compute every row before calling this, so a refused
    or failed run leaves no file."""
    fh = sys.stdout if path in (None, "-") else open(path, "w")
    try:
        if not no_timestamp:
            fh.write("# generated " + datetime.now(timezone.utc).isoformat() + "\n")
        fh.write(header + "\n")
        for row in rows:
            _write_row(fh, *row)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _load(args):
    """Model file and seed (``args.seed``, else the file's, else 0) of parsed
    flags or a ``RunConfig``."""
    mf = read_model_file(args.model)
    seed = args.seed if args.seed is not None else (mf.seed or 0)
    return mf, seed


def cmd_validate(args) -> int:
    mf, seed = _load(args)
    model = mf.model
    info = {
        "states": mf.labels,
        "n": model.n,
        "irreducible": True,
        "reversible": model.reversible,
        "pi": [float(x) for x in model.pi.weights],
        "f_centered": [float(x) for x in model.f.values],
        "nu": [float(x) for x in model.nu.weights],
        "seed": seed,
    }
    print(json.dumps(info, indent=2))
    return 0


def cmd_spectrum(args) -> int:
    mf, _ = _load(args)
    model = mf.model
    a = bnd.analyze(model)
    out = {
        "eigenvalues": [float(x) for x in a.sd.eigenvalues],
        "gap": a.gap,
        "sigma_hat_sq": a.sigma_hat2,
        "var_pi_f": a.var_pi_f,
        "reversible": model.reversible,
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_simulate(args) -> int:
    mf, seed = _load(args)
    est = empirical_tail(
        mf.model, args.t, args.u, args.samples, seed, threads=_threads(args.threads)
    )
    row = (est.u, est.t, est.n_samples, est.hits, est.p_hat, est.ci_lo, est.ci_hi)
    _write_csv(args.out, args.no_timestamp, "u,t,n,hits,p_hat,ci_lo,ci_hi", [row])
    return 0


def cmd_rate(args) -> int:
    mf, _ = _load(args)
    model = mf.model
    a = bnd.analyze(model)
    rows = []
    for u in _parse_grid(args.u_grid):
        res = lambda0_star(a.sd, model.f, float(u))
        rows.append((u, res.value, res.argmax_r, int(res.finite)))
    _write_csv(args.out, args.no_timestamp, "u,lambda0_star,argmax_r,finite", rows)
    return 0


def cmd_series(args) -> int:
    mf, _ = _load(args)
    model = mf.model
    a = bnd.analyze(model)
    coeffs = comb.lambda0_coefficients(a.sd, model.f, args.order)
    rows = list(enumerate(coeffs.coeffs, start=1))
    if args.r_grid:  # a second table, under its own header row
        rows.append(("r", "lambda0", "partial_sum", "abs_error"))
        for r in _parse_grid(args.r_grid):
            lam = lambda0(a.sd, model.f, float(r))
            ps = coeffs.partial_sum(float(r))
            rows.append((r, lam, ps, abs(lam - ps)))
    _write_csv(args.out, args.no_timestamp, "order,coefficient", rows)
    return 0


def _resolve_families(spec, fsobolev_c: float | None):
    if spec is None or spec == "all":
        fams = list(DEFAULT_FAMILIES)
        if fsobolev_c is not None:
            fams.append("fsobolev")
        return fams
    if isinstance(spec, (list, tuple)):
        fams = [str(s).strip() for s in spec]
    else:
        fams = [s.strip() for s in spec.split(",") if s.strip()]
    return fams


def _check_families(fams, fsobolev_c: float | None):
    """Refuse an unknown or repeated family, and fsobolev without its constant."""
    for fam in fams:
        if fam not in bnd.FAMILIES:
            raise ValidationError(f"unknown family {fam!r}")
    if len(set(fams)) < len(fams):  # its columns or rows would be written twice
        raise ValidationError(f"family list repeats a family: {fams}")
    if "fsobolev" in fams and fsobolev_c is None:
        raise ValidationError("family 'fsobolev' needs --fsobolev-c")


def _bound_table(model, families, u_grid, t, fsobolev_c):
    """The analysis of ``model``, the checked verdict of ``fsobolev_c * log``
    (``None`` unless ``fsobolev`` is among ``families``), and the bound of
    every family at every threshold of ``u_grid`` at horizon ``t``, as
    ``{u: {family: BoundPoint}}``."""
    analysis, verdict = bnd.analyze(model), None
    if "fsobolev" in families:
        verdict = bnd.check_f_sobolev(model, bnd.log_sobolev(fsobolev_c))
    table = {
        u: {
            fam: bnd.evaluate_family(model, t, u, fam, analysis=analysis, fsobolev=verdict)
            for fam in families
        }
        for u in map(float, u_grid)
    }
    return analysis, verdict, table


def cmd_bounds(args) -> int:
    mf, _ = _load(args)
    families = _resolve_families(args.families, args.fsobolev_c)
    _check_families(families, args.fsobolev_c)
    u_grid = _parse_grid(args.u_grid)
    _, _, table = _bound_table(mf.model, families, u_grid, args.t, args.fsobolev_c)
    rows = []
    for u in u_grid:  # a grid with lo == hi repeats its threshold
        for fam, p in table[float(u)].items():
            notes = ";".join(
                k for k in ("boundary", "unverified") if p.diagnostics.get(k)
            )
            rows.append((p.u, fam, p.rate, p.prefactor, p.bound, p.branch, notes))
    header = "u,family,rate,prefactor,bound,branch,notes"
    _write_csv(args.out, args.no_timestamp, header, rows)
    return 0


@dataclass
class RunConfig:
    """Resolved configuration of one comparison run."""

    model: str
    t_values: list[float]
    u_grid: list[float]
    families: list[str]
    samples: int
    seed: int | None  # None: the model file's seed, else 0
    threads: int = 1
    out: str | None = None
    strict: bool = False
    no_timestamp: bool = False
    fsobolev_c: float | None = None
    summary_out: str | None = None

    def validate(self):
        """Reject families, thresholds, horizons and a sample count for which
        the run has no meaningful cells, before any simulation starts."""
        _check_families(self.families, self.fsobolev_c)
        if not self.u_grid:
            raise ValidationError("u grid is empty")
        if not all(math.isfinite(u) for u in self.u_grid):
            raise ValidationError(f"u grid must be finite, got {self.u_grid}")
        # a repeated u or t would write its cells twice
        if any(a >= b for a, b in zip(self.u_grid, self.u_grid[1:])):
            raise ValidationError("u grid must be strictly ascending, without repeats")
        if self.samples < 1:
            raise ValidationError("sample count must be >= 1")
        if not self.t_values:
            raise ValidationError("time list is empty")
        for t in self.t_values:
            if not math.isfinite(t) or t <= 0:
                raise ValidationError(f"horizon must be finite and positive, got {t}")
        if len(set(self.t_values)) < len(self.t_values):
            raise ValidationError(f"time list repeats a horizon: {self.t_values}")


def _compare_header(families):
    cols = ["u", "t", "n", "hits", "p_hat", "ci_lo", "ci_hi"]
    for fam in families:
        cols += [f"{fam}_rate", f"{fam}_bound", f"{fam}_ok"]
    cols.append("sharpness_gap")
    return ",".join(cols)


def run_compare(config: RunConfig) -> dict:
    """End-to-end comparison: empirical tails against every requested bound.

    Every path is simulated once, to the largest horizon, and each family's
    rate is evaluated once per threshold and applied at every horizon.  All
    of it happens before the output opens, so a refused or failed run writes
    no file.  The CSV holds one row per (u, t) cell, in the order of
    ``t_values``, and the summary's ``domination_failures`` cover every row.
    Returns the JSON-ready summary.
    """
    config.validate()
    mf, seed = _load(config)
    model = mf.model
    families = config.families
    # any horizon: ``BoundPoint.at`` moves a bound to another
    analysis, verdict, points = _bound_table(
        model, families, config.u_grid, config.t_values[0], config.fsobolev_c
    )
    sharpness_on = model.reversible
    header = _compare_header(families)

    sharp_rate = {}
    if sharpness_on:  # the general rate, which the sharpness column subtracts
        for u, row in points.items():
            general = row.get("general")
            sharp_rate[u] = general.rate if general else lambda0_star(
                analysis.sd, model.f, u
            ).value
    horizons = sorted(config.t_values)
    sims = time_averages(model, horizons, config.samples, seed, threads=config.threads)
    averages = dict(zip(horizons, sims))

    rows, failures = [], []
    for t, u in itertools.product(config.t_values, config.u_grid):
        est = empirical_tail(model, t, u, config.samples, seed, averages=averages[t])
        row = [u, t, est.n_samples, est.hits, est.p_hat, est.ci_lo, est.ci_hi]
        for p in points[u].values():
            bound = p.at(t).bound
            ok = est.p_hat <= bound + DOMINATION_SIGMA * est.ci_half_width
            if not ok:
                failures.append(
                    {"family": p.family, "u": u, "t": t, "p_hat": est.p_hat,
                     "bound": bound}
                )
            row += [p.rate, bound, int(ok)]
        # empirical decay rate exceeds the bound's rate; the excess shrinks
        # to 0 as t grows on reversible chains
        sharp = sharpness_on and est.p_hat > 0.0
        row.append(-math.log(est.p_hat) / t - sharp_rate[u] if sharp else None)
        rows.append(row)
    _write_csv(config.out, config.no_timestamp, header, rows)

    summary = {
        "model": config.model,
        "families": families,
        "t_values": config.t_values,
        "u_grid": [float(u) for u in config.u_grid],
        "samples": config.samples,
        "seed": seed,
        "rows_written": len(rows),
        "domination_failures": failures,
        "all_dominated": not failures,
        "sharpness_diagnostic": sharpness_on,
        "fsobolev_verdict": verdict.status if verdict else None,
    }
    if config.summary_out:
        with open(config.summary_out, "w") as sf:
            json.dump(summary, sf, indent=2)
            sf.write("\n")
    return summary


def _read_config(path) -> dict:
    """Settings from a ``compare --config`` JSON object whose keys are all in
    ``CONFIG_KEYS`` and whose values have their types (or are null, for unset);
    anything else is refused."""
    try:
        with open(path, "rb") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:  # also bytes that are not UTF-8
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ValidationError(
            f"config {path} has unknown keys {unknown}; known: {', '.join(CONFIG_KEYS)}"
        )
    for key, value in cfg.items():
        # exact types, since a JSON true or false is a Python int as well
        numbers = value if key in ("t", "u_grid") and type(value) is list else []
        wrong = type(value) not in CONFIG_KEYS[key] or any(
            type(v) not in (int, float) for v in numbers
        )
        if value is not None and wrong:
            raise ValidationError(f"config {path}: bad {key} value {json.dumps(value)}")
    return cfg


def cmd_compare(args) -> int:
    if args.config:
        for key, value in _read_config(args.config).items():
            flag = getattr(args, key)
            if flag is None or flag is False:  # a flag given on the command line wins
                setattr(args, key, value)
    if args.u_grid is None:
        raise ValidationError("compare needs --u-grid (or u_grid in --config)")
    u_grid = args.u_grid if isinstance(args.u_grid, list) else _parse_grid(args.u_grid)
    if args.t is None:
        raise ValidationError("compare needs --t (or t in --config)")
    t_values = args.t if isinstance(args.t, list) else _parse_t_list(args.t)
    config = RunConfig(
        model=args.model,
        t_values=[float(t) for t in t_values],
        u_grid=sorted(float(u) for u in u_grid),
        families=_resolve_families(args.families, args.fsobolev_c),
        samples=args.samples if args.samples is not None else 10000,
        seed=args.seed,
        threads=_threads(args.threads),
        out=args.out,
        strict=bool(args.strict),
        no_timestamp=bool(args.no_timestamp),
        fsobolev_c=args.fsobolev_c,
        summary_out=args.summary_out,
    )
    summary = run_compare(config)
    if config.strict and not summary["all_dominated"]:
        print(
            f"domination check failed in {len(summary['domination_failures'])} cells",
            file=sys.stderr,
        )
        return 4
    return 0


def _add_common(sp, csv=True, threads=False):
    # a command takes only the flags it reads: --out for a CSV, --threads to simulate
    sp.add_argument("--model", required=True, help="model file (JSON or TOML)")
    sp.add_argument("--seed", type=int, default=None)
    if threads:
        sp.add_argument("--threads", type=int, default=None)
    if csv:
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--no-timestamp", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mjpbounds",
        description="Concentration bounds for Markov jump process time averages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="parse and validate a model file")
    _add_common(sp, csv=False)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("spectrum", help="eigenvalues, gap, variances as JSON")
    _add_common(sp, csv=False)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("simulate", help="empirical tail estimate")
    _add_common(sp, threads=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("rate", help="conjugate rate function on a u grid")
    _add_common(sp)
    sp.add_argument("--u-grid", required=True, help="lo:hi:n")
    sp.set_defaults(fn=cmd_rate)

    sp = sub.add_parser("series", help="perturbation-series coefficients")
    _add_common(sp)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--r-grid", default=None, help="lo:hi:n")
    sp.set_defaults(fn=cmd_series)

    sp = sub.add_parser("bounds", help="bound curves on a u grid")
    _add_common(sp)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--u-grid", required=True, help="lo:hi:n")
    sp.add_argument("--families", default=None, help="all or comma list")
    sp.add_argument("--fsobolev-c", type=float, default=None)
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("compare", help="bounds vs Monte Carlo, one CSV")
    _add_common(sp, threads=True)
    sp.add_argument("--t", default=None, help="comma list of horizons")
    sp.add_argument("--u-grid", default=None, help="lo:hi:n")
    sp.add_argument("--families", default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--fsobolev-c", type=float, default=None)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--config", default=None, help="JSON config; flags win")
    sp.add_argument("--summary-out", default=None, help="JSON summary path")
    sp.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
