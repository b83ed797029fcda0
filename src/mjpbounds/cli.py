"""Command line interface.

Subcommands: ``validate``, ``spectrum``, ``simulate``, ``rate``, ``series``,
``bounds``, ``compare``.  Numeric CSV output is the canonical result format;
floats are printed with 17 significant digits so files round-trip exactly.
A timestamp comment line is written unless ``--no-timestamp`` is given, so
that result bodies can be compared byte for byte.  Exit codes: 0 success,
2 validation failure (an unwritable output included), 3 numerical failure,
4 domination-check failure under ``compare --strict``.  Every setting is a
flag; ``@path`` in the argument list reads more flags from a file, one
token per line (argparse's ``fromfile_prefix_chars``).  ``main`` parses with
one parser, built on its first call and kept for the rest of the process;
``build_parser`` returns a fresh one on every call.
"""

from __future__ import annotations

import argparse
import functools
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
from .modelio import read_model_file
from .simulate import tail_estimate, time_averages
from .tilting import lambda0, lambda0_star

# every family but fsobolev, which needs --fsobolev-c
DEFAULT_FAMILIES = tuple(fam for fam in bnd.FAMILIES if fam != "fsobolev")
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
    if not math.isfinite(hi - lo):  # also refuses a span that overflows
        raise ValidationError(f"grid endpoints and their span must be finite, got {spec!r}")
    try:
        return np.linspace(lo, hi, n)
    except (ValueError, MemoryError) as exc:  # a size numpy refuses or cannot hold
        raise ValidationError(f"grid of {n} points is too large: {exc}") from exc


def _parse_t_list(spec: str) -> list[float]:
    try:
        values = [float(s) for s in spec.split(",") if s.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad time list {spec!r}") from exc
    if not values:
        raise ValidationError("time list is empty")
    return values


def _csv_text(no_timestamp, header, rows) -> str:
    """A whole CSV: the timestamp comment unless ``no_timestamp``, the column
    ``header``, then one line per row, with floats to 17 significant digits,
    ``None`` as an empty cell and anything else by ``str``."""

    def cell(c):
        if c is None:
            return ""
        return format(float(c), ".17g") if isinstance(c, (float, np.floating)) else str(c)

    lines = [header] + [",".join(map(cell, row)) for row in rows]
    if not no_timestamp:
        lines.insert(0, "# generated " + datetime.now(timezone.utc).isoformat())
    return "\n".join(lines) + "\n"


def _write_outputs(outputs):
    """Write each ``(path, text)`` of ``outputs`` whole; a path of ``None`` or
    ``-`` is stdout.

    Commands compute every output before calling this, and every file is
    opened for appending, which leaves it as it is, before any is written.  If
    one cannot be opened, the files that this call created are removed and
    the ``OSError`` propagates, so a refused or failed run writes no file.
    Two outputs that resolve to one file would leave only the last text, so
    they are refused before anything is opened."""
    files = [os.path.realpath(path) for path, _ in outputs if path not in (None, "-")]
    if len(set(files)) < len(files):
        same = max(files, key=files.count)
        raise ValidationError(f"two outputs name the same file: {same}")
    made = []
    try:
        for path, _ in outputs:
            if path not in (None, "-"):
                new = not os.path.lexists(path)
                open(path, "a").close()
                if new:
                    made.append(path)
    except OSError:
        for path in made:
            os.remove(path)
        raise
    for path, text in outputs:
        if path in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)


def _write_csv(path, no_timestamp, header, rows):
    """Write a whole CSV to ``path`` (``None`` or ``-`` is stdout)."""
    _write_outputs([(path, _csv_text(no_timestamp, header, rows))])


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
    averages = time_averages(mf.model, args.t, args.samples, seed)
    est = tail_estimate(averages, args.u, args.t)
    row = (est.u, est.t, est.n_samples, est.hits, est.p_hat, est.ci_lo, est.ci_hi)
    _write_csv(args.out, args.no_timestamp, "u,t,n,hits,p_hat,ci_lo,ci_hi", [row])
    return 0


def cmd_rate(args) -> int:
    mf, _ = _load(args)
    model = mf.model
    a = bnd.analyze(model)
    grid = _parse_grid(args.u_grid)
    rows = [
        (u, res.value, res.argmax_r, int(res.finite))
        for u, res in zip(grid, lambda0_star(a.sd, model.f, grid))
    ]
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
    return [s.strip() for s in spec.split(",") if s.strip()]


def _check_families(fams, fsobolev_c: float | None):
    """Refuse no family, an unknown or repeated one, and fsobolev without its constant."""
    if not fams:
        raise ValidationError("family list is empty")
    for fam in fams:
        if fam not in bnd.FAMILIES:
            raise ValidationError(f"unknown family {fam!r}")
    if len(set(fams)) < len(fams):  # its columns or rows would be written twice
        raise ValidationError(f"family list repeats a family: {fams}")
    if "fsobolev" in fams and fsobolev_c is None:
        raise ValidationError("family 'fsobolev' needs --fsobolev-c")


def _bound_table(model, families, u_grid, t, fsobolev_c):
    """The checked verdict of ``fsobolev_c * log`` (``None`` unless
    ``fsobolev`` is among ``families``) and the bound of every family at
    every threshold of ``u_grid`` at horizon ``t``, as
    ``{u: {family: BoundPoint}}``.  Each family is evaluated once, on the
    whole grid."""
    analysis, verdict = bnd.analyze(model), None
    if "fsobolev" in families:
        verdict = bnd.check_f_sobolev(model, fsobolev_c, analysis=analysis)
    us = [float(u) for u in u_grid]
    columns = [
        bnd.evaluate_family(model, t, us, fam, analysis=analysis, fsobolev=verdict)
        for fam in families
    ]
    table = {u: {p.family: p for p in row} for u, row in zip(us, zip(*columns))}
    return verdict, table


def cmd_bounds(args) -> int:
    mf, _ = _load(args)
    families = _resolve_families(args.families, args.fsobolev_c)
    _check_families(families, args.fsobolev_c)
    u_grid = _parse_grid(args.u_grid)
    _, table = _bound_table(mf.model, families, u_grid, args.t, args.fsobolev_c)
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
    of it happens before the outputs open, and the CSV and the summary are
    written both or neither, so a refused or failed run writes no file.  The
    CSV holds one row per (u, t) cell, in the order of ``t_values``, and the
    summary's ``domination_failures`` cover every row.
    Returns the JSON-ready summary.
    """
    config.validate()
    mf, seed = _load(config)
    model = mf.model
    families = config.families
    sharpness_on = model.reversible
    # the sharpness column subtracts the general rate, solved with the others
    solved = families
    if sharpness_on and "general" not in families:
        solved = [*families, "general"]
    # any horizon: ``BoundPoint.at`` moves a bound to another
    verdict, points = _bound_table(
        model, solved, config.u_grid, config.t_values[0], config.fsobolev_c
    )
    header = _compare_header(families)
    horizons = sorted(config.t_values)
    sims = time_averages(model, horizons, config.samples, seed)
    averages = dict(zip(horizons, sims))

    rows, failures = [], []
    for t, u in itertools.product(config.t_values, config.u_grid):
        est = tail_estimate(averages[t], u, t)
        row = [u, t, est.n_samples, est.hits, est.p_hat, est.ci_lo, est.ci_hi]
        for p in (points[u][fam] for fam in families):
            bound = p.at(t).bound
            ok = est.p_hat <= bound + DOMINATION_SIGMA * est.ci_half_width
            if not ok:
                failures.append(
                    {"family": p.family, "u": u, "t": t, "p_hat": est.p_hat,
                     "bound": bound}
                )
            row += [p.rate, bound, int(ok)]
        # empirical decay rate exceeds the bound's rate; the excess shrinks
        # to 0 as t grows on reversible chains.  + 0.0 writes 0, not -0, when
        # every path hits (-log 1 is -0.0) and the rate is 0
        sharp = sharpness_on and est.p_hat > 0.0
        row.append(
            -math.log(est.p_hat) / t - points[u]["general"].rate + 0.0 if sharp else None
        )
        rows.append(row)

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
    outputs = [(config.out, _csv_text(config.no_timestamp, header, rows))]
    if config.summary_out:
        outputs.append((config.summary_out, json.dumps(summary, indent=2) + "\n"))
    _write_outputs(outputs)
    return summary


def cmd_compare(args) -> int:
    config = RunConfig(
        model=args.model,
        t_values=_parse_t_list(args.t),
        u_grid=sorted(float(u) for u in _parse_grid(args.u_grid)),
        families=_resolve_families(args.families, args.fsobolev_c),
        samples=args.samples,
        seed=args.seed,
        out=args.out,
        strict=args.strict,
        no_timestamp=args.no_timestamp,
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
        sp.add_argument(
            "--threads", type=int, default=1,
            help="at least 1; changes neither the work nor the result (the "
            "simulator runs its blocks in one loop)",
        )
    if csv:
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--no-timestamp", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mjpbounds",
        description="Concentration bounds for Markov jump process time averages",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, **common):
        # no abbreviations: a misspelt flag such as --sample is refused, not
        # taken for --samples
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(fn=fn)
        _add_common(sp, **common)
        return sp

    command("validate", cmd_validate, "parse and validate a model file", csv=False)
    command("spectrum", cmd_spectrum, "eigenvalues, gap, variances as JSON", csv=False)

    sp = command("simulate", cmd_simulate, "empirical tail estimate", threads=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--samples", type=int, required=True)

    sp = command("rate", cmd_rate, "conjugate rate function on a u grid")
    sp.add_argument("--u-grid", required=True, help="lo:hi:n")

    sp = command("series", cmd_series, "perturbation-series coefficients")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--r-grid", default=None, help="lo:hi:n")

    sp = command("bounds", cmd_bounds, "bound curves on a u grid")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--u-grid", required=True, help="lo:hi:n")
    sp.add_argument("--families", default=None, help="all or comma list")
    sp.add_argument("--fsobolev-c", type=float, default=None)

    sp = command("compare", cmd_compare, "bounds vs Monte Carlo, one CSV", threads=True)
    sp.add_argument("--t", required=True, help="comma list of horizons")
    sp.add_argument("--u-grid", required=True, help="lo:hi:n")
    sp.add_argument("--families", default=None)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--fsobolev-c", type=float, default=None)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--summary-out", default=None, help="JSON summary path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args makes a fresh namespace every call
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # the one check of --threads, which has no other effect
        if getattr(args, "threads", 1) < 1:
            raise ValidationError(f"need at least one thread, got {args.threads}")
        return args.fn(args)
    except UnicodeDecodeError as exc:  # an @file that is not UTF-8, before Python 3.12
        print(f"validation failure: argument file is not UTF-8: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output that cannot be opened
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
