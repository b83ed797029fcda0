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
from datetime import datetime, timezone

import numpy as np

from . import bounds as bnd
from . import combinatorics as comb
from . import simulate
from .errors import NumericalError, ValidationError
from .markov import check_horizon
from .modelio import read_model_file
from .simulate import TailEstimate, check_samples, time_averages
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
    for t in values:
        check_horizon(t)
    if len(set(values)) < len(values):  # its cells would be written twice
        raise ValidationError(f"time list repeats a horizon: {values}")
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
    opened before any is written.  A new file is created by ``open(path,
    "x")`` and written through that one handle.  A path that exists (a file,
    a symlink, ``/dev/stdout`` or a directory) is opened for appending, which
    leaves it as it is, and reopened with ``"w"`` once every output is open.
    A symlink to no file is not opened for appending: its target is
    created by ``"x"`` like a new file.  If one cannot be opened, the files
    that this call created are removed (a link's target, not the link) and
    the ``OSError`` propagates, so a refused or failed run writes no file.
    Two outputs that resolve to one file would leave only the last text, so
    they are refused before anything is opened."""
    files = [path for path, _ in outputs if path not in (None, "-")]
    if len(files) > 1:
        real = [os.path.realpath(path) for path in files]
        if len(set(real)) < len(real):
            same = max(real, key=real.count)
            raise ValidationError(f"two outputs name the same file: {same}")
    made = {}
    try:
        for path in files:
            try:
                made[path] = open(path, "x")
            except FileExistsError:
                if os.path.exists(path):
                    open(path, "a").close()
                else:  # a dangling symlink
                    made[path] = open(os.path.realpath(path), "x")
    except OSError:
        for fh in made.values():
            fh.close()
            os.remove(fh.name)
        raise
    try:
        for path, text in outputs:
            if path in (None, "-"):
                sys.stdout.write(text)
            else:
                with made.get(path) or open(path, "w") as fh:
                    fh.write(text)
    finally:  # a failed write leaves no later handle open
        for fh in made.values():
            fh.close()


def _write_csv(path, no_timestamp, header, rows):
    """Write a whole CSV to ``path`` (``None`` or ``-`` is stdout)."""
    _write_outputs([(path, _csv_text(no_timestamp, header, rows))])


def _load(args):
    """Model file and seed (``args.seed``, else the file's, else 0) of parsed
    flags."""
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
        "pi": [float(x) for x in model.pi],
        "f_centered": [float(x) for x in model.f],
        "nu": [float(x) for x in model.nu],
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


def _tail_hits(model, horizons, u_grid, n_samples, seed) -> np.ndarray:
    """Hits of each (horizon, threshold) cell: ``out[i, j]`` counts the
    samples whose time average at ``horizons[i]`` is at least ``u_grid[j]``.

    ``time_averages`` runs once per ``simulate._BLOCK`` samples, so the
    calls make exactly its own blocks, and only one block of averages is
    held at a time.  The caller checks ``n_samples`` first."""
    hits = np.zeros((len(horizons), len(u_grid)), dtype=np.int64)
    block = simulate._BLOCK
    for start in range(0, n_samples, block):
        rows = time_averages(model, horizons, min(block, n_samples - start), seed, start=start)
        for counts, row in zip(hits, rows):
            for j, u in enumerate(u_grid):
                counts[j] += np.count_nonzero(row >= u)
    return hits


def cmd_simulate(args) -> int:
    if math.isnan(args.u):
        raise ValidationError("threshold u must not be NaN")
    check_horizon(args.t)
    check_samples(args.samples)
    mf, seed = _load(args)
    hits = _tail_hits(mf.model, [args.t], [args.u], args.samples, seed)
    est = TailEstimate.of(args.u, args.t, args.samples, int(hits[0, 0]))
    row = (est.u, est.t, est.n_samples, est.hits, est.p_hat, est.ci_lo, est.ci_hi)
    _write_csv(args.out, args.no_timestamp, "u,t,n,hits,p_hat,ci_lo,ci_hi", [row])
    return 0


def cmd_rate(args) -> int:
    grid = _parse_grid(args.u_grid)
    mf, _ = _load(args)
    model = mf.model
    a = bnd.analyze(model)
    rows = [
        (u, res.value, res.argmax_r, int(res.finite))
        for u, res in zip(grid, lambda0_star(a.sd, model.f, grid))
    ]
    _write_csv(args.out, args.no_timestamp, "u,lambda0_star,argmax_r,finite", rows)
    return 0


def cmd_series(args) -> int:
    comb.check_order(args.order)
    r_grid = _parse_grid(args.r_grid) if args.r_grid else ()
    mf, _ = _load(args)
    model = mf.model
    a = bnd.analyze(model)
    coeffs = comb.lambda0_coefficients(a.sd, model.f, args.order)
    rows = list(enumerate(coeffs.coeffs, start=1))
    if args.r_grid:  # a second table, under its own header row
        rows.append(("r", "lambda0", "partial_sum", "abs_error"))
        for r in r_grid:
            lam = lambda0(a.sd, model.f, float(r))
            ps = coeffs.partial_sum(float(r))
            rows.append((r, lam, ps, abs(lam - ps)))
    _write_csv(args.out, args.no_timestamp, "order,coefficient", rows)
    return 0


def _families(args) -> list[str]:
    """The families of ``--families``: by default every family but fsobolev,
    which joins when ``--fsobolev-c`` is given.  Refuses no family, an
    unknown or repeated one, fsobolev without its constant, and a constant
    that no verdict takes, whatever the families."""
    if args.fsobolev_c is not None:
        bnd.check_fsobolev_constant(args.fsobolev_c)
    if args.families in (None, "all"):
        fams = list(DEFAULT_FAMILIES)
        if args.fsobolev_c is not None:
            fams.append("fsobolev")
        return fams
    fams = [s.strip() for s in args.families.split(",") if s.strip()]
    if not fams:
        raise ValidationError("family list is empty")
    for fam in fams:
        if fam not in bnd.FAMILIES:
            raise ValidationError(f"unknown family {fam!r}")
    if len(set(fams)) < len(fams):  # its columns or rows would be written twice
        raise ValidationError(f"family list repeats a family: {fams}")
    if "fsobolev" in fams and args.fsobolev_c is None:
        raise ValidationError("family 'fsobolev' needs --fsobolev-c")
    return fams


def cmd_bounds(args) -> int:
    families, u_grid = _families(args), _parse_grid(args.u_grid)
    check_horizon(args.t)
    mf, _ = _load(args)
    a = bnd.analyze(mf.model)
    verdict = bnd.check_f_sobolev(a, args.fsobolev_c) if "fsobolev" in families else None
    table = bnd.bound_table(a, families, u_grid, args.t, fsobolev=verdict)
    rows = [
        (p.u, p.family, p.rate, p.prefactor, p.bound, p.branch,
         ";".join(k for k in ("boundary", "unverified") if p.diagnostics.get(k)))
        # a grid with lo == hi repeats its threshold
        for p in (table[fam, "upper", u, args.t] for u in u_grid for fam in families)
    ]
    _write_csv(args.out, args.no_timestamp, "u,family,rate,prefactor,bound,branch,notes", rows)
    return 0


def _compare_header(families):
    cols = ["u", "t", "n", "hits", "p_hat", "ci_lo", "ci_hi"]
    for fam in families:
        cols += [f"{fam}_rate", f"{fam}_bound", f"{fam}_ok"]
    cols.append("sharpness_gap")
    return ",".join(cols)


def cmd_compare(args) -> int:
    """End-to-end comparison: empirical tails against every requested bound.

    Every path is simulated once, to the largest horizon, and only each
    (u, t) cell's hit count is kept (``_tail_hits``); one ``bound_table``
    holds every family's bound at every cell.  All of it happens before the
    outputs open, and the CSV and the summary are written both or neither,
    so a refused or failed run writes no file.  The CSV holds one row per
    (u, t) cell, in the order of ``--t``, and the summary's
    ``domination_failures`` cover every row; under ``--strict`` a failure
    exits 4.
    """
    t_values = _parse_t_list(args.t)
    u_grid = sorted(float(u) for u in _parse_grid(args.u_grid))
    if any(a == b for a, b in zip(u_grid, u_grid[1:])):  # its cells would be written twice
        raise ValidationError(f"u grid repeats a threshold: {u_grid}")
    families = _families(args)
    check_samples(args.samples)
    mf, seed = _load(args)
    model = mf.model
    sharpness_on = model.reversible
    # the sharpness column subtracts the general rate, solved with the others
    solved = [*families, "general"] if sharpness_on and "general" not in families else families
    a = bnd.analyze(model)
    verdict = bnd.check_f_sobolev(a, args.fsobolev_c) if "fsobolev" in families else None
    table = bnd.bound_table(a, solved, u_grid, t_values, fsobolev=verdict)
    horizons = sorted(t_values)
    hits = _tail_hits(model, horizons, u_grid, args.samples, seed)
    row_of = {t: i for i, t in enumerate(horizons)}

    rows, failures = [], []
    for t, (j, u) in itertools.product(t_values, enumerate(u_grid)):
        est = TailEstimate.of(u, t, args.samples, int(hits[row_of[t], j]))
        row = [u, t, est.n_samples, est.hits, est.p_hat, est.ci_lo, est.ci_hi]
        for fam in families:
            p = table[fam, "upper", u, t]
            ok = est.p_hat <= p.bound + DOMINATION_SIGMA * est.ci_half_width
            if not ok:
                failures.append(
                    {"family": fam, "u": u, "t": t, "p_hat": est.p_hat, "bound": p.bound}
                )
            row += [p.rate, p.bound, int(ok)]
        # empirical decay rate exceeds the bound's rate; the excess shrinks
        # to 0 as t grows on reversible chains.  + 0.0 writes 0, not -0, when
        # every path hits (-log 1 is -0.0) and the rate is 0
        sharp = sharpness_on and est.p_hat > 0.0
        row.append(
            -math.log(est.p_hat) / t - table["general", "upper", u, t].rate + 0.0
            if sharp else None
        )
        rows.append(row)

    summary = {
        "model": args.model,
        "families": families,
        "t_values": t_values,
        "u_grid": u_grid,
        "samples": args.samples,
        "seed": seed,
        "rows_written": len(rows),
        "domination_failures": failures,
        "all_dominated": not failures,
        "sharpness_diagnostic": sharpness_on,
        "fsobolev_verdict": verdict.status if verdict else None,
    }
    outputs = [(args.out, _csv_text(args.no_timestamp, _compare_header(families), rows))]
    if args.summary_out:
        outputs.append((args.summary_out, json.dumps(summary, indent=2) + "\n"))
    _write_outputs(outputs)
    if args.strict and failures:
        print(f"domination check failed in {len(failures)} cells", file=sys.stderr)
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


def _grid_help(flag: str) -> str:
    # argparse of Python 3.10-3.12 takes a separate value that starts with a
    # minus sign for a flag
    return f"lo:hi:n; join a grid that starts below 0 with =, as in {flag}=-0.2:0.2:3"


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
    sp.add_argument("--u-grid", required=True, help=_grid_help("--u-grid"))

    sp = command("series", cmd_series, "perturbation-series coefficients")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--r-grid", default=None, help=_grid_help("--r-grid"))

    sp = command("bounds", cmd_bounds, "bound curves on a u grid")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--u-grid", required=True, help=_grid_help("--u-grid"))
    sp.add_argument("--families", default=None, help="all or comma list")
    sp.add_argument("--fsobolev-c", type=float, default=None)

    sp = command("compare", cmd_compare, "bounds vs Monte Carlo, one CSV", threads=True)
    sp.add_argument("--t", required=True, help="comma list of horizons")
    sp.add_argument("--u-grid", required=True, help=_grid_help("--u-grid"))
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
