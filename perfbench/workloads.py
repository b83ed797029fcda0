"""Benchmark workloads: generated model files and the CLI commands run on them.

Every input is built from the benchmark seed alone, so one seed always gives
the same model files and the same command lines.  The program under test
receives only those files and flags.  README.md in this directory says why
each workload exists and which layer it stresses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 100


def random_irreducible_rates(rng, n):
    """Random irreducible generator and observable: a directed ring plus extra edges.

    The same construction, draw for draw, as the random models of the test
    suite.  It is copied here so that a change to the tests cannot change the
    benchmark's inputs.
    """
    rates = np.zeros((n, n))
    for x in range(n):
        rates[x, (x + 1) % n] = 0.5 + rng.uniform()
    extra = rng.uniform(size=(n, n)) < 0.5
    np.fill_diagonal(extra, False)
    rates[extra] += rng.uniform(0.0, 2.0, size=(n, n))[extra]
    np.fill_diagonal(rates, -rates.sum(axis=1))
    while True:
        f = rng.uniform(-1.0, 1.0, size=n)
        if np.max(f) - np.min(f) > 0.2:
            break
    return rates, f


def _stationary(rates):
    n = rates.shape[0]
    a = rates.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    return pi / pi.sum()


def normalized_random_model(seed, n):
    """``rand{n}``: the random model drawn from ``default_rng(seed + n)``, rescaled.

    Two scales of a random model set how much work the program does on it,
    and both vary widely from seed to seed:

    - the stationary jump rate ``sum_x pi_x q_x`` fixes the number of jumps
      the simulator makes per unit of time;
    - the largest centered value ``max(f - pi f)`` fixes where the conjugate
      rate turns infinite, and so how many points of a fixed u grid need a
      full conjugate solve.

    Time is rescaled so that the jump rate equals the generator's expected
    exit rate ``1 + (n - 1) / 2``, and f so that its largest centered value
    is 1.  The shape of the chain (its edges, the ratios of its rates and of
    the values of f) still comes from the seed.
    """
    rates, f = random_irreducible_rates(np.random.default_rng(seed + n), n)
    pi = _stationary(rates)
    rates = rates * ((1.0 + (n - 1) / 2.0) / float(pi @ -np.diag(rates)))
    f = f / float(np.max(f - pi @ f))
    return rates, f


def birth_death_model(n, up=1.0, down=1.5):
    """``bd{n}``: reversible birth-death chain, ``f = linspace(-1, 1, n)``."""
    rates = np.zeros((n, n))
    for x in range(n - 1):
        rates[x, x + 1] = up
        rates[x + 1, x] = down
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return rates, np.linspace(-1.0, 1.0, n)


def write_model(path, rates, f):
    """Model file as the CLI reads it; ``repr`` keeps every double exact."""
    n = len(f)
    doc = {
        "states": [f"s{i}" for i in range(n)],
        "q": [[float(v) for v in row] for row in rates],
        "f": [float(v) for v in f],
    }
    Path(path).write_text(json.dumps(doc))


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``--model``, ``--seed``, ``--out`` are added per run."""

    label: str
    argv: tuple
    expected_rows: int


def _grid_points(spec):
    return int(spec.split(":")[2])


def compare(t_list, u_grid, samples, families=None, threads=None):
    argv = ["compare", "--t", t_list, "--u-grid", u_grid, "--samples", str(samples)]
    if families is not None:
        argv += ["--families", families]
    if threads is not None:
        argv += ["--threads", str(threads)]
    rows = len(t_list.split(",")) * _grid_points(u_grid)
    return Command("compare", tuple(argv), rows)


def bounds(t, u_grid, n_families=4):
    argv = ["bounds", "--t", str(t), "--u-grid", u_grid]
    return Command("bounds", tuple(argv), _grid_points(u_grid) * n_families)


def series(order, r_grid):
    argv = ["series", "--order", str(order), "--r-grid", r_grid]
    return Command("series", tuple(argv), order + _grid_points(r_grid))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "rand" or "bd"
    n: int
    commands: tuple

    @property
    def model(self):
        return f"{self.kind}{self.n}"

    @property
    def threads(self):
        """Most simulator threads any command asks for (the CLI's default is 1)."""
        return max(
            int(c.argv[c.argv.index("--threads") + 1]) if "--threads" in c.argv else 1
            for c in self.commands
        )

    def model_arrays(self, seed):
        if self.kind == "rand":
            return normalized_random_model(seed, self.n)
        return birth_death_model(self.n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_small",
            "rand",
            4,
            (compare("5,20,50", "0.05:0.3:5", 200_000, threads=1),),
        ),
        Workload(
            "mc_wide",
            "rand",
            64,
            (
                compare(
                    "1,5,20",
                    "0.05:0.3:5",
                    20_000,
                    families="perturbation,poincare,bernstein_general",
                    threads=2,
                ),
            ),
        ),
        Workload("rates_rev", "bd", 8, (compare("1,5,20", "0.05:0.3:3", 5_000),)),
        Workload(
            "curves",
            "rand",
            8,
            (bounds(5, "0.05:0.5:10"), series(10, "0:0.2:5")),
        ),
    )
}
