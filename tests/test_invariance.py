"""Invariances of the analysis and the bound families, with no reference solution.

In exact arithmetic every number that ``analyze`` and the closed-form and
general families report is unchanged by relabelling the states, scales with
``c`` when ``Q`` does, follows an affine change of ``f``, and does not see
the start ``nu`` except through the prefactor.  Each property is checked on
random irreducible chains of 2 to 16 states at 1e-10 relative.
"""

import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mjpbounds import analyze, check_f_sobolev, chi2_prefactor, evaluate_family, make_model
from mjpbounds.cli import main

from conftest import random_irreducible_model

FAMILIES = ("general", "perturbation", "poincare", "bernstein_general")
FRACTIONS = (0.1, 0.3)  # of max f
REL = 1e-10

chains = st.tuples(st.integers(2, 16), st.integers(0, 2**32 - 1))


def _chain(n, seed):
    """A random irreducible chain on ``n`` states, started from a random ``nu``."""
    rng = np.random.default_rng(seed)
    m = random_irreducible_model(rng, n)
    return make_model(m.q, m.f, rng.dirichlet(np.ones(n)))


def _numbers(model, us):
    """Gap, sigma_hat^2, prefactor and the rate of every family at each ``u``."""
    a = analyze(model)
    rates = {fam: [p.rate for p in evaluate_family(a, 1.0, us, fam)] for fam in FAMILIES}
    return a.gap, a.sigma_hat2, a.prefactor, rates


def _close(x, y):
    return abs(x - y) <= REL * max(abs(x), abs(y))


def _assert_close(mine, theirs, what):
    assert _close(mine, theirs), (what, mine, theirs)


def _thresholds(model, scale=1.0):
    fmax = float(np.max(model.f))
    return [scale * k * fmax for k in FRACTIONS]


@settings(max_examples=60, deadline=None)
@given(chains, st.integers(0, 2**32 - 1))
def test_relabelling_the_states_changes_nothing(chain, seed):
    m = _chain(*chain)
    perm = np.random.default_rng(seed).permutation(m.n)
    moved = make_model(m.q[np.ix_(perm, perm)], m.f[perm], m.nu[perm])
    gap, s2, pref, rates = _numbers(m, _thresholds(m))
    gap_p, s2_p, pref_p, rates_p = _numbers(moved, _thresholds(m))
    _assert_close(gap_p, gap, "gap")
    _assert_close(s2_p, s2, "sigma_hat2")
    _assert_close(pref_p, pref, "prefactor")
    for fam in FAMILIES:
        for r_p, r in zip(rates_p[fam], rates[fam]):
            _assert_close(r_p, r, fam)


@settings(max_examples=60, deadline=None)
@given(chains)
def test_rescaling_time_scales_every_rate(chain):
    # (c Q, t / c) gives the same bound: the gap and every rate scale by c,
    # sigma_hat^2 by 1/c, and the prefactor stays
    c = 1e3
    m = _chain(*chain)
    fast = make_model(c * m.q, m.f, m.nu)
    gap, s2, pref, rates = _numbers(m, _thresholds(m))
    gap_c, s2_c, pref_c, rates_c = _numbers(fast, _thresholds(m))
    _assert_close(gap_c, c * gap, "gap")
    _assert_close(s2_c, s2 / c, "sigma_hat2")
    _assert_close(pref_c, pref, "prefactor")
    for fam in FAMILIES:
        for r_c, r in zip(rates_c[fam], rates[fam]):
            _assert_close(r_c, c * r, fam)


@settings(max_examples=60, deadline=None)
@given(chains)
def test_affine_change_of_f_keeps_every_rate(chain):
    # centering removes the 7; the rate of 2.5 f at 2.5 u is the rate of f at u
    m = _chain(*chain)
    moved = make_model(m.q, 2.5 * m.f + 7.0, m.nu)
    gap, s2, pref, rates = _numbers(m, _thresholds(m))
    gap_a, s2_a, pref_a, rates_a = _numbers(moved, _thresholds(m, scale=2.5))
    _assert_close(gap_a, gap, "gap")
    _assert_close(s2_a, 2.5**2 * s2, "sigma_hat2")
    _assert_close(pref_a, pref, "prefactor")
    for fam in FAMILIES:
        for r_a, r in zip(rates_a[fam], rates[fam]):
            _assert_close(r_a, r, fam)


@settings(max_examples=60, deadline=None)
@given(chains, st.integers(0, 2**32 - 1))
def test_the_start_moves_only_the_prefactor(chain, seed):
    m = _chain(*chain)
    nu = np.random.default_rng(seed).dirichlet(np.ones(m.n))
    moved = make_model(m.q, m.f, nu)
    gap, s2, _, rates = _numbers(m, _thresholds(m))
    gap_n, s2_n, pref_n, rates_n = _numbers(moved, _thresholds(m))
    # nu enters no number but the prefactor, so the others keep their bits
    assert (gap_n, s2_n, rates_n) == (gap, s2, rates)
    assert pref_n == chi2_prefactor(moved.nu, moved.pi)


def test_the_start_does_not_move_the_log_sobolev_verdict(three_cycle):
    # 0.74 lies between the closed-form lower bound and gap/2: the search runs
    moved = make_model(three_cycle.q, three_cycle.f, [0.2, 0.3, 0.5])
    plain, moved = (check_f_sobolev(analyze(m), 0.74) for m in (three_cycle, moved))
    assert (moved.status, moved.max_violation) == (plain.status, plain.max_violation)
    assert moved.witness.tobytes() == plain.witness.tobytes()


def _bounds_rows(path, grid, tmp_path, name):
    out = tmp_path / name
    assert main(
        ["bounds", "--model", path, "--t", "5", "--u-grid", grid, "--no-timestamp",
         "--out", str(out)]
    ) == 0
    return list(csv.DictReader(io.StringIO(out.read_text())))


def test_bounds_body_of_a_relabelled_model_file(model_file, tmp_path):
    m = _chain(8, 17)
    perm = np.random.default_rng(18).permutation(m.n)
    labels = [f"s{i}" for i in range(m.n)]
    plain = model_file("plain.json", q=m.q.tolist(), f=m.f.tolist(), nu=m.nu.tolist(),
                       labels=labels)
    moved = model_file("moved.json", q=m.q[np.ix_(perm, perm)].tolist(),
                       f=m.f[perm].tolist(), nu=m.nu[perm].tolist(),
                       labels=[labels[i] for i in perm])
    fmax = float(np.max(m.f))
    grid = f"{0.05 * fmax!r}:{0.4 * fmax!r}:4"
    rows = _bounds_rows(plain, grid, tmp_path, "plain.csv")
    rows_moved = _bounds_rows(moved, grid, tmp_path, "moved.csv")
    assert len(rows) == len(rows_moved) == 4 * len(FAMILIES)
    for row, row_moved in zip(rows, rows_moved):
        for key in ("u", "family", "branch", "notes"):
            assert row_moved[key] == row[key]
        for key in ("rate", "prefactor", "bound"):
            assert _close(float(row_moved[key]), float(row[key])), (row, row_moved)
