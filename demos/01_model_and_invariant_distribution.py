"""
Rate-matrix models and their invariant distributions
=====================================================

A finite-state jump process is specified by a rate matrix Q: nonnegative
off-diagonal jump rates, rows summing to zero.  This script builds a few
models, computes their invariant distributions, evaluates the transition
function P(t) = exp(tQ), and checks the detailed balance condition.
"""

import numpy as np

from mjpbounds import (
    check_detailed_balance,
    invariant_distribution,
    is_irreducible,
    make_model,
    transition_matrix,
    validate_q_matrix,
)

np.set_printoptions(precision=6, suppress=True)

print("A two-state chain")
print("-" * 50)
q = validate_q_matrix([[-1.0, 1.0], [2.0, -2.0]])
print("rates:\n", q)
print("exit rates q_x:", -np.diag(q))
print("irreducible:", is_irreducible(q))

pi = invariant_distribution(q)
print("invariant distribution:", pi, " (2/3, 1/3 exactly)")
print("residual |pi^T Q|:", np.max(np.abs(pi @ q)))

print("\nTransition function")
print("-" * 50)
for t in (0.0, 0.5, 1.0, 5.0):
    p = transition_matrix(q, t)
    print(f"P({t}):\n{p}")
print("rows of P(t) converge to pi as t grows.")

print("\nDetailed balance")
print("-" * 50)
print("two-state chains are always reversible:", check_detailed_balance(q, pi))

cycle = validate_q_matrix([[-1, 1, 0], [0, -1, 1], [1, 0, -1]])
pi_cycle = invariant_distribution(cycle)
print("3-cycle pi:", pi_cycle)
print(
    "the one-way cycle carries circulating probability flux, so detailed "
    "balance fails:",
    check_detailed_balance(cycle, pi_cycle),
)

print("\nFull model assembly")
print("-" * 50)
model = make_model([[-1, 1], [2, -2]], f_values=[1.0, 0.0])
print("observable centered against pi:", model.f, " (pi(f) = 0)")
print("default initial distribution:", model.nu)
print("reversible:", model.reversible)
