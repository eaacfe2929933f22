"""Independent routes to quantities the package computes another way.

The GP-UCB agents keep a primal (feature-space) posterior and a running
log-determinant; these are the kernel-space (dual) formulas the tests check
them against, written from the definitions in the module docstrings. The
harness writes its CSV files column by column; ``row_csv`` writes them row by
row, as the harness once did, and the bytes must agree. ``carried_residue``
rounds forced-draw rates one at a time, as ``integerize`` once did.
"""

import math

import numpy as np


def kernel_rows(atlas, kernel, X):
    """The atlas features of the groups of ``kernel``, a tuple J of 1-based
    indices, at the points X, scaled by sqrt(1/|J|), so that the inner
    product of two rows is the averaged kernel k_J of the features module."""
    columns = atlas.concat_many(X)[:, np.asarray(kernel) - 1]
    return columns * math.sqrt(1.0 / len(kernel))


def dual_posterior(Phi, y, phi_query, lam):
    """Kernel-space posterior mean and variance at one query point.

    mean = k(x)^T (K + lam^2 I)^{-1} y
    var  = k(x,x) - k(x)^T (K + lam^2 I)^{-1} k(x)
    with K = Phi Phi^T and k(x) = Phi phi_query.
    """
    kx = Phi @ phi_query
    M = Phi @ Phi.T + lam * lam * np.eye(len(y))
    w = np.linalg.solve(M, np.stack([y, kx], axis=1))
    return float(kx @ w[:, 0]), float(phi_query @ phi_query - kx @ w[:, 1])


def realized_info_gain(gram, lam):
    """(1/2) log det(I + lam^-2 K) from the Gram matrix K of the observed
    points, through its eigenvalues."""
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    return 0.5 * float(np.log1p(np.maximum(eigs, 0.0) / (lam * lam)).sum())


def info_gain_cap(d, n, lam):
    """Closed-form cap (1/2) d log(1 + lam^-2 n / d) on the information gain
    of n observations under a d-dimensional kernel with diagonal at most 1."""
    return 0.5 * d * np.log1p(n / (lam * lam * d))


def rkhs_norm_sq(beta, support):
    """Squared norm of f = sum_j beta^(j) phi_j under the averaged kernel over
    ``support``: |J*| times the summed squared coefficients."""
    return len(support) * sum(float(beta[j - 1] * beta[j - 1]) for j in support)


def row_csv(header, rows):
    """CSV text written row by row, each row's cells formatted by ``%s``: the
    header, then one line per row, a tuple of Python scalars."""
    line = ",".join(["%s"] * (header.count(",") + 1))
    return "\n".join([header, *(line % row for row in rows)]) + "\n"


def carried_residue(rates):
    """Each rate rounded down, its fractional residue carried to the next:
    count_s = floor(rate_s) + floor(r + frac(rate_s)), r then reduced to its
    own fractional part."""
    counts, r = [], 0.0
    for rate in rates:
        base = math.floor(rate)
        r += rate - base
        carry = math.floor(r)
        counts.append(base + carry)
        r -= carry
    return counts
