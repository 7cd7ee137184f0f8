"""Benchmark-owned inputs: the random mpQP recipe, the polyhedral error set,
and seeded relabelings.

Everything here works on plain problem documents (the layout of
``MpQP.to_document``) so that the program under test receives only the
finished ``MpQP`` and ``ErrorModel``.

A run's ``--seed`` picks a relabeling of a fixed base instance: a signed
permutation of the parameter coordinates. A relabeled problem is the same
problem written in other coordinates, and it is exact in floating point (it
only reorders entries and flips signs). The bytes the program reads and
writes change with the seed; the work it does does not: for every signed
permutation of each base instance here, the region, node and LP counts were
found equal, and so were the pivot counts for seeds 1 to 8. Two other
choices change the work from seed to seed, which would make the timings of
two seeds incomparable:

- seeding the random generator itself: the instance, and its work, change;
- also permuting constraint rows: pivots vary by up to 20% on
  certify-polyhedral-di, where the row order is the order in which
  Fourier-Motzkin eliminates the error coordinates, and on the double
  integrator one sweep cell (eps_primal = eps_bar = 1e-4) gains or loses
  zero-width leaves.
"""

from __future__ import annotations

import numpy as np

# The base random instance: tests/test_mpqp.random_problem with these sizes.
RANDOM_INSTANCE_SEED = 7
RANDOM_SIZES = (5, 9, 3)  # n_x, m, n_theta


def random_problem_document(seed: int, n_x: int, m: int, n_theta: int) -> dict:
    """Seeded random mpQP, drawn in the order tests/test_mpqp.random_problem uses."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n_x, n_x))
    H = G @ G.T + n_x * np.eye(n_x)
    C = rng.standard_normal((m, n_x))
    f_lin = rng.standard_normal((n_x, n_theta))
    f_const = rng.standard_normal(n_x)
    d_lin = rng.standard_normal((m, n_theta))
    d_const = rng.uniform(0.5, 2.0, size=m)
    eye = np.eye(n_theta)
    return {
        "H": H, "C": C, "f_lin": f_lin, "f_const": f_const,
        "d_lin": d_lin, "d_const": d_const,
        "theta_set": {"A": np.vstack([eye, -eye]), "b": np.ones(2 * n_theta)},
    }


def polyhedral_error_set(m: int, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows (A, b) of {eps in R^m : |eps|_inf <= bound, |sum eps| <= bound}."""
    eye = np.eye(m)
    ones = np.ones((1, m))
    A = np.vstack([eye, -eye, ones, -ones])
    return A, np.full(A.shape[0], bound)


def relabel(doc: dict, seed: int) -> dict:
    """The problem `doc` with its parameter in seeded coordinates.

    With theta = S t for a signed permutation S, the relabeled data are
    f_lin' = f_lin S, d_lin' = d_lin S and Theta' = {t : A S t <= b}.
    """
    rng = np.random.default_rng(seed)
    f_lin = np.asarray(doc["f_lin"], dtype=float)
    n_t = f_lin.shape[1]
    perm, sign = rng.permutation(n_t), rng.choice([-1.0, 1.0], size=n_t)

    def cols(M):
        return np.asarray(M, dtype=float)[:, perm] * sign[None, :]

    return {**doc, "f_lin": cols(f_lin), "d_lin": cols(doc["d_lin"]),
            "theta_set": {"A": cols(doc["theta_set"]["A"]), "b": doc["theta_set"]["b"]}}


def to_plain(doc: dict) -> dict:
    """The document with arrays turned into nested lists, ready for JSON."""
    return {k: (to_plain(v) if isinstance(v, dict) else np.asarray(v).tolist())
            for k, v in doc.items()}
