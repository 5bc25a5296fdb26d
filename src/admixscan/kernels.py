"""Hot inner-loop kernels for the ancestry sampler.

One numpy implementation per sweep step.  The emission rows, the
transition kernels and the recombination-count prior all come from
:func:`admixscan.hmm.two_lineages`, the only place a three-state law is
written.

Every sampling kernel takes pre-drawn uniforms instead of a generator, so
its output is a pure function of its inputs.  A categorical draw over
weights (w0, w1, w2) with uniform u picks the first category whose
cumulative normalised weight exceeds u.

Ancestry paths are drawn by forward filtering, backward sampling (Scott
2002, JASA) with states on the leading axis: the forward pass keeps only
the filtered vectors, shape ``(n_loci, 3, n_subjects)``, and the backward
weights of state m at locus j are ``filt[j, m] * T[m, s_{j+1}]`` for the
kernel T of the recombination count on the next interval.  A chromosome
start is an interval with two recombinations, so no kernel special-cases it.
"""
from __future__ import annotations

import numpy as np

from .errors import ForwardUnderflowError
from .hmm import observation_rows, transition_kernels, two_lineages


def active_backend():
    """Name of the kernel implementation, recorded in benchmark runs."""
    return "numpy"


def _draw3(w, u):
    """Categorical draws over the three rows of ``w`` (3, n), one per column."""
    tot = w[0] + w[1] + w[2]
    c0 = w[0] / tot
    c1 = c0 + w[1] / tot
    return (u >= c0).astype(np.int8) + (u >= c1).astype(np.int8)


def _has_no_mass(tot):
    return ~((tot > 0.0) & np.isfinite(tot))


def ffbs_paths(x, r, p_a, p_b, rho, u):
    """Sample one ancestry path per subject from its joint full conditional.

    ``x`` must be fully imputed (no MISSING entries); ``u`` supplies one
    uniform per (subject, locus) for the backward draws.  Raises
    :class:`ForwardUnderflowError` naming the first locus, and the first
    subject there, whose forward mass vanishes.
    """
    x = np.asarray(x)
    r = np.asarray(r)
    n_sub, n_loc = x.shape
    rows = np.arange(n_sub)
    emit = observation_rows(p_a, p_b)
    kern = transition_kernels(rho)   # (recombinations, from, to, subject)

    filt = np.empty((n_loc, 3, n_sub))
    prev = kern[2, 0]   # the Hardy-Weinberg row, which every kernel keeps
    for j in range(n_loc):
        t = kern[r[:, j], :, :, rows]   # (subject, from, to)
        f = np.einsum("mi,imn->ni", prev, t) * emit[:, x[:, j], j]
        tot = f[0] + f[1] + f[2]
        bad = _has_no_mass(tot)
        if bad.any():
            raise ForwardUnderflowError(int(np.flatnonzero(bad)[0]), j)
        prev = np.divide(f, tot, out=filt[j])

    s = np.empty((n_sub, n_loc), dtype=np.int8)
    s[:, -1] = _draw3(filt[-1], u[:, -1])
    for j in range(n_loc - 2, -1, -1):
        w = filt[j] * kern[r[:, j + 1], :, s[:, j + 1], rows].T
        s[:, j] = _draw3(w, u[:, j])
    return s


def recombination_counts(s, gamma, rho, u):
    """Sample per-interval recombination counts given the ancestry path.

    Where ``gamma`` is 1, as at a chromosome start, the count is 2.
    """
    s = np.asarray(s)
    n_sub = s.shape[0]
    kern = transition_kernels(rho)
    col = np.arange(n_sub)[:, None]
    # locus 0 wraps round; it is a start, where gamma is 1 and only w2 counts
    prev = np.roll(s, 1, axis=1)
    prior = two_lineages(gamma, gamma)   # binomial(2, gamma): 0, 1, 2 recombinations
    # in place: at most four subject x locus floats live at once
    w0 = (prev == s) * prior[0]
    w1 = kern[1, prev, s, col]
    w1 *= prior[1]
    w2 = kern[2, 0, s, col]
    w2 *= prior[2]
    tot = w0 + w1
    tot += w2
    del w2
    bad = _has_no_mass(tot)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise RuntimeError(
            f"zero recombination mass at subject {i}, locus {j}; "
            "gamma or rho left the open unit interval"
        )
    w0 /= tot
    w1 /= tot
    w1 += w0
    return (u >= w0).astype(np.int8) + (u >= w1).astype(np.int8)


def impute_genotypes(x, cells, s, p_a, p_b, u):
    """Fill the cells ``(rows, cols)`` from the observation row of the state.

    ``u`` holds one uniform per cell, in the order of ``cells``.
    """
    out = np.array(x, dtype=np.int8)
    ii, jj = cells
    if ii.size:
        emit = observation_rows(p_a, p_b)
        w = emit[np.asarray(s)[ii, jj], :, jj].T
        out[ii, jj] = _draw3(w, np.asarray(u))
    return out


def genotype_state_counts(s, x):
    """Per-locus contingency counts n[j, ancestry, genotype]."""
    s = np.asarray(s)
    n_loc = s.shape[1]
    flat = np.arange(n_loc) * 9 + s.astype(np.int64) * 3 + np.asarray(x)
    return np.bincount(flat.ravel(), minlength=9 * n_loc).reshape(n_loc, 3, 3)


def ancestry_count_stats(s, r):
    """Per-subject success/failure counts for the admixture-proportion update.

    Successes count lineages drawn from the high-risk population: the
    informative single-recombination transitions, and both lineages of
    double-recombination arrivals, chromosome starts among them.
    """
    s = np.asarray(s)
    r = np.asarray(r)
    prev = np.roll(s, 1, axis=1)   # locus 0 is a start, where r is 2
    r1 = r == 1
    succ1 = ((prev == 0) & (s == 1)) | ((prev == 1) & (s == 2)) | ((prev == 2) & (s == 2))
    fail1 = ((prev == 0) & (s == 0)) | ((prev == 1) & (s == 0)) | ((prev == 2) & (s == 1))
    r2 = r == 2
    a = (r1 & succ1).sum(axis=1) + np.where(r2, s, 0).sum(axis=1)
    b = (r1 & fail1).sum(axis=1) + np.where(r2, 2 - s, 0).sum(axis=1)
    return a.astype(np.float64), b.astype(np.float64)
