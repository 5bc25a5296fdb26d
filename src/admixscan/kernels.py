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
2002, JASA).  Where every subject has r = 2 both lineages are redrawn from
the Hardy-Weinberg row and the chain forgets its past.  Every chromosome
start is such a column (gamma is 1 there), so the kernel finds the
independent segments from r alone and runs them side by side:

* Segments are ranked longest first.  A lane is one subject of one
  segment, and step k holds the k-th locus of every segment longer than
  k.  The lanes alive at a step are then a prefix of those alive at the
  step before, and the loop takes as many steps as the longest segment
  has loci.
* The filtered vectors are stored packed by step, 24 bytes per
  subject-locus, and nothing else of that size is kept.
* Per chunk of steps, the transition entries and the emissions of the
  observed genotypes are gathered with ``np.take`` from flat tables, one
  indexed by (subject, recombinations) and one by (locus, genotype).
* The backward weights of state m are ``filt[m] * T[m, s_next]`` for the
  kernel T of the next step's recombination count, and ``filt[m]`` alone at
  a segment's last locus.

Each cell's arithmetic is that of a loop over loci:
``(p0 T0n + p1 T1n) + p2 T2n``, times the emission, over ``(f0 + f1) + f2``.
A segment starts from the Hardy-Weinberg row where that loop carried the
previous segment's vector through the restart; the two differ in
rounding only, which moves a draw only if its uniform falls within
rounding of a cumulative weight.

Recombination counts and the admixture-proportion counts gather from flat
tables too: per-subject kernel entries indexed by (from, to), and lineage
counts indexed by (recombinations, from, to).
"""
from __future__ import annotations

import numpy as np

from .errors import ForwardUnderflowError
from .hmm import observation_rows, transition_kernels, two_lineages

# lane cells (one subject of one segment at one step) in a chunk of steps;
# its gathered transition and emission entries take ~0.4 MiB
CHUNK_CELLS = 4096
TINY = np.nextafter(0.0, 1.0)   # the smallest positive float64


def active_backend():
    """Name of the kernel implementation, recorded in benchmark runs."""
    return "numpy"


def _draw3(w, u):
    """Categorical draws over the leading axis of ``w`` (3, ...), one per uniform."""
    tot = w[0] + w[1] + w[2]
    c0 = w[0] / tot
    c1 = c0 + w[1] / tot
    draw = (u >= c0).view(np.int8)
    draw += (u >= c1).view(np.int8)
    return draw


def _previous(s):
    """Each locus's predecessor in ``s`` (subject, locus); locus 0 takes the last."""
    # np.roll does the same with several times the fixed cost
    return np.concatenate((s[:, -1:], s[:, :-1]), axis=1)


def _segments(r):
    """Packed layout of the chain's independent segments.

    A segment starts at locus 0 and at every column where all subjects have
    r = 2.  Segments are ranked longest first, ties in locus order; step k
    holds the k-th locus of every segment longer than k, so the segments
    alive at a step are a prefix of those alive at the step before.  Returns
    the loci in packed order (step-major, rank-minor); the packed row where
    each step starts; and the number of segments alive at each step.  Both
    lists end with one step past the last, which is empty.
    """
    n_loc = r.shape[1]
    head = np.logical_and.reduce(r == 2)   # over subjects
    head[0] = True
    first = head.nonzero()[0]
    if first.size == 1:   # one segment: the usual case on a single chromosome
        return np.arange(n_loc), [*range(n_loc + 1), n_loc], [1] * n_loc + [0]
    length = np.append(first[1:], n_loc) - first
    rank = np.empty_like(first)
    rank[(-length).argsort(kind="stable")] = np.arange(first.size)
    seg = np.repeat(np.arange(first.size), length)
    step = np.arange(n_loc) - first[seg]
    loci = (step * first.size + rank[seg]).argsort()
    count = np.bincount(step).tolist() + [0]
    pos = np.cumsum([0] + count).tolist()
    return loci, pos, count


def _chunks(pos, n_sub):
    """Runs ``[k0, k1)`` of steps of about ``CHUNK_CELLS`` lane cells each."""
    n_steps = len(pos) - 2
    rows = max(1, CHUNK_CELLS // max(n_sub, 1))
    if pos[-1] <= rows:
        return [(0, n_steps)]
    run = [p // rows for p in pos[:n_steps]]
    bounds = [k for k in range(n_steps) if k == 0 or run[k] != run[k - 1]]
    return list(zip(bounds, bounds[1:] + [n_steps]))


def _forward(x, r, fwd, emit, layout):
    """Filtered vectors of every lane, packed; and whether some lane lost its mass."""
    loci, pos, count, chunks, row_start = layout
    n_sub = row_start.size
    filt = np.empty((3, 1, pos[-1], n_sub))   # (state, -, packed row, subject)
    prev = fwd[0, :, None, None, 2::3]   # the Hardy-Weinberg row, which every kernel keeps
    vanished = False
    for k0, k1 in chunks:
        a = pos[k0]
        rows = loci[a:pos[k1], None]
        flat = rows + row_start
        trans = fwd.take(r.take(flat) + np.arange(0, 3 * n_sub, 3), axis=2)
        obs = emit.take(x.take(flat) + 3 * rows, axis=1)
        for k in range(k0, k1):
            p, g, g_next = pos[k] - a, count[k], count[k + 1]
            if k:
                prev = filt[:, :, pos[k - 1]:pos[k - 1] + g]
            pt = prev * trans[:, :, p:p + g]   # (from, to, lane)
            f = pt[0] + pt[1]
            f += pt[2]
            f *= obs[:, p:p + g]
            tot = f[0] + f[1]
            tot += f[2]
            # a vanished mass divides as 0 / TINY = 0, with no 0 / 0 warning,
            # and stays 0 (NaN stays NaN) to the end of its segment, so the
            # segment's last step shows it (with no subjects there is none)
            if g_next < g:
                vanished |= not tot[g_next:].min(initial=np.inf) > 0.0
            np.maximum(tot, TINY, out=tot)
            np.divide(f, tot, out=filt[:, 0, a + p:a + p + g])
    return filt[:, 0], vanished


def _backward(filt, r, u, bwd, layout, drawn):
    """Packed draws of every lane, each segment from its last step down."""
    loci, pos, count, chunks, row_start = layout
    n_sub = row_start.size
    for k0, k1 in reversed(chunks):
        a = pos[k0]
        flat = loci[a:pos[k1 + 1], None] + row_start   # and the step after the chunk
        succ = r.take(flat) * 3 + np.arange(0, 9 * n_sub, 9)
        draws_u = u.take(flat[:pos[k1] - a])
        for k in range(k1 - 1, k0 - 1, -1):
            p, g, g_next = pos[k] - a, count[k], count[k + 1]
            w = filt[:, a + p:a + p + g]
            if g_next:
                q = pos[k + 1] - a
                col = bwd.take(succ[q:q + g_next] + nxt, axis=1)
                if g_next == g:
                    w = w * col
                else:   # lanes past g_next end their segment here
                    w = w.copy()
                    w[:, :g_next] *= col
            nxt = drawn[a + p:a + p + g] = _draw3(w, draws_u[p:p + g])
    return drawn


def ffbs_paths(x, r, p_a, p_b, rho, u):
    """Sample one ancestry path per subject from its joint full conditional.

    ``x`` must be fully imputed (no MISSING entries); ``u`` supplies one
    uniform per (subject, locus) for the backward draws.  Raises
    :class:`ForwardUnderflowError` naming the first locus, and the first
    subject there, whose forward mass vanishes.
    """
    x = np.ascontiguousarray(x)
    r = np.ascontiguousarray(r)
    u = np.ascontiguousarray(u)
    n_sub, n_loc = x.shape
    loci, pos, count = _segments(r)
    # the flat offset of (subject, locus 0) in x, r and u
    row_start = np.arange(0, n_sub * n_loc, n_loc)
    layout = (loci, pos, count, _chunks(pos, n_sub), row_start)
    # T(m, n) of subject i given c recombinations is fwd[m, n, 3i + c]; the
    # emission of state n, genotype g at locus j is emit[n, 3j + g]
    fwd = transition_kernels(rho).transpose(1, 2, 3, 0).reshape(3, 3, 3 * n_sub)
    emit = observation_rows(p_a, p_b).transpose(0, 2, 1).reshape(3, 3 * n_loc)
    filt, vanished = _forward(x, r, fwd, emit, layout)
    if vanished:
        row, lane = (~(filt[0] + filt[1] + filt[2] > 0.0)).nonzero()
        locus = loci[row]
        first = locus.min()
        raise ForwardUnderflowError(lane[locus == first].min(), first)
    # T(m, n) of subject i given c recombinations is bwd[m, 9i + 3c + n]
    bwd = fwd.reshape(3, 3, n_sub, 3).transpose(0, 2, 3, 1).reshape(3, 9 * n_sub)
    if pos[1] == 1:   # one segment: the packed rows are the loci in order
        s = np.empty((n_sub, n_loc), dtype=np.int8)
        _backward(filt, r, u, bwd, layout, s.T)
        return s
    drawn = _backward(filt, r, u, bwd, layout, np.empty((n_loc, n_sub), dtype=np.int8))
    del filt
    s = np.empty((n_sub, n_loc), dtype=np.int8)
    s[:, loci] = drawn.T
    return s


def recombination_counts(s, gamma, rho, u):
    """Sample per-interval recombination counts given the ancestry path.

    Where ``gamma`` is 1, as at a chromosome start, the count is 2.
    """
    s = np.asarray(s)
    n_sub = s.shape[0]
    kern = transition_kernels(rho)
    # T(m, n) of subject i given one recombination is one[9i + 3m + n]; its
    # Hardy-Weinberg row, the kernel of two, is hwe[3i + n]
    one = kern[1].transpose(2, 0, 1).ravel()
    hwe = kern[2, 0].T.ravel()
    lane = np.arange(n_sub)[:, None]
    # locus 0 wraps round; it is a start, where gamma is 1 and only w2 counts
    prev = _previous(s)
    prior = two_lineages(gamma, gamma)   # binomial(2, gamma): 0, 1, 2 recombinations
    # in place: at most four subject x locus floats and indices live at once
    cell = s + 3 * lane
    w2 = hwe.take(cell)
    w2 *= prior[2]
    cell += 6 * lane
    cell += 3 * prev
    w1 = one.take(cell)
    w1 *= prior[1]
    del cell
    w0 = (prev == s) * prior[0]
    tot = w0 + w1
    tot += w2
    del w2
    if not (tot.min() > 0.0 and tot.max() < np.inf):
        i, j = np.argwhere(~((tot > 0.0) & np.isfinite(tot)))[0]
        raise RuntimeError(
            f"zero recombination mass at subject {i}, locus {j}; "
            "gamma or rho left the open unit interval"
        )
    w0 /= tot
    w1 /= tot
    w1 += w0
    draw = (u >= w0).view(np.int8)
    draw += (u >= w1).view(np.int8)
    return draw


def impute_genotypes(x, cells, s, p_a, p_b, u):
    """Fill the cells ``(rows, cols)`` from the observation row of the state.

    ``u`` holds one uniform per cell, in the order of ``cells``.
    """
    out = np.array(x, dtype=np.int8)
    ii, jj = cells
    w = observation_rows(p_a, p_b)[np.asarray(s)[ii, jj], :, jj].T
    out[ii, jj] = _draw3(w, np.asarray(u))
    return out


def genotype_state_counts(s, x):
    """Per-locus contingency counts n[j, ancestry, genotype]."""
    s = np.asarray(s)
    n_loc = s.shape[1]
    flat = np.arange(n_loc) * 9 + s.astype(np.int64) * 3 + np.asarray(x)
    return np.bincount(flat.ravel(), minlength=9 * n_loc).reshape(n_loc, 3, 3)


def _lineage_count_table(informative, per_lineage):
    """Lineages counted per (recombinations, from-state, to-state), flat."""
    table = np.zeros((3, 3, 3), dtype=np.int8)
    for m, n in informative:
        table[1, m, n] = 1
    table[2] = per_lineage
    return table.ravel()


# One recombination redraws one lineage; the transition shows whether it came
# from the high-risk population, except 1 -> 1, which either answer explains.
# Two recombinations redraw both lineages: the to-state counts them.
_SUCCESSES = _lineage_count_table(((0, 1), (1, 2), (2, 2)), [0, 1, 2])
_FAILURES = _lineage_count_table(((0, 0), (1, 0), (2, 1)), [2, 1, 0])


def ancestry_count_stats(s, r):
    """Per-subject success/failure counts for the admixture-proportion update.

    Successes count lineages drawn from the high-risk population: the
    informative single-recombination transitions, and both lineages of
    double-recombination arrivals, chromosome starts among them.
    """
    s = np.asarray(s)
    code = _previous(s) * 3   # locus 0 is a start, where r is 2
    code += s
    code += np.asarray(r) * 9
    return (_SUCCESSES.take(code).sum(axis=1, dtype=np.float64),
            _FAILURES.take(code).sum(axis=1, dtype=np.float64))
