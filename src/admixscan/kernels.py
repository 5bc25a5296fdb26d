"""Hot inner-loop kernels for the ancestry sampler.

One numpy implementation per sweep step.  The emission rows, the
transition kernels and the recombination-count prior all come from
:func:`admixscan.hmm.two_lineages`, the only place a three-state law is
written.  The kernels take the first two as tables that each sweep builds
once, and each lays out its own flat copy of the entries it gathers.

Every sampling kernel takes pre-drawn uniforms instead of a generator, so
its output is a pure function of its inputs.  A categorical draw over
weights (w0, w1, w2) with uniform u picks the first category whose
cumulative normalised weight exceeds u; ``_draw3`` is the only such draw,
and FFBS, recombination counts and imputation all go through it.

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
* Kernel work is done only at kernel cells, where r > 0.  With r = 0 the
  kernel is the identity, and the loop's ``(p0 1 + p1 0) + p2 0`` is p0 bit
  for bit, so every other cell's prediction is its predecessor's filtered
  vector.  At a kernel cell the prediction replaces the lane's filtered
  vector, which nothing reads again, so one multiply by the emissions, in
  place, gives every lane's forward step.  Per chunk of steps the transition
  entries of the kernel cells, and the emissions of every cell's observed
  genotype, are gathered with ``np.take`` from flat tables, one indexed by
  (subject, recombinations) and one by (locus, genotype).
* The backward weights of state m before a kernel cell are
  ``filt[m] * T[m, s_next]``: the forward step's own products
  ``prev[m] * T[m, n]`` at n = s_next.  The forward pass therefore draws,
  for each kernel cell and each of its three states, the state of the cell
  before it, with that cell's uniform, and keeps those 3 bytes in place of
  the 24 of a filtered vector.  At a segment's last locus it draws from
  the filtered vector alone.  Besides the drawn path, nothing is kept per
  cell.
* The backward pass walks the steps down holding one state per lane.
  Before a kernel cell it reads the drawn state from the table; before any
  other cell T = I, so the weights are ``filt * e[s_next]`` and the draw is
  ``s_next``, which the lane keeps.  A uniform is still drawn for every
  cell, so the random stream does not depend on r.  Each step's states go
  straight into their loci's columns of the output, with no packed copy.

Each cell's arithmetic is that of a loop over loci:
``(p0 T0n + p1 T1n) + p2 T2n``, times the emission, over ``(f0 + f1) + f2``.
A segment starts from the Hardy-Weinberg row where that loop carried the
previous segment's vector through the restart; the two differ in
rounding only, which moves a draw only if its uniform falls within
rounding of a cumulative weight.  One case is not bit-identical: weights
``filt * T[:, s_next]`` that are all 0.  The loop divided 0 by 0 there,
with a warning, and drew 0; here a kept cell stays ``s_next`` and a
kernel cell draws 2.  It needs the next draw to have picked a state of
weight 0, which only a uniform within rounding of 1 does.

Recombination counts draw r at each cell, with previous state m and state
n, over ``w0 = prior0 [m = n]``, ``w1 = prior1 T1(m, n)`` and
``w2 = prior2 hwe(n)``, the prior being binomial(2, gamma).  Where m = n,
w0 is prior0 and w1, w2 are at most prior1, prior2 (kernel entries are at
most 1, and the prior terms sum to 1), so ``c0 = w0 / tot`` is at least
prior0 (1 - O(eps)), and a uniform below the certificate prior0 (1 - 2**-30)
draws 0.  Only the open cells, where m != n or u is not below the
certificate (NaN is not), are weighed, with every cell's arithmetic
``(w0 + w1) + w2``, ``w0 / tot`` and ``w1 / tot + c0``; they are found by
flat index in row-major order and weighed in runs of at most
``CHUNK_CELLS``.  The certificate is used only where it is proven: a locus
whose prior terms are not all in [0, 1] or whose prior0 is 0 (gamma = 1, as
at a start), and a subject whose kernel entries are not all in [0, 1], are
open at every cell.

The admixture-proportion counts gather, in one ``np.take``, from two flat
tables of lineage counts (successes, failures) indexed by (recombinations,
from, to), and sum them per subject in int32.
"""
from __future__ import annotations

import numpy as np

from .errors import ForwardUnderflowError
from .hmm import two_lineages

# lane cells (one subject of one segment at one step) in a chunk of steps,
# whose emissions and gather indices take ~0.7 MiB; also the open cells in a
# run of recombination counts
CHUNK_CELLS = 16384
TINY = np.nextafter(0.0, 1.0)   # the smallest positive float64


def active_backend():
    """Name of the kernel implementation, recorded in benchmark runs."""
    return "numpy"


def _draw3(w, u):
    """Categorical draws over the leading axis of ``w`` (3, ...), one per uniform.

    Weights that are all 0 draw 2, with no 0 / 0.
    """
    tot = w[0] + w[1]
    tot += w[2]
    np.maximum(tot, TINY, out=tot)
    c0 = w[0] / tot
    c1 = np.divide(w[1], tot, out=tot)   # tot is not read again
    c1 += c0
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
    # one segment, the usual case on a single chromosome: the general layout
    # below is the same, but costs ~20 us more a call, ~4% of a 3 x 4 sweep
    if first.size == 1:
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
    run = [p // rows for p in pos[:n_steps]]
    bounds = [k for k in range(n_steps) if k == 0 or run[k] != run[k - 1]]
    return list(zip(bounds, bounds[1:] + [n_steps]))


def _forward(x, r, u, fwd, emit, layout, lost=None):
    """Filter every lane forward and draw what the backward pass will read.

    Returns, per step past step 0, the lanes of its kernel cells and their
    rows in the draw table (None where the step has none); the draw table,
    which holds each such kernel cell's draws of the cell before it given
    each state of its own, flat by (kernel cell, state); the draw of every
    lane at its segment's last locus; and whether some lane lost its mass.
    Step 0 starts every segment: no cell before it is drawn, so its kernel
    cells have no rows.
    Given a list ``lost``, every step is checked and the list receives the
    smallest (locus, subject) whose mass vanished there.
    """
    loci, pos, count, chunks, row_start = layout
    n_sub = row_start.size
    moves = [None] * len(count)
    tails = np.empty(count[0] * n_sub, dtype=np.int8)
    # each lane's filtered vector, first the Hardy-Weinberg row, which every
    # kernel keeps; each step filters it in place
    f = np.concatenate([fwd[0, :, 2::3]] * count[0], axis=1)
    sub3 = np.arange(0, 3 * n_sub, 3)   # subject i's first column of fwd, 3i
    tables, done = [], 0
    vanished = False
    for k0, k1 in chunks:
        a = pos[k0]
        rows = loci[a:pos[k1], None]
        flat = rows + row_start
        rc = r.take(flat)
        # kernel cells (r > 0), packed order; nonzero on a bool mask is ~5x
        # faster than on int8
        cell = (rc.ravel() != 0).nonzero()[0]
        cuts = cell.searchsorted([(q - a) * n_sub for q in pos[k0:k1 + 1]]).tolist()
        # T(m, n) of each kernel cell, times the filtered vector before it below
        pt = fwd.take((rc + sub3).ravel()[cell], axis=2)
        obs = emit.take(x.take(flat) + 3 * rows, axis=1)
        head = cuts[1] if k0 == 0 else 0   # step 0's kernel cells take no rows
        for k in range(k0, k1):
            p, g, g_next = pos[k] - a, count[k], count[k + 1]
            lo, hi = cuts[k - k0], cuts[k - k0 + 1]
            n_lanes = g * n_sub
            f = f[:, :n_lanes]
            if lo < hi:
                kern = pt[:, :, lo:hi]   # (from, to, kernel cell)
                lanes = cell[lo:hi] - p * n_sub
                kern *= f.take(lanes, axis=1)[:, None]   # faster than f[:, None, lanes]
                pred = kern[0] + kern[1]
                pred += kern[2]
                # the prediction replaces the filtered vector, which nothing
                # reads again; lanes with r = 0 keep theirs (the identity)
                f[:, lanes] = pred
                if k:
                    moves[k] = lanes, done + lo - head, done + hi - head
            f *= obs[:, p:p + g].reshape(3, n_lanes)
            tot = f[0] + f[1]
            tot += f[2]
            if lost is not None and not tot.min(initial=np.inf) > 0.0:
                lane = np.flatnonzero(~(tot > 0.0))
                locus = loci[pos[k] + lane // n_sub]
                first = locus.min()
                lost.append((first, (lane % n_sub)[locus == first].min()))
            # a vanished mass divides as 0 / TINY = 0, with no 0 / 0 warning,
            # and stays 0 (NaN stays NaN) to the end of its segment, so the
            # segment's last step shows it (with no subjects there is none)
            if g_next < g:   # lanes past g_next end their segment here
                end = slice(g_next * n_sub, n_lanes)
                vanished |= not tot[end].min(initial=np.inf) > 0.0
            np.maximum(tot, TINY, out=tot)
            f /= tot
            if g_next < g:
                tails[end] = _draw3(f[:, end], u.take(flat[p + g_next:p + g]).ravel())
        # the backward weights of state m given next state n are pt[m, n],
        # drawn with the uniform of the cell before the kernel cell
        tables.append(_draw3(pt[:, :, head:], u.take(flat.ravel()[cell[head:]] - 1)).T)
        done += pt.shape[2] - head
    return moves, np.concatenate(tables).ravel(), tails, vanished


def _backward(moves, table, tails, layout, s):
    """Draw every lane into ``s``, each segment from its last step down.

    Where the next cell's kernel is the identity the draw is the next
    cell's state; elsewhere it is read from that cell's row of the table.
    Each step's states go straight into their loci's columns of ``s``.
    """
    loci, pos, count, _, row_start = layout
    cur = tails
    step = cur.reshape(-1, row_start.size)
    three = np.arange(0, 3 * cur.size, 3)
    for k in range(len(count) - 2, -1, -1):
        if moves[k + 1] is not None:
            lanes, lo, hi = moves[k + 1]
            s_next = cur[lanes]
            cur[lanes] = table[3 * lo:3 * hi].take(three[:hi - lo] + s_next)
        s.T[loci[pos[k]:pos[k + 1]]] = step[:count[k]]


def ffbs_paths(x, r, rows, kern, u):
    """Sample one ancestry path per subject from its joint full conditional.

    ``x`` must be fully imputed (no MISSING entries); ``rows`` is
    ``observation_rows(p_a, p_b)`` and ``kern`` is ``transition_kernels(rho)``;
    ``u`` supplies one uniform per (subject, locus) for the backward draws.
    Raises :class:`ForwardUnderflowError` naming the first locus, and the first
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
    fwd = kern.transpose(1, 2, 3, 0).reshape(3, 3, 3 * n_sub)
    emit = rows.transpose(0, 2, 1).reshape(3, 3 * n_loc)
    # the output first, below the forward pass's temporaries in the heap: made
    # after them, a sweep's long-lived outputs land ever higher as glibc trims
    # and regrows the heap, and impute's peak RSS crept up by 1-3 MiB
    s = np.empty((n_sub, n_loc), dtype=np.int8)
    moves, table, tails, vanished = _forward(x, r, u, fwd, emit, layout)
    if vanished:
        lost = []
        _forward(x, r, u, fwd, emit, layout, lost)
        locus, subject = min(lost)
        raise ForwardUnderflowError(subject, locus)
    _backward(moves, table, tails, layout, s)
    return s


def recombination_counts(s, gamma, kern, u):
    """Sample per-interval recombination counts given the ancestry path.

    ``kern`` is ``transition_kernels(rho)``.  Where ``gamma`` is 1, as at a
    chromosome start, the count is 2.  Weights are computed at the open
    cells only; every other cell draws 0 (see the module docstring).
    """
    s = np.asarray(s)
    u = np.asarray(u)
    gamma = np.asarray(gamma)
    n_sub, n_loc = s.shape
    # the output first, below the temporaries in the heap (see ffbs_paths)
    draw = np.zeros(s.shape, dtype=np.int8)
    # the Hardy-Weinberg row of subject i, the kernel of two recombinations,
    # is hwe[3i + n], and T(m, n) given one is one[3(3i + n) + m]
    hwe = kern[2, 0].T.ravel()
    one = kern[1].transpose(2, 1, 0).ravel()
    prior = two_lineages(gamma, gamma)   # binomial(2, gamma): 0, 1, 2 recombinations
    # the certificate where it is proven: 0 <= gamma < 1 is where the prior
    # terms are all in [0, 1] and prior0 > 0, and then prior0 >= 2**-106, a
    # normal float; elsewhere -inf, which no uniform is below
    cert = np.where((gamma >= 0.0) & (gamma < 1.0), prior[0] * (1.0 - 2.0 ** -30), -np.inf)
    prev = _previous(s)
    # a cell is closed where its state does not change, u is below the
    # certificate (NaN is not) and the subject's kernel entries are in [0, 1]
    closed = np.less(u, cert)
    closed &= s == prev
    entries = kern[1:].reshape(-1, n_sub)   # one and two recombinations
    closed &= ((entries >= 0.0) & (entries <= 1.0)).all(axis=0)[:, None]
    # the open cells in row-major order, so the first bad cell comes first
    cells = np.flatnonzero(np.logical_not(closed, out=closed))
    del closed
    out = draw.reshape(-1)
    for a in range(0, cells.size, CHUNK_CELLS):
        c = cells[a:a + CHUNK_CELLS]
        i = c // n_loc   # np.divmod takes four times as long
        j = c - i * n_loc
        n = s.take(c)
        m = prev.take(c)
        cell = 3 * i + n
        w2 = hwe.take(cell)
        w2 *= prior[2].take(j)
        cell *= 3
        cell += m
        w1 = one.take(cell)
        w1 *= prior[1].take(j)
        w0 = (m == n) * prior[0].take(j)
        tot = w0 + w1
        tot += w2
        if not (tot.min() > 0.0 and tot.max() < np.inf):
            k = (~((tot > 0.0) & np.isfinite(tot))).argmax()
            raise RuntimeError(
                f"zero recombination mass at subject {i[k]}, locus {j[k]}; "
                "gamma or rho left the open unit interval"
            )
        out[c] = _draw3((w0, w1, w2), u.take(c))   # a third of the time of draw.put
    return draw


def impute_genotypes(x, cells, s, rows, u):
    """Fill the cells ``(subjects, loci)`` from the observation row of the state.

    ``rows`` is ``observation_rows(p_a, p_b)``; ``u`` holds one uniform per
    cell, in the order of ``cells``.
    """
    out = np.array(x, dtype=np.int8)
    ii, jj = cells
    w = rows[np.asarray(s)[ii, jj], :, jj].T
    out[ii, jj] = _draw3(w, np.asarray(u))
    return out


def genotype_state_counts(s, x):
    """Per-locus contingency counts n[j, ancestry, genotype]."""
    code = np.asarray(s, dtype=np.int8) * np.int8(3)   # 3 s + x, one byte a cell
    code += np.asarray(x)
    # one mask and one column sum per code: 2 B a cell, where np.bincount
    # needs 8-byte bins and takes twice the time
    counts = np.empty((code.shape[1], 9), dtype=np.int64)
    for c in range(9):
        counts[:, c] = (code == c).sum(axis=0, dtype=np.int32)
    return counts.reshape(-1, 3, 3)


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
# Successes, then failures.
_LINEAGE_COUNTS = np.stack([
    _lineage_count_table(((0, 1), (1, 2), (2, 2)), [0, 1, 2]),
    _lineage_count_table(((0, 0), (1, 0), (2, 1)), [2, 1, 0]),
])


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
    # one take casts the codes to indices once; the sums are integers, exact
    # in int32 and in their float64 cast
    successes, failures = _LINEAGE_COUNTS.take(code, axis=1).sum(axis=2, dtype=np.int32)
    return successes.astype(np.float64), failures.astype(np.float64)
