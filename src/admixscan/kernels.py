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
2002, JASA).  Where r = 0 the transition kernel is the identity, and where
a subject has r = 2 its chain forgets its past (every chromosome start is
such a cell, since gamma is 1 there).  Where at most ``RUN_SHARE`` of the
cells in a call have r > 0, the kernel steps once per run of identity
kernels:

* A run starts at locus 0 and at every cell with r > 0.  A lane is one
  subject from locus 0, or from a cell where it has r = 2, up to its next
  such cell, whatever other subjects are in the call.  Lanes are ranked
  by run count, most first, and step k holds run k of every lane with more
  than k runs, so the lanes alive at a step are a prefix of those alive at
  the step before (21-26 steps a sweep on the benchmark's
  ``impute_cohort``, whose chromosomes have 200 loci).
* Each run's log emissions are summed per state once, with
  ``np.add.reduceat`` over chunks of ``CHUNK_CELLS`` cells in whole rows.
  The forward step forms the prediction ``(p0 T0n + p1 T1n) + p2 T2n``
  from the lane's filtered vector (the Hardy-Weinberg row at its first
  run), adds its log to the run's sums, subtracts the largest,
  exponentiates and divides by ``(f0 + f1) + f2``, so a run whose emission
  product underflows keeps its mass.  A vanished mass leaves NaN in its
  lane to the end; the pass then frees what it holds and hands the call to
  the locus pass below, which names the cell (or, if it keeps every lane's
  mass, draws the path).
* The backward weights of state m before a run past a lane's first (which
  starts with r = 1) are ``filt[m] * T[m, s_next]``, the forward step's own
  products, which sum to the prediction.  The forward pass draws from them,
  for each of the run's three states, the state of the cell before it,
  with that cell's uniform, and keeps those 3 bytes.  A lane's last cell
  draws from its filtered vector alone: the row ends there, or the next
  cell has r = 2, whose T[m, n] = hwe(n) does not depend on m.
* The backward pass walks the steps down holding one state per lane.  In a
  run T = I, so every cell takes the run's state; the cell before a run
  reads its state from the table.  ``np.repeat`` fills the path, a chunk
  of rows at a time.  A uniform is still drawn for every cell, so the
  random stream does not depend on r.

A run costs more than a locus: its log-space step, its log-emission sum
(``np.add.reduceat`` pays per run) and 31 bytes kept.  So where more cells
have r > 0, as on AIM panels 2-3 cM apart, the kernel steps once per locus:

* A segment starts at locus 0 and at every column where all subjects in
  the call have r = 2.  Segments are ranked longest first, a lane is one
  subject of one segment, and step k holds the k-th locus of every segment
  longer than k.
* Kernel work is done only at kernel cells.  With r = 0 the loop's
  ``(p0 1 + p1 0) + p2 0`` is p0 bit for bit, so there the prediction is
  the filtered vector before; at a kernel cell the prediction replaces it.
  One multiply by the emissions, in place, and a division by
  ``(f0 + f1) + f2`` then give every lane's forward step.  Per chunk of
  steps of about ``CHUNK_CELLS`` lane cells, the kernel cells' transition
  entries and every cell's emissions are gathered with ``np.take``.
* As above, the forward pass draws, per kernel cell past a segment's first
  locus and per state, the state of the cell before it (3 bytes), and a
  segment's last locus draws from its filtered vector.  The backward pass
  copies the next state before an identity kernel and reads the table
  before a kernel cell.  A vanished mass divides as 0 / TINY = 0 and stays
  so to its segment's end; the pass then runs again to name the cell.

A loop over loci normalises at every cell and carries its vector through
the r = 2 kernel; both passes differ from it, and from each other, in
rounding only, which moves a draw only if its uniform falls within rounding
of a cumulative weight.  A subset of the subjects gets the lanes of the
whole call when it steps once per run, but a locus pass cuts only the
columns where every subject in the call has r = 2.  One case is not
bit-identical: weights ``filt * T[:, s_next]`` that are all 0.  The loop
divided 0 by 0 there, with a warning, and drew 0; here a cell with an
identity kernel after it stays ``s_next`` and any other draws 2.  It needs
the next draw to have picked a state of weight 0, which only a uniform
within rounding of 1 does.

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

# cells in a chunk of whole rows (at least one row), whose log emissions are
# summed per run; lane cells in a chunk of steps of the locus pass, whose
# emissions and gather indices take ~0.7 MiB; also the open cells in a run
# of recombination counts
CHUNK_CELLS = 16384
TINY = np.nextafter(0.0, 1.0)   # the smallest positive float64
# the largest share of kernel cells (r > 0) at which FFBS steps once per run:
# above ~20% the locus pass is the faster (see the module docstring), and
# above ~10% the smaller
RUN_SHARE = 0.15


def active_backend():
    """Name of the kernel implementation, recorded in benchmark runs."""
    return "numpy"


def _draw3(w, u, tot=None):
    """Categorical draws over the leading axis of ``w`` (3, ...), one per uniform.

    ``tot``, if given, is the total ``(w0 + w1) + w2``, which the draw
    overwrites.  Weights that are all 0 draw 2, with no 0 / 0.
    """
    if tot is None:
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


def _runs(r):
    """Packed layout of the chain's runs and lanes.

    A run starts at locus 0 and at every cell with r > 0; a lane is one
    subject from locus 0, or from a cell where it has r = 2, up to its next
    such cell.  Lanes are ranked by run count, most first, ties in row-major
    order; step k holds run k of every lane with more than k runs, so the
    lanes alive at a step are a prefix of those alive at the step before.
    Returns the flat cell where each run starts, in row-major order, then
    ``r.size``; the first run of each row, then the number of runs; each
    lane's first run, in rank order; the number of lanes alive at each step;
    and each lane's last flat cell, in rank order.
    """
    n_loc = r.shape[1]
    start = np.ones(r.size + 1, dtype=bool)
    np.not_equal(r.reshape(-1), 0, out=start[:-1])
    start[:-1:n_loc] = True
    # int32 wherever the flat indices fit: 4 B a run, found in chunks of
    # rows so that no 8-byte index of every run is made
    index = np.int32 if r.size < 2 ** 31 else np.intp
    rows = max(1, CHUNK_CELLS // n_loc) * n_loc
    starts = np.concatenate([np.flatnonzero(start[a:a + rows]).astype(index) + index(a)
                             for a in range(0, r.size + 1, rows)])
    row_first = starts.searchsorted(np.arange(0, r.size + 1, n_loc))
    # a row's first run heads a lane, and so does every run with r = 2
    head = np.ones(starts.size, dtype=bool)
    np.equal(r.take(starts[:-1]), 2, out=head[:-1])
    head[row_first] = True
    first = np.flatnonzero(head)
    n_runs = first[1:] - first[:-1]
    rank = (-n_runs).argsort(kind="stable")
    count = np.bincount(n_runs)[:0:-1].cumsum()[::-1].tolist()
    return starts, row_first, first.take(rank), count, starts.take(first[1:]).take(rank) - 1


def _log_sums(x, rows, starts, row_first):
    """Each run's sum of log emissions, per state: (3, runs).

    Rows of ``x`` are summed in chunks of whole rows, so no run spans two.
    """
    n_sub, n_loc = x.shape
    # the log emission of state n, genotype g at locus j is lemit[n, 3j + g];
    # an impossible genotype's is -inf
    with np.errstate(divide="ignore"):
        lemit = np.log(rows.transpose(0, 2, 1).reshape(3, 3 * n_loc))
    col = np.arange(0, 3 * n_loc, 3)
    sums = np.empty((3, starts.size - 1))
    step = max(1, CHUNK_CELLS // n_loc)
    for i in range(0, n_sub, step):
        a, b = row_first[i], row_first[min(i + step, n_sub)]
        # one expression, so no chunk's logs outlive it
        np.add.reduceat(lemit.take(x[i:i + step] + col, axis=1).reshape(3, -1),
                        starts[a:b] - i * n_loc, axis=1, out=sums[:, a:b])
    return sums


def _forward(u, r, layout, fwd, sums):
    """Filter every lane forward, one run a step, and draw the backward table.

    Returns, per step past step 0, the table of its runs: for each lane and
    each state of the run's first cell, the state of the cell before it,
    flat by (lane, state); and every lane's filtered vector at its last
    cell, which is NaN in a lane that lost its mass.
    """
    starts, _, first, count, _ = layout
    lane = starts.take(first) // r.shape[1] * 3   # three times each lane's subject
    tables = [None] * len(count)
    # each lane's filtered vector, first the Hardy-Weinberg row, which every
    # kernel keeps
    f = fwd[0].take(lane + 2, axis=1)
    for k, g in enumerate(count):
        runs = first[:g] + k
        # a lane's first run has its own kernel, every later one starts at
        # r = 1: T(m, n) times the filtered vector before the run, (from, to, lane)
        kern = fwd.take(lane[:g] + 1 if k else lane + r.take(starts.take(first)), axis=2)
        kern *= f[:, None, :g]
        pred = kern[0] + kern[1]
        pred += kern[2]
        # log 0 is -inf; a vanished mass makes top -inf or NaN, and logs - top
        # NaN, in its lane to the end
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(pred)
            logs += sums.take(runs, axis=1)
            top = np.maximum(logs[0], logs[1])
            np.maximum(top, logs[2], out=top)
            logs -= top
        if k:
            # the backward weights of state m given the run's state n are
            # kern[m, n], summing to pred[n], drawn with the uniform of the
            # cell before the run
            tables[k] = _draw3(kern, u.take(starts.take(runs) - 1), pred).T.ravel()
        del kern, pred   # the step's largest temporaries, before the next are made
        np.exp(logs, out=logs)
        tot = logs[0] + logs[1]
        tot += logs[2]
        np.divide(logs, tot, out=f[:, :g])
    return tables, f


def _backward(tables, tails, first, count, n_runs):
    """The state of every run, in row-major order, each lane from its last run down.

    Within a run the kernel is the identity, so every cell takes the run's
    state; the cell before a run reads it from the run's table.
    """
    states = np.empty(n_runs, dtype=np.int8)
    cur = tails
    three = np.arange(0, 3 * cur.size, 3)
    for k in range(len(count) - 1, -1, -1):
        g = count[k]
        states[first[:g] + k] = cur[:g]
        if k:
            cur[:g] = tables[k].take(three[:g] + cur[:g])
    return states


def _ffbs_runs(x, r, rows, fwd, u, s):
    """FFBS one run a step, into ``s``; True, with ``s`` unwritten, if a lane lost its mass."""
    layout = _runs(r)
    starts, row_first, first, count, last = layout
    sums = _log_sums(x, rows, starts, row_first)
    tables, f = _forward(u, r, layout, fwd, sums)
    del sums   # 24 B a run: the path below must not stack on it
    if np.isnan(f).any():
        return True
    states = _backward(tables, _draw3(f, u.take(last)), first, count, starts.size - 1)
    # every cell of a run takes its state, in chunks of rows: no temporary
    # of a byte a cell
    step = max(1, CHUNK_CELLS // x.shape[1])
    for i in range(0, x.shape[0], step):
        a, b = row_first[i], row_first[min(i + step, x.shape[0])]
        s[i:i + step].reshape(-1)[:] = np.repeat(states[a:b], np.diff(starts[a:b + 1]))


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


def _locus_forward(x, r, u, fwd, emit, layout, lost=None):
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


def _locus_backward(moves, table, tails, layout, s):
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




def _ffbs_loci(x, r, rows, fwd, u, s):
    """FFBS one locus a step, into ``s``."""
    n_sub, n_loc = x.shape
    loci, pos, count = _segments(r)
    # the flat offset of (subject, locus 0) in x, r and u
    row_start = np.arange(0, n_sub * n_loc, n_loc)
    layout = (loci, pos, count, _chunks(pos, n_sub), row_start)
    # the emission of state n, genotype g at locus j is emit[n, 3j + g]
    emit = rows.transpose(0, 2, 1).reshape(3, 3 * n_loc)
    moves, table, tails, vanished = _locus_forward(x, r, u, fwd, emit, layout)
    if vanished:
        lost = []
        _locus_forward(x, r, u, fwd, emit, layout, lost)
        locus, subject = min(lost)
        raise ForwardUnderflowError(subject, locus)
    _locus_backward(moves, table, tails, layout, s)


def ffbs_paths(x, r, rows, kern, u):
    """Sample one ancestry path per subject from its joint full conditional.

    ``x`` must be fully imputed (no MISSING entries); ``rows`` is
    ``observation_rows(p_a, p_b)`` and ``kern`` is ``transition_kernels(rho)``;
    ``u`` supplies one uniform per (subject, locus) for the backward draws.
    Raises :class:`ForwardUnderflowError` naming the first locus, and the first
    subject there, whose forward mass vanishes.  Steps once per run where at
    most ``RUN_SHARE`` of the cells have r > 0, else once per locus; a run
    pass that loses a mass hands the call to the locus pass, the one place
    that names the cell.
    """
    x = np.ascontiguousarray(x)
    r = np.ascontiguousarray(r)
    u = np.ascontiguousarray(u)
    n_sub, n_loc = x.shape
    # the output first, below the forward pass's temporaries in the heap: made
    # after them, a sweep's long-lived outputs land ever higher as glibc trims
    # and regrows the heap, and impute's peak RSS crept up by 1-3 MiB
    s = np.empty((n_sub, n_loc), dtype=np.int8)
    # T(m, n) of subject i given c recombinations is fwd[m, n, 3i + c]
    fwd = kern.transpose(1, 2, 3, 0).reshape(3, 3, 3 * n_sub)
    # the run pass returns having freed what it holds, so the locus pass
    # does not stack on it
    if np.count_nonzero(r) > RUN_SHARE * r.size or _ffbs_runs(x, r, rows, fwd, u, s):
        _ffbs_loci(x, r, rows, fwd, u, s)
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
        out[c] = _draw3((w0, w1, w2), u.take(c), tot)   # a third of the time of draw.put
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
