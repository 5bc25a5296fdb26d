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
such a cell, since gamma is 1 there).  One forward and one backward pass
step once per run of identity kernels, over chunks of whole rows of at
most ``CHUNK_RUNS`` runs (at least one row).

* A run starts at locus 0 and at every cell with r > 0, so a row has
  ``1 + count_nonzero(r[i, 1:])`` runs.  A lane is one subject from locus
  0, or from a cell where it has r = 2, up to its next such cell, whatever
  other subjects are in the call, so a chunk draws its rows of the whole
  call.  Lanes are ranked longest first, and step k holds run k of every
  lane longer than k, so the lanes alive at a step are a prefix of those
  alive at the step before (21-26 steps a sweep on the benchmark's
  ``impute_cohort``, whose chromosomes have 200 loci).  A kernel run is one
  whose first cell has r > 0, as every run past a lane's first (r = 1).
* A run's emission factor is its emission product over its largest
  state's: the log emissions are summed per state with ``np.add.reduceat``
  over chunks of ``CHUNK_CELLS`` cells in whole rows, less their largest,
  and exponentiated in one call, so a run whose product underflows keeps
  its mass.
* The forward pass gathers, per chunk of steps (a sixteenth of
  ``CHUNK_CELLS`` runs), each run's r, the kernel entries of its kernel
  runs and its emission factor.  At a kernel run the prediction
  ``(p0 T0n + p1 T1n) + p2 T2n`` replaces the lane's filtered vector (the
  Hardy-Weinberg row at its first run); elsewhere the kernel is the
  identity, whose ``(p0 1 + p1 0) + p2 0`` is p0 bit for bit.  Each lane
  then multiplies by its factor and divides by ``(f0 + f1) + f2``, at least
  ``TINY``; where every lane of a step is a kernel run, as past a lane's
  first, slices replace the gathers.
* The backward weights of state m before a kernel run past a lane's first
  are ``filt[m] * T[m, s_next]``, the forward step's own products, which
  sum to the prediction.  The forward pass draws from them, for each of the
  run's three states, the state of the cell before it, with that cell's
  uniform, and keeps those 3 bytes.  A lane's last cell draws from its
  filtered vector alone: the row ends there, or the next cell has r = 2,
  whose T[m, n] = hwe(n) does not depend on m.
* The backward pass walks the steps down holding one state per lane: the
  cell before an identity kernel takes the run's state, the cell before a
  kernel run reads it from the table, and ``np.repeat`` fills each run's
  cells, a chunk of rows at a time.
* So a pass reads the uniforms of the cells ``read_cells`` marks, each
  once: each row's last cell and every cell whose next has r > 0, the last
  cells of the runs.  FFBS takes one uniform per read cell, in row-major
  order, and the last cell of run k reads uniform k, so a chunk's uniforms
  are the slice from its first run to its last.
* A vanished mass divides as 0 / TINY = 0, with no 0 / 0 warning, and stays
  0 (NaN stays NaN) to its lane's end.  A normalised vector holds no mass
  below the float range: at (1, 0, 0) exactly, a next run that starts with
  r = 1 and makes state 2 the likeliest by far keeps no mass, as T1(0, 2)
  is 0, where the exact recursion keeps state 1's ~1e-400, which reaches 2.
  A lane that ends with no mass is filtered and drawn again alone, in logs,
  on the same uniforms; one that loses it there too (every state the
  prediction reaches has a running log sum of -inf, or a NaN appears)
  raises :class:`ForwardUnderflowError` for the first locus and its first
  subject, over every chunk.

Weights ``filt * T[:, s_next]`` that are all 0 draw 2, where a loop over
loci would divide 0 by 0, with a warning, and draw 0; a cell with an
identity kernel after it stays ``s_next``.  It needs the next draw to have
picked a state of weight 0, which only a uniform within rounding of 1 does.

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

The admixture-proportion counts write each cell's code (recombinations,
from, to) as a byte, map the codes to lineage counts (successes, failures)
through two 256-byte ``bytes.translate`` tables, and sum them per subject in
int32: no index array is made.
"""
from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import ForwardUnderflowError
from .hmm import two_lineages

# cells in a chunk of whole rows (at least one row), whose log emissions are
# summed per run; a sixteenth as many runs in a chunk of steps, whose kernel
# entries take 72 B each; also the open cells in a run of recombination counts
CHUNK_CELLS = 16384
# runs in a chunk of whole rows (at least one row) that FFBS filters at once
CHUNK_RUNS = 65536
TINY = np.nextafter(0.0, 1.0)   # the smallest positive float64


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


def read_cells(r):
    """The cells whose uniforms :func:`ffbs_paths` reads, a bool mask of ``r``'s shape.

    They are each row's last locus and every cell whose next locus has r > 0:
    the last cell of every run, in the terms of the module docstring.
    """
    r = np.asarray(r)
    read = np.empty(r.shape, dtype=bool)
    np.not_equal(r[:, 1:], 0, out=read[:, :-1])
    read[:, -1:] = True
    return read


def _row_chunks(r):
    """Cuts of ``r`` into chunks of whole rows of at most ``CHUNK_RUNS`` runs, at least a row each.

    Returns (row, run) pairs: each chunk's first row and first run, then
    ``r``'s row and run counts.
    """
    ends = np.cumsum(np.count_nonzero(r[:, 1:], axis=1) + 1)   # the runs to each row's end
    cuts = [(0, 0)]
    while cuts[-1][0] < r.shape[0]:
        a, k = cuts[-1]
        b = max(a + 1, int(ends.searchsorted(k + CHUNK_RUNS, "right")))
        cuts.append((b, int(ends[b - 1])))
    return cuts


def _layout(r):
    """The lanes of runs of whole rows.

    Returns the lanes' first runs, longest lane first, ties in order; the
    number of lanes alive at each step; each lane's subject and last run;
    the flat cell where each run starts, then ``r.size``; each row's first
    run, then the run count; and r where each run starts.  The last cell of
    run k reads uniform k.
    """
    n_sub, n_loc = r.shape
    start = np.ones(r.size + 1, dtype=bool)
    np.not_equal(r.reshape(-1), 0, out=start[:-1])
    start[:-1:n_loc] = True
    # int32 wherever the flat indices fit: 4 B a run, found in chunks of rows
    # so that no 8-byte index of every run is made
    index = np.int32 if r.size < 2 ** 31 else np.intp
    rows = max(1, CHUNK_CELLS // n_loc) * n_loc
    starts = np.concatenate([np.flatnonzero(start[a:a + rows]).astype(index) + index(a)
                             for a in range(0, r.size + 1, rows)])
    row_first = starts.searchsorted(np.arange(0, r.size + 1, n_loc))
    rs = r.take(starts[:-1])
    # a row's first run heads a lane, and so does every run with r = 2
    head = np.ones(starts.size, dtype=bool)
    np.equal(rs, 2, out=head[:-1])
    head[row_first] = True
    first = np.flatnonzero(head)
    last = first[1:] - 1
    subject = starts.take(last) // n_loc
    length = first[1:] - first[:-1]
    rank = (-length).argsort(kind="stable")
    count = np.bincount(length)[:0:-1].cumsum()[::-1].tolist()
    return (first[:-1].take(rank), count, subject.take(rank), last.take(rank),
            starts, row_first, rs)


def _run_factors(x, rows, starts, row_first):
    """Each run's emission product, per state, over its largest state's: (3, runs).

    Summed in logs per chunk of whole rows, so no run spans two, then scaled
    and exponentiated at once; a run that no state can emit is NaN.
    """
    n_sub, n_loc = x.shape
    fac = np.empty((3, starts.size - 1))
    step = max(1, CHUNK_CELLS // n_loc)
    # the log emission of state n, genotype g at locus j is lemit[n, 3j + g];
    # an impossible genotype's is -inf, and -inf - -inf is NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        lemit = np.log(rows.transpose(0, 2, 1).reshape(3, 3 * n_loc))
        col = np.arange(0, 3 * n_loc, 3)
        for i in range(0, n_sub, step):
            a, b = row_first[i], row_first[min(i + step, n_sub)]
            # one expression, so no chunk's logs outlive it
            np.add.reduceat(lemit.take(x[i:i + step] + col, axis=1).reshape(3, -1),
                            starts[a:b] - i * n_loc, axis=1, out=fac[:, a:b])
        top = np.maximum(fac[0], fac[1])
        fac -= np.maximum(top, fac[2], out=top)
    return np.exp(fac, out=fac)


def _filter_forward(gather, heads, count, fwd, u, f):
    """Filter every lane forward in ``f``, one run a step, and draw the backward tables.

    ``gather(grp)`` gives r, the kernel column of ``fwd`` and the emission
    factor of the runs ``grp``, packed step by step.  The cell before run k
    reads ``u[k - 1]``.  Returns, per step past step 0 with kernel runs,
    their lanes and their draws of the cell before them, flat by (run,
    state).
    """
    moves = [None] * len(count)
    pos = list(accumulate(count, initial=0))   # each step's first lane
    size = max(1, CHUNK_CELLS // 16)
    bounds = [k for k in range(len(count)) if k == 0 or pos[k] // size != pos[k - 1] // size]
    for k0, k1 in zip(bounds, bounds[1:] + [len(count)]):
        g = count[k0]
        if count[k1 - 1] == g:
            grp = (np.arange(k0, k1)[:, None] + heads[:g]).ravel()
        else:
            grp = np.concatenate([heads[:c] + k for k, c in zip(range(k0, k1), count[k0:k1])])
        _filter_chunk(f, gather, grp, pos[k0:k1 + 1], k0, fwd, u, moves)
    return moves


def _filter_chunk(f, gather, grp, pos, k0, fwd, u, moves):
    """Steps ``k0`` on, whose lanes start at ``pos``: its own frame frees their arrays."""
    rc, col, fac = gather(grp)
    cuts, before = [q - pos[0] for q in pos], grp
    if np.count_nonzero(rc) < rc.size:
        # the kernel runs (r > 0), packed order; nonzero on a bool mask is ~5x
        # faster than on int8
        unit = (rc != 0).nonzero()[0]
        cuts = unit.searchsorted(cuts).tolist()
        col = col.take(unit)
        before = grp.take(unit)
    # T(m, n) of each kernel run, times the filtered vector before it below,
    # and their sums, the predictions
    pt = fwd.take(col, axis=2)
    pred = np.empty(pt.shape[1:])
    head = cuts[1] if k0 == 0 else 0   # step 0's kernel runs draw no rows
    read = before[head:] - 1   # the uniform of the cell before each kernel run
    for i in range(len(pos) - 1):
        p, n = pos[i] - pos[0], pos[i + 1] - pos[i]
        f = f[:, :n]
        lo, hi = cuts[i], cuts[i + 1]
        every = 0 < hi - lo == n   # every lane a kernel run: slices, not gathers
        if lo < hi:
            # the prediction (p0 T0n + p1 T1n) + p2 T2n replaces the filtered
            # vector; other lanes keep theirs (the identity)
            kern = pt[:, :, lo:hi]   # (from, to, kernel run)
            lanes = slice(None, n) if every else unit[lo:hi] - p
            # f.take(lanes)[:, None] is faster than f[:, None, lanes]
            kern *= (f if every else f.take(lanes, axis=1))[:, None]
            prd = pred[:, lo:hi]
            np.add(kern[0], kern[1], out=prd)
            prd += kern[2]
            if not every:
                f[:, lanes] = prd
            if k0 + i:
                moves[k0 + i] = lanes, lo - head, hi - head
        if every:
            np.multiply(prd, fac[:, p:p + n], out=f)
        else:
            f *= fac[:, p:p + n]
        tot = f[0] + f[1]
        tot += f[2]
        # a vanished mass divides as 0 / TINY = 0, with no 0 / 0 warning, and
        # stays 0 (NaN stays NaN) to the end of its lane
        np.maximum(tot, TINY, out=tot)
        f /= tot
    del col, fac   # before the draws' temporaries are made
    # the backward weights of state m given the run's state n are pt[m, n],
    # summing to pred[n], drawn with the uniform of the cell before the run
    table = _draw3(pt[:, :, head:], u.take(read), pred[:, head:]).T.ravel()
    for k in range(max(k0, 1), k0 + len(pos) - 1):
        if moves[k] is not None:
            lanes, lo, hi = moves[k]
            moves[k] = lanes, table[3 * lo:3 * hi]


def _sample_backward(moves, cur, heads, count, out):
    """Every run's state into ``out[run]``, each lane down from its last run's, ``cur``.

    The cell before a run takes its state, or before a kernel run its draw.
    """
    three = np.arange(0, 3 * cur.size, 3)
    for k in range(len(count) - 1, -1, -1):
        g = count[k]
        if g == 1:   # basic indexing, several times cheaper
            out[heads[0] + k] = cur[0]
        else:
            out[heads[:g] + k] = cur[:g]
        if moves[k] is not None:
            lanes, table = moves[k]
            cur[lanes] = table.take(three[:table.size // 3] + cur[lanes])


def _log_lane(x, rows, fwd, starts, rs, u, a, b, out):
    """Filter and draw the lane of runs ``a`` to ``b`` again alone, in logs, into ``out``.

    Returns None, or the flat cell where every state the prediction reaches
    has a running log sum of -inf, or a NaN appears; ``out`` then holds no
    path for the lane.
    """
    n_loc = x.shape[1]
    cells = np.arange(starts[a], starts[b + 1])
    i = cells[0] // n_loc
    bounds = starts[a:b + 2] - cells[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        lemit = np.log(rows[:, x.take(cells), cells - i * n_loc])   # (state, cell)
        # log T(m, n) of the lane's subject given c recombinations, [m, n, c]
        lk = np.log(fwd[:, :, 3 * i:3 * i + 3])
        filt = np.log(fwd[0, :, 3 * i + 2])   # the Hardy-Weinberg row
        logs = []
        for k in range(a, b + 1):
            # the prediction: the log of the sum over m of exp(filt[m] + log T(m, n))
            terms = filt[:, None] + lk[:, :, rs[k]]
            top = terms.max(axis=0)
            top[~(top > -np.inf)] = 0.0   # every term -inf, or one NaN
            run = lemit[:, bounds[k - a]:bounds[k - a + 1]].cumsum(axis=1)
            run += (top + np.log(np.exp(terms - top).sum(axis=0)))[:, None]
            lost = ~(run.max(axis=0) > -np.inf)
            if lost.any():
                return cells[bounds[k - a] + lost.argmax()]
            filt = run[:, -1]
            logs.append(filt)
        n = out[b] = _draw3(np.exp(filt - filt.max())[:, None], u[b:b + 1])[0]
        for k in range(b - 1, a - 1, -1):
            w = logs[k - a] + lk[:, n, rs[k + 1]]
            n = out[k] = _draw3(np.exp(w - w.max())[:, None], u[k:k + 1])[0]
    return None


def _ffbs(x, r, rows, kern, u, s):
    """FFBS of whole rows into ``s``, one run a step, reading ``u`` from their first run's.

    Returns the first cell with no mass, as (locus, row), of each lane that
    loses its mass in logs too; ``s`` then holds no path in its row.
    """
    n_sub, n_loc = x.shape
    heads, count, subject, last, starts, row_first, rs = _layout(r)
    fac = _run_factors(x, rows, starts, row_first)
    # each run's state, below the forward pass's temporaries (see ffbs_paths):
    # made after them, impute's peak RSS rose by ~0.8 MiB
    out = np.empty(starts.size - 1, dtype=np.int8)

    def gather(grp):
        rc = rs.take(grp)
        return rc, starts.take(grp) // n_loc * 3 + rc, fac.take(grp, axis=1)

    # T(m, n) of subject i given c recombinations is fwd[m, n, 3i + c], made
    # past the factors' peak
    fwd = kern.transpose(1, 2, 3, 0).reshape(3, 3, 3 * n_sub)
    # each lane's filtered vector, first the Hardy-Weinberg row, which every
    # kernel keeps
    f = fwd[0, :, 2:].take(subject * 3, axis=1)
    moves = _filter_forward(gather, heads, count, fwd, u, f)
    tot = f[0] + f[1]
    tot += f[2]
    gone = (~(tot > 0.0)).nonzero()[0].tolist()   # the lanes that lost their mass
    # the run factors (24 B a run): the path below must not stack on them
    gather = fac = None
    # a lane's last cell draws from its filtered vector alone
    _sample_backward(moves, _draw3(f, u.take(last), tot), heads, count, out)
    cells = [_log_lane(x, rows, fwd, starts, rs, u, heads[q], last[q], out) for q in gone]
    # every cell of a run takes its state, in chunks of rows: no temporary of
    # a byte a cell
    step = max(1, CHUNK_CELLS // n_loc)
    for i in range(0, n_sub, step):
        a, b = row_first[i], row_first[min(i + step, n_sub)]
        s[i:i + step].reshape(-1)[:] = np.repeat(out[a:b], np.diff(starts[a:b + 1]))
    return [(c % n_loc, c // n_loc) for c in cells if c is not None]


def ffbs_paths(x, r, rows, kern, u):
    """Sample one ancestry path per subject from its joint full conditional.

    ``x`` must be fully imputed (no MISSING entries); ``rows`` is
    ``observation_rows(p_a, p_b)`` and ``kern`` is ``transition_kernels(rho)``;
    ``u`` supplies one uniform per cell that :func:`read_cells` marks, in
    row-major order, for the backward draws: ``u_full[read_cells(r)]`` of a
    uniform per cell.
    Steps once per run, over chunks of whole rows of at most ``CHUNK_RUNS``
    runs, so a chunk draws its rows of the whole call.  A lane that loses
    its mass is filtered and drawn again in logs; one that loses it there
    too raises :class:`ForwardUnderflowError`, naming the first locus, and
    the first subject there, whose mass vanishes.
    """
    x = np.ascontiguousarray(x)
    r = np.ascontiguousarray(r)
    u = np.ascontiguousarray(u)
    n_sub = x.shape[0]
    # a row's runs, as its read cells, are 1 + its cells past locus 0 with r > 0
    n_read = n_sub + np.count_nonzero(r[:, 1:])
    if u.shape != (n_read,):
        raise ValueError(f"u has shape {u.shape}: FFBS reads {n_read} cells, a uniform each")
    cuts = _row_chunks(r) if n_read > CHUNK_RUNS else [(0, 0), (n_sub, n_read)]
    # the output before the forward pass's temporaries, below them in the
    # heap: made after them, a sweep's long-lived outputs land ever higher as
    # glibc trims and regrows the heap, and impute's peak RSS crept up by 1-3 MiB
    s = np.empty(x.shape, dtype=np.int8)
    lost = []
    for (a, k0), (b, k1) in zip(cuts, cuts[1:]):
        lost += [(j, a + i) for j, i in _ffbs(x[a:b], r[a:b], rows, kern[..., a:b], u[k0:k1],
                                              s[a:b])]
    if lost:
        locus, subject = min(lost)
        raise ForwardUnderflowError(subject, locus)
    return s


def recombination_counts(s, gamma, kern, u, first_row=0):
    """Sample per-interval recombination counts given the ancestry path.

    ``kern`` is ``transition_kernels(rho)``.  Where ``gamma`` is 1, as at a
    chromosome start, the count is 2.  Weights are computed at the open
    cells only; every other cell draws 0 (see the module docstring).  A cell
    reads only its own row of ``s`` and ``u`` and its subject's kernels, so
    a chunk of rows draws its rows of the whole; its error names subjects
    from ``first_row``, the whole's row of ``s[0]``.
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
                f"zero recombination mass at subject {first_row + i[k]}, locus {j[k]}; "
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
# Successes, then failures, as bytes.translate tables over the 27 codes.
_LINEAGE_COUNTS = tuple(
    _lineage_count_table(informative, per_lineage).tobytes().ljust(256, b"\0")
    for informative, per_lineage in ((((0, 1), (1, 2), (2, 2)), [0, 1, 2]),
                                     (((0, 0), (1, 0), (2, 1)), [2, 1, 0]))
)


def ancestry_count_stats(s, r):
    """Per-subject success/failure counts for the admixture-proportion update.

    Successes count lineages drawn from the high-risk population: the
    informative single-recombination transitions, and both lineages of
    double-recombination arrivals, chromosome starts among them.
    """
    s = np.asarray(s)
    # the code 9 r + 3 s_prev + s of every cell, a byte each in a bytearray,
    # whose translate maps each to its lineage count a byte each: no index
    # array, as np.take would cast the codes to
    code = bytearray(s.size)
    view = np.frombuffer(code, dtype=np.int8).reshape(s.shape)
    np.multiply(r, 3, out=view, casting="unsafe")
    view[:, 1:] += s[:, :-1]
    view[:, :1] += s[:, -1:]   # locus 0 is a start, where r is 2
    view *= 3
    view += s
    # the sums are integers, exact in int32 and in their float64 cast
    successes, failures = (
        np.frombuffer(code.translate(table), dtype=np.uint8).reshape(s.shape)
        .sum(axis=1, dtype=np.int32).astype(np.float64)
        for table in _LINEAGE_COUNTS
    )
    return successes, failures
