"""One design through the batch-only scan layer.

``center_ancestries``, ``fit_glm`` and ``bf_for_fit`` take and return
batches, with designs laid out (fits, loci, subjects).  A test that states a
single fit gives its (n, p) design here: it goes in as a batch of one, and
each result comes back with its fit axis unwrapped.
"""
from dataclasses import fields

import numpy as np

from admixscan.glm import FitResult, center_ancestries, fit_glm
from admixscan.qnm import bf_for_fit


def unwrap(batch):
    """The one fit of a batch of one: each batched field's first entry."""
    return type(batch)(**{f.name: getattr(batch, f.name) if f.name == "p"
                          else getattr(batch, f.name)[0] for f in fields(batch)})


def center_one(raw, locus_ids=None):
    """An (n, p) design of raw ancestry counts, centered as a batch of one."""
    raw = np.asarray(raw)
    ids = [*range(raw.shape[1])] if locus_ids is None else list(locus_ids)
    return center_ancestries(raw.T[None], [ids])


def fit_one(trait, raw, locus_ids=None):
    """The fit of one (n, p) design, unwrapped."""
    return unwrap(fit_glm(trait, center_one(raw, locus_ids)))


def bf_one(fit, n_subjects):
    """The Bayes factor of one unwrapped fit, unwrapped."""
    batch = FitResult(**{f.name: [getattr(fit, f.name)] if f.name == "flag"
                         else np.asarray(getattr(fit, f.name))[None] for f in fields(fit)})
    return unwrap(bf_for_fit(batch, n_subjects))
