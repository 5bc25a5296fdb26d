"""Mutated input files: every reader returns valid data or its named error.

Each example starts from a valid file written by the package and applies
one to three edits: truncation, a flipped byte, an inserted or deleted
byte, or a header edit.  A text reader may only raise DataFormatError and
``load_draws`` only DrawsFileError; any other exception escaping fails the
test.  Half of the draws-file examples renew the CRC after editing, so the
parser behind the checksum sees the edits.  Examples are derandomized and nothing is stored, so
the suite stays deterministic.
"""
import struct
import zlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from admixscan import fileio  # noqa: E402
from admixscan.errors import DataFormatError, DrawsFileError  # noqa: E402
from admixscan.glm import TraitData  # noqa: E402
from admixscan.hmm import MISSING, AimPanel, AncestryDraws, GenotypeMatrix  # noqa: E402

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# bytes that make cells, separators, numbers and broken UTF-8
INSERTED = b"\t\n\r0123NA.-e \x00\xff\xc3"
# u64 m, n_subjects, n_loci, i64 seed, u8 trace flag, then the first sweep index
DRAWS_FIELDS = [(10, "<Q"), (18, "<Q"), (26, "<Q"), (34, "<q"), (42, "<B"), (43, "<q")]


class ValidFiles:
    """Bytes of one valid file per format, and the path mutated copies go to."""

    def __init__(self, files, path):
        self.files = files
        self.path = path

    def __repr__(self):   # keeps falsifying examples short
        return f"ValidFiles({sorted(self.files)})"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    rng = np.random.default_rng(11)
    root = tmp_path_factory.mktemp("fuzz")
    panel = AimPanel(
        marker_ids=[f"rs{j}" for j in range(5)],
        chrom=[1, 1, 1, 2, 2],
        position=[0.0, 0.02, 0.05, 0.0, 0.03],
        p_a0=np.linspace(0.7, 0.9, 5),
        p_b0=np.linspace(0.1, 0.3, 5),
    )
    x = rng.integers(0, 3, size=(4, 5)).astype(np.int8)
    x[1, 2] = MISSING
    trait = TraitData(
        y=np.array([0.0, 1.0, 1.0, 0.0]), kind="binary",
        covariates=rng.standard_normal((4, 2)), covariate_names=["age", "bmi"],
    )
    draws = AncestryDraws(
        draws=rng.integers(0, 3, size=(2, 4, 5)).astype(np.int8),
        sweep_index=np.array([9, 19]),
        traces={"gamma": rng.random((2, 5)), "tau_a": rng.uniform(50, 1000, 2)},
        subject_ids=[f"S{i}" for i in range(4)],
        marker_ids=panel.marker_ids,
        chrom=panel.chrom,
        position=panel.position,
        seed=3,
    )
    fileio.write_panel(panel, root / "panel.tsv")
    fileio.write_genotypes(
        GenotypeMatrix(x=x, subject_ids=draws.subject_ids), panel.marker_ids,
        root / "geno.tsv",
    )
    fileio.write_phenotypes(draws.subject_ids, trait, root / "pheno.tsv")
    fileio.save_draws(draws, root / "draws.adx")
    files = {name: (root / name).read_bytes()
             for name in ("panel.tsv", "geno.tsv", "pheno.tsv", "draws.adx")}
    return ValidFiles(files, root / "mutated")


@st.composite
def edits(draw, header):
    """A list of edits; ``header`` draws one that changes the file's header."""
    ops = ["truncate", "flip", "insert", "delete", "header"]
    out = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(ops))
        where = draw(st.floats(0.0, 1.0))
        if op == "header":
            out.append(("header", draw(header)))
        else:
            out.append((op, where, draw(st.integers(1, 255)), draw(st.sampled_from(INSERTED))))
    return out


def apply_edits(data, ops, edit_header):
    out = bytearray(data)
    for op, *args in ops:
        if op == "header":
            out = edit_header(out, args[0])
            continue
        where, mask, byte = args
        k = min(int(where * len(out)), max(len(out) - 1, 0))
        if op == "truncate":
            del out[k:]
        elif op == "insert":
            out.insert(k, byte)
        elif out and op == "flip":
            out[k] ^= mask
        elif out and op == "delete":
            del out[k]
    return bytes(out)


# text tables: drop, repeat, swap or rename a header column
TEXT_HEADER = st.tuples(
    st.sampled_from(["drop", "repeat", "swap", "rename"]),
    st.integers(0, 6),
    st.integers(0, 6),
    st.text(alphabet="ab_\t", max_size=4),
)


def edit_text_header(data, edit):
    kind, i, j, name = edit
    head, sep, rest = bytes(data).partition(b"\n")
    cols = head.split(b"\t")
    i, j = i % len(cols), j % len(cols)
    if kind == "drop":
        del cols[i]
    elif kind == "repeat":
        cols.insert(j, cols[i])
    elif kind == "swap":
        cols[i], cols[j] = cols[j], cols[i]
    else:
        cols[i] = name.encode()
    return bytearray(b"\t".join(cols) + sep + rest)


def read_mutated(valid, name, ops):
    valid.path.write_bytes(apply_edits(valid.files[name], ops, edit_text_header))
    return valid.path


@FUZZ
@given(ops=edits(TEXT_HEADER))
def test_panel_reader_fuzz(valid, ops):
    try:
        panel = fileio.read_panel(read_mutated(valid, "panel.tsv", ops))
    except DataFormatError:
        return
    n = panel.n_loci
    assert len(set(panel.marker_ids)) == n
    for arr in (panel.position, panel.p_a0, panel.p_b0):
        assert arr.shape == (n,) and np.isfinite(arr).all()


@FUZZ
@given(ops=edits(TEXT_HEADER))
def test_genotype_reader_fuzz(valid, ops):
    try:
        g, marker_ids = fileio.read_genotypes(read_mutated(valid, "geno.tsv", ops))
    except DataFormatError:
        return
    assert g.x.shape == (len(g.subject_ids), len(marker_ids))
    assert len(set(g.subject_ids)) == g.n_subjects
    assert len(set(marker_ids)) == len(marker_ids)


@FUZZ
@given(ops=edits(TEXT_HEADER))
def test_phenotype_reader_fuzz(valid, ops):
    try:
        ids, trait, dropped = fileio.read_phenotypes(
            read_mutated(valid, "pheno.tsv", ops), "binary"
        )
    except DataFormatError:
        return
    assert trait.y.shape == (len(ids),) and len(set(ids)) == len(ids)
    assert trait.covariates.shape == (len(ids), len(trait.covariate_names))
    assert np.isfinite(trait.covariates).all() and set(trait.y) <= {0.0, 1.0}


# draws file: write an integer into a header field
DRAWS_HEADER = st.tuples(
    st.sampled_from(DRAWS_FIELDS),
    st.one_of(st.integers(0, 12), st.integers(-(2 ** 63), 2 ** 64 - 1)),
)


def edit_draws_header(data, edit):
    (offset, fmt), value = edit
    lo, hi = {"<Q": (0, 2 ** 64 - 1), "<q": (-(2 ** 63), 2 ** 63 - 1), "<B": (0, 255)}[fmt]
    out = bytearray(data)
    if len(out) >= offset + struct.calcsize(fmt):
        struct.pack_into(fmt, out, offset, min(max(value, lo), hi))
    return out


@FUZZ
@given(ops=edits(DRAWS_HEADER), renew_crc=st.booleans())
def test_load_draws_fuzz(valid, ops, renew_crc):
    original = valid.files["draws.adx"][:-4]
    payload = apply_edits(original, ops, edit_draws_header)
    crc = zlib.crc32(payload if renew_crc else original)
    valid.path.write_bytes(payload + struct.pack("<I", crc))
    try:
        draws = fileio.load_draws(valid.path)
    except DrawsFileError:
        return
    m, n_sub, n_loc = draws.draws.shape
    assert draws.sweep_index.shape == (m,)
    assert draws.subject_ids is None or len(draws.subject_ids) == n_sub
    assert draws.marker_ids is None or len(draws.marker_ids) == n_loc
    assert draws.draws.size == 0 or draws.draws.max() <= 2
