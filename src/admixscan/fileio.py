"""File formats: tab-separated analysis tables and the packed draws file.

Text formats (all tab-separated with a header row):

panel            marker_id  chrom  position  p_a0  p_b0
genotypes        subject_id  <marker ...>          cells 0/1/2/NA
phenotypes       subject_id  trait  <covariate ...>  NA allowed, row dropped
stage-1 table    locus_id  chrom  position  index  log10_bf  selected  n_imputations  flag
stage-2 table    rank  locus_ids  log10_bf  reported
ALD matrix       marker_id  <marker ...>

Every table is read through one reader and written through one writer.  On
input, rows must match the header's width and neither column names nor
first-column ids may repeat.

Panel positions are Morgans by default; a unit flag converts centimorgan or
megabase inputs (megabases via a user-supplied cM/Mb factor, recorded in
the run manifest).

The draws file is binary: magic, version, dimensions and seed, subject and
marker metadata, the ancestry draws packed two bits per value, parameter
traces as raw float blocks, and a trailing CRC32 of everything before it.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import struct
import zlib
from dataclasses import replace

import numpy as np

from .errors import AlignmentError, DataFormatError, DrawsFileError
from .glm import TraitData
from .hmm import MISSING, AimPanel, AncestryDraws, GenotypeMatrix

log = logging.getLogger(__name__)

DRAWS_MAGIC = b"ADXDRAWS"
DRAWS_VERSION = 1
POSITION_UNITS = ("morgans", "centimorgans", "mb")

_FMT = "%.10g"
_PANEL_COLUMNS = ["marker_id", "chrom", "position", "p_a0", "p_b0"]
_GENOTYPE_CODES = {"0": 0, "1": 1, "2": 2, "NA": MISSING}
_GENOTYPE_TEXT = {code: text for text, code in _GENOTYPE_CODES.items()}
# read_genotypes' one-byte cell codes, NA written as a newline
_GENOTYPE_OF_BYTE = np.zeros(256, dtype=np.int8)
_GENOTYPE_OF_BYTE[[ord(c) for c in "012\n"]] = [0, 1, 2, MISSING]
_STAGE1_COLUMNS = ["locus_id", "chrom", "position", "index", "log10_bf", "selected",
                   "n_imputations", "flag"]


def _fmt(value):
    return _FMT % value


def _read_table(path, prefix, what):
    """Yield a table's header cells, then ``(lineno, row)`` per data row.

    ``row`` is the line without its newline, for the reader to split.  The
    checks every text format shares: a non-empty file, a header that starts
    with ``prefix`` and names no column twice, blank lines skipped, as many
    cells in each row as in the header, and no id repeated in the first
    column.  Errors name the file and the line.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            header = fh.readline()
            if not header:
                raise DataFormatError(f"{path}:1: empty {what} file")
            cols = header.rstrip("\n").split("\t")
            for k, name in enumerate(prefix):
                if k >= len(cols) or cols[k] != name:
                    raise DataFormatError(
                        f"{path}:1: expected column {k + 1} to be {name!r}, "
                        f"found {cols[k] if k < len(cols) else 'nothing'!r}"
                    )
            if len(set(cols)) < len(cols):
                name = next(c for k, c in enumerate(cols) if c in cols[:k])
                raise DataFormatError(f"{path}:1: duplicate column {name!r}")
            yield cols
            seen = set()
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                row = line.rstrip("\n")
                width = row.count("\t") + 1
                if width != len(cols):
                    raise DataFormatError(
                        f"{path}:{lineno}: expected {len(cols)} columns, found {width}"
                    )
                row_id = row.partition("\t")[0]
                if row_id in seen:
                    raise DataFormatError(
                        f"{path}:{lineno}: duplicate {prefix[0]} {row_id!r}"
                    )
                seen.add(row_id)
                yield lineno, row
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None


def _write_table(path, header, rows):
    """Write a tab-separated table: the header, then one line per row of cells."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        fh.writelines("\t".join(cells) + "\n" for cells in rows)


# --- panel -------------------------------------------------------------------


def read_panel(path, position_unit="morgans", cm_per_mb=1.0) -> AimPanel:
    if position_unit not in POSITION_UNITS:
        raise ValueError(f"position_unit must be one of {POSITION_UNITS}")
    if not (math.isfinite(cm_per_mb) and cm_per_mb > 0.0):
        raise ValueError(f"--cm-per-mb must be finite and positive, got {cm_per_mb!r}")
    table = _read_table(path, _PANEL_COLUMNS, "panel")
    next(table)
    marker_ids, columns = [], [[], [], [], []]
    for lineno, row in table:
        cells = row.split("\t")
        marker_ids.append(cells[0])
        for name, value, column in zip(_PANEL_COLUMNS[1:], cells[1:], columns):
            try:
                column.append(np.int64(value) if name == "chrom" else float(value))
            except (ValueError, OverflowError) as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: column {name!r}: cannot parse {value!r}"
                ) from exc
    chrom, position, p_a0, p_b0 = map(np.asarray, columns)
    if position_unit == "centimorgans":
        position = position / 100.0
    elif position_unit == "mb":
        position = position * cm_per_mb / 100.0
    try:
        return AimPanel(marker_ids, chrom, position, p_a0, p_b0)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def write_panel(panel: AimPanel, path):
    rows = zip(panel.marker_ids, panel.chrom.tolist(), panel.position.tolist(),
               panel.p_a0.tolist(), panel.p_b0.tolist())
    _write_table(path, _PANEL_COLUMNS, (
        [mid, str(c), _fmt(pos), _fmt(a), _fmt(b)] for mid, c, pos, a, b in rows
    ))


# --- genotypes ---------------------------------------------------------------


def read_genotypes(path):
    """Returns (GenotypeMatrix, marker_ids from the header)."""
    table = _read_table(path, ["subject_id"], "genotype")
    marker_ids = next(table)[1:]
    if not marker_ids:
        raise DataFormatError(f"{path}:1: no marker columns")
    subject_ids, rows = [], []
    for lineno, row in table:
        subject_id, _, text = row.partition("\t")
        subject_ids.append(subject_id)
        # a row holds no newline, so NA becomes one: the cells of a valid row
        # are then one character of "012\n" each, at the even positions
        text = text.replace("NA", "\n")
        codes = text[::2].encode()
        if len(text) != 2 * len(marker_ids) - 1 or codes.translate(None, b"012\n"):
            cells = row.split("\t")[1:]
            k = next(k for k, c in enumerate(cells) if c not in _GENOTYPE_CODES)
            raise DataFormatError(
                f"{path}:{lineno}: marker {marker_ids[k]!r}, subject "
                f"{subject_id!r}: invalid genotype {cells[k]!r}"
            )
        rows.append(codes)
    if not rows:
        raise DataFormatError(f"{path}: no subject rows")
    chars = np.frombuffer(b"".join(rows), np.uint8)
    x = _GENOTYPE_OF_BYTE.take(chars).reshape(len(rows), len(marker_ids))
    return GenotypeMatrix(x=x, subject_ids=subject_ids), marker_ids


def write_genotypes(genotypes: GenotypeMatrix, marker_ids, path):
    _write_table(path, ["subject_id", *marker_ids], (
        [sid, *map(_GENOTYPE_TEXT.__getitem__, row.tolist())]
        for sid, row in zip(genotypes.subject_ids, genotypes.x)
    ))


def align_genotypes_to_panel(genotypes: GenotypeMatrix, marker_ids, panel: AimPanel):
    """Reorder genotype columns into panel order; ids must match as sets."""
    if list(marker_ids) == list(panel.marker_ids):
        return genotypes
    by_id = {m: k for k, m in enumerate(marker_ids)}
    in_panel = set(panel.marker_ids)
    missing = [m for m in panel.marker_ids if m not in by_id]
    extra = [m for m in marker_ids if m not in in_panel]
    if missing or extra:
        offenders = (missing + extra)[:10]
        raise AlignmentError(
            f"genotype markers do not match the panel; first offenders: {offenders}"
        )
    return replace(genotypes, x=genotypes.x[:, [by_id[m] for m in panel.marker_ids]])


# --- phenotypes --------------------------------------------------------------


def read_phenotypes(path, trait_kind, covariates=None):
    """Returns (subject_ids, TraitData, dropped) after listwise deletion of NA rows.

    ``dropped`` counts the rows deleted for a missing value.
    """
    table = _read_table(path, ["subject_id", "trait"], "phenotype")
    cols = next(table)
    available = cols[2:]
    if covariates is None:
        covariates = available
    else:
        unknown = [c for c in covariates if c not in available]
        if unknown:
            raise DataFormatError(
                f"{path}: covariate columns not present: {unknown}"
            )
    take = [1] + [cols.index(c) for c in covariates]
    subject_ids, y, e = [], [], []
    dropped = 0
    for lineno, row in table:
        cells = row.split("\t")
        wanted = [cells[k] for k in take]
        if "NA" in wanted:
            dropped += 1
            continue
        try:
            values = [float(v) for v in wanted]
        except ValueError as exc:
            raise DataFormatError(
                f"{path}:{lineno}: cannot parse numeric value: {exc}"
            ) from exc
        bad = [k for k, v in enumerate(values) if not math.isfinite(v)]
        if bad:   # "NA" is the only missing token
            raise DataFormatError(f"{path}:{lineno}: column {cols[take[bad[0]]]!r}, subject "
                                  f"{cells[0]!r}: non-finite value {wanted[bad[0]]!r}")
        subject_ids.append(cells[0])
        y.append(values[0])
        e.append(values[1:])
    if not subject_ids:
        raise DataFormatError(f"{path}: no complete phenotype rows")
    try:
        trait = TraitData(
            y=np.asarray(y),
            kind=trait_kind,
            covariates=np.asarray(e).reshape(len(y), len(covariates)),
            covariate_names=list(covariates),
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return subject_ids, trait, dropped


def write_phenotypes(subject_ids, trait: TraitData, path):
    names = trait.covariate_names or [
        f"e{k}" for k in range(trait.n_covariates)
    ]
    rows = zip(subject_ids, trait.y.tolist(), trait.covariates.tolist())
    _write_table(path, ["subject_id", "trait", *names], (
        [sid, _fmt(y), *map(_fmt, cov)] for sid, y, cov in rows
    ))


def align_trait_to_draws(draws: AncestryDraws, subject_ids, trait: TraitData):
    """Subset draws rows to the phenotyped subjects, in draws order."""
    if draws.subject_ids is None:
        if trait.n_subjects != draws.n_subjects:
            raise AlignmentError(
                "draws carry no subject ids and the phenotype row count "
                f"({trait.n_subjects}) does not match ({draws.n_subjects})"
            )
        return draws, trait
    have = {s: k for k, s in enumerate(subject_ids)}
    in_draws = set(draws.subject_ids)
    extra = [s for s in subject_ids if s not in in_draws]
    if extra:
        raise AlignmentError(
            f"phenotype subjects missing from draws; first offenders: {extra[:10]}"
        )
    keep = [i for i, s in enumerate(draws.subject_ids) if s in have]
    if not keep:
        raise AlignmentError("no overlap between draws and phenotype subjects")
    if len(keep) < draws.n_subjects:
        log.info(
            "scanning %d of %d subjects with complete phenotypes",
            len(keep),
            draws.n_subjects,
        )
    order = [have[draws.subject_ids[i]] for i in keep]
    # Copy the draws even when every subject is kept: freeing the loaded
    # original lifts glibc's mmap threshold above stage 1's Newton temporaries.
    # Uncopied, a scan_binary command took 30.1k minor faults, not 7.1k; check
    # ru_minflt before dropping the copy.
    return (
        replace(draws, draws=draws.draws[:, keep, :],
                subject_ids=[draws.subject_ids[i] for i in keep]),
        replace(trait, y=trait.y[order], covariates=trait.covariates[order]),
    )


# --- packed draws file -------------------------------------------------------


def _pack_counts(values):
    flat = values.reshape(-1).astype(np.uint8)
    pad = (-flat.size) % 4
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)])
    quads = flat.reshape(-1, 4)
    return (
        quads[:, 0]
        | (quads[:, 1] << 2)
        | (quads[:, 2] << 4)
        | (quads[:, 3] << 6)
    ).astype(np.uint8)


def _unpack_counts(packed, n_values):
    packed = np.frombuffer(packed, dtype=np.uint8)
    out = np.empty((packed.size, 4), dtype=np.int8)
    out[:, 0] = packed & 3
    out[:, 1] = (packed >> 2) & 3
    out[:, 2] = (packed >> 4) & 3
    out[:, 3] = (packed >> 6) & 3
    return out.reshape(-1)[:n_values]


def _write_str_list(out, items):
    out.append(struct.pack("<I", len(items)))
    for item in items:
        raw = str(item).encode()
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)


class _Reader:
    def __init__(self, data, path):
        self.data = data
        self.path = path
        self.offset = 0

    def take(self, n):
        if self.offset + n > len(self.data):
            raise DrawsFileError(f"{self.path}: truncated draws file")
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n):
        start = self.offset
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise DrawsFileError(
                f"{self.path}: text at byte {start + exc.start} is not UTF-8"
            ) from None

    def str_list(self):
        (count,) = self.unpack("<I")
        items = []
        for _ in range(count):
            (length,) = self.unpack("<H")
            items.append(self.text(length))
        return items

    def array(self, dtype, shape):
        """The next block as an array of 8-byte ``dtype`` values."""
        raw = self.take(8 * math.prod(shape))
        try:
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:
            raise DrawsFileError(f"{self.path}: block of shape {shape}: {exc}") from None


def save_draws(draws: AncestryDraws, path):
    draws.check_ids()
    out = [DRAWS_MAGIC, struct.pack("<H", DRAWS_VERSION)]
    seed = -1 if draws.seed is None else int(draws.seed)
    out.append(
        struct.pack(
            "<QQQq", draws.m, draws.n_subjects, draws.n_loci, seed
        )
    )
    out.append(struct.pack("<B", 1 if draws.traces else 0))
    out.append(draws.sweep_index.astype("<i8").tobytes())
    _write_str_list(out, draws.subject_ids or [])
    _write_str_list(out, draws.marker_ids or [])
    has_panel_meta = draws.chrom is not None and draws.position is not None
    out.append(struct.pack("<B", 1 if has_panel_meta else 0))
    if has_panel_meta:
        out.append(np.asarray(draws.chrom, dtype="<i8").tobytes())
        out.append(np.asarray(draws.position, dtype="<f8").tobytes())
    packed = _pack_counts(draws.draws)
    out.append(struct.pack("<Q", packed.size))
    out.append(packed.tobytes())
    if draws.traces:
        out.append(struct.pack("<I", len(draws.traces)))
        for name in sorted(draws.traces):
            arr = np.asarray(draws.traces[name], dtype="<f8")
            raw = name.encode()
            out.append(struct.pack("<H", len(raw)))
            out.append(raw)
            out.append(struct.pack("<B", arr.ndim))
            out.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            out.append(arr.tobytes())
    payload = b"".join(out)
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_draws(path) -> AncestryDraws:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(DRAWS_MAGIC) + 6:
        raise DrawsFileError(f"{path}: file too short to be a draws file")
    # a view: blob[:-4] would copy the whole payload
    payload, crc_raw = memoryview(blob)[:-4], blob[-4:]
    (crc_stored,) = struct.unpack("<I", crc_raw)
    if zlib.crc32(payload) != crc_stored:
        raise DrawsFileError(f"{path}: checksum mismatch (corrupt or truncated)")
    r = _Reader(payload, path)
    if r.take(len(DRAWS_MAGIC)) != DRAWS_MAGIC:
        raise DrawsFileError(f"{path}: bad magic; not a draws file")
    (version,) = r.unpack("<H")
    if version != DRAWS_VERSION:
        raise DrawsFileError(
            f"{path}: unsupported draws version {version} "
            f"(this build reads {DRAWS_VERSION})"
        )
    m, n_sub, n_loc, seed = r.unpack("<QQQq")
    (has_traces,) = r.unpack("<B")
    sweep_index = r.array("<i8", (m,))
    subject_ids = r.str_list() or None
    marker_ids = r.str_list() or None
    for ids, n, what in ((subject_ids, n_sub, "subject"), (marker_ids, n_loc, "marker")):
        if ids is not None and len(ids) != n:
            raise DrawsFileError(f"{path}: {len(ids)} {what} ids for {n} {what}s")
    (has_panel_meta,) = r.unpack("<B")
    chrom = position = None
    if has_panel_meta:
        chrom = r.array("<i8", (n_loc,))
        position = r.array("<f8", (n_loc,))
    (n_packed,) = r.unpack("<Q")
    n_values = m * n_sub * n_loc
    if n_packed != -(-n_values // 4):
        raise DrawsFileError(
            f"{path}: {n_packed} packed bytes for {m} x {n_sub} x {n_loc} draws, "
            f"expected {-(-n_values // 4)}"
        )
    # AncestryDraws refuses a value 3, naming its draw, subject and locus
    draws = _unpack_counts(r.take(n_packed), n_values)
    traces = {}
    if has_traces:
        (n_traces,) = r.unpack("<I")
        for _ in range(n_traces):
            (name_len,) = r.unpack("<H")
            name = r.text(name_len)
            (ndim,) = r.unpack("<B")
            traces[name] = r.array("<f8", r.unpack(f"<{ndim}Q"))
    if r.offset != len(payload):
        raise DrawsFileError(
            f"{path}: {len(payload) - r.offset} unread bytes after the last block"
        )
    try:
        return AncestryDraws(
            draws=draws.reshape(m, n_sub, n_loc),
            sweep_index=sweep_index,
            traces=traces,
            subject_ids=subject_ids,
            marker_ids=marker_ids,
            chrom=chrom,
            position=position,
            seed=None if seed == -1 else seed,
        )
    except ValueError as exc:
        raise DrawsFileError(f"{path}: {exc}") from exc


# --- scan output tables ------------------------------------------------------


def write_stage1_table(result, draws, path):
    chrom, position = draws.chrom, draws.position
    _write_table(path, _STAGE1_COLUMNS, (
        [
            row.locus_id,
            "NA" if chrom is None else str(int(chrom[row.index])),
            "NA" if position is None else _fmt(position[row.index]),
            str(row.index),
            "NA" if np.isnan(row.log10_bf) else _fmt(row.log10_bf),
            str(int(row.selected)),
            str(row.n_imputations_used),
            row.flag or "",
        ]
        for row in result.stage1
    ))


def write_stage2_table(result, path, reported=None):
    reported_ranks = {e.rank for e in (reported or [])}
    _write_table(path, ["rank", "locus_ids", "log10_bf", "reported"], (
        [str(e.rank), ",".join(e.locus_ids), _fmt(e.log10_bf),
         str(int(e.rank in reported_ranks))]
        for e in result.stage2 or []
    ))


def write_ald_matrix(corr, marker_ids, path):
    marker_ids = marker_ids or [str(j) for j in range(corr.shape[0])]
    _write_table(path, ["marker_id", *marker_ids], (
        [mid, *map(_fmt, row.tolist())] for mid, row in zip(marker_ids, corr)
    ))


def write_rows_table(rows, path):
    """Write a list of homogeneous dicts as a TSV headed by the first row's keys."""
    keys = list(rows[0]) if rows else []
    _write_table(path, keys, (
        [_fmt(row[k]) if isinstance(row[k], float) else str(row[k]) for k in keys]
        for row in rows
    ))


# --- run manifest ------------------------------------------------------------


_HASH_CHUNK = 1 << 20


def file_sha256(path):
    """Hex SHA-256 of a file, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_HASH_CHUNK), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(path, command, config, inputs=None):
    """``inputs`` maps each input option to the SHA-256 of the file it read."""
    from . import __version__

    record = {
        "tool": "admixscan",
        "version": __version__,
        "numpy": np.__version__,
        "command": command,
        "config": config,
        "inputs": dict(inputs or {}),
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path):
    with open(path) as fh:
        record = json.load(fh)
    for key in ("tool", "command", "config"):
        if key not in record:
            raise DataFormatError(f"{path}: manifest missing {key!r}")
    if not isinstance(record.get("inputs", {}), dict):
        raise DataFormatError(f"{path}: manifest 'inputs' is not a mapping")
    return record
