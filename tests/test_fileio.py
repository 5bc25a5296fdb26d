import dataclasses
import hashlib
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from admixscan import fileio
from admixscan.errors import AlignmentError, DataFormatError, DrawsFileError
from admixscan.glm import TraitData
from admixscan.hmm import AimPanel, AncestryDraws, GenotypeMatrix, MISSING


def make_panel(n=5):
    return AimPanel(
        marker_ids=[f"rs{j}" for j in range(n)],
        chrom=[1] * (n - 2) + [2] * 2,
        position=[0.0, 0.02, 0.05, 0.0, 0.03][:n],
        p_a0=np.linspace(0.7, 0.9, n),
        p_b0=np.linspace(0.1, 0.3, n),
    )


def make_draws(rng, m=3, n_sub=6, n_loc=5, with_meta=True):
    draws = rng.integers(0, 3, size=(m, n_sub, n_loc)).astype(np.int8)
    traces = {
        "gamma": rng.random((m, n_loc)),
        "rho": rng.random((m, n_sub)),
        "tau_a": rng.uniform(50, 1000, m),
    }
    return AncestryDraws(
        draws=draws,
        sweep_index=np.arange(m) * 10 + 9,
        traces=traces,
        subject_ids=[f"S{i}" for i in range(n_sub)] if with_meta else None,
        marker_ids=[f"rs{j}" for j in range(n_loc)] if with_meta else None,
        chrom=np.array([1, 1, 1, 2, 2]) if with_meta else None,
        position=np.linspace(0, 0.1, n_loc) if with_meta else None,
        seed=42 if with_meta else None,
    )


def same_value(a, b):
    """Equality for record fields: arrays by value, dicts key by key."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestPanelRoundTrip:
    def test_round_trip(self, tmp_path):
        panel = make_panel()
        path = tmp_path / "panel.tsv"
        fileio.write_panel(panel, path)
        back = fileio.read_panel(path)
        assert back.marker_ids == panel.marker_ids
        assert np.array_equal(back.chrom, panel.chrom)
        assert np.allclose(back.position, panel.position)
        assert np.allclose(back.p_a0, panel.p_a0)

    @pytest.mark.parametrize("unit", ["cM", "Morgans", ""])
    def test_unknown_position_unit_refused(self, tmp_path, unit):
        fileio.write_panel(make_panel(), tmp_path / "panel.tsv")
        with pytest.raises(ValueError, match=r"^position_unit must be one of \('morgans', "):
            fileio.read_panel(tmp_path / "panel.tsv", position_unit=unit)

    def test_blank_lines_skipped(self, tmp_path):
        # a line of nothing but whitespace is blank too; line numbers still
        # count it, so the error names the file's own line
        path = tmp_path / "panel.tsv"
        path.write_text("marker_id\tchrom\tposition\tp_a0\tp_b0\n\n"
                        "a\t1\t0\t0.8\t0.2\n \t\n\n"
                        "b\t1\t0.05\t0.7\t0.1\n\n")
        assert fileio.read_panel(path).marker_ids == ["a", "b"]
        path.write_text(path.read_text() + "c\t1\t0.1\t0.7\n")
        with pytest.raises(DataFormatError, match=r"panel.tsv:8: expected 5 columns, found 4"):
            fileio.read_panel(path)

    def test_centimorgan_unit(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text(
            "marker_id\tchrom\tposition\tp_a0\tp_b0\n"
            "a\t1\t0\t0.8\t0.2\n"
            "b\t1\t5\t0.7\t0.1\n"
        )
        panel = fileio.read_panel(path, position_unit="centimorgans")
        assert panel.d[1] == pytest.approx(0.05)

    def test_megabase_unit_with_conversion(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text(
            "marker_id\tchrom\tposition\tp_a0\tp_b0\n"
            "a\t1\t0\t0.8\t0.2\n"
            "b\t1\t10\t0.7\t0.1\n"
        )
        panel = fileio.read_panel(path, position_unit="mb", cm_per_mb=1.3)
        assert panel.d[1] == pytest.approx(0.13)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_cm_per_mb_must_be_finite_and_positive(self, tmp_path, value):
        # 0 used to collapse every position, -1 and nan were blamed on the file
        path = tmp_path / "panel.tsv"
        path.write_text(
            "marker_id\tchrom\tposition\tp_a0\tp_b0\n"
            "m1\t1\t0\t0.8\t0.2\n"
            "m2\t1\t10\t0.7\t0.1\n"
        )
        with pytest.raises(ValueError, match="--cm-per-mb"):
            fileio.read_panel(path, position_unit="mb", cm_per_mb=value)

    def test_bad_header_reported_with_position(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text("marker\tchrom\tposition\tp_a0\tp_b0\n")
        with pytest.raises(DataFormatError, match="panel.tsv:1"):
            fileio.read_panel(path)

    def test_bad_cell_reported_with_line_and_column(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text(
            "marker_id\tchrom\tposition\tp_a0\tp_b0\n"
            "a\t1\tzero\t0.8\t0.2\n"
        )
        with pytest.raises(DataFormatError, match="panel.tsv:2.*position"):
            fileio.read_panel(path)

    def test_chromosome_beyond_int64_names_line_and_column(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text(
            "marker_id\tchrom\tposition\tp_a0\tp_b0\n"
            "a\t99999999999999999999\t0\t0.8\t0.2\n"
        )
        with pytest.raises(DataFormatError, match="panel.tsv:2: column 'chrom'"):
            fileio.read_panel(path)

    def test_duplicate_marker_id_names_id_and_line(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text(
            "marker_id\tchrom\tposition\tp_a0\tp_b0\n"
            "a\t1\t0\t0.8\t0.2\n"
            "b\t1\t0.1\t0.7\t0.1\n"
            "a\t1\t0.2\t0.7\t0.1\n"
        )
        with pytest.raises(DataFormatError, match="panel.tsv:4: duplicate marker_id 'a'"):
            fileio.read_panel(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text(
            "marker_id\tchrom\tposition\tp_a0\tp_b0\n"
            "a\t1\t0\t0.8\t0.2\n"
            "b\t1\t0.1\tnan\t0.1\n"
        )
        with pytest.raises(DataFormatError, match="p_a0 is not finite at marker 'b'"):
            fileio.read_panel(path)

    def test_split_chromosome_names_path_chromosome_and_marker(self, tmp_path):
        path = tmp_path / "panel.tsv"
        path.write_text(
            "marker_id\tchrom\tposition\tp_a0\tp_b0\n"
            "a\t1\t0\t0.8\t0.2\n"
            "b\t2\t0\t0.7\t0.1\n"
            "c\t1\t0.1\t0.7\t0.1\n"
        )
        with pytest.raises(
            DataFormatError, match="panel.tsv: chromosome 1 resumes at marker 'c'"
        ):
            fileio.read_panel(path)


class TestGenotypeRoundTrip:
    def test_round_trip_with_missing(self, tmp_path, rng):
        x = rng.integers(0, 3, size=(4, 5)).astype(np.int8)
        x[0, 2] = MISSING
        g = GenotypeMatrix(x=x, subject_ids=[f"S{i}" for i in range(4)])
        path = tmp_path / "geno.tsv"
        fileio.write_genotypes(g, [f"rs{j}" for j in range(5)], path)
        back, marker_ids = fileio.read_genotypes(path)
        assert marker_ids == [f"rs{j}" for j in range(5)]
        assert np.array_equal(back.x, x)
        assert back.subject_ids == g.subject_ids

    def test_invalid_cell_names_subject_and_marker(self, tmp_path):
        path = tmp_path / "geno.tsv"
        path.write_text("subject_id\trs0\trs1\nS0\t0\t3\n")
        with pytest.raises(DataFormatError, match="'rs1'.*'S0'.*'3'"):
            fileio.read_genotypes(path)

    def test_duplicate_subject_names_id_and_line(self, tmp_path):
        path = tmp_path / "geno.tsv"
        path.write_text("subject_id\trs0\nS0\t0\nS1\t1\nS0\t2\n")
        with pytest.raises(DataFormatError, match="geno.tsv:4: duplicate subject_id 'S0'"):
            fileio.read_genotypes(path)

    def test_duplicate_marker_column_rejected(self, tmp_path):
        path = tmp_path / "geno.tsv"
        path.write_text("subject_id\trs0\trs1\trs0\nS0\t0\t1\t2\n")
        with pytest.raises(DataFormatError, match="geno.tsv:1: duplicate column 'rs0'"):
            fileio.read_genotypes(path)

    def test_na_becomes_missing_sentinel(self, tmp_path):
        path = tmp_path / "geno.tsv"
        path.write_text("subject_id\trs0\nS0\tNA\n")
        g, _ = fileio.read_genotypes(path)
        assert g.x[0, 0] == MISSING

    def test_na_at_either_end_and_a_whole_row(self, tmp_path):
        path = tmp_path / "geno.tsv"
        path.write_text("subject_id\trs0\trs1\trs2\nS0\tNA\t1\tNA\nS1\tNA\tNA\tNA\n"
                        "S2\t2\tNA\t0\n")
        g, _ = fileio.read_genotypes(path)
        want = [[MISSING, 1, MISSING], [MISSING] * 3, [2, MISSING, 0]]
        assert g.x.dtype == np.int8
        assert np.array_equal(g.x, want)

    @pytest.mark.parametrize("token", ["3", "-1", "N", "A", "", "NA ", "00", "\u00e9", "\uff12"])
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_invalid_cell_names_line_marker_and_subject(self, tmp_path, token, k):
        # the bad cell sits among valid ones, NA next to it, on the second row
        cells = ["1", "NA", "0", "NA", "2"]
        cells[k] = token
        path = tmp_path / "geno.tsv"
        path.write_text("subject_id\trs0\trs1\trs2\trs3\trs4\n"
                        "S0\t0\t1\t2\tNA\t0\n"
                        "S1\t" + "\t".join(cells) + "\n", encoding="utf-8")
        message = f"{path}:3: marker 'rs{k}', subject 'S1': invalid genotype {token!r}"
        with pytest.raises(DataFormatError) as err:
            fileio.read_genotypes(path)
        assert str(err.value) == message

    def test_first_invalid_cell_of_a_row_is_named(self, tmp_path):
        path = tmp_path / "geno.tsv"
        path.write_text("subject_id\trs0\trs1\trs2\nS0\tNA\tN\t3\n")
        with pytest.raises(DataFormatError, match="marker 'rs1', subject 'S0': invalid genotype 'N'$"):
            fileio.read_genotypes(path)

    def test_crlf_file_reads_as_the_lf_file(self, tmp_path, rng):
        x = rng.integers(0, 3, size=(6, 9)).astype(np.int8)
        x[rng.random(x.shape) < 0.3] = MISSING
        x[:, 0] = MISSING
        x[2] = MISSING
        g = GenotypeMatrix(x=x, subject_ids=[f"S{i}" for i in range(6)])
        lf = tmp_path / "lf.tsv"
        crlf = tmp_path / "crlf.tsv"
        fileio.write_genotypes(g, [f"rs{j}" for j in range(9)], lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in crlf.read_bytes()
        (a, ids_a), (b, ids_b) = fileio.read_genotypes(lf), fileio.read_genotypes(crlf)
        assert ids_a == ids_b == [f"rs{j}" for j in range(9)]
        assert a.subject_ids == b.subject_ids == g.subject_ids
        assert a.x.dtype == b.x.dtype == np.int8
        assert np.array_equal(a.x, x) and np.array_equal(b.x, x)

    def test_column_reordering_by_marker_id(self, tmp_path, rng):
        panel = make_panel()
        x = rng.integers(0, 3, size=(3, 5)).astype(np.int8)
        g = GenotypeMatrix(x=x, subject_ids=["a", "b", "c"])
        shuffled = [panel.marker_ids[k] for k in (2, 0, 1, 4, 3)]
        aligned = fileio.align_genotypes_to_panel(
            GenotypeMatrix(x=x[:, (2, 0, 1, 4, 3)], subject_ids=g.subject_ids),
            shuffled,
            panel,
        )
        assert np.array_equal(aligned.x, x)
        assert aligned.subject_ids == g.subject_ids

    def test_marker_mismatch_lists_offenders(self, rng):
        panel = make_panel()
        g = GenotypeMatrix(
            x=rng.integers(0, 3, size=(2, 5)).astype(np.int8),
            subject_ids=["a", "b"],
        )
        with pytest.raises(AlignmentError, match="offenders"):
            fileio.align_genotypes_to_panel(
                g, ["rs0", "rs1", "rs2", "rs3", "other"], panel
            )


class TestPhenotypes:
    def test_round_trip_and_listwise_deletion(self, tmp_path):
        path = tmp_path / "pheno.tsv"
        path.write_text(
            "subject_id\ttrait\tage\nS0\t1.5\t30\nS1\tNA\t40\nS2\t2.5\tNA\nS3\t0.5\t20\n"
        )
        ids, trait, dropped = fileio.read_phenotypes(path, "continuous")
        assert ids == ["S0", "S3"]
        assert dropped == 2
        assert np.allclose(trait.y, [1.5, 0.5])
        assert np.allclose(trait.covariates[:, 0], [30, 20])

    def test_covariate_subset_selection(self, tmp_path):
        path = tmp_path / "pheno.tsv"
        path.write_text(
            "subject_id\ttrait\tage\tsmoke\nS0\t1\t30\t0\nS1\t0\t40\t1\n"
        )
        ids, trait, _ = fileio.read_phenotypes(
            path, "binary", covariates=["smoke"]
        )
        assert trait.covariate_names == ["smoke"]
        assert np.allclose(trait.covariates[:, 0], [0, 1])

    def test_unknown_covariate_rejected(self, tmp_path):
        path = tmp_path / "pheno.tsv"
        path.write_text("subject_id\ttrait\tage\nS0\t1\t30\n")
        with pytest.raises(DataFormatError, match="bmi"):
            fileio.read_phenotypes(path, "continuous", covariates=["bmi"])

    def test_duplicate_subject_names_id_and_line(self, tmp_path):
        # used to keep only the last S0 row once aligned to the draws
        path = tmp_path / "pheno.tsv"
        path.write_text("subject_id\ttrait\nS0\t1\nS0\t5\nS1\t2\n")
        with pytest.raises(DataFormatError, match="pheno.tsv:3: duplicate subject_id 'S0'"):
            fileio.read_phenotypes(path, "continuous")

    @pytest.mark.parametrize("kind,message", [
        ("binary", "binary trait has a single class"),
        ("count", "count trait has no events"),
    ], ids=["binary", "count"])
    def test_trait_without_variation_names_file_and_kind(self, tmp_path, kind,
                                                         message):
        # TraitData refuses it: logit or log of the trait mean starts the fit
        path = tmp_path / "pheno.tsv"
        value = "1" if kind == "binary" else "0"
        path.write_text(f"subject_id\ttrait\nS0\t{value}\nS1\t{value}\nS2\tNA\n")
        with pytest.raises(DataFormatError, match=f"pheno.tsv: {message}"):
            fileio.read_phenotypes(path, kind)

    @pytest.mark.parametrize("rows,where", [
        ("S0\t1\t30\nS1\tinf\t40\n", ":3: column 'trait', subject 'S1': non-finite value 'inf'"),
        ("S0\t1\tnan\nS1\t2\t40\n", ":2: column 'age', subject 'S0': non-finite value 'nan'"),
    ], ids=["inf_trait", "nan_covariate"])
    def test_non_finite_cell_names_line_column_and_subject(self, tmp_path, rows, where):
        # used to say only "trait contains non-finite values"; NA stays the
        # only missing token, so a nan cell is refused rather than dropped
        path = tmp_path / "pheno.tsv"
        path.write_text("subject_id\ttrait\tage\n" + rows)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path) + where)}$"):
            fileio.read_phenotypes(path, "continuous")

    def test_align_trait_to_draws_subsets_rows(self, rng):
        draws = make_draws(rng)
        trait = TraitData(
            y=np.arange(4.0), kind="continuous",
            covariates=np.zeros((4, 0)),
        )
        sub, tr = fileio.align_trait_to_draws(
            draws, ["S4", "S1", "S3", "S0"], trait
        )
        assert sub.subject_ids == ["S0", "S1", "S3", "S4"]
        assert np.allclose(tr.y, [3.0, 1.0, 2.0, 0.0])
        assert np.array_equal(sub.draws[:, 0, :], draws.draws[:, 0, :])

    def test_alignment_keeps_every_field_it_does_not_subset(self, rng):
        # walks the records' own field lists, so a field added later is
        # checked here without editing the test
        draws = make_draws(rng)
        covariates = np.arange(8.0).reshape(4, 2)
        trait = TraitData(y=np.arange(4.0), kind="count", covariates=covariates,
                          covariate_names=["age", "site"])
        sub, tr = fileio.align_trait_to_draws(draws, ["S4", "S1", "S3", "S0"], trait)
        for old, new, changed in ((draws, sub, {"draws", "subject_ids"}),
                                  (trait, tr, {"y", "covariates"})):
            for f in dataclasses.fields(old):
                if f.name not in changed:
                    assert same_value(getattr(new, f.name), getattr(old, f.name)), f.name
        assert sub.draws.shape == (3, 4, 5)
        assert np.array_equal(tr.covariates, covariates[[3, 1, 2, 0]])

    def test_unknown_phenotype_subject_rejected(self, rng):
        draws = make_draws(rng)
        trait = TraitData(y=np.zeros(1), kind="continuous")
        with pytest.raises(AlignmentError, match="ghost"):
            fileio.align_trait_to_draws(draws, ["ghost"], trait)


class TestDrawsFile:
    def test_round_trip(self, tmp_path, rng):
        draws = make_draws(rng)
        path = tmp_path / "draws.adx"
        fileio.save_draws(draws, path)
        back = fileio.load_draws(path)
        assert np.array_equal(back.draws, draws.draws)
        assert np.array_equal(back.sweep_index, draws.sweep_index)
        assert back.subject_ids == draws.subject_ids
        assert back.marker_ids == draws.marker_ids
        assert np.array_equal(back.chrom, draws.chrom)
        assert np.allclose(back.position, draws.position)
        assert back.seed == 42
        for key in draws.traces:
            assert np.array_equal(back.traces[key], draws.traces[key])

    def test_minimal_single_draw_file(self, tmp_path, rng):
        draws = AncestryDraws(
            draws=rng.integers(0, 3, size=(1, 2, 3)).astype(np.int8),
            sweep_index=np.zeros(1, dtype=np.int64),
        )
        path = tmp_path / "draws.adx"
        fileio.save_draws(draws, path)
        back = fileio.load_draws(path)
        assert back.m == 1
        assert back.subject_ids is None
        assert back.seed is None

    def test_truncated_file_fails_checksum(self, tmp_path, rng):
        path = tmp_path / "draws.adx"
        fileio.save_draws(make_draws(rng), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(DrawsFileError, match="checksum|truncated"):
            fileio.load_draws(path)

    def test_corrupt_byte_fails_checksum(self, tmp_path, rng):
        path = tmp_path / "draws.adx"
        fileio.save_draws(make_draws(rng), path)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DrawsFileError, match="checksum"):
            fileio.load_draws(path)

    def test_version_mismatch_refused(self, tmp_path, rng):
        path = tmp_path / "draws.adx"
        fileio.save_draws(make_draws(rng), path)
        blob = bytearray(path.read_bytes()[:-4])
        blob[8:10] = struct.pack("<H", 99)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)))
        path.write_bytes(bytes(blob))
        with pytest.raises(DrawsFileError, match="version 99"):
            fileio.load_draws(path)

    def test_not_a_draws_file(self, tmp_path):
        path = tmp_path / "nope.adx"
        path.write_text("just text that is long enough to get past length checks")
        with pytest.raises(DrawsFileError):
            fileio.load_draws(path)

    def test_packing_is_two_bits_per_entry(self, tmp_path, rng):
        n_sub, n_loc, m = 40, 50, 8
        draws = AncestryDraws(
            draws=rng.integers(0, 3, size=(m, n_sub, n_loc)).astype(np.int8),
            sweep_index=np.arange(m, dtype=np.int64),
        )
        path = tmp_path / "draws.adx"
        fileio.save_draws(draws, path)
        # packed section dominates: 2 bits per value plus bounded overhead
        assert path.stat().st_size < m * n_sub * n_loc / 4 + 300

    def test_load_peak_memory_per_draw_cell(self, tmp_path, rng):
        # the file's bytes (0.25 B a cell), the unpacked draws (1 B) and their
        # unpacking temporaries (~0.5 B); a copy of the payload (0.25 B) and
        # full-size range-check masks (1 B each) would take it to ~3.5 B
        m, n_sub, n_loc = 10, 200, 1000
        draws = AncestryDraws(
            draws=rng.integers(0, 3, size=(m, n_sub, n_loc)).astype(np.int8),
            sweep_index=np.arange(m, dtype=np.int64),
        )
        path = tmp_path / "draws.adx"
        fileio.save_draws(draws, path)
        tracemalloc.start()
        try:
            back = fileio.load_draws(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.draws, draws.draws)
        assert peak < 2.5 * draws.draws.size, f"peak {peak / draws.draws.size:.2f} B a cell"


def rewrite_payload(path, edit):
    """Apply ``edit`` to a draws file's payload in place and renew its CRC."""
    payload = bytearray(path.read_bytes()[:-4])
    edit(payload)
    path.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))


N_SUBJECTS_AT, N_LOCI_AT = 18, 26   # u64 header fields after magic and version


class TestInconsistentDrawsFile:
    """Files whose checksum is valid but whose blocks disagree."""

    @pytest.mark.parametrize("offset,value", [(N_LOCI_AT, 2), (N_SUBJECTS_AT, 7)])
    def test_packed_byte_count_checked(self, tmp_path, rng, offset, value):
        path = tmp_path / "draws.adx"
        fileio.save_draws(make_draws(rng, with_meta=False), path)
        rewrite_payload(path, lambda p: struct.pack_into("<Q", p, offset, value))
        with pytest.raises(DrawsFileError, match="draws.adx: 23 packed bytes"):
            fileio.load_draws(path)

    @pytest.mark.parametrize(
        "offset,value,message",
        [(N_SUBJECTS_AT, 4, "6 subject ids for 4 subjects"),
         (N_LOCI_AT, 4, "5 marker ids for 4 markers")],
    )
    def test_id_list_length_checked(self, tmp_path, rng, offset, value, message):
        path = tmp_path / "draws.adx"
        fileio.save_draws(make_draws(rng), path)
        rewrite_payload(path, lambda p: struct.pack_into("<Q", p, offset, value))
        with pytest.raises(DrawsFileError, match=f"draws.adx: {message}"):
            fileio.load_draws(path)

    def test_trailing_bytes_refused(self, tmp_path, rng):
        path = tmp_path / "draws.adx"
        fileio.save_draws(make_draws(rng), path)
        rewrite_payload(path, lambda p: p.extend(b"\0\0\0"))
        with pytest.raises(DrawsFileError, match="draws.adx: 3 unread bytes"):
            fileio.load_draws(path)

    def test_packed_value_three_refused(self, tmp_path, rng):
        # 2 x 2 x 3 values fill three packed bytes, the last block of a file
        # without traces or metadata
        path = tmp_path / "draws.adx"
        fileio.save_draws(AncestryDraws(
            draws=rng.integers(0, 3, size=(2, 2, 3)).astype(np.int8),
            sweep_index=np.arange(2),
        ), path)

        def set_value_to_three(payload):
            payload[-2] |= 0b11 << 4   # value 6 of 12: draw 1, subject 0, locus 0

        rewrite_payload(path, set_value_to_three)
        with pytest.raises(
            DrawsFileError, match="draws.adx: ancestry value 3 in draw 1, subject 0, locus 0"
        ):
            fileio.load_draws(path)

    @pytest.mark.parametrize("value", [3, -1])
    def test_constructor_names_the_first_value_outside_the_states(self, value):
        draws = np.ones((2, 3, 4), dtype=np.int8)
        draws[1, 2, 0] = value
        draws[1, 2, 3] = 3
        with pytest.raises(ValueError, match=rf"^ancestry value {value} in draw 1, subject 2, locus 0$"):
            AncestryDraws(draws=draws, sweep_index=[0, 1])

    @pytest.mark.parametrize("value, dtype, shown", [
        (257, np.int64, "257"),     # an int8 cast wraps it to 1
        (258, np.int32, "258"),     # and this to 2
        (0.5, np.float64, "0.5"),   # and this to 0
    ])
    def test_constructor_names_a_value_an_int8_cast_would_wrap(self, value, dtype, shown):
        draws = np.ones((2, 3, 4), dtype=dtype)
        draws[1, 2, 0] = value
        draws[1, 2, 3] = 3
        with pytest.raises(ValueError, match=rf"^ancestry value {shown} in draw 1, subject 2, locus 0$"):
            AncestryDraws(draws=draws, sweep_index=[0, 1])

    def test_undecodable_id_refused(self, tmp_path, rng):
        path = tmp_path / "draws.adx"
        fileio.save_draws(make_draws(rng), path)

        def break_id(payload):
            payload[payload.index(b"S3")] = 0xFF

        rewrite_payload(path, break_id)
        with pytest.raises(DrawsFileError, match="draws.adx: text at byte .* is not UTF-8"):
            fileio.load_draws(path)


class TestDuplicateDrawsIds:
    """Phenotype rows are keyed by subject id, so draws ids must be unique."""

    def test_constructor_names_the_repeated_id(self, rng):
        with pytest.raises(ValueError, match="duplicate subject id 'S0'"):
            AncestryDraws(draws=np.zeros((1, 3, 2), dtype=np.int8),
                          sweep_index=[0], subject_ids=["S0", "S0", "S1"])
        with pytest.raises(ValueError, match="duplicate marker id 'rs1'"):
            AncestryDraws(draws=np.zeros((1, 3, 2), dtype=np.int8),
                          sweep_index=[0], marker_ids=["rs1", "rs1"])

    def test_save_refuses_repeated_subject(self, tmp_path, rng):
        draws = make_draws(rng)
        draws.subject_ids[1] = "S0"
        with pytest.raises(ValueError, match="duplicate subject id 'S0'"):
            fileio.save_draws(draws, tmp_path / "draws.adx")
        assert not (tmp_path / "draws.adx").exists()

    @pytest.mark.parametrize("old,new,message", [
        (b"S1", b"S0", "duplicate subject id 'S0'"),
        (b"rs4", b"rs2", "duplicate marker id 'rs2'"),
    ])
    def test_load_refuses_repeated_id(self, tmp_path, rng, old, new, message):
        # with subject ids S0, S0, S1 and phenotypes S0 = 1, S1 = 2 the
        # alignment used to pair both S0 rows with one phenotype: y = [1, 1, 2]
        path = tmp_path / "draws.adx"
        fileio.save_draws(make_draws(rng), path)

        def rename(payload):
            at = payload.index(old)
            payload[at:at + len(old)] = new

        rewrite_payload(path, rename)
        with pytest.raises(DrawsFileError, match=f"draws.adx: {message}"):
            fileio.load_draws(path)


class TestDrawsIdsThatBreakRows:
    """Draws ids head the rows of tab-separated tables, so none may hold a tab or line break."""

    @pytest.mark.parametrize("what, name", [("subject", "S\t0"), ("subject", "S\r0"),
                                            ("marker", "m2\nx")])
    def test_constructor_names_the_id(self, what, name):
        ids = {"subject_ids": ["S1", "S2"], "marker_ids": ["m1", "m2"]}
        ids[f"{what}_ids"][0] = name
        message = f"{what} id {name!r} holds a tab or line break"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AncestryDraws(draws=np.zeros((1, 2, 2), dtype=np.int8), sweep_index=[0], **ids)

    def test_save_refuses_and_writes_nothing(self, tmp_path, rng):
        draws = make_draws(rng)
        draws.marker_ids[1] = "m\t1"
        with pytest.raises(ValueError, match=re.escape("marker id 'm\\t1' holds a tab or line")):
            fileio.save_draws(draws, tmp_path / "draws.adx")
        assert not (tmp_path / "draws.adx").exists()

    @pytest.mark.parametrize("old, new, what", [
        (b"S3", b"S\t3", "subject"),
        (b"rs2", b"m2\nx", "marker"),
        (b"rs4", b"r\r4", "marker"),
    ])
    def test_load_refuses_the_id(self, tmp_path, rng, old, new, what):
        # such ids used to load and scan with exit 0, writing stage-1 rows of
        # 9 columns and rows split across two lines
        path = tmp_path / "draws.adx"
        fileio.save_draws(make_draws(rng), path)

        def rename(payload):   # the id and its u16 length before it
            at = payload.index(old)
            payload[at - 2:at + len(old)] = struct.pack("<H", len(new)) + new

        rewrite_payload(path, rename)
        message = f"draws.adx: {what} id {new.decode()!r} holds a tab or line break"
        with pytest.raises(DrawsFileError, match=re.escape(message)):
            fileio.load_draws(path)


class TestDrawsMetadata:
    """A draws record is checked where it is built, and again when saved."""

    @pytest.mark.parametrize("given, message", [
        ({"subject_ids": ["S0", "S1"]}, "^2 subject ids for 6 subjects$"),
        ({"marker_ids": [f"rs{j}" for j in range(7)]}, "^7 marker ids for 5 markers$"),
        ({"position": None}, "^chrom and position must be given together$"),
        ({"chrom": None}, "^chrom and position must be given together$"),
        ({"chrom": np.ones(4, dtype=np.int64)}, r"^chrom of shape \(4,\) for 5 markers$"),
        ({"position": np.zeros((1, 5))}, r"^position of shape \(1, 5\) for 5 markers$"),
    ], ids=["short subject ids", "long marker ids", "chrom alone", "position alone",
            "short chrom", "2-D position"])
    def test_constructor_names_the_counts(self, rng, given, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(make_draws(rng), **given)

    def test_save_refuses_short_marker_ids(self, tmp_path, rng):
        # such a record once saved a file that load_draws refused, and a scan
        # of it raised IndexError at its last locus
        draws = make_draws(rng)
        draws.marker_ids = draws.marker_ids[:4]
        with pytest.raises(ValueError, match="^4 marker ids for 5 markers$"):
            fileio.save_draws(draws, tmp_path / "draws.adx")
        assert not (tmp_path / "draws.adx").exists()


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        fileio.write_manifest(path, "scan", {"delta": 2.0, "seed": 7})
        record = fileio.read_manifest(path)
        assert record["command"] == "scan"
        assert record["config"]["delta"] == 2.0
        assert record["tool"] == "admixscan"

    def test_inputs_recorded(self, tmp_path):
        data = tmp_path / "data.bin"
        data.write_bytes(bytes(range(256)) * 5000)   # more than one read chunk
        digest = fileio.file_sha256(data)
        assert digest == hashlib.sha256(data.read_bytes()).hexdigest()
        path = tmp_path / "manifest.json"
        fileio.write_manifest(path, "ald", {"draws": str(data)}, {"draws": digest})
        assert fileio.read_manifest(path)["inputs"] == {"draws": digest}

    def test_inputs_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"tool": "admixscan", "command": "scan", "config": {}, '
                        '"inputs": ["draws"]}')
        with pytest.raises(DataFormatError, match="'inputs' is not a mapping"):
            fileio.read_manifest(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"command": "scan"}')
        with pytest.raises(DataFormatError):
            fileio.read_manifest(path)
