"""Command-line pipeline: impute, scan, map, ald, simulate, rerun.

Every run writes a ``manifest.json`` into its output directory recording
the resolved configuration and a SHA-256 of each input file;
``admixscan rerun manifest.json`` replays it, refusing inputs that changed.
Errors surface as a JSON record on stderr and a nonzero exit code.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__, fileio
from .errors import AdmixscanError, DataFormatError
from .glm import TRAIT_KINDS
from .mapping import (
    DEFAULT_DELTA,
    ald_correlation,
    reported_subsets,
    stage1_scan,
    stage2_joint,
)
from .sampler import HmmHyperparams, run_mcmc

log = logging.getLogger(__name__)


def _add_common(parser):
    parser.add_argument("--out-dir", required=True, help="output directory")


def _add_trait_args(parser):
    parser.add_argument("--phenotype", required=True)
    parser.add_argument("--trait-kind", choices=TRAIT_KINDS, default="continuous")
    parser.add_argument(
        "--covariates",
        default=None,
        help='comma-separated covariate column names (default: all; "" for none)',
    )
    parser.add_argument("--delta", type=float, default=DEFAULT_DELTA)


class _ManifestParser(argparse.ArgumentParser):
    """Parser for a replayed manifest's options.

    A recorded option the command no longer accepts is an input error,
    reported like any other, not a usage error of the ``rerun`` command line.
    """

    def error(self, message):
        raise DataFormatError(message)


def build_parser(parser_class=argparse.ArgumentParser):
    parser = parser_class(
        prog="admixscan",
        description="Local-ancestry imputation and Bayes-factor admixture scan",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("impute", help="sample local-ancestry draws from genotypes")
    p.add_argument("--panel", required=True)
    p.add_argument("--genotypes", required=True)
    p.add_argument("--position-unit", choices=fileio.POSITION_UNITS, default="morgans")
    p.add_argument("--cm-per-mb", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=HmmHyperparams.lam,
                   help="recombinations per Morgan")
    p.add_argument("--mu0", type=float, default=HmmHyperparams.mu0)
    p.add_argument("--rho0", type=float, default=HmmHyperparams.rho0)
    p.add_argument("--nu0", type=float, default=HmmHyperparams.nu0)
    p.add_argument("--burn-in", type=int, default=HmmHyperparams.burn_in)
    p.add_argument("--n-draws", type=int, default=HmmHyperparams.n_draws)
    p.add_argument("--thin", type=int, default=HmmHyperparams.thin)
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scan", help="stage-1 per-locus Bayes-factor scan")
    p.add_argument("--draws", required=True)
    _add_trait_args(p)
    _add_common(p)

    p = sub.add_parser("map", help="two-stage scan with joint subset refits")
    p.add_argument("--draws", required=True)
    _add_trait_args(p)
    p.add_argument("--max-cardinality", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("ald", help="ancestry correlation matrix from draws")
    p.add_argument("--draws", required=True)
    _add_common(p)

    p = sub.add_parser("simulate", help="replicated simulation studies")
    p.add_argument(
        "--scenario", choices=("null", "single_locus", "multilocus"), required=True
    )
    p.add_argument("--trait-kind", choices=("continuous", "binary"),
                   default="continuous")
    p.add_argument("--n-subjects", type=int, default=1000)
    p.add_argument("--n-loci", type=int, help="loci per replicate (null: 1000)")
    p.add_argument("--alpha", type=float, help="covariate effect (null, single_locus: 0)")
    p.add_argument("--c-values", help="comma-separated effect multipliers (single_locus)")
    p.add_argument("--c", type=float, help="effect multiplier (multilocus)")
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--max-cardinality", type=int,
                   help="largest stage-2 subset (multilocus: 2)")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("rerun", help="replay a run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out-dir", default=None,
                   help="override the recorded output directory")
    return parser


def _outdir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


_INPUT_ARGS = ("panel", "genotypes", "draws", "phenotype")


def _hash_inputs(config):
    """SHA-256 of each input file named in ``config``, keyed by option.

    Taken before the command reads its inputs, so the manifest records the
    data the run used.
    """
    return {
        k: fileio.file_sha256(config[k])
        for k in _INPUT_ARGS
        if config.get(k) is not None
    }


def _write_manifest(out, args, inputs, skip=("command", "verbose", "func")):
    """Record the resolved configuration and the input hashes.

    Paths are absolute so a replay works anywhere; the hashes let
    ``rerun`` refuse inputs that changed since.
    """
    config = {
        k: v for k, v in vars(args).items() if k not in skip and v is not None
    }
    for key in (*_INPUT_ARGS, "out_dir"):
        if key in config:
            config[key] = os.path.abspath(config[key])
    fileio.write_manifest(out / "manifest.json", args.command, config, inputs)


def _check_inputs(manifest, config, recorded):
    """Hash a replay's input files; refuse any that differ from the record."""
    current = {}
    for key in _INPUT_ARGS:
        flag = "--" + key.replace("_", "-")
        if key not in config and key not in recorded:
            continue
        if key not in config:
            raise DataFormatError(f"{manifest}: input {flag} has a hash but no path")
        if key not in recorded:
            raise DataFormatError(f"{manifest}: input {flag} has a path but no hash")
        try:
            current[key] = fileio.file_sha256(config[key])
        except OSError as exc:
            raise DataFormatError(
                f"{manifest}: input {flag} {config[key]}: {exc.strerror}"
            ) from None
        if current[key] != recorded[key]:
            raise DataFormatError(
                f"{manifest}: input {flag} {config[key]} changed since the run "
                f"(sha256 {current[key]}, recorded {recorded[key]})"
            )
    return current


def _load_trait_for_draws(args, draws):
    names = args.covariates   # absent: every column; empty: none
    if names is not None:
        names = names.split(",") if names else []
    subject_ids, trait, dropped = fileio.read_phenotypes(
        args.phenotype, args.trait_kind, covariates=names
    )
    if dropped:
        log.info("dropped %d phenotype rows with missing values", dropped)
    return fileio.align_trait_to_draws(draws, subject_ids, trait)


def cmd_impute(args, inputs):
    out = _outdir(args)
    panel = fileio.read_panel(
        args.panel, position_unit=args.position_unit, cm_per_mb=args.cm_per_mb
    )
    genotypes, marker_ids = fileio.read_genotypes(args.genotypes)
    genotypes = fileio.align_genotypes_to_panel(genotypes, marker_ids, panel)
    hyper = HmmHyperparams(**{f.name: getattr(args, f.name) for f in fields(HmmHyperparams)})
    draws = run_mcmc(genotypes, panel, hyper)
    fileio.save_draws(draws, out / "draws.adx")
    _write_manifest(out, args, inputs)
    log.info("wrote %s (%d draws)", out / "draws.adx", draws.m)
    return 0


def cmd_scan(args, inputs):
    out = _outdir(args)
    draws = fileio.load_draws(args.draws)
    draws, trait = _load_trait_for_draws(args, draws)
    result = stage1_scan(draws, trait, delta=args.delta)
    fileio.write_stage1_table(result, draws, out / "stage1.tsv")
    _write_manifest(out, args, inputs)
    return 0


def cmd_map(args, inputs):
    out = _outdir(args)
    draws = fileio.load_draws(args.draws)
    draws, trait = _load_trait_for_draws(args, draws)
    stage1 = stage1_scan(draws, trait, delta=args.delta)
    result = stage2_joint(stage1, draws, trait, max_cardinality=args.max_cardinality)
    fileio.write_stage1_table(result, draws, out / "stage1.tsv")
    fileio.write_stage2_table(
        result, out / "stage2.tsv", reported=reported_subsets(result)
    )
    _write_manifest(out, args, inputs)
    return 0


def cmd_ald(args, inputs):
    out = _outdir(args)
    draws = fileio.load_draws(args.draws)
    corr, flagged = ald_correlation(draws)
    fileio.write_ald_matrix(corr, draws.marker_ids, out / "ald.tsv")
    if flagged:
        log.warning("%d constant loci zeroed in the correlation matrix", len(flagged))
    _write_manifest(out, args, inputs)
    return 0


def _resolve_scenario_options(args):
    """Default the options ``args.scenario`` reads; refuse any others given."""
    from .simulate import BINARY_C_VALUES, CONTINUOUS_C_VALUES, MULTILOCUS_C

    power_c = CONTINUOUS_C_VALUES if args.trait_kind == "continuous" else BINARY_C_VALUES
    defaults = {
        "null": {"n_loci": 1000, "alpha": 0.0},
        "single_locus": {"alpha": 0.0, "c_values": ",".join(map(repr, power_c))},
        "multilocus": {"c": MULTILOCUS_C[args.trait_kind], "max_cardinality": 2},
    }[args.scenario]
    for name in ("n_loci", "alpha", "c_values", "c", "max_cardinality"):
        value = getattr(args, name)
        if name in defaults:
            setattr(args, name, defaults[name] if value is None else value)
        elif value is not None:
            raise ValueError(
                f"--{name.replace('_', '-')} is not read by --scenario {args.scenario}"
            )


def cmd_simulate(args, inputs):
    # scan, map and impute never read the study generators: import them here
    from .studies import multilocus_study, null_study, power_study

    _resolve_scenario_options(args)
    if args.scenario == "null":
        res = null_study(args.n_subjects, args.n_loci, args.replicates,
                         args.trait_kind, args.alpha, args.delta, args.seed)
    elif args.scenario == "single_locus":
        c_values = [float(c) for c in args.c_values.split(",")]
        res = power_study(args.n_subjects, c_values, args.replicates,
                          args.trait_kind, args.alpha, args.delta, args.seed)
    else:
        res = multilocus_study(args.n_subjects, args.replicates, args.trait_kind,
                               args.c, args.delta, args.seed,
                               max_cardinality=args.max_cardinality)
    out = _outdir(args)
    fileio.write_rows_table(res.rows, out / "replicates.tsv")
    fileio.write_rows_table(res.summary, out / "summary.tsv")
    draws, trait = res.dataset
    fileio.save_draws(draws, out / "dataset_draws.adx")
    fileio.write_phenotypes(draws.subject_ids, trait, out / "dataset_phenotype.tsv")
    _write_manifest(out, args, inputs)
    return 0


def cmd_rerun(args, _inputs):
    record = fileio.read_manifest(args.manifest)
    command = record["command"]
    config = dict(record["config"])
    if args.out_dir is not None:
        config["out_dir"] = args.out_dir
    argv = [command]
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        argv.extend([flag, str(value)])
    try:
        replay = build_parser(_ManifestParser).parse_args(argv)
    except DataFormatError as exc:
        raise DataFormatError(f"{args.manifest}: cannot replay: {exc}") from None
    if "inputs" not in record:
        raise DataFormatError(
            f"{args.manifest}: manifest records no input hashes; "
            "run the command again to write one that does"
        )
    inputs = _check_inputs(args.manifest, config, record["inputs"])
    return _HANDLERS[replay.command](replay, inputs)


_HANDLERS = {
    "impute": cmd_impute,
    "scan": cmd_scan,
    "map": cmd_map,
    "ald": cmd_ald,
    "simulate": cmd_simulate,
    "rerun": cmd_rerun,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _HANDLERS[args.command](args, _hash_inputs(vars(args)))
    except (AdmixscanError, OSError, ValueError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
