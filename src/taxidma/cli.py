"""Command-line interface.

Subcommands::

    taxidma name CODE...            full display name of codes
    taxidma list [PREFIX]           enumerate codes (optionally under PREFIX)
    taxidma check-catalog           run every catalog consistency rule
    taxidma validate FILE...        validate record files
    taxidma encode                  interactive record wizard
    taxidma to-stix FILE            render a record file as a STIX bundle
    taxidma from-stix FILE|-        rebuild a record from a bundle
    taxidma stats DIR               frequency statistics over a corpus

Exit codes: 0 success, 1 validation findings (or an aborted wizard),
2 usage errors, 3 unreadable or malformed input.
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .catalog import TEXT_KINDS, Catalog, load_bundled_catalog, \
    load_catalog, verify_catalog
from .codes import format_code, parse_code
from .corpus import Corpus, GROUPINGS, compute_stats, render_csv, \
    render_json, render_table
from .errors import (
    AbortedError,
    CodeSyntaxError,
    InvalidRecordError,
    MalformedBundleError,
    MalformedFileError,
    StorageFailureError,
    TaxidmaError,
    UnknownExtensionVersionError,
    UnknownPathError,
)
from .record import (
    BACKGROUND,
    add_selection,
    apply_taxonomy,
    new_record,
    read_record,
    validate_record,
    write_record,
)
from .stix import (
    EmissionOptions,
    from_stix,
    serialize_bundle,
    to_stix,
    validate_bundle,
)

if TYPE_CHECKING:  # imported by build_parser, its only user
    import argparse

USAGE_ERROR = 2
FORMAT_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="taxidma",
        description="Classify identity-management attacks, exchange them as "
                    "STIX 2.1 bundles, and summarize corpora.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--catalog", metavar="FILE",
                        help="use this catalog JSON instead of the bundled "
                             "one")
    commands = parser.add_subparsers(dest="command", required=True)

    name = commands.add_parser(
        "name", help="print the full display name of one or more codes")
    name.add_argument("codes", metavar="CODE", nargs="+")
    name.add_argument("--lenient", action="store_true",
                      help="accept lowercase input and case variants")

    listing = commands.add_parser(
        "list", help="enumerate catalog codes, one per line")
    listing.add_argument("prefix", metavar="PREFIX", nargs="?",
                         help="only codes at or under this code")

    commands.add_parser(
        "check-catalog", help="run all catalog consistency rules")

    validate = commands.add_parser(
        "validate", help="validate record files")
    validate.add_argument("files", metavar="FILE", nargs="+")

    encode = commands.add_parser(
        "encode", help="build a record file interactively")
    encode.add_argument("-o", "--output-dir", metavar="DIR", default=".",
                        help="directory for the new record file "
                             "(default: current directory)")

    to_stix_cmd = commands.add_parser(
        "to-stix", help="render a record file as a STIX 2.1 bundle")
    to_stix_cmd.add_argument("file", metavar="FILE")
    to_stix_cmd.add_argument("-o", "--output", metavar="FILE",
                             help="write the bundle here instead of stdout")
    to_stix_cmd.add_argument("--deterministic", action="store_true",
                             help="derive all identifiers from the record id")
    to_stix_cmd.add_argument("--campaign", action="store_true",
                             help="also wrap the record in a campaign object")

    from_stix_cmd = commands.add_parser(
        "from-stix", help="rebuild a record from a STIX 2.1 bundle")
    from_stix_cmd.add_argument("file", metavar="FILE|-",
                               help="bundle file, or - for stdin")
    from_stix_cmd.add_argument("-o", "--output", metavar="FILE",
                               help="write the record here instead of stdout")

    stats = commands.add_parser(
        "stats", help="frequency statistics over a corpus directory")
    stats.add_argument("corpus", metavar="DIR")
    stats.add_argument("--group-by", choices=GROUPINGS, default="item")
    stats.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every :func:`run` call in this process reuses."""
    return build_parser()


def _load_catalog(args) -> Catalog:
    if not args.catalog:
        return load_bundled_catalog()
    return load_catalog(Path(args.catalog).read_text(encoding="utf-8"))


def _error(text: str) -> None:
    print(text, file=sys.stderr)


def _cmd_name(args, catalog: Catalog) -> int:
    status = 0
    for text in args.codes:
        try:
            code = parse_code(text, lenient=args.lenient)
            print(catalog.full_name(code))
        except (CodeSyntaxError, UnknownPathError) as exc:
            _error(f"{text}: {exc}")
            status = 1
    return status


def _cmd_list(args, catalog: Catalog) -> int:
    prefix = None
    if args.prefix:
        try:
            prefix = parse_code(args.prefix)
            catalog.resolve(prefix)
        except (CodeSyntaxError, UnknownPathError) as exc:
            _error(f"{args.prefix}: {exc}")
            return 1
    for code in catalog.enumerate_codes(prefix):
        print(f"{format_code(code)}  {catalog.lookup(code).name}")
    return 0


def _cmd_check_catalog(args, catalog: Catalog) -> int:
    violations = verify_catalog(catalog)
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    leaf_count = sum(1 for _ in catalog.enumerate_codes())
    print(f"catalog OK: {len(catalog.taxonomies)} taxonomies, "
          f"{len(catalog.profiles)} profiles, {leaf_count} codes")
    return 0


def _cmd_validate(args, catalog: Catalog) -> int:
    status = 0
    for name in args.files:
        try:
            record = read_record(Path(name).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, MalformedFileError) as exc:
            _error(f"{name}: {exc}")
            return FORMAT_ERROR
        report = validate_record(record, catalog)
        for violation in report.violations:
            print(f"{name}: {violation}")
        if report.ok:
            print(f"{name}: OK ({len(report.warnings)} warning(s))")
        else:
            print(f"{name}: INVALID ({len(report.errors)} error(s), "
                  f"{len(report.warnings)} warning(s))")
            status = 1
    return status


def _ask(input_fn, prompt: str) -> str:
    print(prompt, end="", flush=True)
    try:
        answer = input_fn()
    except EOFError:
        raise AbortedError("input ended") from None
    if answer.strip().lower() == "q":
        raise AbortedError("aborted at prompt")
    return answer.strip()


def _wizard_selections(catalog: Catalog, record, ref: int, tag: str,
                       input_fn) -> None:
    while True:
        text = _ask(input_fn, f"{tag} code (blank to finish)> ")
        if not text:
            return
        try:
            code = parse_code(text, lenient=True)
            node = catalog.lookup(code)
        except (CodeSyntaxError, UnknownPathError) as exc:
            print(f"  ! {exc}")
            continue
        free_text = note = None
        if node.item_kind in TEXT_KINDS:
            free_text = _ask(input_fn, "  text> ") or None
            note = _ask(input_fn, "  note (optional)> ") or None
        add_selection(record, ref, code, free_text=free_text, note=note)
        print(f"  + {catalog.full_name(code)}")


def _cmd_encode(args, catalog: Catalog) -> int:
    input_fn = args.input_fn
    try:
        record_id = _ask(input_fn, "record id> ")
        title = _ask(input_fn, "title> ")
        description = _ask(input_fn, "description> ")
        background = _ask(input_fn,
                          "background taxonomy [BG]> ") or "BG"
        record = new_record(record_id, title, description,
                            background_taxonomy=parse_code(background,
                                                           lenient=True))
        _wizard_selections(catalog, record, BACKGROUND, "background",
                           input_fn)
        while True:
            taxonomy = _ask(input_fn,
                            "application taxonomy (blank to finish)> ")
            if not taxonomy:
                break
            label = _ask(input_fn, "  label> ")
            try:
                index = apply_taxonomy(record, catalog,
                                       parse_code(taxonomy, lenient=True),
                                       label)
            except TaxidmaError as exc:
                print(f"  ! {exc}")
                continue
            _wizard_selections(catalog, record, index, taxonomy, input_fn)
    except AbortedError as exc:
        _error(f"aborted, nothing written ({exc})")
        return 1
    except (CodeSyntaxError, TaxidmaError) as exc:
        _error(str(exc))
        return 1

    report = validate_record(record, catalog)
    for violation in report.violations:
        print(violation)
    if not report.ok:
        _error(f"not written: {len(report.errors)} validation error(s)")
        return 1
    corpus = Corpus(args.output_dir)
    try:
        path = corpus.store(record)
    except StorageFailureError as exc:
        _error(str(exc))
        return FORMAT_ERROR
    print(f"wrote {path}")
    return 0


def _cmd_to_stix(args, catalog: Catalog) -> int:
    try:
        record = read_record(Path(args.file).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, MalformedFileError) as exc:
        _error(f"{args.file}: {exc}")
        return FORMAT_ERROR
    try:
        bundle = to_stix(record, catalog, EmissionOptions(
            deterministic_ids=args.deterministic, campaign=args.campaign))
    except InvalidRecordError as exc:
        _error(str(exc))
        if exc.report is not None:
            for violation in exc.report.errors:
                _error(f"  {violation.rule}: {violation.path}: "
                       f"{violation.message}")
        return 1
    text = serialize_bundle(bundle)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_from_stix(args, catalog: Catalog) -> int:
    try:
        if args.file == "-":
            raw = sys.stdin.read()
        else:
            raw = Path(args.file).read_text(encoding="utf-8")
        bundle = json.loads(raw)
    except OSError as exc:
        _error(f"{args.file}: {exc}")
        return FORMAT_ERROR
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        _error(f"{args.file}: not JSON: {exc}")
        return FORMAT_ERROR
    try:
        record, residue = from_stix(bundle, catalog)
    except (MalformedBundleError, UnknownExtensionVersionError) as exc:
        _error(f"{args.file}: {exc}")
        return FORMAT_ERROR
    for entry in residue:
        _error(f"residue: {entry.object_type} {entry.object_id}: "
               f"{entry.reason}")
    text = write_record(record)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stats(args, catalog: Catalog) -> int:
    root = Path(args.corpus)
    if not root.is_dir():
        _error(f"{args.corpus}: not a directory")
        return FORMAT_ERROR
    try:
        report = compute_stats(Corpus(root), catalog, args.group_by)
    except (MalformedFileError, StorageFailureError) as exc:
        _error(str(exc))
        return FORMAT_ERROR
    renderer = {"table": render_table, "csv": render_csv,
                "json": render_json}[args.format]
    sys.stdout.write(renderer(report))
    return 0


_COMMANDS = {"name": _cmd_name, "list": _cmd_list,
             "check-catalog": _cmd_check_catalog, "validate": _cmd_validate,
             "encode": _cmd_encode, "to-stix": _cmd_to_stix,
             "from-stix": _cmd_from_stix, "stats": _cmd_stats}


def run(argv: list[str] | None = None, input_fn=input) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        catalog = _load_catalog(args)
    except (OSError, UnicodeDecodeError) as exc:
        _error(f"cannot read catalog: {exc}")
        return FORMAT_ERROR
    except TaxidmaError as exc:
        _error(f"bad catalog: {exc}")
        return FORMAT_ERROR

    args.input_fn = input_fn
    return _COMMANDS[args.command](args, catalog)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
