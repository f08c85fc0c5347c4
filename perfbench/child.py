"""One workload process of the taxidma benchmark; started by run.py.

Usage: child.py SPEC_JSON MODE CORPUS_DIR RESULT_JSON SECONDS

MODE is ``setup`` (set up, time it, stop), ``measure`` (set up, then pass
over the workload's operations in a closed loop for SECONDS) or ``trace``
(set up with tracing on, measure untraced for SECONDS, then make one pass
traced).

Set-up time runs from just before ``import taxidma`` to ready: catalog
loaded, one warm-up operation done and, for ``stats``, the corpora stored.
Nothing of the package is imported before that clock starts, and the
modules used only by the output checks are imported after it stops.
"""
from __future__ import annotations

import json
import sys
import time

from spans import SETUP_OP, Tracer

QUERY_GROUPINGS = ("category", "item", "leaf")
QUERY_FORMATS = ("table", "csv", "json")

# sha256 over the bundle bytes of one pass of the export inputs for seed 1
# (500 records, deterministic ids).  Any change to the emitted bytes fails
# the check.
PINNED_EXPORT_SHA256 = {
    1: "4088d6927be358e4c05a9a744986cb4670190915cd909db693ed3e2d46eddf98",
}


def _code_text(code) -> str:
    """A TaxonomyCode written out from its fields, without format_code."""
    parts = [code.taxonomy, code.category, code.item,
             *map(str, code.leaf_path)]
    body = ".".join(part for part in parts if part is not None)
    return f"{code.profile}:{body}" if code.profile else body


class Export:
    """Record-file text -> read_record -> to_stix -> serialize_bundle."""

    def __init__(self, spec: dict):
        self.texts = spec["texts"]
        self.size = len(self.texts)
        self.invalid = set(spec["invalid"])
        self.seed = spec["seed"]
        self.digests: list[bytes | None] = [None] * self.size
        self.combined = None

    def records(self, k: int) -> int:
        return 1

    def setup(self, tx, catalog, corpus_dir: str) -> None:
        self.tx = tx
        self.catalog = catalog
        self.options = tx.EmissionOptions(deterministic_ids=True)

    def op(self, k: int):
        tx = self.tx
        record = tx.read_record(self.texts[k])
        try:
            bundle = tx.to_stix(record, self.catalog, self.options)
        except tx.errors.InvalidRecordError:
            return None
        return tx.serialize_bundle(bundle)

    def begin(self) -> None:
        pass

    def check(self, k: int, text: str | None) -> str | None:
        import hashlib
        if k in self.invalid:
            return None if text is None else "accepted an invalid record"
        if text is None:
            return "rejected a valid record"
        data = text.encode("utf-8")
        digest = hashlib.sha256(data).digest()
        if self.digests[k] is not None:
            return None if digest == self.digests[k] else \
                "bundle bytes differ between passes"
        # The first pass reaches the inputs in order, so this hashes the
        # bundles of one pass.
        if self.combined is None:
            self.combined = hashlib.sha256()
        self.combined.update(data)
        self.digests[k] = digest
        incident = json.loads(text)["objects"][1]
        if incident["type"] != "incident" or \
                incident["name"] != f"benchmark incident {k}":
            return "bundle does not carry the record's incident"
        return None

    def final_checks(self) -> list[str]:
        hexdigest = self.combined.hexdigest()
        print(f"export sha256 {hexdigest}", file=sys.stderr)
        pinned = PINNED_EXPORT_SHA256.get(self.seed)
        if pinned is not None and hexdigest != pinned:
            return [f"export sha256 {hexdigest} != pinned {pinned}"]
        return []


class Ingest:
    """Bundle text -> json.loads -> validate_bundle -> from_stix ->
    validate_record -> Corpus.store.

    Each record is stored once per measurement, on the first pass, outside
    the operation's timing.  On the machine this was tuned on, the kernel's
    cost for the store's file creates, renames and unlinks drifted 2-4x over
    tens of seconds whatever the program did, which put ingest's run-to-run
    spread above any usable bound; storing on every pass also slowed the
    file reads of the runs that followed.  The traced run still reports
    ``corpus.Corpus.store.self_us``, and stats' ``setup_s`` still includes
    storing its corpora.
    """

    def __init__(self, spec: dict):
        self.items = spec["bundles"]
        self.size = len(self.items)
        self.stored: set[int] = set()

    def records(self, k: int) -> int:
        return 1

    def setup(self, tx, catalog, corpus_dir: str) -> None:
        self.tx = tx
        self.catalog = catalog
        self.corpus = tx.Corpus(corpus_dir)

    def op(self, k: int):
        tx = self.tx
        bundle = json.loads(self.items[k]["text"])
        violations = tx.validate_bundle(bundle)
        record, residue = tx.from_stix(bundle, self.catalog)
        report = tx.validate_record(record, self.catalog)
        return violations, record, residue, report.ok

    def begin(self) -> None:
        """Empty the corpus, so that every store creates its file."""
        self.stored.clear()
        if self.corpus.root.is_dir():
            for path in self.corpus.root.iterdir():
                path.unlink()

    def check(self, k: int, outcome) -> str | None:
        from gen import scope_groups
        violations, record, residue, ok = outcome
        item = self.items[k]
        if violations:
            return f"bundle violations: {violations[0]}"
        if not ok:
            return "rebuilt record does not validate"
        if k not in self.stored:
            self.stored.add(k)
            path = self.corpus.store(record)
            if not path.is_file():
                return f"store did not write {path.name}"
        if sorted([entry.object_id, entry.object_type]
                  for entry in residue) != item["residue"]:
            return "residue differs from the foreign objects injected"
        scopes = [record.background, *record.applications]
        groups = scope_groups(
            [(_code_text(scope.taxonomy), _code_text(s.code), s.free_text)
             for s in scope.selections] for scope in scopes)
        if groups != item["groups"]:
            return "round trip changed the selections of a scope"
        return None

    def final_checks(self) -> list[str]:
        return []


class Stats:
    """Queries over stored corpora of several sizes: ``taxidma stats`` in
    every grouping and format, with stdout captured, plus co_occurrence
    per grouping."""

    def __init__(self, spec: dict):
        self.corpora = spec["corpora"]
        kinds = [("stats", g, f) for g in QUERY_GROUPINGS
                 for f in QUERY_FORMATS]
        kinds += [("co_occurrence", g, None) for g in QUERY_GROUPINGS]
        self.queries = [(c, *kind) for c in range(len(self.corpora))
                        for kind in kinds]
        self.size = len(self.queries)
        self.pairs = [{g: {tuple(key.split(" ")): n
                           for key, n in e["pairs"].items()}
                       for g, e in corpus["expected"].items()}
                      for corpus in self.corpora]
        self.verified: dict[tuple, str] = {}

    def records(self, k: int) -> int:
        return len(self.corpora[self.queries[k][0]]["texts"])

    def setup(self, tx, catalog, corpus_dir: str) -> None:
        self.tx = tx
        self.roots = [f"{corpus_dir}/c{c}" for c in range(len(self.corpora))]
        for root, corpus in zip(self.roots, self.corpora):
            store = tx.Corpus(root)
            for text in corpus["texts"]:
                store.store(tx.read_record(text))

    def op(self, k: int):
        import contextlib
        import io
        c, kind, group_by, fmt = self.queries[k]
        if kind == "co_occurrence":
            return 0, self.tx.co_occurrence(self.tx.Corpus(self.roots[c]),
                                            group_by)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.tx.cli.run(["stats", self.roots[c], "--group-by",
                                      group_by, "--format", fmt])
        return status, out.getvalue()

    def begin(self) -> None:
        pass

    def check(self, k: int, outcome) -> str | None:
        status, result = outcome
        c, kind, group_by, fmt = query = self.queries[k]
        if kind == "co_occurrence":
            return None if result == self.pairs[c][group_by] else \
                f"co_occurrence by {group_by} differs from the oracle"
        if status != 0:
            return f"stats exited {status}"
        if self.verified.get(query) == result:
            return None
        problem = self._check_report(self.corpora[c], group_by, fmt, result)
        if problem is None:
            self.verified[query] = result
        return problem

    @staticmethod
    def _check_report(corpus: dict, group_by: str, fmt: str, text: str):
        import csv
        import io
        total = len(corpus["texts"])
        if fmt == "json":
            payload = json.loads(text)
            if payload["total"] != total:
                return f"json total {payload['total']} != {total}"
            rows = [(e["code"], e["name"], e["count"], e["share"])
                    for e in payload["entries"]]
        elif fmt == "csv":
            lines = list(csv.reader(io.StringIO(text)))[1:]
            rows = [(code, name, int(count), share)
                    for code, name, count, share in lines]
        else:  # table: code, name (may hold spaces), count, share
            rows = [(cells[0], "-", int(cells[-2]), cells[-1])
                    for cells in map(str.split, text.splitlines()[1:])]
        counts = {code: count for code, _, count, _ in rows}
        if counts != corpus["expected"][group_by]["frequencies"]:
            return f"{fmt} counts by {group_by} differ from the oracle"
        for code, name, count, share in rows:
            if not name or share != f"{count / total:.6f}":
                return f"{fmt} row {code} has a bad name or share"
        order = [(-count, code) for code, _, count, _ in rows]
        if order != sorted(order):
            return f"{fmt} rows by {group_by} are not in count order"
        return None

    def final_checks(self) -> list[str]:
        return []


WORKLOADS = {"export": Export, "ingest": Ingest, "stats": Stats}


def trace_targets():
    from taxidma import catalog, cli, codes, corpus, record, stix
    return [
        ("codes.parse_code", codes, "parse_code", None),
        ("codes.format_code", codes, "format_code", None),
        ("catalog.load_bundled_catalog", catalog, "load_bundled_catalog",
         None),
        ("catalog.Catalog.resolve", catalog.Catalog, "resolve", None),
        ("catalog.Catalog.full_name", catalog.Catalog, "full_name", None),
        ("record.read_record", record, "read_record", None),
        ("record.write_record", record, "write_record", None),
        ("record.validate_record", record, "validate_record",
         lambda report: 0 if report.ok else 1),
        ("stix.to_stix", stix, "to_stix", None),
        ("stix.serialize_bundle", stix, "serialize_bundle", None),
        ("stix.validate_bundle", stix, "validate_bundle", None),
        ("stix.from_stix", stix, "from_stix", lambda out: len(out[1])),
        ("corpus.Corpus.store", corpus.Corpus, "store", None),
        ("corpus.Corpus.load", corpus.Corpus, "load", None),
        ("corpus.compute_stats", corpus, "compute_stats", None),
        ("corpus.co_occurrence", corpus, "co_occurrence", None),
        ("corpus.render", corpus, "render_table", None),
        ("corpus.render", corpus, "render_csv", None),
        ("corpus.render", corpus, "render_json", None),
        ("cli.run", cli, "run", None),
    ]


def measure(workload, seconds: float = 0.0,
            tracer: Tracer | None = None) -> dict:
    """Closed loop, one operation at a time, in whole passes over the
    workload's inputs until ``seconds`` of wall time have gone (at least one
    pass).  Output checks run outside each operation's timing.

    Returns each pass's operation latencies and throughput: the records of
    one pass over the time its operations took.
    """
    latencies: list[list[float]] = []
    pass_rps: list[float] = []
    errors: list[str] = []
    work = sum(workload.records(k) for k in range(workload.size))
    workload.begin()
    deadline = time.perf_counter() + seconds
    while not pass_rps or time.perf_counter() < deadline:
        pass_s = 0.0
        latencies.append([])
        for k in range(workload.size):
            if tracer is not None:
                tracer.current_op = k
            begin = time.perf_counter()
            try:
                outcome = workload.op(k)
            except Exception as exc:  # an undocumented failure is counted
                outcome, problem = None, f"{type(exc).__name__}: {exc}"
            else:
                problem = None
            elapsed = time.perf_counter() - begin
            if tracer is not None:
                tracer.current_op = SETUP_OP
            latencies[-1].append(elapsed * 1e3)
            pass_s += elapsed
            if problem is None:
                problem = workload.check(k, outcome)
            if problem is not None:
                errors.append(f"pass {len(pass_rps)} op {k}: {problem}")
        pass_rps.append(work / pass_s)
    return {"ops": len(pass_rps) * workload.size, "failed": len(errors),
            "errors": errors[:5], "latencies_ms": latencies,
            "pass_rps": pass_rps}


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer figures of one traced pass.  ``calls_per_op`` counts calls
    made inside operations; ``self_us`` is the mean self time of every
    traced call, set-up included."""
    summary = tracer.summary()

    def self_us(name: str) -> float:
        entry = summary[name]
        return entry["self_s"] / entry["calls"] * 1e6 if entry["calls"] \
            else 0.0

    out: dict[str, float] = {}
    for name in ("codes.parse_code", "codes.format_code",
                 "catalog.Catalog.resolve", "catalog.Catalog.full_name",
                 "record.validate_record", "corpus.Corpus.load"):
        out[f"{name}.calls_per_op"] = summary[name]["op_calls"] / ops
        out[f"{name}.self_us"] = self_us(name)
    for name in ("record.read_record", "record.write_record",
                 "stix.to_stix", "stix.serialize_bundle",
                 "stix.validate_bundle", "stix.from_stix",
                 "corpus.Corpus.store", "corpus.compute_stats",
                 "corpus.co_occurrence", "corpus.render", "cli.run"):
        out[f"{name}.self_us"] = self_us(name)
    validations = summary["record.validate_record"]["op_calls"]
    out["record.validate_record.rejected_ratio"] = (
        tracer.tallies["record.validate_record"] / validations
        if validations else 0.0)
    out["stix.from_stix.residue_per_op"] = \
        tracer.tallies["stix.from_stix"] / ops
    out["catalog.load_bundled_catalog.s"] = \
        summary["catalog.load_bundled_catalog"]["first_s"]
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started, in MB.

    ``getrusage``'s ``ru_maxrss`` is not used: Linux carries the parent's
    peak into it across fork and exec, so it would report run.py's memory,
    inputs and all.  ``VmHWM`` belongs to this process's own address space.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec_path, mode, corpus_dir, result_path, seconds = sys.argv[1:6]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = WORKLOADS[spec["workload"]](spec)
    tracer = Tracer() if mode == "trace" else None

    started = time.perf_counter()
    import taxidma
    import taxidma.cli  # noqa: F401  (stats queries run the CLI)
    if tracer is not None:
        tracer.install(trace_targets())
    catalog = taxidma.load_bundled_catalog()
    workload.setup(taxidma, catalog, corpus_dir)
    warm_up = workload.op(0)
    setup_s = time.perf_counter() - started

    problem = workload.check(0, warm_up)
    result = {"setup_s": setup_s, "ops": 0, "failed": 0, "errors": [],
              "check_errors": [f"warm-up: {problem}"] if problem else []}
    if mode == "measure":
        result.update(measure(workload, seconds=float(seconds)))
    elif mode == "trace":
        import statistics
        tracer.uninstall()
        plain = measure(workload, seconds=float(seconds))
        tracer.install(trace_targets())
        traced = measure(workload, tracer=tracer)
        tracer.uninstall()
        result["ops"] = plain["ops"] + traced["ops"]
        result["failed"] = plain["failed"] + traced["failed"]
        result["errors"] = plain["errors"] + traced["errors"]
        layers = layer_metrics(tracer, traced["ops"])
        layers["trace.overhead_ratio"] = \
            traced["pass_rps"][0] / statistics.median(plain["pass_rps"])
        result["layers"] = layers
        rejected = tracer.tallies["record.validate_record"]
        if spec["workload"] == "export" and rejected != len(workload.invalid):
            result["check_errors"].append(
                f"validate_record rejected {rejected} records, not the "
                f"{len(workload.invalid)} made invalid")
    if mode != "setup":
        result["check_errors"] += workload.final_checks()
    result["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
