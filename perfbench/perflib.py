"""Record parsing, output checks and metric arithmetic for the benchmark.

Everything here is pure: no processes, no clocks, no files. ``run.py``
drives the ``xp`` binary and the traced replay and hands their output
to these functions; ``test_perflib.py`` tests them.
"""

import json
import math

# Counters of "type":"metrics" records that must be exact integers.
EXACT_FIELDS = ("trials", "requests", "trials_retried", "trials_skipped")


class RecordError(ValueError):
    """A run record that is malformed or not exact where it must be."""


def parse_records(text):
    """Parses an ``xp --out`` JSONL stream.

    Returns ``{record type: [(raw line, parsed object), ...]}``. Raises
    ``RecordError`` on a line that is not a JSON object with a string
    ``type``, and on a metrics record whose exact counters are missing,
    negative or not integers (``41236.0`` is rejected like
    ``423897.99999999994``).
    """
    groups = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise RecordError(f"line {number}: not JSON: {e}") from None
        if not isinstance(record, dict) or not isinstance(record.get("type"), str):
            raise RecordError(f"line {number}: not a typed record")
        if record["type"] == "metrics":
            for field in EXACT_FIELDS:
                value = record.get(field)
                if type(value) is not int or value < 0:
                    raise RecordError(
                        f"line {number}: metrics field {field!r} is {value!r}, "
                        "not an exact non-negative integer"
                    )
        groups.setdefault(record["type"], []).append((line, record))
    return groups


def cells(groups):
    """The raw ``"type":"cell"`` lines, in output order."""
    return [line for line, _ in groups.get("cell", [])]


def metrics_records(groups):
    """The parsed ``"type":"metrics"`` records, in output order."""
    return [record for _, record in groups.get("metrics", [])]


def sweep_work(groups):
    """``(requests, graphs)`` of one sweep: the exact request total of
    its metrics records, and its trial graphs (one per trial), counted
    from the metrics records or, where there are none, the cells."""
    metrics = metrics_records(groups)
    requests = sum(record["requests"] for record in metrics)
    if metrics:
        return requests, sum(record["trials"] for record in metrics)
    return requests, sum(record.get("trials", 0) for _, record in groups.get("cell", []))


def slice_lines(lines, p, m):
    """The weak-sweep record lines of the (p, m) slice."""
    kept = []
    for line in lines:
        record = json.loads(line)
        if record.get("p") == p and record.get("m") == m:
            kept.append(line)
    return kept


def check_search_sweep(groups, models, sizes, lanes, trials):
    """Problems in a ``theorem1-weak --profile`` run's records.

    Expects one cell per (model, lane, size) and one metrics record per
    (model, size), each with ``trials`` trials and no degraded flag, and
    requires each metrics record's exact ``requests`` to match the sum
    of its cells' ``mean × trials``.
    """
    problems = []
    cell_records = [record for _, record in groups.get("cell", [])]
    if len(cell_records) != models * lanes * sizes:
        problems.append(f"{len(cell_records)} cells, expected {models * lanes * sizes}")
    metrics = metrics_records(groups)
    if len(metrics) != models * sizes:
        problems.append(f"{len(metrics)} metrics records, expected {models * sizes}")
    implied = {}
    for record in cell_records:
        key = (record.get("p"), record.get("m"), record.get("n"))
        if record.get("trials") != trials or record.get("degraded"):
            problems.append(f"cell {key} {record.get('searcher')}: bad trials or degraded")
        success, mean = record.get("success"), record.get("mean")
        if not (isinstance(success, (int, float)) and 0 <= success <= 1):
            problems.append(f"cell {key}: success {success!r} outside [0, 1]")
        if not (isinstance(mean, (int, float)) and mean > 0):
            problems.append(f"cell {key}: mean {mean!r} is not positive")
            continue
        implied[key] = implied.get(key, 0.0) + mean * trials
    for record in metrics:
        key = (record.get("p"), record.get("m"), record.get("n"))
        if record["trials"] != trials:
            problems.append(f"metrics {key}: {record['trials']} trials, expected {trials}")
        total = implied.get(key)
        if total is None or abs(total - record["requests"]) > 1e-9 * record["requests"] + 1e-6:
            problems.append(
                f"metrics {key}: requests {record['requests']} but cells imply {total}"
            )
    return problems


def check_census(groups, models, trials):
    """Problems in a ``degree-dist`` run's records: one cell per model,
    ``trials`` trials each, a finite exponent and no degraded flag."""
    problems = []
    cell_records = [record for _, record in groups.get("cell", [])]
    if len(cell_records) != models:
        problems.append(f"{len(cell_records)} cells, expected {models}")
    for record in cell_records:
        exponent = record.get("exponent")
        if record.get("trials") != trials or record.get("degraded"):
            problems.append(f"cell {record.get('model')}: bad trials or degraded")
        if not (isinstance(exponent, (int, float)) and math.isfinite(exponent)):
            problems.append(f"cell {record.get('model')}: exponent {exponent!r}")
    return problems


def compare_lines(actual, expected, label):
    """Problems if two lists of record lines differ, naming the first
    difference."""
    if actual == expected:
        return []
    if len(actual) != len(expected):
        return [f"{label}: {len(actual)} lines, expected {len(expected)}"]
    for index, (a, e) in enumerate(zip(actual, expected)):
        if a != e:
            return [f"{label}: line {index + 1} differs:\n  got      {a}\n  expected {e}"]
    return []


def sweep_failures(operations, ok, groups):
    """Failed operations of one sweep out of ``operations`` attempted.

    A sweep that exited nonzero, could not be parsed or failed its
    output check (``ok`` false) fails every operation. Otherwise retried
    and skipped trials fail, as does every trial of a degraded cell and
    every census trial whose fit did not converge (``trials - fits``).
    """
    if not ok:
        return operations
    failed = 0
    for record in metrics_records(groups):
        failed += record["trials_retried"] + record["trials_skipped"]
    degraded = set()
    for _, record in groups.get("cell", []):
        key = (record.get("model"), record.get("p"), record.get("m"), record.get("n"))
        if record.get("degraded") and key not in degraded:
            degraded.add(key)
            failed += record.get("trials", 0)
        if "fits" in record:
            failed += record.get("trials", 0) - record["fits"]
    return min(failed, operations)


def failed_ratio(attempted, failed):
    """Failed operations over operations attempted."""
    if attempted <= 0:
        raise ValueError("no operation was attempted")
    return failed / attempted


def compare_counters(replayed, recorded, key_fields, counter_fields):
    """Problems where the replay's per-cell exact counters differ from
    the untraced run's metrics records (matched on ``key_fields``)."""
    problems = []
    index = {tuple(r.get(k) for k in key_fields): r for r in recorded}
    if len(index) != len(replayed):
        problems.append(f"{len(replayed)} replayed cells, {len(index)} recorded")
    for cell in replayed:
        key = tuple(cell.get(k) for k in key_fields)
        record = index.get(key)
        if record is None:
            problems.append(f"replayed cell {key} has no metrics record")
            continue
        for field in counter_fields:
            if cell[field] != record.get(field):
                problems.append(
                    f"cell {key}: replay {field}={cell[field]}, run {record.get(field)}"
                )
    return problems


def compare_results(replayed, recorded, key_fields):
    """Problems where a replayed result row differs from the run's cell
    record with the same key, on any field the row carries."""
    problems = []
    index = {tuple(r.get(k) for k in key_fields): r for r in recorded}
    for row in replayed:
        key = tuple(row.get(k) for k in key_fields)
        record = index.get(key)
        if record is None:
            problems.append(f"replayed result {key} has no cell record")
            continue
        for field, value in row.items():
            if record.get(field) != value:
                problems.append(f"cell {key}: replay {field}={value!r}, run {record.get(field)!r}")
    if len(replayed) != len(recorded):
        problems.append(f"{len(replayed)} replayed results, {len(recorded)} cells")
    return problems
