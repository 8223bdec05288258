"""The batch writer that every command once used, kept as the reference the
streaming writer in primekit.cli must match byte for byte
(tests/test_cli.py): it takes a command's whole list of items and renders
it in one go, json as a single json.dumps of the list.

Its csv header is the union of the records' keys in first-seen order, a
key a record lacks is an empty cell, and a real None is `null`. (The
batch writer first took its header from the first record alone and filled
every missing key with `null`.)
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from dataclasses import dataclass

from primekit import cli
from primekit.oracle import OracleVerdict


@dataclass(slots=True)
class Item:
    """One output record, its text rendering and, for a value the log keeps,
    what its log entry needs."""

    record: dict
    text: str
    construction: str | None = None
    params: dict | None = None
    value: int | None = None
    verdict: OracleVerdict | None = None


def _cell(record: dict, key: str):
    if key not in record:
        return ""
    value = record[key]
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return value
    return json.dumps(value, separators=(",", ":"))


def emit(items: list[Item], fmt: str, log_path: str | None = None) -> None:
    """Write items to stdout in fmt, and append the log entry of each item
    that carries one to log_path."""
    out = sys.stdout
    log_file = open(log_path, "a", encoding="utf-8") if log_path else None

    def write_log(item: Item) -> None:
        if log_file and item.construction is not None:
            cli._write_log(log_file, item.construction, item.params, item.value, item.verdict)

    try:
        if fmt == "json":
            out.write(json.dumps([i.record for i in items], indent=2) + "\n")
            for item in items:
                write_log(item)
        elif fmt == "csv":
            if items:
                writer = csv.writer(out, lineterminator="\n")
                fields = list(dict.fromkeys(key for item in items for key in item.record))
                writer.writerow(fields)
                for item in items:
                    writer.writerow([_cell(item.record, f) for f in fields])
                    write_log(item)
        elif fmt == "jsonl":
            for item in items:
                out.write(json.dumps(item.record, separators=(",", ":")) + "\n")
                write_log(item)
        else:
            for item in items:
                out.write(item.text + "\n")
                write_log(item)
    finally:
        if log_file:
            log_file.close()


def emitted(items: list[Item], fmt: str, log_path: str | None = None) -> str:
    """What emit writes to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(items, fmt, log_path)
    return out.getvalue()
