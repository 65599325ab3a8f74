"""Append-only JSON-lines result cache.

One record per line: {"hash", "op", "params", "version", "result"}.
Lookups match on the first four fields exactly; the CLI passes a fingerprint
of the package sources as the version, so records written by other code are
misses.  A lookup is one pass over the file, so its cost still grows with the
file, but it decodes only the lines that could be the asked quiver's records:
a line in ``cache_store``'s canonical form for another quiver's hash is
skipped unread, even when it is corrupt.  Other corrupt lines, undecodable
bytes among them, are skipped with a warning naming the line, and an
unwritable path downgrades to a warning so computation can proceed
uncached.  A store appends its record under an exclusive ``flock``, so
processes that share a cache file never interleave their records.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys


def _canonical(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def cache_lookup(path: str, quiver_hash: str, op: str, params: dict, version: str):
    """The most recent matching payload, or None."""
    wanted = _canonical(params)
    # cache_store's lines begin '{"hash":' and the JSON-encoded hash, so a
    # line with that prefix and another hash cannot match and is not decoded
    own = '{"hash":' + json.dumps(quiver_hash) + ","
    found = None
    try:
        # bytes that are not UTF-8 come in as lone surrogates instead of raising;
        # only "\n" ends a line, so a stray "\r" does not shift line numbers
        with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or (line.startswith('{"hash":"') and not line.startswith(own)):
                    continue
                try:
                    line.encode("utf-8")
                    record = json.loads(line)
                except (UnicodeEncodeError, json.JSONDecodeError):
                    print(f"warning: skipping corrupt cache line {lineno}", file=sys.stderr)
                    continue
                if not isinstance(record, dict):
                    print(f"warning: skipping corrupt cache line {lineno}", file=sys.stderr)
                    continue
                if (
                    record.get("hash") == quiver_hash
                    and record.get("op") == op
                    and record.get("version") == version
                    and _canonical(record.get("params", {})) == wanted
                ):
                    found = record.get("result")
    except FileNotFoundError:
        return None
    except OSError as exc:
        print(f"warning: cache unreadable ({exc}); computing fresh", file=sys.stderr)
        return None
    return found


def cache_store(path: str, quiver_hash: str, op: str, params: dict, version: str, result) -> None:
    record = {
        "hash": quiver_hash,
        "op": op,
        "params": params,
        "version": version,
        "result": result,
    }
    data = (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
    except OSError as exc:
        print(f"warning: cache unwritable ({exc}); result not stored", file=sys.stderr)
