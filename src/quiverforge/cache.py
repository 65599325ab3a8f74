"""Append-only JSON-lines result cache.

One record per line: {"hash", "op", "params", "version", "result"}.
Lookups match on the first four fields exactly; the CLI passes a fingerprint
of the package sources as the version, so records written by other code are
misses.  A lookup is one pass over the file, linear in its size.  It reads
binary lines in blocks of at most ``_BLOCK_LINES``, so its memory is one
block whatever the file's size.  A line that begins ``{"hash":"`` as
``cache_store``'s lines do, but not with the asked hash as ``json.dumps``
writes it, closing quote included, holds another quiver's record and is
skipped unread, even when it is corrupt; what follows the closing quote,
JSON whitespace included, is left to the parse.  The rule misreads two kinds
of line that ``cache_store`` never writes, and skips both as foreign: one
whose first "hash" key is another quiver's and whose last is the asked hash
(``json.loads`` keeps the last), and one that spells the asked hash with
escapes ``json.dumps`` does not use.  Three
C-level order passes over a block (its least line, its greatest, and its
least line at or after the asked hash's prefix) prove when every line in it
is such a line, and then the block is skipped whole.  Only a block that
fails the proof gets one compiled prefix match per line, which picks the
lines that could be the asked quiver's records; only those are decoded and
parsed.  Other corrupt lines, undecodable bytes among them, are skipped
with a warning naming the line, and an unwritable path downgrades to a
warning so computation can proceed uncached.  A store appends its record
under an exclusive ``flock``, so processes that share a cache file never
interleave their records.
"""

from __future__ import annotations

import fcntl
import json
import operator
import os
import re
import sys
from functools import partial
from itertools import compress, count, islice

from .quiver import _canonical

# lines a lookup holds at once: its memory is one block, whatever the file's size
_BLOCK_LINES = 1024
# every line cache_store writes begins with this
_RECORD_PREFIX = b'{"hash":"'


def cache_lookup(path: str, quiver_hash: str, op: str, params: dict, version: str):
    """The most recent matching payload, or None."""
    wanted = _canonical(params)
    # cache_store's lines begin '{"hash":' and the JSON-encoded hash, so a
    # line with that prefix and another hash cannot match and is not decoded;
    # own ends at the closing quote, since JSON whitespace may come next
    own = '{"hash":' + json.dumps(quiver_hash)
    # json.dumps escapes non-ASCII, so a line's bytes begin with own iff its text does
    own_bytes = own.encode("ascii")
    candidate = re.compile(b"(?!" + re.escape(_RECORD_PREFIX) + b")|" + re.escape(own_bytes)).match
    at_least_own = partial(operator.le, own_bytes)
    found = None
    try:
        # only b"\n" ends a binary line, so a stray "\r" does not shift line
        # numbers; a 64 KiB buffer takes the file in fewer reads
        with open(path, "rb", buffering=1 << 16) as fh:
            lines = iter(fh)
            base = 0
            for block in iter(lambda: list(islice(lines, _BLOCK_LINES)), []):
                # the lines that begin with a prefix form one interval in byte
                # order, so every line begins '{"hash":"' iff the least and the
                # greatest do, and none begins with own iff the least line >=
                # own does not; a block that passes holds no candidate
                if not (
                    min(block).startswith(_RECORD_PREFIX)
                    and max(block).startswith(_RECORD_PREFIX)
                    and not min(filter(at_least_own, block), default=b"").startswith(own_bytes)
                ):
                    for lineno in compress(count(base + 1), map(candidate, block)):
                        # bytes that are not UTF-8 come in as lone surrogates
                        # instead of raising; a candidate with leading
                        # whitespace may still be foreign once stripped
                        line = block[lineno - base - 1].decode("utf-8", "surrogateescape").strip()
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
                base += len(block)
                # let the block go before the next is read, so one is held at a time
                del block
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
    data = (_canonical(record) + "\n").encode("utf-8")
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
