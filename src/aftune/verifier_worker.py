"""Isolated verifier entry point.

Frame protocol: the worker reads requests from stdin one frame at a
time, each an 8-byte little-endian length followed by that many bytes
of a serialized VerificationRequest. It answers every frame with one
JSON report on its own line of stdout, flushed before the next frame is
read, and exits 0 at end of input on a frame boundary.

The process sees nothing but request bytes, so verification cannot
depend on ambient run state. The only state kept between requests is
the session's ``BindingMemo``: the last model binding, keyed by the
exact parameter bytes it digested, and the last passed training block's
replayer, which nothing here reads; a request with other bytes is
hashed afresh, so the memo cannot change a verdict. A request that
cannot be parsed or checked is answered with a 'refused' report, by the
rule the in-process path applies too (``verify_or_refuse``). A frame that
declares more bytes than stdin delivers is answered with 'refused' and
ends the loop; frame bodies are read in bounded pieces, so a bogus
length costs no more memory than the bytes actually sent. Any other
exception kills the worker with a traceback.
"""

from __future__ import annotations

import json
import struct
import sys

from .verifier import (REFUSED, BindingMemo, VerificationReport,
                       VerifierError, verify_or_refuse)

_LENGTH = struct.Struct("<Q")
_PIECE = 1 << 20  # largest single read of a frame body


class FrameError(VerifierError):
    """The input ended inside a frame."""


def frame(data: bytes) -> bytes:
    """``data`` as one frame: its length, then the bytes."""
    return _LENGTH.pack(len(data)) + data


def _read(stream, n: int) -> bytes:
    """Up to ``n`` bytes, fewer only at end of input."""
    parts = []
    while n:
        piece = stream.read(min(n, _PIECE))
        if not piece:
            break
        parts.append(piece)
        n -= len(piece)
    return b"".join(parts)


def read_frame(stream) -> bytes | None:
    """The body of the next frame on a binary stream; None at end of
    input on a frame boundary. Raises FrameError when the input ends
    inside the frame."""
    head = _read(stream, _LENGTH.size)
    if not head:
        return None
    if len(head) < _LENGTH.size:
        raise FrameError(f"input ended inside a frame header "
                         f"({len(head)} of {_LENGTH.size} bytes)")
    (n,) = _LENGTH.unpack(head)
    body = _read(stream, n)
    if len(body) < n:
        raise FrameError(f"frame declares {n} bytes, input ended after "
                         f"{len(body)}")
    return body


def _answer(report: VerificationReport) -> None:
    sys.stdout.write(json.dumps(report.to_json()) + "\n")
    sys.stdout.flush()


def main() -> int:
    memo = BindingMemo()  # this process is one verifier session
    while True:
        try:
            data = read_frame(sys.stdin.buffer)
        except FrameError as e:
            _answer(VerificationReport(block=None, verdict=REFUSED,
                                       note=str(e)))
            return 0
        if data is None:
            return 0
        _answer(verify_or_refuse(data, memo))


if __name__ == "__main__":
    sys.exit(main())
