"""Isolated verifier entry point.

Reads one serialized VerificationRequest from stdin and writes the
report as JSON to stdout. The process sees nothing but the request
bytes, so verification cannot depend on ambient run state. A request
that cannot be parsed or checked is answered with a 'refused' report.
"""

from __future__ import annotations

import json
import sys

from .verifier import (REFUSED, VerificationReport, VerificationRequest,
                       VerifierError, verify_block)


def main() -> int:
    data = sys.stdin.buffer.read()
    req = None
    try:
        req = VerificationRequest.from_bytes(data)
        report = verify_block(req)
    except VerifierError as e:
        report = VerificationReport(block=req.block if req else None,
                                    verdict=REFUSED, note=str(e))
    json.dump(report.to_json(), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
