#!/usr/bin/env python3
"""Write ``bench/digests.json``: the sha256 of every document the benchmark
checks, as the current tree produces it.

    python3 bench/capture_digests.py

Run it only on a commit whose outputs are known to be right. The digests
are the byte-identical-output gate: a later change that alters any document
makes the benchmark count that document as a failed operation.
"""

import hashlib
import json
import sys

from run import DIGESTS, WORKLOADS, command, regen_documents, spawn

# The sizes the tests of the benchmark run, next to the benchmark's own.
SIZES = {"table": (2, 3, 9), "check": (3, 8)}


def main() -> int:
    digests = {}
    for kind, sizes in SIZES.items():
        for size in sizes:
            report = spawn(["once", "--trace", "0", "--", *command(kind, size)])["report"]
            if report is None or report["code"] != 0:
                print(f"error: {kind} {size} failed", file=sys.stderr)
                return 1
            digests[" ".join(command(kind, size))] = hashlib.sha256(
                report["document"].encode()).hexdigest()
    docs = regen_documents(WORKLOADS["regen-tables"][1])
    report = spawn(["rounds", "--seconds", "0", "--trace", "0"],
                   stdin_text=json.dumps(docs))["report"]
    for k, code, digest, _ in report["results"]:
        if code != 0:
            print(f"error: {' '.join(docs[k])} exited {code}", file=sys.stderr)
            return 1
        digests[" ".join(docs[k])] = digest
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
