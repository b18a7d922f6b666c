"""One benchmark process: import torusconf, run CLI documents, report.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 bench/child.py setup
    python3 bench/child.py once  --trace 0|1 -- table --d 9
    python3 bench/child.py rounds --seconds S --seed N --trace 0|1 < docs.json

``setup`` only imports the package. ``once`` runs one CLI document, as a
fresh ``torusconf`` process would. ``rounds`` reads a JSON list of argument
lists on stdin and runs it round after round through ``cli.main`` in this
one process until ``--seconds`` have passed; each round is shuffled by a
generator seeded with ``--seed``. With ``--trace 1`` the ``rounds`` mode runs
untraced for the first third of its time and traced for the rest, so that
both round times are measured in one process.

The last line on stdout is one JSON object. ``t_ready`` is CLOCK_MONOTONIC
right after ``import torusconf.cli``, so the parent can split its own
spawn-to-exit time into set-up and run time. ``maxrss_kb`` is this process's
own peak RSS, read when the work ends and before the report is built, so
that the size of the report does not show in it.
"""

import sys
import time

import torusconf.cli as cli

T_READY = time.monotonic()

import argparse  # noqa: E402  (kept out of the set-up time)
import array  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402

# Latencies go into storage allocated up front, so that the peak RSS of a
# run does not grow with the number of documents it managed to run.
LATENCY_SLOTS = 1 << 17


class CheckTap:
    """Records each check the suite reports through its ``progress``
    callback, traced or not, by chaining the CLI's own callback."""

    def __init__(self) -> None:
        self.checks: list[tuple[str, bool, float]] = []

    def install(self) -> None:
        run_checks = getattr(cli, "run_checks", None)
        if run_checks is None:
            return
        checks = self.checks

        def tapped(*args, progress=None, **kwargs):
            def chained(entry, seconds):
                checks.append((entry.name, bool(entry.passed), seconds))
                if progress is not None:
                    progress(entry, seconds)

            return run_checks(*args, progress=chained, **kwargs)

        layers.rebind(run_checks, tapped)


def capture(argv: list[str]) -> tuple[int | str, str]:
    """Run ``cli.main(argv)`` with stdout and stderr captured.

    Returns the exit code (or the text of an exception) and the stdout text.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # reported to the parent as a failed document
            code = f"raised {exc!r}"
    return code, out.getvalue()


def mode_once(argv: list[str], trace: bool) -> dict:
    tracer = layers.Tracer()
    if trace:
        layers.install(tracer)
    tap = CheckTap()
    tap.install()
    code, text = capture(argv)
    return {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "code": code,
        "document": text,
        "checks": tap.checks,
        "trace": tracer.snapshot() if trace else None,
    }


def mode_rounds(docs: list[list[str]], seconds: float, seed: int, trace: bool) -> dict:
    rng = random.Random(seed)
    tracer = layers.Tracer()
    order = list(range(len(docs)))
    seen: dict[tuple, int] = {}
    latencies = array.array("d", bytes(8 * LATENCY_SLOTS))
    samples = 0
    rounds: list[float] = []
    traced_rounds: list[float] = []
    out_bytes = 0
    begin = time.perf_counter()
    untraced_until = begin + (seconds / 3 if trace else seconds)
    traced = False
    while True:
        if trace and not traced and time.perf_counter() >= untraced_until:
            layers.install(tracer)
            traced = True
        rng.shuffle(order)
        round_start = time.perf_counter()
        for k in order:
            t0 = time.perf_counter()
            code, text = capture(docs[k])
            t1 = time.perf_counter()
            if not traced and samples < LATENCY_SLOTS:
                latencies[samples] = t1 - t0
                samples += 1
            data = text.encode()
            key = (k, code, hashlib.sha256(data).hexdigest())
            seen[key] = seen.get(key, 0) + 1
            out_bytes += len(data)
        elapsed = time.perf_counter() - round_start
        (traced_rounds if traced else rounds).append(elapsed)
        typical = sorted(rounds + traced_rounds)[len(rounds + traced_rounds) // 2]
        if time.perf_counter() + typical > begin + seconds and (traced or not trace):
            break
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "maxrss_kb": maxrss_kb,
        "rounds": rounds,
        "traced_rounds": traced_rounds,
        "latencies": latencies[:samples].tolist(),
        "results": [[k, code, digest, n] for (k, code, digest), n in seen.items()],
        "out_bytes": out_bytes,
        "trace": tracer.snapshot() if trace else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "once", "rounds"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    raw = sys.argv[1:]
    cut = raw.index("--") if "--" in raw else len(raw)
    args = parser.parse_args(raw[:cut])
    report: dict = {"t_ready": T_READY}
    if args.mode == "once":
        report.update(mode_once(raw[cut + 1:], bool(args.trace)))
    elif args.mode == "rounds":
        docs = json.loads(sys.stdin.read())
        report.update(mode_rounds(docs, args.seconds, args.seed, bool(args.trace)))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
