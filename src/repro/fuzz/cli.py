"""The ``blitzcoin-repro fuzz`` subcommand family.

``fuzz run``      — run a deterministic campaign into a corpus
``fuzz replay``   — replay a repro bundle (or the whole corpus) and
                    verify the recorded failure/fingerprints reproduce
``fuzz shrink``   — minimize an existing repro bundle further
``fuzz corpus``   — list what a corpus holds

Exit codes follow the repo convention: 0 success, 1 findings (a
campaign that uncovered failures, a bundle that no longer reproduces,
a corpus replay that regressed), 2 usage/environment errors — always
one line on stderr, never a traceback.  The errors (:class:`FuzzError`
is a ``ValueError``) and a closed stdout leave through
:func:`repro.cli.main`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.fuzz.campaign import fuzz_campaign, replay_corpus
from repro.fuzz.corpus import Corpus, ReproBundle, load_bundle
from repro.fuzz.oracles import run_oracles
from repro.fuzz.scenario import FuzzError
from repro.fuzz.shrink import shrink_scenario

__all__ = [
    "add_fuzz_parser",
    "cmd_fuzz_corpus",
    "cmd_fuzz_replay",
    "cmd_fuzz_run",
    "cmd_fuzz_shrink",
    "parse_seed_spec",
]

DEFAULT_CORPUS = "fuzz_corpus"


def parse_seed_spec(spec: str) -> List[int]:
    """``"7"`` -> [7]; ``"3..6"`` -> [3, 4, 5, 6].  Raises FuzzError."""
    text = spec.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise FuzzError(
                    f"bad seed spec {spec!r}: range start {lo} > end {hi}"
                )
            if hi - lo >= 4096:
                raise FuzzError(
                    f"bad seed spec {spec!r}: range wider than 4096 seeds"
                )
            seeds = list(range(lo, hi + 1))
        else:
            seeds = [int(text)]
    except ValueError as exc:
        raise FuzzError(
            f"bad seed spec {spec!r}: expected N or N..M"
        ) from exc
    if any(s < 0 for s in seeds):
        raise FuzzError(f"bad seed spec {spec!r}: seeds must be >= 0")
    return seeds


# ---------------------------------------------------------------------- run
def cmd_fuzz_run(args: argparse.Namespace) -> int:
    seeds = parse_seed_spec(args.seeds)
    log = print if args.verbose else None
    total_failures = 0
    for seed in seeds:
        summary = fuzz_campaign(
            seed,
            args.budget,
            args.corpus,
            kind=args.kind,
            shrink=not args.no_shrink,
            log=log,
        )
        total_failures += summary.failures
        print(
            f"seed {seed}: {summary.executed} run, "
            f"{summary.kept} kept, {summary.failures} failing, "
            f"{summary.tokens} tokens total"
        )
        for path in summary.failure_paths:
            print(f"  repro bundle: {path}")
    return 1 if total_failures else 0


# ------------------------------------------------------------------- replay
def cmd_fuzz_replay(args: argparse.Namespace) -> int:
    if args.bundle is not None:
        return _replay_bundle(Path(args.bundle))
    if args.corpus is None:
        raise FuzzError("replay needs a BUNDLE path or --corpus DIR")
    count, broken = replay_corpus(
        args.corpus, log=print if args.verbose else None
    )
    if broken:
        for line in broken:
            print(f"regression: {line}", file=sys.stderr)
        return 1
    print(f"corpus ok: {count} entries replayed clean")
    return 0


def _replay_bundle(path: Path) -> int:
    bundle = load_bundle(path)
    outcome = run_oracles(bundle.scenario)
    reproduced = bundle.failure.key in outcome.failure_keys
    fp_match = outcome.fingerprint == bundle.fingerprint
    print(f"bundle   {path}")
    print(f"scenario {bundle.scenario.describe()}")
    print(f"expected {bundle.failure.key} @ {bundle.fingerprint}")
    print(
        f"observed {','.join(outcome.failure_keys) or '<no failure>'} "
        f"@ {outcome.fingerprint}"
    )
    if reproduced and fp_match:
        print("replay: reproduced bit-identically")
        return 0
    print("replay: DID NOT reproduce", file=sys.stderr)
    return 1


# ------------------------------------------------------------------- shrink
def cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    result = shrink_scenario(
        bundle.scenario,
        bundle.failure.key,
        on_progress=print if args.verbose else None,
    )
    out_path = Path(args.out) if args.out else Path(args.bundle)
    shrunk = ReproBundle(result.scenario, result.failure, result.fingerprint)
    try:
        from repro.core.io import atomic_write_text

        atomic_write_text(out_path, shrunk.to_json())
    except OSError as exc:
        raise FuzzError(f"cannot write {out_path}: {exc}") from exc
    before = bundle.scenario.size
    after = result.scenario.size
    print(
        f"shrunk {before} -> {after} bytes "
        f"({result.attempts} attempts, {result.accepted} accepted)"
    )
    print(f"wrote {out_path}")
    return 0


# ------------------------------------------------------------------- corpus
def cmd_fuzz_corpus(args: argparse.Namespace) -> int:
    corpus = Corpus(args.corpus)
    stats = corpus.stats()
    print(
        f"corpus {args.corpus}: {stats['entries']} entries, "
        f"{stats['failures']} failures, {stats['tokens']} coverage tokens"
    )
    for digest, line in corpus.describe():
        print(f"  {digest[:16]}  {line}")
    for digest in sorted(corpus.failures):
        record = corpus.failures[digest]
        print(f"  {digest[:16]}  FAILING {record['key']} ({record['kind']})")
    return 0


# ------------------------------------------------------------------- parser
def add_fuzz_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``fuzz`` subcommand tree to the main CLI."""
    p = sub.add_parser(
        "fuzz",
        help="coverage-guided scenario fuzzing with alert/sanitizer/"
        "differential oracles (see docs/FUZZING.md)",
    )
    fsub = p.add_subparsers(dest="fuzz_command", required=True)

    fp = fsub.add_parser(
        "run", help="run a deterministic fuzz campaign into a corpus"
    )
    fp.add_argument(
        "--seeds", default="0", metavar="SPEC",
        help="campaign seed or inclusive range, e.g. 7 or 3..6 "
        "(default: 0)",
    )
    fp.add_argument(
        "--budget", type=int, default=25, metavar="N",
        help="scenarios per seed (default: 25)",
    )
    fp.add_argument(
        "--corpus", default=DEFAULT_CORPUS, metavar="DIR",
        help=f"corpus directory (default: {DEFAULT_CORPUS})",
    )
    fp.add_argument(
        "--kind", choices=["engine", "soc"], default=None,
        help="pin every scenario to one kind (default: mixed)",
    )
    fp.add_argument(
        "--no-shrink", action="store_true",
        help="file failures unshrunk (faster triage)",
    )
    fp.add_argument("-v", "--verbose", action="store_true")
    fp.set_defaults(func=cmd_fuzz_run)

    fp = fsub.add_parser(
        "replay",
        help="replay a repro bundle (or a whole corpus) and verify it "
        "reproduces bit-identically",
    )
    fp.add_argument(
        "bundle", nargs="?", default=None,
        help="repro bundle JSON to replay",
    )
    fp.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="replay every corpus entry instead (CI regression mode)",
    )
    fp.add_argument("-v", "--verbose", action="store_true")
    fp.set_defaults(func=cmd_fuzz_replay)

    fp = fsub.add_parser(
        "shrink", help="minimize an existing repro bundle further"
    )
    fp.add_argument("bundle", help="repro bundle JSON to shrink")
    fp.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the shrunk bundle here (default: in place)",
    )
    fp.add_argument("-v", "--verbose", action="store_true")
    fp.set_defaults(func=cmd_fuzz_shrink)

    fp = fsub.add_parser("corpus", help="list a corpus's contents")
    fp.add_argument(
        "--corpus", default=DEFAULT_CORPUS, metavar="DIR",
        help=f"corpus directory (default: {DEFAULT_CORPUS})",
    )
    fp.set_defaults(func=cmd_fuzz_corpus)
