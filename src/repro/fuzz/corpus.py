"""The content-addressed corpus: interesting seeds and failing repros.

Layout (all JSON, all written atomically, nothing timestamped)::

    <root>/
      manifest.json           # the campaign ledger (sorted, canonical)
      entries/<hash>.json     # coverage-interesting scenarios
      failures/<hash>.json    # repro bundles (scenario + failure record)

``<hash>`` is the scenario's sha256 content hash, so re-adding an
identical scenario is a no-op and two deterministic campaigns produce
byte-identical trees.  The manifest records, per entry, the coverage
tokens it contributed and the fingerprint it produced — enough to
diff two campaigns without re-running anything.

Writes go through :func:`repro.core.io.atomic_write_text`
(write-temp + fsync + rename), the same machinery campaign result
stores use, so a crashed fuzz run never leaves a torn corpus.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.core.io import atomic_write_text
from repro.fuzz.oracles import Failure, FuzzOutcome
from repro.fuzz.scenario import FuzzError, Scenario

__all__ = ["Corpus", "ReproBundle", "load_bundle"]

#: Manifest schema version.
MANIFEST_SCHEMA = 1


class ReproBundle:
    """A failing scenario frozen together with what it tripped.

    The on-disk form is one JSON document; ``replay`` via
    :func:`repro.fuzz.oracles.run_oracles` must reproduce
    ``failure.key`` bit-identically (same fingerprint) — that is the
    bundle's contract, checked by ``blitzcoin-repro fuzz replay``.
    """

    def __init__(
        self,
        scenario: Scenario,
        failure: Failure,
        fingerprint: str,
    ) -> None:
        self.scenario = scenario
        self.failure = failure
        self.fingerprint = fingerprint

    def to_json(self) -> str:
        doc = {
            "schema": MANIFEST_SCHEMA,
            "scenario": self.scenario.to_dict(),
            "failure": self.failure.to_dict(),
            "fingerprint": self.fingerprint,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReproBundle":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FuzzError(f"repro bundle is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise FuzzError("repro bundle must be a JSON object")
        missing = {"scenario", "failure", "fingerprint"} - set(doc)
        if missing:
            raise FuzzError(
                f"repro bundle missing field(s): {', '.join(sorted(missing))}"
            )
        return cls(
            scenario=Scenario.from_dict(doc["scenario"]),
            failure=Failure.from_dict(doc["failure"]),
            fingerprint=str(doc["fingerprint"]),
        )


def load_bundle(path: Union[str, Path]) -> ReproBundle:
    """Read a repro bundle from disk."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise FuzzError(f"cannot read repro bundle {p}: {exc}") from exc
    return ReproBundle.from_json(text)


class Corpus:
    """A fuzz corpus rooted at a directory; lazily loads its manifest."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.entries: Dict[str, Dict[str, Any]] = {}
        self.failures: Dict[str, Dict[str, Any]] = {}
        self.seen_tokens: Set[str] = set()
        #: The campaign ledger; a directory without one is a new corpus.
        self.manifest = self.root / "manifest.json"
        if self.manifest.exists():
            self._load_manifest(self.manifest)

    # ------------------------------------------------------------------ load
    def _load_manifest(self, path: Path) -> None:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FuzzError(f"corrupt corpus manifest {path}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA:
            raise FuzzError(
                f"unsupported corpus manifest schema in {path} "
                f"(expected {MANIFEST_SCHEMA})"
            )
        self.entries = dict(doc.get("entries", {}))
        self.failures = dict(doc.get("failures", {}))
        for record in self.entries.values():
            self.seen_tokens.update(record.get("tokens", []))

    def load_scenario(self, digest: str) -> Scenario:
        """Load one corpus entry by content hash (validates the hash)."""
        path = self.root / "entries" / f"{digest}.json"
        try:
            scenario = Scenario.from_json(path.read_text())
        except OSError as exc:
            raise FuzzError(f"missing corpus entry {digest}: {exc}") from exc
        if scenario.scenario_hash != digest:
            raise FuzzError(
                f"corpus entry {digest} is corrupt: content hashes to "
                f"{scenario.scenario_hash}"
            )
        return scenario

    def scenarios(self) -> List[Scenario]:
        """All corpus entries, in hash order."""
        return [self.load_scenario(d) for d in sorted(self.entries)]

    # ----------------------------------------------------------------- write
    def add_entry(
        self, scenario: Scenario, outcome: FuzzOutcome
    ) -> Optional[List[str]]:
        """Keep ``scenario`` iff it covers new tokens; returns them.

        Returns None when the scenario adds nothing (not stored).
        """
        fresh = sorted(t for t in outcome.coverage if t not in self.seen_tokens)
        if not fresh:
            return None
        digest = scenario.scenario_hash
        self.seen_tokens.update(fresh)
        self.entries[digest] = {
            "kind": scenario.kind,
            "size": scenario.size,
            "fingerprint": outcome.fingerprint,
            "tokens": fresh,
        }
        atomic_write_text(
            self.root / "entries" / f"{digest}.json", scenario.to_json()
        )
        self._write_manifest()
        return fresh

    def add_failure(self, bundle: ReproBundle) -> Path:
        """Store a failing repro bundle; returns its path."""
        digest = bundle.scenario.scenario_hash
        path = self.root / "failures" / f"{digest}.json"
        self.failures[digest] = {
            "kind": bundle.scenario.kind,
            "size": bundle.scenario.size,
            "oracle": bundle.failure.oracle,
            "key": bundle.failure.key,
            "fingerprint": bundle.fingerprint,
        }
        atomic_write_text(path, bundle.to_json())
        self._write_manifest()
        return path

    def _write_manifest(self) -> None:
        doc = {
            "schema": MANIFEST_SCHEMA,
            "entries": {d: self.entries[d] for d in sorted(self.entries)},
            "failures": {d: self.failures[d] for d in sorted(self.failures)},
        }
        atomic_write_text(
            self.manifest, json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )

    # ----------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self.entries),
            "failures": len(self.failures),
            "tokens": len(self.seen_tokens),
        }

    def describe(self) -> List[Tuple[str, str]]:
        """(hash, one-line summary) pairs for every entry, hash order."""
        lines: List[Tuple[str, str]] = []
        for digest in sorted(self.entries):
            record = self.entries[digest]
            lines.append(
                (
                    digest,
                    f"{record['kind']} size={record['size']} "
                    f"tokens=+{len(record['tokens'])}",
                )
            )
        return lines
