"""Cross-revision pin of every drill's report.

``tests/baselines/drill_fingerprints.json`` holds the SHA-256 of each
scenario's report in ``drill-all --seed 0 --json``, serialised exactly as
the CLI prints it, plus the hash of the whole aggregate stdout.  A
refactor that is meant to be behaviour-preserving must leave every hash
in place; a change that is meant to alter a drill's output re-pins the
file (rerun the drill-all command above and rehash) with a CHANGES.md
line saying why.
"""

import hashlib
import json
import pathlib

from repro.cli import main

BASELINE = pathlib.Path(__file__).parent / "baselines" / "drill_fingerprints.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_drill_all_reports_match_pinned_fingerprints(capsys):
    pinned = json.loads(BASELINE.read_text())
    rc = main(["drill-all", "--seed", "0", "--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert rc == 0 and doc["pass"] is True, [
        d["scenario"] for d in doc["drills"] if not d["pass"]]

    actual = {r["scenario"]: _sha256(json.dumps(
                  r, indent=2, sort_keys=True, default=str))
              for r in doc["reports"]}
    moved = sorted(s for s in pinned["reports"].keys() | actual.keys()
                   if pinned["reports"].get(s) != actual.get(s))
    assert not moved, f"drill report fingerprint moved for: {moved}"
    assert list(actual) == list(pinned["reports"]), "drill roster reordered"
    assert _sha256(out) == pinned["stdout_sha256"], (
        "per-drill reports match but the drill-all envelope moved")
