"""Behavioural fingerprint of the bundled portrait recipes.

Every seed of every recipe is integrated in both tau directions over
tau 30 and reduced to its termination, asymptotic label, sign-change
count and the number of events of each kind.  The committed file pins
these; a change that moves them re-records the file with

    PYTHONPATH=src python tests/test_fingerprint.py

and says in its description why they moved.
"""

import json
from collections import Counter
from pathlib import Path

from plap.analysis import asymptotic_label, count_sign_changes
from plap.cli import RECIPE_DIR
from plap.integrate import integrate_s
from plap.params import ProblemParams
from plap.systems import PhaseState

FINGERPRINT = Path(__file__).with_name("recipe_fingerprint.json")
TAU_SPAN = 30.0


def recipe_fingerprint() -> dict:
    """``"<recipe> <seed index> <direction>"`` -> the arc's digest."""
    prints = {}
    for path in sorted(RECIPE_DIR.glob("fig*.json")):
        rec = json.loads(path.read_text())
        params = ProblemParams(rec["N"], rec["p"], rec["alpha"], rec["eps"])
        for k, (y, Y) in enumerate(rec["seeds"]):
            for direction in (1, -1):
                t = integrate_s(PhaseState(0.0, y, Y), params, direction,
                                tau_span=TAU_SPAN)
                prints[f"{path.stem} {k} {direction:+d}"] = {
                    "termination": t.termination,
                    "label": asymptotic_label(t, params),
                    "sign_changes": count_sign_changes(t),
                    "events": dict(sorted(Counter(e.kind for e in t.events).items())),
                }
    return prints


def test_recipe_fingerprint():
    want = json.loads(FINGERPRINT.read_text())
    got = recipe_fingerprint()
    assert sorted(got) == sorted(want)
    moved = {key: (want[key], got[key]) for key in want if got[key] != want[key]}
    assert not moved


if __name__ == "__main__":
    FINGERPRINT.write_text(json.dumps(recipe_fingerprint(), indent=1) + "\n")
