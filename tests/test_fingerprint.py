"""Behavioural fingerprint of the bundled portrait recipes and of the
limit cycles of the oscillating regimes.

Every seed of every recipe is integrated in both tau directions over
tau 30 and reduced to its termination, asymptotic label, sign-change
count and the number of events of each kind.  The committed file pins
these; a change that moves them re-records the file with

    PYTHONPATH=src python tests/test_fingerprint.py

and says in its description why they moved.  The command prints, for
each of the three files below, every value it moves as old -> new, with
the relative move of a number, or that nothing moved.

The cycles that ``classify_regime`` certifies for the osc, sou, orb and
clin representatives are pinned bit for bit in ``CYCLES``.  The
connection function and the alpha_c searches are pinned bit for bit in
``alpha_c_fingerprint.json``, which the same command re-records.

The bytes that ``plap shoot`` and ``plap portrait`` write are pinned by
their SHA-256 in ``write_fingerprint.json``: the CSV and events CSV of
the benchmark's seven shootings and the SVG of every bundled recipe.
The same command re-records it.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from plap.analysis import (_search_interval, asymptotic_label, classify_regime,
                           count_sign_changes, critical_bracket, find_alpha_c,
                           phi_of_alpha)
from plap.cli import RECIPE_DIR, main
from plap.integrate import integrate_s
from plap.params import ProblemParams
from plap.systems import PhaseState

FINGERPRINT = Path(__file__).with_name("recipe_fingerprint.json")
ALPHA_C_FINGERPRINT = Path(__file__).with_name("alpha_c_fingerprint.json")
WRITE_FINGERPRINT = Path(__file__).with_name("write_fingerprint.json")
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


# (period_tau, fixed_point, floquet_mean, crossings_seen, orbit samples) of
# each detected cycle, by tag representative (N=1, p=3, eps=-1, alpha) and
# the cycle's source orbit
CYCLES = {
    -4.0: {  # osc
        "O_r": (1.5007691148384916, 0.02285873716918111, -1.870128553414873, 132, 116),
        "O_eps": (1.50076911484044, 0.02285873717034122, -1.8701285534387282, 134, 116),
    },
    -2.53: {  # sou
        "O_r": (2.340115630969469, 0.019549999610192388, -1.6711544958107472, 85, 130),
        "O_eps": (2.3401156309692888, 0.01954999961029284, -1.6711544958187519, 85, 130),
    },
    -2.1: {  # orb
        "O_alpha": (2.7668703525346694, -0.008304600970045928, 0.4936886573435756, 72, 54),
        "O_eps": (3.218694073183276, 0.016192628966954347, -1.3265440124920431, 62, 142),
    },
    -2.0: {  # clin
        "O_r": (3.779740837120766, 0.014216165854395021, -0.9996444754110323, 53, 151),
    },
}


@pytest.mark.parametrize("alpha", sorted(CYCLES))
def test_cycle_fingerprint(alpha):
    report = classify_regime(ProblemParams(1, 3.0, alpha, -1))
    got = {c.meta["source"]: (c.period_tau, c.fixed_point, float(c.floquet_mean),
                              c.meta["crossings_seen"], c.orbit.shape[1])
           for c in report.cycles}
    assert got == CYCLES[alpha]


# (N, p, force_bisection): the benchmark's alpha_c searches and the forced
# N = 1 search
ALPHA_C_SEARCHES = [(2, 3.0, False), (3, 3.0, False), (2, 4.0, False),
                    (2, 2.5, False), (1, 3.0, True)]


def alpha_c_fingerprint() -> dict:
    """phi at the quarter points of each search interval, and each
    search's value, bracket and iteration count."""
    prints: dict = {"phi": {}, "alpha_c": {}}
    for N, p, force in ALPHA_C_SEARCHES:
        lo, hi = _search_interval(*critical_bracket(N, p))
        for k in (1, 2, 3):
            alpha = lo + k * (hi - lo) / 4.0
            prints["phi"][f"{N} {p!r} {alpha!r}"] = phi_of_alpha(N, p, alpha)
        res = find_alpha_c(N, p, force_bisection=force)
        prints["alpha_c"][f"{N} {p!r}"] = [res.value, list(res.bracket),
                                           res.iterations]
    return prints


def test_alpha_c_fingerprint():
    assert alpha_c_fingerprint() == json.loads(ALPHA_C_FINGERPRINT.read_text())


# (kind, N, p, alpha, eps): the shootings of the benchmark's figures workload
SHOOTS = [("T_r", 2, 3.0, 2.0, 1), ("T_eps", 2, 3.0, 1.0, 1),
          ("T_alpha", 1, 3.0, -2.53, -1), ("T_eta", 4, 3.0, 1.0, 1),
          ("T_u", 2, 3.0, 1.0, 1), ("T_plus", 1, 3.0, 1.0, 1),
          ("T_minus", 2, 3.0, 1.0, 1)]


def write_fingerprint() -> dict:
    """Output file name -> the SHA-256 of the bytes the CLI wrote there."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for kind, N, p, alpha, eps in SHOOTS:
            assert main(["shoot", "--kind", kind, "--N", str(N), "--p", f"{p:g}",
                         "--alpha", f"{alpha:g}", "--eps", str(eps),
                         "--out", str(out / f"shoot-{kind}.csv")]) == 0
        for recipe in sorted(RECIPE_DIR.glob("fig*.json")):
            assert main(["portrait", "--recipe", recipe.stem,
                         "--out", str(out / f"{recipe.stem}.svg")]) == 0
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(out.iterdir()) if f.suffix in (".csv", ".svg")}


def test_write_fingerprint(capsys):
    got = write_fingerprint()
    capsys.readouterr()
    assert got == json.loads(WRITE_FINGERPRINT.read_text())


def _leaves(doc, path=()):
    """(path, value) for every leaf of a JSON document, in document order;
    a path names dict keys and list indices."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, path + (str(key),))
    else:
        yield path, doc


def moves(old, new) -> list:
    """One line per leaf that differs between two JSON documents, ``path:
    old -> new``, a missing leaf read as ``absent``, and for two numbers
    their relative move."""
    a, b = dict(_leaves(old)), dict(_leaves(new))
    lines = []
    for path in [*a, *(p for p in b if p not in a)]:
        x, y = a.get(path), b.get(path)
        if path in a and path in b and x == y and type(x) is type(y):
            continue
        shown = (repr(d[path]) if path in d else "absent" for d in (a, b))
        line = f"{' / '.join(path)}: {' -> '.join(shown)}"
        if x and all(type(v) in (int, float) for v in (x, y)):
            line += f" ({(y - x) / abs(x):+.2e})"
        lines.append(line)
    return lines


def test_moves_lists_each_changed_leaf():
    old = {"phi": {"a": 2.0, "b": 1.0}, "alpha_c": {"k": [-1.5, [-2.0, -1.0], 5]},
           "gone": "x"}
    new = {"phi": {"a": 2.0, "b": 1.5}, "alpha_c": {"k": [-1.5, [-2.0, -1.25], 4]},
           "new": True}
    assert moves(old, new) == ["phi / b: 1.0 -> 1.5 (+5.00e-01)",
                               "alpha_c / k / 1 / 1: -1.0 -> -1.25 (-2.50e-01)",
                               "alpha_c / k / 2: 5 -> 4 (-2.00e-01)",
                               "gone: 'x' -> absent", "new: absent -> True"]
    assert moves(new, json.loads(json.dumps(new))) == []


if __name__ == "__main__":
    for target, build in ((FINGERPRINT, recipe_fingerprint),
                          (ALPHA_C_FINGERPRINT, alpha_c_fingerprint),
                          (WRITE_FINGERPRINT, write_fingerprint)):
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's own output
            got = build()
        lines = moves(json.loads(target.read_text()), got)
        print(f"{target.name}: {len(lines)} moved" if lines else f"{target.name}: nothing moved")
        for line in lines:
            print(f"  {line}")
        target.write_text(json.dumps(got, indent=1) + "\n")
