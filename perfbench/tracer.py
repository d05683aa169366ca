"""Interposition tracer for the traced benchmark run.

While a :class:`Tracer` is active, every public function of each plap layer
(``params``, ``systems``, ``integrate``, ``trajectories``, ``analysis``,
``cli``) is replaced by a span wrapper in every plap namespace that binds
it, and ``scipy.integrate.solve_ivp`` is replaced by a counting wrapper in
each layer that binds it.  Leaving the ``with`` block restores every
original binding.

Modules are resolved through ``sys.modules``: the package re-exports the
``integrate()`` function over the ``plap.integrate`` submodule, so
``import plap.integrate as m`` (or ``getattr(plap, "integrate")``) yields
the function, and a wrapper installed through that name never fires.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import scipy.integrate

LAYERS = ("params", "systems", "integrate", "trajectories", "analysis", "cli")

# RK45 spends one evaluation on the initial slope and one on the initial
# step-size guess, then six per attempted step (FSAL pair).
_RK45_START_EVALS = 2
_RK45_EVALS_PER_ATTEMPT = 6


def layer_module(layer: str):
    """The plap submodule of a layer, never the same-named re-export."""
    return sys.modules["plap." + layer]


def _plap_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "plap" or name.startswith("plap."))]


def binding_sites(obj):
    """Every (module, name) among the loaded plap modules bound to ``obj``."""
    return [(mod, name) for mod in _plap_modules()
            for name, val in list(vars(mod).items()) if val is obj]


def public_functions(mod):
    """(name, callable) for the public functions a module defines itself."""
    return [(name, obj) for name, obj in list(vars(mod).items())
            if not name.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__]


class Tracer:
    """Per-layer spans and solver counters for the calls made while active.

    A span's self time is its duration minus the time of the spans it
    encloses; a layer is entered when a span of it starts outside any span
    of the same layer.  ``solve_ivp`` calls are counted against the layer
    whose namespace bound the name, and their time stays in that layer.
    """

    def __init__(self):
        self._patches: list = []
        self._stack: list = []
        self.calls: Counter = Counter()          # "layer.fn" -> calls
        self.entries: Counter = Counter()        # layer -> entries
        self.self_s: defaultdict = defaultdict(float)   # "layer.fn" -> s
        self.incl_s: defaultdict = defaultdict(float)   # "layer.fn" -> s
        self.launch_s = 0.0      # trajectories time outside integrate spans
        # layer -> [calls, nfev, accepted steps, RK45 attempted steps]
        self.solver = {layer: [0, 0, 0, 0] for layer in LAYERS}
        self.orbits: Counter = Counter()         # integrate_s results
        self.alpha_c_iterations = 0
        self._hooks = {
            "integrate.integrate_s": self._on_orbit,
            "analysis.find_alpha_c": self._on_alpha_c,
        }

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            original_solver = scipy.integrate.solve_ivp
            for layer in LAYERS:
                mod = layer_module(layer)
                for name, fn in public_functions(mod):
                    self._rebind(fn, self._span(layer, name, fn))
                if vars(mod).get("solve_ivp") is original_solver:
                    self._patch(mod, "solve_ivp",
                                self._solver(layer, original_solver))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, mod, name, value) -> None:
        self._patches.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def _rebind(self, fn, wrapper) -> None:
        for mod, name in binding_sites(fn):
            self._patch(mod, name, wrapper)

    def _restore(self) -> None:
        while self._patches:
            mod, name, original = self._patches.pop()
            setattr(mod, name, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stack = self._stack
        clock = time.perf_counter
        calls, entries = self.calls, self.entries
        self_s, incl_s = self.self_s, self.incl_s
        hook = self._hooks.get(key)
        is_integrate = layer == "integrate"
        is_launch = layer == "trajectories"

        def span(*args, **kwargs):
            outer = stack[-1] if stack else None
            # [layer, time in enclosed spans, time in enclosed integrate spans]
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                calls[key] += 1
                self_s[key] += d - frame[1]
                incl_s[key] += d
                entered = outer is None or outer[0] != layer
                if entered:
                    entries[layer] += 1
                    if is_launch:
                        self.launch_s += d - frame[2]
                if outer is not None:
                    outer[1] += d
                    outer[2] += d if is_integrate else frame[2]
            if hook is not None:
                hook(result)
            return result

        return span

    def _solver(self, layer: str, solve_ivp):
        rec = self.solver[layer]

        def counted_solve_ivp(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            rec[0] += 1
            rec[1] += int(sol.nfev)
            rec[2] += int(sol.t.size) - 1
            method = kwargs.get("method", args[3] if len(args) > 3 else "RK45")
            if method == "RK45" and "first_step" not in kwargs:
                rec[3] += (int(sol.nfev) - _RK45_START_EVALS) \
                    // _RK45_EVALS_PER_ATTEMPT
            return sol

        return counted_solve_ivp

    def _on_orbit(self, traj) -> None:
        o = self.orbits
        o["orbits"] += 1
        o["tau"] += abs(float(traj.tau[-1]) - float(traj.tau[0]))
        o["samples"] += int(traj.tau.size)
        o["axis_crossings"] += sum(1 for e in traj.events
                                   if e.kind == "Y_zero_crossing")
        o["time_span"] += traj.termination == "time_span"

    def _on_alpha_c(self, result) -> None:
        self.alpha_c_iterations += int(result.iterations)

    # -- derived metrics --------------------------------------------------

    def layer_self_s(self, layer: str, exclude=()) -> float:
        prefix = layer + "."
        return sum((v for k, v in self.self_s.items()
                    if k.startswith(prefix) and k[len(prefix):] not in exclude),
                   0.0)

    def fired(self) -> set:
        """Names of the spans and solver bindings that ran at least once."""
        names = {k for k, n in self.calls.items() if n}
        names |= {f"solve_ivp@{layer}" for layer, rec in self.solver.items()
                  if rec[0]}
        return names

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        def ratio(a, b):
            return a / b if b else 0.0

        o = self.orbits
        orbit_s = self.incl_s["integrate.integrate_s"]
        phi_evals = self.calls["analysis.phi_of_alpha"]
        s_calls, s_nfev, s_steps, s_attempts = self.solver["integrate"]
        t_calls, t_nfev, _, _ = self.solver["trajectories"]
        return {
            "params.self_s": (self.layer_self_s("params"), "s"),
            "systems.self_s": (self.layer_self_s("systems"), "s"),
            "systems.phi_Y.calls": (self.calls["systems.phi_Y"], "count"),
            "integrate.calls": (self.entries["integrate"], "count"),
            "integrate.self_s": (self.layer_self_s("integrate"), "s"),
            "integrate.tau": (o["tau"], "tau"),
            "integrate.s_per_tau": (ratio(orbit_s, o["tau"]), "s/tau"),
            "integrate.samples": (o["samples"], "count"),
            "integrate.us_per_sample":
                (1e6 * ratio(orbit_s, o["samples"]), "us/sample"),
            "integrate.axis_crossings": (o["axis_crossings"], "count"),
            "integrate.time_span_share":
                (ratio(o["time_span"], o["orbits"]), "ratio"),
            "integrate.solver_calls": (s_calls, "count"),
            "integrate.nfev": (s_nfev, "count"),
            "integrate.steps": (s_steps, "count"),
            "integrate.step_accept_ratio": (ratio(s_steps, s_attempts), "ratio"),
            "trajectories.calls": (self.entries["trajectories"], "count"),
            "trajectories.launch_s": (self.launch_s, "s"),
            "trajectories.solver_calls": (t_calls, "count"),
            "trajectories.nfev": (t_nfev, "count"),
            "analysis.phi_evals": (phi_evals, "count"),
            "analysis.phi_ms_per_eval":
                (1e3 * ratio(self.incl_s["analysis.phi_of_alpha"], phi_evals),
                 "ms"),
            "analysis.phi_nfev": (self.solver["analysis"][1], "count"),
            "analysis.alpha_c_iterations": (self.alpha_c_iterations, "count"),
            "analysis.cycle_s": (self.incl_s["analysis.detect_limit_cycle"], "s"),
            "analysis.postproc_s":
                (self.layer_self_s("analysis", exclude=("phi_of_alpha",)), "s"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
        }
