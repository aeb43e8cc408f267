"""Function-boundary tracer for the retroops modules, installed from outside.

The tracer replaces selected public functions of ``retroops`` with wrappers
that count calls and accumulate self time (a span's duration minus the part
covered by spans it caused).  It edits no file of the package: every module
global, package re-export and module-level dict entry (such as
``cli.COMMANDS``) that refers to a wrapped function is re-bound to the
wrapper, so calls through imported copies (``superop.hermitian_eig``,
``cli.hermitian_eig``, ``sim.apply``, ...) are counted too.

A name listed in :data:`SPANS` that the package no longer has is recorded in
``Tracer.absent`` and its metrics read zero; it never raises.

Spans are aggregated per span group while they close rather than stored one
by one: the deep sampler workload makes millions of ``apply`` calls, which
would not fit in memory as individual records.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: Span group -> (module, function names).  Each group is one layer metric.
SPANS = {
    "matcore.eig": ("matcore", ("hermitian_eig",)),
    "superop.classify": ("superop", ("classify",)),
    "superop.extract_kraus": ("superop", ("extract_kraus",)),
    "superop.apply": ("superop", ("apply",)),
    "sim.estimate": ("sim", ("estimate",)),
    "sim.exact_sequence_probability": ("sim", ("exact_sequence_probability",)),
    "bayes": ("bayes", ("p_pred", "p_retro", "p_prior", "bayes_retrodict", "bayes_predict", "time_reverse")),
    "instrument.make_instrument": ("instrument", ("make_instrument",)),
    "instrument.query": (
        "instrument",
        ("product", "summed", "p_inst_pred", "p_inst_retro", "p_inst", "p_cond_pred", "p_cond_retro"),
    ),
    "states": ("states", ("state_prior", "state_posterior", "state_of_instrument", "effects_of", "expect")),
    "cli.parse_scenario": ("cli", ("parse_scenario",)),
    "cli.command": (
        "cli",
        ("cmd_check", "cmd_kraus", "cmd_prob", "cmd_bayes", "cmd_reverse", "cmd_state", "cmd_simulate", "cmd_run"),
    ),
    "cli.main": ("cli", ("main",)),
}

PACKAGE = "retroops"


class Tracer:
    """Call counts and self times per span group, collected while ``active``."""

    def __init__(self):
        self.active = False
        self.calls = {group: 0 for group in SPANS}
        self.self_s = {group: 0.0 for group in SPANS}
        self.absent = []
        # One entry per open span: time covered by its finished child spans.
        self._child_s = []

    def _wrap(self, group: str, fn):
        clock = time.perf_counter
        stack = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.calls[group] += 1
                self.self_s[group] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> "Tracer":
        """Wrap every name in :data:`SPANS` that the package defines."""
        found = {}
        for mod_name, _ in SPANS.values():
            try:
                found[mod_name] = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                pass
        # Collected after the imports above, so every importing module is rebound.
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for group, (mod_name, fn_names) in SPANS.items():
            for fn_name in fn_names:
                orig = getattr(found.get(mod_name), fn_name, None)
                if not callable(orig):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                _rebind(modules, orig, self._wrap(group, orig))
        return self

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "absent": list(self.absent)}


def _rebind(modules, orig, wrapper) -> None:
    """Point every module-level reference to ``orig`` at ``wrapper``."""
    for mod in modules:
        space = vars(mod)
        for key, value in list(space.items()):
            if value is orig:
                space[key] = wrapper
            elif isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapper


def per_unit(snapshot: dict, units: int) -> dict:
    """Per-layer metric values (per unit of work) from a tracer snapshot."""
    n = max(units, 1)
    calls, self_s = snapshot["calls"], snapshot["self_s"]
    ms = {g: 1000.0 * self_s.get(g, 0.0) / n for g in SPANS}
    return {
        "matcore.eig.calls": calls.get("matcore.eig", 0) / n,
        "matcore.eig.self_ms": ms["matcore.eig"],
        "superop.classify.calls": calls.get("superop.classify", 0) / n,
        "superop.classify.self_ms": ms["superop.classify"],
        "superop.extract_kraus.self_ms": ms["superop.extract_kraus"],
        "superop.apply.calls": calls.get("superop.apply", 0) / n,
        "sim.estimate.self_ms": ms["sim.estimate"],
        "sim.exact_sequence_probability.self_ms": ms["sim.exact_sequence_probability"],
        "bayes.self_ms": ms["bayes"],
        "instrument.make_instrument.self_ms": ms["instrument.make_instrument"],
        "instrument.query.self_ms": ms["instrument.query"],
        "states.self_ms": ms["states"],
        "cli.parse_scenario.self_ms": ms["cli.parse_scenario"],
        "cli.command.self_ms": ms["cli.command"],
        "cli.main.self_ms": ms["cli.main"],
    }


def import_times(stderr_text: str) -> dict:
    """``import.numpy_ms`` and ``import.retroops_self_ms`` from ``-X importtime`` output."""
    numpy_us = 0
    retroops_us = 0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(parts[0]), int(parts[1]), parts[2].strip()
        if name == "numpy":
            numpy_us = cumulative_us
        elif name == PACKAGE or name.startswith(PACKAGE + "."):
            retroops_us += self_us
    return {"import.numpy_ms": numpy_us / 1000.0, "import.retroops_self_ms": retroops_us / 1000.0}
