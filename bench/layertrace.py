"""Outside-in tracing of the steinalg layers.

``install`` wraps the functions named in ``LAYERS`` and rebinds every
reference to them in every loaded ``steinalg`` module, because
``from .groups import free_mul`` copies the function into the importing
module at import time and wrapping only the defining module would miss
those call sites.  Each wrapper counts calls and accumulates self time
(its duration minus the time spent in wrapped callees) and inclusive
time; a few observers also read counts off the returned values.  All of
it stays in memory until ``Tracer.snapshot`` is read at the end of the
run.  Names that a tree no longer defines are recorded as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "steinalg"

# module -> functions wrapped; the cli entries are the check sections of
# ``verify`` and ``scatter``, traced for per-check wall time
LAYERS = {
    "groups": ("free_mul", "sphere", "ball"),
    "selfsim": ("s_mul", "act_word", "act_omega", "s_apply", "germ_key"),
    "steinberg": (
        "st_conv",
        "st_eval",
        "st_support_strata",
        "st_sup_dist",
        "st_is_singular",
        "st_open_witness",
    ),
    "bundle": (
        "bstein_conv",
        "bstein_eval",
        "bundle_sup_dist",
        "bundle_is_singular",
        "stratum_units",
    ),
    "repnorm": (
        "h_ball_operator",
        "opnorm_lower",
        "rho_estimate",
        "stein_H_norm_bound",
        "bundle_norm_bound",
        "cauchy_profile",
    ),
    "cli": (
        "_selfsim_identities",
        "_selfsim_germ_law",
        "_selfsim_support",
        "_selfsim_values",
        "_selfsim_witness",
        "_selfsim_verdicts",
        "_selfsim_effectiveness",
        "_bundle_identities",
        "_bundle_values",
        "_bundle_rates",
        "_bundle_verdicts",
        "_cauchy_section",
    ),
}


def _observe_operator(counts: dict, op) -> None:
    cols = op.shape[1]
    counts["repnorm.h_ball_operator.cols"] += cols
    counts["repnorm.h_ball_operator.nnz"] += len(op.entries)
    counts["repnorm.h_ball_operator.interior"] += cols - len(op.boundary_cols)


def _observe_estimate(counts: dict, est) -> None:
    counts["repnorm.opnorm_lower.iters"] += est.iterations


def _observe_strata(counts: dict, strata) -> None:
    counts["steinberg.st_support_strata.strata"] += len(strata)


OBSERVERS = {
    "repnorm.h_ball_operator": _observe_operator,
    "repnorm.opnorm_lower": _observe_estimate,
    "steinberg.st_support_strata": _observe_strata,
}

OBSERVED_COUNTS = (
    "repnorm.h_ball_operator.cols",
    "repnorm.h_ball_operator.nnz",
    "repnorm.h_ball_operator.interior",
    "repnorm.opnorm_lower.iters",
    "steinberg.st_support_strata.strata",
)


class Tracer:
    """Per-function call counts and times, kept in memory."""

    def __init__(self) -> None:
        # "module.function" -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = dict.fromkeys(OBSERVED_COUNTS, 0)
        self.absent: list[str] = []
        # one accumulator of callee time per active wrapped call
        self._child_time: list[float] = []

    def wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        observe = OBSERVERS.get(key)
        child_time = self._child_time
        counts = self.counts
        absent = self.absent
        clock = time.perf_counter
        depth = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal depth
            child_time.append(0.0)
            depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth -= 1
                stat[0] += 1
                stat[1] += elapsed - child_time.pop()
                if depth == 0:
                    stat[2] += elapsed
                if child_time:
                    child_time[-1] += elapsed
            if observe is not None:
                try:
                    observe(counts, result)
                except (AttributeError, TypeError):
                    # the returned type changed shape in this tree
                    tag = f"{key} (observed fields)"
                    if tag not in absent:
                        absent.append(tag)
            return result

        return traced

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }


def _package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def install(tracer: Tracer, layers: dict = LAYERS) -> None:
    """Wrap every function in ``layers`` and rebind each reference to it
    in the loaded package modules."""
    for layer, names in layers.items():
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ModuleNotFoundError:
            tracer.absent.extend(f"{layer}.{name}" for name in names)
            continue
        for name in names:
            key = f"{layer}.{name}"
            original = getattr(module, name, None)
            if not callable(original):
                tracer.absent.append(key)
                continue
            traced = tracer.wrap(key, original)
            for m in _package_modules():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)
