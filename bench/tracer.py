"""Spans around commat's public functions, installed at run time from outside.

``Tracer.install`` replaces each traced function in every ``commat`` module
(and in the package namespace) by a wrapper, so calls the benchmark makes
and calls commat's modules make to one another are both recorded;
``uninstall`` puts the originals back.  The wrappers are made once, so
installing and uninstalling around single jobs is cheap.
Spans (name, start, end, parent) stay in memory until ``write``.  A layer's
self time is its span time minus the time its direct child spans cover.
"""

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

from workloads import EB_VERDICT

# (module, function); the layer's name is "module.function".
TRACED = [
    ("operators", "bloch_basis"),
    ("operators", "state_from_matrix"),
    ("operators", "validate_povm"),
    ("operators", "channel_from_kraus"),
    ("operators", "channel_from_choi"),
    ("operators", "channel_from_bloch"),
    ("operators", "apply_channel"),
    ("scenario", "comm_matrix"),
    ("scenario", "comm_matrix_with_channel"),
    ("tomography", "build_frame"),
    ("tomography", "reconstruct_channel"),
    ("tomography", "reconstruct_up_to_gauge"),
    ("tomography", "reconstruct_unital"),
    ("analysis", "self_test"),
    ("analysis", "certify_info_completeness"),
    ("analysis", "span_dims"),
    ("analysis", "robustness_gap"),
    ("properties", "eb_certificate"),
    ("properties", "nonnegative_factorization"),
    ("properties", "detect_unitality"),
    ("properties", "construct_indistinguishable_pair"),
    ("serialize", "scenario_from_json"),
    ("serialize", "comm_matrix_from_json"),
    ("serialize", "channel_payload"),
    ("serialize", "to_jsonable"),
    ("cli", "cmd_analyze"),
    ("cli", "cmd_tomography"),
    ("cli", "cmd_properties"),
    ("cli", "cmd_fixtures"),
    ("cli", "main"),
]

# eb_certificate is split by verdict: certified and uncertified searches differ.
EB = "properties.eb_certificate"
EB_SPLIT = {True: ".certified", False: ".uncertified"}


def _span_name(name, result):
    if name == EB:
        return name + EB_SPLIT[result.verdict == EB_VERDICT]
    return name


def layer_names():
    names = []
    for module, function in TRACED:
        name = f"{module}.{function}"
        names += [name + suffix for suffix in EB_SPLIT.values()] if name == EB else [name]
    return names


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (module, attribute, original, wrapper)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:  # recursion stays in one span
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[0] = _span_name(name, result)
            if name == "analysis.self_test":
                d = args[1] if len(args) > 1 else kwargs["d"]
                if abs(result.storability - d) <= result.storability_tol:
                    counts["analysis.self_test.storability_d"] += 1
                    counts["analysis.self_test.passed"] += int(bool(result.passes))
            return result

        return wrapper

    def install(self):
        """Wrap every traced function wherever a commat module holds a reference to it."""
        if not self._patches:
            for mod_name, _ in TRACED:
                importlib.import_module("commat." + mod_name)
            modules = [m for n, m in sys.modules.items() if n == "commat" or n.startswith("commat.")]
            for mod_name, fn_name in TRACED:
                original = getattr(sys.modules["commat." + mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    @staticmethod
    def wrapper_cost_s():
        """Seconds one wrapper adds to a call: a wrapped no-op against a bare one,
        median of five batches of 10000 calls."""
        def bare():
            return None

        probe = Tracer()
        wrapped = probe._wrap("probe", bare)

        def per_call(fn):
            probe.spans.clear()
            t = time.perf_counter()
            for _ in range(10000):
                fn()
            return (time.perf_counter() - t) / 10000

        return statistics.median(per_call(wrapped) - per_call(bare) for _ in range(5))

    def self_times(self):
        """Per layer name: (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - covered
        return calls, self_s

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
