"""Tracing from outside the library: wrappers around diffrad's public
functions and methods that record spans, and a separate pass that counts
scalar operations.

A module imports its neighbours' functions by name (`from .poly import
poly_gcd`), so a wrapper replaces every binding of the original object in
every loaded diffrad module and class, and `patched` puts each one back on
exit, also on error.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute path).  `integer_offset` and other
# per-root helpers stay unwrapped: their time is their caller's self time.
SPAN_TARGETS = [
    ("poly.mul", "poly", "Poly.__mul__"),
    ("poly.divmod", "poly", "Poly.__divmod__"),
    ("poly.eval", "poly", "Poly.__call__"),
    ("poly.expand", "poly", "FactoredPoly.expand"),
    ("poly.gcd", "poly", "poly_gcd"),
    ("poly.factor", "poly", "factor"),
    ("poly.classical_rad", "poly", "classical_rad"),
    ("poly.exact_sqrt", "poly", "exact_sqrt"),
] + [
    (f"{module}.{name}", module, name)
    for module, names in {
        "diffcalc": [
            "shift", "delta", "delta_k", "falling_power", "raising_power",
            "falling_power_factored", "falling_factorial_linear", "to_newton",
            "from_newton", "binomial_transform_check",
        ],
        "shiftcalc": [
            "shift_classes", "chain_decomposition", "shifting_zero_height",
            "shifting_zero_height_via_delta", "factor_at", "rad_delta",
            "rad_kappa", "rad_delta_q", "gcd_tower", "gcd_tower_euclid",
            "gcd_tower_closed", "common_shifting_divisors", "is_shifting_prime",
            "pairwise_shifting_prime",
        ],
        "casorati": [
            "casoratian", "determinant", "linearly_independent",
            "casoratian_replace",
        ],
        "theorems": [
            "mason_classical", "mason_delta", "mason_delta_ext", "fermat_check",
            "fermat_multi_check", "gen_chain_poly", "gen_factored_poly",
            "gen_mason_instance", "unit_cubic_resolvent_roots",
            "unit_cubic_triad",
        ],
        "parser": ["parse", "eval_expr", "eval_factored", "parse_poly", "parse_factored"],
        "cli": ["run_fixture", "load_fixtures"],
    }.items()
    for name in names
]

COUNT_TARGETS = [
    ("scalar.exact_mul", "scalar", "Exact.__mul__"),
    ("scalar.exact_add", "scalar", "Exact.__add__"),
    ("scalar.exact_inverse", "scalar", "Exact.inverse"),
    ("scalar.numeric_mul", "scalar", "Numeric.__mul__"),
]


def _diffrad_namespaces():
    """Every namespace a caller may resolve a diffrad name through."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "diffrad" or name.startswith("diffrad.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value


def _resolve(module: str, path: str):
    obj = sys.modules[f"diffrad.{module}"]
    *owners, attr = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    return vars(obj)[attr]


@contextmanager
def patched(replacements: dict):
    """Rebind every binding of each original (a key) to its replacement."""
    undo = []
    try:
        for ns in _diffrad_namespaces():
            for key, value in list(vars(ns).items()):
                new = replacements.get(id(value))
                if new is not None and new[0] is value:
                    setattr(ns, key, new[1])
                    undo.append((ns, key, value))
        yield
    finally:
        for ns, key, value in reversed(undo):
            setattr(ns, key, value)


class SpanRecorder:
    """Spans (name, start, end, parent, op) kept in parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.starts.append(0.0)
        self.stack.append(i)
        self.starts[i] = time.perf_counter()
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        open_, close = self.open, self.close
        hook = _HOOKS.get(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            i = open_(_casoratian_name(args, kwargs) if name == "casorati.casoratian" else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if hook:
                hook(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def tracing(self):
        replacements = {}
        for name, module, path in SPAN_TARGETS:
            original = _resolve(module, path)
            replacements[id(original)] = (original, self.wrap(name, original))
        with patched(replacements):
            yield self

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= self.ends[i] - self.starts[i]
        return out

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": list(zip(self.names, self.starts, self.ends, self.parents, self.ops)),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _casoratian_name(args, kwargs) -> str:
    form = kwargs.get("form", args[1] if len(args) > 1 else "delta")
    return f"casorati.casoratian.{form}"


def _count_mul(counts, args, result):
    self, other = args
    counts["poly.mul.coeff_products"] += len(self.coeffs) * len(getattr(other, "coeffs", (1,)))


def _count_roots(counts, args, result):
    counts["poly.factor.roots"] += len(result.roots)


_HOOKS = {"poly.mul": _count_mul, "poly.factor": _count_roots}


@contextmanager
def counting_scalars(counts: dict):
    """Count Exact mul/add/inverse and Numeric mul calls into `counts`."""
    exact = sys.modules["diffrad.scalar"].Exact

    def counter(name, fn):
        if name == "scalar.exact_mul":
            def wrapper(self, other):
                counts[name] += 1
                if self.is_rational and (not isinstance(other, exact) or other.is_rational):
                    counts["scalar.exact_mul.rational"] += 1
                return fn(self, other)
        else:
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
        wrapper.__wrapped__ = fn
        return wrapper

    replacements = {}
    for name, module, path in COUNT_TARGETS:
        original = _resolve(module, path)
        replacements[id(original)] = (original, counter(name, original))
    with patched(replacements):
        yield counts


# -- per-layer metrics -----------------------------------------------------------

AUDIT_ROUTES = {
    # (span, direct parent): routes whose result is only compared
    ("shiftcalc.gcd_tower_euclid", "shiftcalc.gcd_tower"),
    ("shiftcalc.rad_kappa", "theorems.mason_delta"),
}
TIERS = ("d16", "d32", "d64")


def layer_metrics(
    rec: SpanRecorder, op_tiers: list[str], scalar_counts: dict, scalar_ops: int, op_scale: list[float]
) -> dict:
    """Per-op averages over the traced ops; op i has tier `op_tiers[i]` and
    its span times are multiplied by `op_scale[i]` (the speed calibration)."""
    n = len(rec.names)
    self_t = [t * op_scale[op] for t, op in zip(rec.self_times(), rec.ops)]
    names, parents = rec.names, rec.parents
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    tier_self: dict[tuple, float] = defaultdict(float)
    in_factor = [False] * n
    in_gen = [False] * n
    cas_form = [""] * n
    casoratian_children: dict[int, int] = defaultdict(int)
    op_total = audit = 0.0
    factor_evals = gen_factors = 0
    for i in range(n):
        name, p = names[i], parents[i]
        dur = (rec.ends[i] - rec.starts[i]) * op_scale[rec.ops[i]]
        calls[name] += 1
        self_ms[name] += self_t[i] * 1e3
        tier = op_tiers[rec.ops[i]] if rec.ops[i] >= 0 else ""
        if tier:
            tier_self[(tier, name)] += self_t[i] * 1e3
        parent = names[p] if p >= 0 else ""
        in_factor[i] = name == "poly.factor" or (p >= 0 and in_factor[p])
        in_gen[i] = name == "theorems.gen_mason_instance" or (p >= 0 and in_gen[p])
        cas_form[i] = name.rsplit(".", 1)[1] if name.startswith("casorati.casoratian.") else (cas_form[p] if p >= 0 else "")
        if name == "op":
            op_total += dur
        if (name, parent) in AUDIT_ROUTES:
            audit += dur
        if name.startswith("casorati.casoratian.") and parent == "casorati.casoratian_replace":
            casoratian_children[p] += 1
            if casoratian_children[p] == 2:
                audit += dur
        if name == "poly.eval" and p >= 0 and in_factor[p]:
            factor_evals += 1
        if name == "poly.factor" and p >= 0 and in_gen[p]:
            gen_factors += 1
        if name.startswith("casorati.") and cas_form[i]:
            self_ms[f"casorati.casoratian.{cas_form[i]}.layer"] += self_t[i] * 1e3
    ops = max(calls["op"], 1)
    counts = rec.counts

    def per_op(x):
        return x / ops

    m = {
        "scalar.exact_mul.calls": scalar_counts.get("scalar.exact_mul", 0) / max(scalar_ops, 1),
        "scalar.exact_add.calls": scalar_counts.get("scalar.exact_add", 0) / max(scalar_ops, 1),
        "scalar.exact_inverse.calls": scalar_counts.get("scalar.exact_inverse", 0) / max(scalar_ops, 1),
        "scalar.numeric_mul.calls": scalar_counts.get("scalar.numeric_mul", 0) / max(scalar_ops, 1),
        "scalar.exact_mul.rational_share": scalar_counts.get("scalar.exact_mul.rational", 0)
        / max(scalar_counts.get("scalar.exact_mul", 0), 1),
        "poly.mul.coeff_products": per_op(counts["poly.mul.coeff_products"]),
        "poly.factor.evals_per_root": factor_evals / max(counts["poly.factor.roots"], 1),
        "poly.expand.self_ms": per_op(self_ms["poly.expand"]),
        "poly.eval.calls": per_op(calls["poly.eval"]),
    }
    for short in ("mul", "divmod", "gcd", "factor"):
        m[f"poly.{short}.calls"] = per_op(calls[f"poly.{short}"])
        m[f"poly.{short}.self_ms"] = per_op(self_ms[f"poly.{short}"])
    for tier in TIERS:
        tier_ops = max(op_tiers.count(tier), 1)
        for short in ("mul", "gcd"):
            m[f"poly.{short}.self_ms.{tier}"] = tier_self[(tier, f"poly.{short}")] / tier_ops
    for short in ("shift", "delta"):
        m[f"diffcalc.{short}.calls"] = per_op(calls[f"diffcalc.{short}"])
        m[f"diffcalc.{short}.self_ms"] = per_op(self_ms[f"diffcalc.{short}"])
    m["diffcalc.falling_power.self_ms"] = per_op(self_ms["diffcalc.falling_power"])
    for short in (
        "shift_classes", "chain_decomposition", "rad_delta", "rad_kappa",
        "rad_delta_q", "gcd_tower", "gcd_tower_euclid", "gcd_tower_closed",
        "common_shifting_divisors",
    ):
        m[f"shiftcalc.{short}.self_ms"] = per_op(self_ms[f"shiftcalc.{short}"])
    m["shiftcalc.audit_share"] = audit / op_total if op_total else 0.0
    for form in ("delta", "shift"):
        m[f"casorati.casoratian.{form}.self_ms"] = per_op(self_ms[f"casorati.casoratian.{form}.layer"])
    m["casorati.determinant.calls"] = per_op(calls["casorati.determinant"])
    m["casorati.determinant.self_ms"] = per_op(self_ms["casorati.determinant"])
    m["theorems.mason.self_ms"] = per_op(
        sum(self_ms[f"theorems.{k}"] for k in ("mason_classical", "mason_delta", "mason_delta_ext"))
    )
    m["theorems.fermat.self_ms"] = per_op(self_ms["theorems.fermat_check"] + self_ms["theorems.fermat_multi_check"])
    m["theorems.gen_mason_instance.self_ms"] = per_op(self_ms["theorems.gen_mason_instance"])
    m["theorems.gen_mason_instance.factor_per_instance"] = gen_factors / max(calls["theorems.gen_mason_instance"], 1)
    m["theorems.unit_cubic_resolvent_roots.self_ms"] = per_op(self_ms["theorems.unit_cubic_resolvent_roots"])
    m["parser.parse.calls"] = per_op(calls["parser.parse"])
    m["parser.parse.self_ms"] = per_op(self_ms["parser.parse"])
    m["cli.run_fixture.self_ms"] = per_op(self_ms["cli.run_fixture"])
    return m
