"""Span tracing of quadalg from the outside, by rebinding module attributes.

:class:`Tracer` wraps the public functions and public methods of every
quadalg module (plus ``FockSpace.__init__``, which builds the Fock basis),
including names a module imported from another one, such as the
``json_dumps``/``write_csv`` bound in ``cli``, ``coherent`` and
``spectrum``.  Each call records a span (name, start, end, parent, request
id, exception) in memory; :meth:`Tracer.install` and :meth:`Tracer.uninstall`
switch the wrappers on and off so untraced passes run the original code.

Hooks derive the deterministic work counts from argument and result sizes
("computed" counts: they repeat exactly for the same argv).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "reps", "polyalg", "defosc", "fock3", "diffreal", "spectrum", "coherent",
          "measures", "output")

# Helpers called once per element (per coefficient, float, quadrature point):
# a wrapper would cost more than their work, so their time stays with the
# caller.  Within their own layer that changes nothing.
SKIP = {"polyalg.as_fraction", "output.fmt_float", "output.csv_cell",
        "diffreal.signed_square", "measures.confluent_neg"}
EXTRA = {"fock3.FockSpace.__init__"}


# ---------------------------------------------------------------------------
# Work-count hooks: hook(counts, args, kwargs, result, pre)


def _rep_counts(c, args, kwargs, rep, pre):
    d = rep.dim
    c["reps.dense_entries"] += 3 * d * d
    c["reps.band_nonzeros"] += (sum(1 for x in rep.q0_diag if x != 0)
                                + 2 * sum(1 for s in rep.qp_sq if s != 0))


def _casimir_matrix_flops(c, args, kwargs, result, pre):
    d = result.shape[0]
    c["polyalg.matmul_flops"] += 2 * d ** 3  # qp @ qm; the Horner part is eval_matrix


def _eval_matrix_flops(c, args, kwargs, result, pre):
    self = args[0]
    c["polyalg.matmul_flops"] += 2 * result.shape[0] ** 3 * len(self.coeffs)


def _dense_bytes(c, values):
    c["fock3.dense_bytes"] += sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _fock_space(c, args, kwargs, result, pre):
    c["fock3.states"] += args[0].dim


def _ladder(c, args, kwargs, result, pre):
    lower, raise_ = result
    _dense_bytes(c, list(lower) + list(raise_))


def _realized(c, args, kwargs, ops, pre):
    _dense_bytes(c, (ops.q0, ops.qp, ops.qm, ops.kmat, ops.lmat))


def _verified(c, args, kwargs, report, pre):
    c["fock3.verified_states"] += report.dim
    c["fock3.interior_states"] += report.interior_count


def _tables(c, args, kwargs, tables, pre):
    for table in tables.values():
        for row in table:
            c["diffreal.table_entries"] += len(row)
            c["diffreal.table_nonzeros"] += sum(1 for x in row if x != 0)


def _level(c, args, kwargs, result, pre):
    c["spectrum.levels"] += 1


def _brute_force(c, args, kwargs, result, pre):
    m = args[0] // 2  # the enumeration visits sum_{n3 <= N/2} (N - 2 n3 + 1) pairs
    c["spectrum.bruteforce_iters"] += (m + 1) * (args[0] + 1 - m)


def _state(c, args, kwargs, state, pre):
    prov = state.provenance
    c["coherent.series_terms"] += prov.get("terms", prov.get("order", 0))


def _kummer(c, args, kwargs, res, pre):
    c["measures.quad_evals"] += res.evals


def _resolution(c, args, kwargs, report, pre):
    c["measures.quad_evals"] += sum(ch.evals for ch in report.checks)


def _json_bytes(c, args, kwargs, text, pre):
    c["output.bytes"] += len(text)


def _csv_pre(args, kwargs):
    return args[0].tell()


def _csv_bytes(c, args, kwargs, result, pre):
    c["output.bytes"] += args[0].tell() - pre


HOOKS = {
    "reps.compact_rep": _rep_counts, "reps.noncompact_rep": _rep_counts,
    "reps.su2_rep": _rep_counts, "reps.su11_rep": _rep_counts,
    "polyalg.casimir_matrix": _casimir_matrix_flops,
    "polyalg.RationalPoly.eval_matrix": _eval_matrix_flops,
    "fock3.FockSpace.__init__": _fock_space, "fock3.ladder_matrices": _ladder,
    "fock3.realize_compact": _realized, "fock3.realize_noncompact": _realized,
    "fock3.realize_two_mode": _realized, "fock3.verify_realization": _verified,
    "diffreal.matrix_elements": _tables,
    "spectrum.level_report": _level, "spectrum.brute_force_count": _brute_force,
    "coherent.bg_state": _state, "coherent.perelomov_noncompact": _state,
    "coherent.perelomov_compact": _state,
    "measures.kummer_integral_check": _kummer, "measures.verify_compact_resolution": _resolution,
    "output.json_dumps": _json_bytes, "output.write_csv": _csv_bytes,
}
PRE_HOOKS = {"output.write_csv": _csv_pre}


class Tracer:
    """In-memory span recorder over the quadalg modules."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"quadalg.{name}") for name in LAYERS}
        self.spans: list = []   # [name, layer, start_ns, end_ns, parent, request, error]
        self.stack: list = []
        self.request = None
        self.counts: dict = defaultdict(int)
        self._patches = self._plan()

    # -- wrapping ----------------------------------------------------------

    @staticmethod
    def _layer_of(obj) -> str | None:
        package, _, layer = (getattr(obj, "__module__", "") or "").partition(".")
        return layer if package == "quadalg" and layer in LAYERS else None

    def _wrap(self, name: str, layer: str, fn):
        tracer, hook, pre_hook = self, HOOKS.get(name), PRE_HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            rec = [name, layer, 0, 0, stack[-1] if stack else -1, tracer.request, None]
            pre = pre_hook(args, kwargs) if pre_hook else None
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if hook:
                hook(tracer.counts, args, kwargs, result, pre)
            return result

        return traced

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every rebinding."""
        patches, wrapped = [], {}

        def wrapper_for(name, layer, fn):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(name, layer, fn)
            return wrapped[id(fn)]

        for mod_name, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                layer = self._layer_of(obj)
                if layer is None:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{obj.__name__}"
                    if name not in SKIP:
                        patches.append((mod, attr, obj, wrapper_for(name, layer, obj)))
                elif inspect.isclass(obj) and layer == mod_name:
                    patches.extend(self._plan_class(obj, layer, wrapper_for))
        return patches

    def _plan_class(self, cls, layer, wrapper_for) -> list:
        patches = []
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") and name not in EXTRA:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                patches.append((cls, attr, raw, type(raw)(wrapper_for(name, layer, fn))))
            elif inspect.isfunction(raw) and name not in SKIP:
                patches.append((cls, attr, raw, wrapper_for(name, layer, raw)))
        return patches

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)

    # -- summaries ---------------------------------------------------------

    def layer_totals(self) -> dict:
        """calls, self seconds and escaping exceptions per layer."""
        child_ns = [0] * len(self.spans)
        for name, layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {layer: {"calls": 0, "self_ns": 0, "errors": 0} for layer in LAYERS}
        brute_ns = 0
        for i, (name, layer, start, end, parent, _, err) in enumerate(self.spans):
            t = out[layer]
            t["calls"] += 1
            t["self_ns"] += end - start - child_ns[i]
            # an exception counts once, where it leaves the layer
            if err is not None and (parent < 0 or self.spans[parent][1] != layer):
                t["errors"] += 1
            if name == "spectrum.brute_force_count":
                brute_ns += end - start
        out["spectrum"]["bruteforce_ns"] = brute_ns
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, decks: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, normalised per deck."""
    totals, c = tracer.layer_totals(), tracer.counts
    per = lambda x: x / decks
    m = {}
    for layer in LAYERS:
        t = totals[layer]
        m[f"{layer}.calls"] = (per(t["calls"]), "count/deck")
        m[f"{layer}.self_s"] = (per(t["self_ns"] * 1e-9), "s/deck")
        m[f"{layer}.errors"] = (per(t["errors"]), "count/deck")
    m["reps.dense_entries"] = (per(c["reps.dense_entries"]), "count/deck")
    m["reps.band_frac"] = (ratio(c["reps.band_nonzeros"], c["reps.dense_entries"]), "ratio")
    m["polyalg.matmul_flops"] = (per(c["polyalg.matmul_flops"]), "flop/deck")
    m["fock3.states"] = (per(c["fock3.states"]), "count/deck")
    m["fock3.dense_bytes"] = (per(c["fock3.dense_bytes"]), "B/deck")
    m["fock3.interior_frac"] = (ratio(c["fock3.interior_states"], c["fock3.verified_states"]),
                                "ratio")
    m["diffreal.table_entries"] = (per(c["diffreal.table_entries"]), "count/deck")
    m["diffreal.nonzero_frac"] = (ratio(c["diffreal.table_nonzeros"],
                                        c["diffreal.table_entries"]), "ratio")
    m["spectrum.levels"] = (per(c["spectrum.levels"]), "count/deck")
    m["spectrum.bruteforce_s"] = (per(totals["spectrum"]["bruteforce_ns"] * 1e-9), "s/deck")
    m["spectrum.bruteforce_iters"] = (per(c["spectrum.bruteforce_iters"]), "count/deck")
    m["coherent.series_terms"] = (per(c["coherent.series_terms"]), "count/deck")
    m["measures.quad_evals"] = (per(c["measures.quad_evals"]), "count/deck")
    m["output.bytes"] = (per(c["output.bytes"]), "B/deck")
    return m


def request_counts(before: dict, after: dict) -> dict:
    """Counts one request added, for the per-request record."""
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
