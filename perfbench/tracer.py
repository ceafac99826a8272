"""Outside-in per-layer tracing of hinak.

The tracer wraps the public functions and methods of each layer module
(``combinat``, ``algebras``, ``linalg``, ``reps``, ``checks``, ``cli``) from
outside the program.  A function imported by name into other modules is
replaced in every namespace that bound it, including module-level tables
such as ``checks.SUITES``, so calls are seen however the caller reached the
function.  Methods are wrapped on their class.  ``uninstall`` restores every
binding.

Every wrapped call updates, at the same boundary:

* a call count and an inclusive time per function (outermost call only,
  so recursion is not counted twice);
* the self time of its layer: the call's duration minus the time of the
  wrapped calls it made.

Calls that cross from another layer into a module-level function of
``cli``, ``checks`` or ``reps``, and calls of ``algebras.build``, are also
kept as spans (name, start, end, parent span, operation id) in memory and
written out when the workload ends.  Calls into ``linalg``, ``combinat`` and
the basis methods of the algebra classes run into the millions on the larger
workloads, so they are only aggregated.

A few hot one-line accessors (``MatrixModule.dim``, ``MatrixModule.mat``,
``ModuleHom.mat``) and properties are not wrapped; their time counts
towards the layer that called them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time
import types
import weakref

LAYERS = ("combinat", "algebras", "linalg", "reps", "checks", "cli")
BENCH = len(LAYERS)  # pseudo-layer of the benchmark's own code
SPAN_LAYERS = {"cli", "checks", "reps"}
SPAN_FUNCTIONS = {"algebras.build"}
SKIP = {"reps.MatrixModule.dim", "reps.MatrixModule.mat", "reps.ModuleHom.mat"}
DUNDERS = {"linalg.Mat.__init__", "linalg.Mat.__mul__", "linalg.Mat.__add__", "linalg.Mat.__sub__"}

SUITE_NAMES = (  # the suites that apply to linear-a, the only family the benchmark checks
    "hom-ext",
    "resolutions",
    "proj-inj",
    "kupisch-lengths",
    "tau-translate",
    "cluster-tilting",
    "endo-tower",
    "gldim",
)


def _targets():
    """(layer, qualified name, owner, attribute, raw attribute) for each thing to wrap."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"hinak.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                out.append((layer, f"{layer}.{name}", mod, name, obj))
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    qual = f"{layer}.{name}.{attr}"
                    if qual in SKIP or (attr.startswith("_") and qual not in DUNDERS):
                        continue
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if isinstance(fn, types.FunctionType):
                        out.append((layer, qual, obj, attr, raw))
    return out


class Tracer:
    """Wraps the layers of the imported hinak package; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.originals: list = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.active: list[int] = []
        self.layer_self = [0.0] * len(LAYERS)
        self.stack: list[list] = [[BENCH, 0.0, -1]]
        self.spans: list[list] = []
        self.op_id = -1
        self.extra: dict[str, float] = {}
        self._seen: dict[str, set] = {"interval_module": set(), "min_proj_resolution": set()}
        self._alg_keys: "weakref.WeakKeyDictionary[object, int]" = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._restore: list[tuple] = []
        self._fid: dict[str, int] = {}

    # ------------------------------------------------------------ install / uninstall

    def install(self) -> None:
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        originals: dict[int, object] = {}
        for layer, qual, owner, attr, raw in _targets():
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            fid = self._register(qual, LAYERS.index(layer), fn)
            keep_span = qual in SPAN_FUNCTIONS or (layer in SPAN_LAYERS and not isinstance(owner, type))
            w = self._wrap(fn, fid, keep_span)
            wrapped[id(fn)] = w
            originals[id(fn)] = fn
            if isinstance(owner, type):
                self._set(owner, attr, staticmethod(w) if isinstance(raw, staticmethod) else w)
        # rebind module-level functions in every namespace and table that holds them
        for modname, mod in list(sys.modules.items()):
            if modname != "hinak" and not modname.startswith("hinak."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and obj is originals[id(obj)]:
                    self._set(mod, name, wrapped[id(obj)])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped and val is originals[id(val)]:
                            self._restore.append((obj, key, val, True))
                            obj[key] = wrapped[id(val)]

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr], False))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, key, original, is_table in reversed(self._restore):
            if is_table:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def _register(self, qual: str, layer: int, fn) -> int:
        fid = len(self.names)
        self.names.append(qual)
        self.originals.append(fn)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.incl.append(0.0)
        self.active.append(0)
        self._fid[qual] = fid
        return fid

    # ------------------------------------------------------------ the wrapper

    def _wrap(self, fn, fid: int, keep_span: bool):
        layer = self.layer_of[fid]
        hook = _HOOKS.get(self.names[fid])
        stack, spans, calls, incl, active, layer_self = (
            self.stack, self.spans, self.calls, self.incl, self.active, self.layer_self
        )
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            top = stack[-1]
            span = -1
            if keep_span and top[0] != layer:
                span = len(spans)
                spans.append([fid, 0.0, 0.0, top[2], tracer.op_id])
            frame = [layer, 0.0, span if span >= 0 else top[2]]
            stack.append(frame)
            active[fid] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                outer = active[fid] == 1
                active[fid] -= 1
                calls[fid] += 1
                if outer:
                    incl[fid] += dur
                layer_self[layer] += dur - frame[1]
                stack[-1][1] += dur
                if span >= 0:
                    spans[span][1] = t0
                    spans[span][2] = t0 + dur
            if hook is not None:
                hook(tracer, args, result, dur, outer)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # ------------------------------------------------------------ operations

    def begin_op(self, label: str) -> None:
        self.op_id += 1
        span = len(self.spans)
        self.spans.append([label, time.perf_counter(), 0.0, -1, self.op_id])
        self.stack.append([BENCH, 0.0, span])

    def end_op(self) -> None:
        frame = self.stack.pop()
        self.spans[frame[2]][2] = time.perf_counter()

    def bump(self, key: str, by: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + by

    def alg_key(self, alg) -> object:
        """Identity of an algebra for reuse counts: its spec, or the object itself."""
        spec = getattr(alg, "spec", None)
        if spec is not None:
            return type(alg).__name__, spec
        if alg not in self._alg_keys:
            self._alg_keys[alg] = next(self._serials)
        return "object", self._alg_keys[alg]

    # ------------------------------------------------------------ results

    def count(self, *quals: str) -> int:
        """Calls of the named functions; a name the program no longer has counts 0."""
        return sum(self.calls[self._fid[q]] for q in quals if q in self._fid)

    def seconds(self, *quals: str) -> float:
        return sum(self.incl[self._fid[q]] for q in quals if q in self._fid)

    def layer_calls(self, layer: str) -> int:
        idx = LAYERS.index(layer)
        return sum(c for c, l in zip(self.calls, self.layer_of) if l == idx)

    def counts(self) -> dict[str, int]:
        return {q: self.calls[i] for i, q in enumerate(self.names)}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of the benchmark, as name -> (value, unit)."""
        def share(key: str, base: int) -> float:
            return self.extra.get(key, 0) / base if base else 0.0

        def reuse(fn: str) -> float:
            calls = self.count(f"reps.{fn}")
            return calls / len(self._seen[fn]) if self._seen[fn] else 0.0

        m: dict[str, tuple[float, str]] = {}
        for suite in SUITE_NAMES:
            m[f"checks.suite.{suite}.s"] = (self.extra.get(f"suite.{suite}", 0.0), "s")
        m["checks.claims_checked"] = (self.extra.get("claims_checked", 0), "count")
        for name, qual in (
            ("endo_algebra", "reps.endo_algebra"),
            ("hom_then", "reps.ModuleHom.then"),
            ("min_proj_resolution", "reps.min_proj_resolution"),
            ("projective_cover", "reps.projective_cover"),
            ("hom_space", "reps.hom_space"),
            ("ext_dim_from_resolution", "reps.ext_dim_from_resolution"),
            ("tau_d", "reps.tau_d"),
            ("min_inj_coresolution", "reps.min_inj_coresolution"),
            ("modules_isomorphic", "reps.modules_isomorphic"),
        ):
            m[f"reps.{name}.calls"] = (self.count(qual), "count")
            m[f"reps.{name}.s"] = (self.seconds(qual), "s")
        m["reps.interval_module.calls"] = (self.count("reps.interval_module"), "count")
        m["reps.interval_module.reuse"] = (reuse("interval_module"), "ratio")
        m["reps.min_proj_resolution.reuse"] = (reuse("min_proj_resolution"), "ratio")
        m["reps.hom_space.nonzero_share"] = (share("hom_space.nonzero", self.count("reps.hom_space")), "ratio")
        m["reps.modules_isomorphic.undetermined_share"] = (
            share("modules_isomorphic.undetermined", self.count("reps.modules_isomorphic")),
            "ratio",
        )
        rref = self.count("linalg.Mat.rref")
        m["linalg.rref.calls"] = (rref, "count")
        m["linalg.rref.s"] = (self.seconds("linalg.Mat.rref"), "s")
        m["linalg.rref.small_share"] = (share("rref.small", rref), "ratio")
        m["linalg.rref.nonint_share"] = (share("rref.nonint", rref), "ratio")
        m["linalg.mul.calls"] = (self.count("linalg.Mat.__mul__"), "count")
        m["linalg.mul.s"] = (self.seconds("linalg.Mat.__mul__"), "s")
        m["linalg.mat_new.calls"] = (self.count("linalg.Mat.__init__"), "count")
        m["algebras.build.calls"] = (self.count("algebras.build"), "count")
        m["algebras.build.s"] = (self.seconds("algebras.build"), "s")
        m["algebras.compose.calls"] = (
            self.count("algebras.PresentedAlgebra.compose", "algebras.OppositeAlgebra.compose"),
            "count",
        )
        m["algebras.hom_basis.calls"] = (
            self.count("algebras.PresentedAlgebra.hom_basis", "algebras.OppositeAlgebra.hom_basis"),
            "count",
        )
        m["combinat.calls"] = (self.layer_calls("combinat"), "count")
        m["cli.main.calls"] = (self.count("cli.main"), "count")
        m["cli.main.undecided_share"] = (share("cli.main.exit3", self.count("cli.main")), "ratio")
        for i, layer in enumerate(LAYERS):
            m[f"{layer}.self_s"] = (self.layer_self[i], "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines: name, start, end, parent span, operation."""
        with open(path, "w") as fh:
            for i, (who, start, end, parent, op) in enumerate(self.spans):
                name = self.names[who] if isinstance(who, int) else who
                fh.write(json.dumps([i, name, start, end, parent, op]) + "\n")


# ---------------------------------------------------------------- per-function hooks


def _hook_rref(tr: Tracer, args, result, dur, outer) -> None:
    m = args[0]
    if m.rows < 10 and m.cols < 10:
        tr.bump("rref.small")
    if any(getattr(x, "denominator", 1) != 1 for row in m.data for x in row):
        tr.bump("rref.nonint")


def _hook_hom_space(tr: Tracer, args, result, dur, outer) -> None:
    if result:
        tr.bump("hom_space.nonzero")


def _hook_iso(tr: Tracer, args, result, dur, outer) -> None:
    if result is None:
        tr.bump("modules_isomorphic.undetermined")


def _hook_cli_main(tr: Tracer, args, result, dur, outer) -> None:
    if result == 3:
        tr.bump("cli.main.exit3")


def _hook_interval(tr: Tracer, args, result, dur, outer) -> None:
    tr._seen["interval_module"].add((tr.alg_key(args[0]), tuple(args[1])))


def _module_fingerprint(M) -> bytes:
    dims = sorted((v, k) for v, k in M.dims.items() if k)
    mats = sorted((tuple(e), tuple(map(tuple, m.data))) for e, m in M.mats.items() if m.rows and m.cols)
    return hashlib.sha1(repr((dims, mats)).encode()).digest()


def _hook_resolution(tr: Tracer, args, result, dur, outer) -> None:
    M = args[0]
    tr._seen["min_proj_resolution"].add((tr.alg_key(M.alg), _module_fingerprint(M)))


def _hook_run_suite(tr: Tracer, args, result, dur, outer) -> None:
    if outer:
        tr.bump(f"suite.{args[1]}", dur)
        tr.bump("claims_checked", sum(item.checked for item in result.items))


_HOOKS = {
    "linalg.Mat.rref": _hook_rref,
    "reps.hom_space": _hook_hom_space,
    "reps.modules_isomorphic": _hook_iso,
    "cli.main": _hook_cli_main,
    "reps.interval_module": _hook_interval,
    "reps.min_proj_resolution": _hook_resolution,
    "checks.run_suite": _hook_run_suite,
}
