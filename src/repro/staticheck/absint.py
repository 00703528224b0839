"""Abstract interpretation of kernel ASTs: the site-inventory pass.

This is the *static* half of the certifier.  It parses every module
the contract registry certifies (``repro.staticheck.contracts`` —
each admitted kernel's module plus its declared helpers; the four
``repro.systems`` emulations are swept by the lint as well) without
executing anything and extracts, per function whose first parameter
is ``ctx``:

* **atomic sites** — every ``ctx.smem_atomic_add`` (shared) and
  ``ctx.atomic_global`` (global) call with ``file:line`` provenance.
  This inventory *is* the cost model's BC/EC story: the compaction
  variants trade many shared-atomic sites for extra instructions, and
  the certificate records exactly which sites each variant executes.
* **barrier sites** — every ``yield ctx.BARRIER``; the closed-form
  barrier bounds in :mod:`repro.staticheck.bounds` must account for
  every reachable site, and :func:`KernelInventory.check_barrier_sites`
  cross-checks that.
* **divergence sites** — ``if``/``while`` tests that mention a
  warp-identity name (``warp_id``, ``lanes``, ...): the lanes of a warp
  no longer advance uniformly past these.
* **memory sites** — every ``ctx.gload``/``ctx.gstore``, classified
  ``coalesced`` (index built from ``lanes``/``arange``/slice
  arithmetic, served by few 128-byte transactions) or ``scattered``
  (gather through a data-dependent index array — up to one transaction
  per lane, the latency-bound regime of the ``trackers`` discussion).
* **shared allocations** — ``ctx.smem_array(name, size)`` with the
  size resolved to a symbolic :class:`~repro.staticheck.symbolic.Expr`
  (``ctx.warps_per_block`` → ``W``, a parameter name → itself), plus
  every ``ctx.smem_set`` scalar name.  These feed the static
  shared-memory footprint check against ``DeviceSpec``.
* **charge sum** — the straight-line worst case of literal
  ``ctx.charge(c)`` constants (both branches of every ``if``), the
  per-visit instruction mass the bounds multiply by trip counts.
* **call edges** — calls to other ``ctx``-first functions, so the
  certifier can verify its variant-reachability table against the
  real call graph.

Coverage is a gate, not a best effort: every ``ctx`` function of a
certified module must appear in the module's ``__staticheck__``
annotation (and hence have bounds registered); an unannotated kernel
yields an ``uncertified-kernel`` finding unless its ``def`` line
carries the ``# staticheck: waive`` marker.  The system emulations are
charge-based (no SIMT kernels); for those the pass inventories
``device.charge`` sites instead.
"""

from __future__ import annotations

import ast
import copy
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.sanitize.astutil import (
    WARP_NAMES as _WARP_NAMES,
    dotted as _dotted,
    iter_own_scope as _iter_own_scope,
    mentions as _mentions,
)
from repro.sanitize.report import SanitizerFinding
from repro.staticheck.symbolic import Const, Expr, Param

__all__ = [
    "Site",
    "SharedAlloc",
    "KernelInventory",
    "ModuleInventory",
    "analyze_source",
    "analyze_file",
    "analyze_module",
    "WAIVE_MARK",
]

#: index sub-expressions that keep a global access coalesced
_COALESCED_HINTS = ("lanes", "arange", "block_idx")

#: magic comment waiving the uncertified-kernel coverage check for the
#: function defined on that line (use sparingly, and say why)
WAIVE_MARK = "# staticheck: waive"


@dataclass(frozen=True)
class Site:
    """One statically identified program point."""

    kind: str  #: e.g. ``shared-atomic``, ``barrier``, ``gload-scattered``
    function: str  #: qualified ``module:function`` owning the site
    line: int
    detail: str = ""

    def where(self, filename: str) -> str:
        return f"{Path(filename).name}:{self.line}"


@dataclass(frozen=True)
class SharedAlloc:
    """A ``ctx.smem_array`` allocation with its symbolic size."""

    name: str
    size: Expr
    line: int


@dataclass
class KernelInventory:
    """Everything the pass learned about one ``ctx`` function."""

    qualname: str
    filename: str
    lineno: int
    is_generator: bool = False
    shared_atomic_sites: List[Site] = field(default_factory=list)
    global_atomic_sites: List[Site] = field(default_factory=list)
    barrier_sites: List[Site] = field(default_factory=list)
    divergence_sites: List[Site] = field(default_factory=list)
    memory_sites: List[Site] = field(default_factory=list)
    shared_allocs: List[SharedAlloc] = field(default_factory=list)
    shared_scalars: List[str] = field(default_factory=list)
    charge_sum: float = 0.0
    callees: List[str] = field(default_factory=list)
    waived: bool = False

    @property
    def atomic_sites(self) -> List[Site]:
        return self.shared_atomic_sites + self.global_atomic_sites

    @property
    def coalesced_sites(self) -> List[Site]:
        return [s for s in self.memory_sites if s.kind.endswith("coalesced")]

    @property
    def scattered_sites(self) -> List[Site]:
        return [s for s in self.memory_sites if s.kind.endswith("scattered")]


@dataclass
class ModuleInventory:
    """Per-module result of the pass."""

    module: str
    filename: str
    kernels: Dict[str, KernelInventory] = field(default_factory=dict)
    #: functions named by the module's ``__staticheck__`` annotation
    annotated: Tuple[str, ...] = ()
    #: ``device.charge`` sites of charge-based emulations
    charge_sites: List[Site] = field(default_factory=list)

    def coverage_findings(self) -> List[SanitizerFinding]:
        """``uncertified-kernel`` findings for unannotated kernels."""
        findings: List[SanitizerFinding] = []
        for name, inv in self.kernels.items():
            if inv.waived or name in self.annotated:
                continue
            findings.append(
                SanitizerFinding(
                    "uncertified-kernel",
                    "error",
                    inv.qualname,
                    "kernel function has no entry in the module's "
                    "__staticheck__ annotation — register closed-form "
                    "bounds in repro.staticheck.bounds (or mark the def "
                    f"line with {WAIVE_MARK!r} and say why)",
                    (f"{Path(self.filename).name}:{inv.lineno}",),
                )
            )
        for name in self.annotated:
            if name not in self.kernels:
                findings.append(
                    SanitizerFinding(
                        "uncertified-kernel",
                        "error",
                        f"{self.module}:{name}",
                        "__staticheck__ annotates a function the AST pass "
                        "cannot find — stale annotation",
                        (Path(self.filename).name,),
                    )
                )
        return findings

    def check_call_edges(
        self, declared: Dict[str, Sequence[str]]
    ) -> List[SanitizerFinding]:
        """Verify a declared call-graph table against the real AST.

        ``declared`` maps a kernel name to the helpers the certifier's
        reachability table believes it may call.  A real call edge to a
        certified kernel function that the table omits is a finding —
        the certificate would silently ignore that helper's cost.
        """
        findings: List[SanitizerFinding] = []
        for name, inv in self.kernels.items():
            allowed = set(declared.get(name, ()))
            for callee in inv.callees:
                if callee in self.kernels and callee not in allowed:
                    findings.append(
                        SanitizerFinding(
                            "uncertified-kernel",
                            "error",
                            inv.qualname,
                            f"call edge {name} -> {callee} is missing from "
                            "the certifier's reachability table "
                            "(repro.staticheck.bounds) — its cost would be "
                            "uncertified",
                            (f"{Path(self.filename).name}:{inv.lineno}",),
                        )
                    )
        return findings


# -- helpers ----------------------------------------------------------------


def _size_expr(node: ast.AST) -> Expr:
    """Symbolic size of a ``smem_array`` allocation.

    ``ctx.warps_per_block`` maps to ``W``; a plain name maps to a
    parameter of the same name (``shared_capacity`` → ``scap`` via the
    alias table); an int literal to a constant; anything else to the
    pessimistic parameter ``cap`` (the largest buffer the device has).
    """
    aliases = {"shared_capacity": "scap", "warps_per_block": "W",
               "capacity": "cap", "num_warps": "W"}
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Const(node.value)
    dotted = _dotted(node)
    if dotted is not None:
        leaf = dotted.split(".")[-1]
        return Param(aliases.get(leaf, leaf))
    return Param("cap")


# -- the pass ----------------------------------------------------------------


class _FunctionPass:
    def __init__(self, module: str, filename: str, source_lines: List[str]):
        self.module = module
        self.filename = filename
        self.source_lines = source_lines

    def run(self, node: ast.FunctionDef) -> KernelInventory:
        qualname = f"{self.module}:{node.name}"
        inv = KernelInventory(qualname, self.filename, node.lineno)
        def_line = self.source_lines[node.lineno - 1] if (
            node.lineno - 1 < len(self.source_lines)
        ) else ""
        inv.waived = WAIVE_MARK in def_line
        for sub in _iter_own_scope(node):
            self._visit(sub, inv, qualname)
        return inv

    def _visit(self, node: ast.AST, inv: KernelInventory, qual: str) -> None:
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            inv.is_generator = True
            if isinstance(node, ast.Yield) and isinstance(
                node.value, ast.Attribute
            ):
                if node.value.attr == "BARRIER":
                    inv.barrier_sites.append(
                        Site("barrier", qual, node.lineno)
                    )
            return
        if isinstance(node, (ast.If, ast.While)):
            if _mentions(node.test, _WARP_NAMES):
                inv.divergence_sites.append(
                    Site(
                        "divergence",
                        qual,
                        node.lineno,
                        ast.unparse(node.test),
                    )
                )
            return
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
        ):
            return
        owner, attr = func.value.id, func.attr
        if owner != "ctx":
            if attr in ("gload", "gstore", "read", "write", "read_batch"):
                # BlockBufferView accesses resolve to ctx ops inside
                # buffers.py; their cost is certified there.
                inv.callees.append(f"view.{attr}")
            return
        if attr == "smem_atomic_add":
            name = self._scalar_name(node)
            inv.shared_atomic_sites.append(
                Site("shared-atomic", qual, node.lineno, name)
            )
        elif attr == "atomic_global":
            inv.global_atomic_sites.append(
                Site("global-atomic", qual, node.lineno,
                     self._array_name(node))
            )
        elif attr in ("gload", "gstore"):
            coalesced = self._is_coalesced(node)
            kind = f"{attr}-{'coalesced' if coalesced else 'scattered'}"
            inv.memory_sites.append(
                Site(kind, qual, node.lineno, self._array_name(node))
            )
        elif attr == "smem_array":
            if node.args and isinstance(node.args[0], ast.Constant):
                inv.shared_allocs.append(
                    SharedAlloc(
                        str(node.args[0].value),
                        _size_expr(node.args[1]) if len(node.args) > 1
                        else Const(0),
                        node.lineno,
                    )
                )
        elif attr == "smem_set":
            name = self._scalar_name(node)
            if name and name not in inv.shared_scalars:
                inv.shared_scalars.append(name)
        elif attr == "charge":
            if node.args and isinstance(node.args[0], ast.Constant):
                inv.charge_sum += float(node.args[0].value)

    @staticmethod
    def _scalar_name(node: ast.Call) -> str:
        if node.args and isinstance(node.args[0], ast.Constant):
            return str(node.args[0].value)
        return ""

    @staticmethod
    def _array_name(node: ast.Call) -> str:
        if node.args:
            dotted = _dotted(node.args[0])
            if dotted:
                return dotted
        return ""

    @staticmethod
    def _is_coalesced(node: ast.Call) -> bool:
        if len(node.args) < 2:
            return True
        idx = node.args[1]
        if isinstance(idx, ast.Constant):
            return True
        return _mentions(idx, _COALESCED_HINTS) or any(
            isinstance(sub, ast.Call)
            and _dotted(sub.func) in ("np.arange", "np.asarray")
            for sub in ast.walk(idx)
        )


def analyze_source(
    source: str, module: str, filename: str = "<string>"
) -> ModuleInventory:
    """Run the pass over one module's source text."""
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    result = ModuleInventory(module, filename)
    fn_pass = _FunctionPass(module, filename, lines)
    known: List[ast.FunctionDef] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args.args
            if args and args[0].arg == "ctx":
                known.append(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "__staticheck__"
                    and isinstance(node.value, ast.Dict)
                ):
                    result.annotated = tuple(
                        str(key.value)
                        for key in node.value.keys
                        if isinstance(key, ast.Constant)
                    )
        elif isinstance(node, ast.Call):
            # device.charge(...) sites of the charge-based emulations
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "charge"
                and _dotted(func) in ("device.charge", "self.device.charge",
                                      "engine.device.charge")
            ):
                label = ""
                for kw in node.keywords:
                    if kw.arg == "label" and isinstance(kw.value, ast.Constant):
                        label = str(kw.value.value)
                result.charge_sites.append(
                    Site("device-charge", module, node.lineno, label)
                )
    kernel_names = {fn.name for fn in known}
    for fn in known:
        inv = fn_pass.run(fn)
        # keep only call edges to sibling ctx functions (or known
        # module-level helpers imported from certified modules)
        inv.callees = sorted(
            {
                call.func.id
                for call in ast.walk(fn)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
            }
            & kernel_names
            | {
                c
                for c in (
                    call.func.id
                    for call in ast.walk(fn)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                )
                if c in _CROSS_MODULE_HELPERS
            }
        )
        result.kernels[fn.name] = inv
    return result


#: helpers defined in other certified modules that kernels may call;
#: call edges to these are resolved by the certifier's reachability table
_CROSS_MODULE_HELPERS = (
    "warp_compact_ballot",
    "warp_compact_hillis_steele",
    "block_scan_offsets",
    "hillis_steele_exclusive",
    "BlockBufferView",
)


#: inventories of analysed files by (sha256 of the text, module, path)
_FILE_INVENTORIES: Dict[Tuple[str, str, str], ModuleInventory] = {}


def analyze_file(path: str | Path, module: str | None = None) -> ModuleInventory:
    """Run the pass over one file.

    Memoised by the sha256 of the file's text: an unchanged file is
    parsed once per process, and every call returns its own deep copy,
    so no caller can change what the next one gets.
    """
    path = Path(path)
    name = module or path.stem
    source = path.read_text(encoding="utf-8")
    key = (hashlib.sha256(source.encode()).hexdigest(), name, str(path))
    inventory = _FILE_INVENTORIES.get(key)
    if inventory is None:
        inventory = analyze_source(source, name, str(path))
        _FILE_INVENTORIES[key] = inventory
    return copy.deepcopy(inventory)


def analyze_module(mod) -> ModuleInventory:
    """Run the pass over an imported module object."""
    return analyze_file(mod.__file__, mod.__name__.rsplit(".", 1)[-1])
