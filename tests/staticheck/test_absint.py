"""AST site-inventory pass tests (synthetic kernel sources)."""

from __future__ import annotations

from repro.staticheck import absint
from repro.staticheck.absint import WAIVE_MARK, analyze_file, analyze_source

_KERNEL_SOURCE = '''
__staticheck__ = {"my_kernel": "bounds in tests"}


def my_kernel(ctx, deg, buf):
    if ctx.warp_id == 0:
        ctx.smem_set("e", 0)
    yield ctx.BARRIER
    b = ctx.smem_array("B", ctx.shared_capacity)
    degs = ctx.gload(deg, ctx.lanes, dependent=False)
    vals = ctx.gload(buf, degs)
    ctx.smem_atomic_add("e", 3, lanes=3)
    ctx.atomic_global(deg, 0, 1)
    ctx.charge(4)
    helper(ctx)
    yield ctx.BARRIER


def helper(ctx):
    ctx.charge(2)


def not_a_kernel(graph):
    return graph
'''


def _module():
    return analyze_source(_KERNEL_SOURCE, "mymod", "mymod.py")


def test_kernel_functions_are_discovered_by_ctx_convention():
    mod = _module()
    assert set(mod.kernels) == {"my_kernel", "helper"}


def test_site_inventory_classifies_each_access():
    inv = _module().kernels["my_kernel"]
    assert inv.is_generator
    assert len(inv.barrier_sites) == 2
    assert len(inv.shared_atomic_sites) == 1
    assert inv.shared_atomic_sites[0].detail == "e"
    assert len(inv.global_atomic_sites) == 1
    # lanes-indexed gload is coalesced; the gather through degs is not
    kinds = sorted(s.kind for s in inv.memory_sites)
    assert kinds == ["gload-coalesced", "gload-scattered"]
    assert len(inv.divergence_sites) == 1  # the warp_id test
    assert inv.charge_sum == 4
    assert [a.name for a in inv.shared_allocs] == ["B"]
    assert str(inv.shared_allocs[0].size) == "scap"
    assert inv.shared_scalars == ["e"]
    assert inv.callees == ["helper"]


def test_coverage_gate_flags_unannotated_kernels():
    findings = _module().coverage_findings()
    assert len(findings) == 1
    assert findings[0].detector == "uncertified-kernel"
    assert "helper" in findings[0].kernel


def test_waive_marker_suppresses_coverage_finding():
    source = _KERNEL_SOURCE.replace(
        "def helper(ctx):", f"def helper(ctx):  {WAIVE_MARK}"
    )
    mod = analyze_source(source, "mymod", "mymod.py")
    assert mod.coverage_findings() == []


def test_stale_annotation_is_a_finding():
    source = _KERNEL_SOURCE.replace(
        '"my_kernel": "bounds in tests"',
        '"my_kernel": "x", "gone_kernel": "y"',
    )
    mod = analyze_source(source, "mymod", "mymod.py")
    stale = [f for f in mod.coverage_findings() if "gone_kernel" in f.kernel]
    assert len(stale) == 1
    assert "stale" in stale[0].message


def test_missing_call_edge_is_a_finding():
    mod = _module()
    ok = mod.check_call_edges({"my_kernel": ("helper",)})
    assert ok == []
    missing = mod.check_call_edges({"my_kernel": ()})
    assert len(missing) == 1
    assert missing[0].detector == "uncertified-kernel"
    assert "my_kernel -> helper" in missing[0].message


def test_file_inventories_are_memoised_by_source_digest(tmp_path, monkeypatch):
    calls = []
    real = absint.analyze_source

    def counting(source, module, filename="<string>"):
        calls.append(module)
        return real(source, module, filename)

    monkeypatch.setattr(absint, "analyze_source", counting)
    path = tmp_path / "memo_mod.py"
    path.write_text(_KERNEL_SOURCE)
    first = analyze_file(path)
    assert set(analyze_file(path).kernels) == {"my_kernel", "helper"}
    assert calls == ["memo_mod"]
    # a caller's inventory is its own copy
    first.kernels["my_kernel"].barrier_sites.clear()
    del first.kernels["helper"]
    again = analyze_file(path)
    assert len(again.kernels["my_kernel"].barrier_sites) == 2
    assert "helper" in again.kernels
    # changed text is analysed afresh
    path.write_text(_KERNEL_SOURCE + "\n\ndef late(ctx):\n    ctx.charge(1)\n")
    assert "late" in analyze_file(path).kernels
    assert calls == ["memo_mod", "memo_mod"]
