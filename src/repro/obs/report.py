"""Plain-text rendering of snapshots: metric tables, self-time profile,
the stitched multi-process trace tree, and the one-line run summary the
experiment CLI appends to every run."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .metrics import ObsSnapshot, ProfileEntry
from .trace import SpanRecord


def table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """An ASCII table: left-justified columns, two-space gaps, a dash rule.

    The one table layout of the CLI: metric tables, the self-time
    profile, the SLO table, ``bench-report`` and the experiment tables.
    """
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _num(value: Union[int, float]) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def render_metrics(snapshot: ObsSnapshot) -> str:
    """Counters, gauges, histograms and chip op totals as text tables."""
    sections: List[str] = []
    if snapshot.counters:
        rows = [
            (name, _num(value))
            for name, value in sorted(snapshot.counters.items())
        ]
        sections.append("counters\n\n" + table(("name", "value"), rows))
    if snapshot.gauges:
        rows = [
            (name, _num(value))
            for name, value in sorted(snapshot.gauges.items())
        ]
        sections.append("gauges\n\n" + table(("name", "value"), rows))
    if snapshot.histograms:
        rows = [
            (name, h.count, _num(round(h.mean, 6)), _num(h.min), _num(h.max))
            for name, h in sorted(snapshot.histograms.items())
        ]
        sections.append(
            "histograms\n\n"
            + table(("name", "count", "mean", "min", "max"), rows)
        )
    ops = snapshot.op_counters
    if ops is not None:
        sections.append(
            "chip op counters\n\n"
            + table(
                ("reads", "programs", "erases", "partial_programs",
                 "busy_s", "energy_j"),
                [(
                    ops.reads, ops.programs, ops.erases,
                    ops.partial_programs,
                    f"{ops.busy_time_s:.6g}", f"{ops.energy_j:.6g}",
                )],
            )
        )
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)


def render_profile(profile: Dict[str, ProfileEntry], top: int = 10) -> str:
    """The aggregated self-time report, heaviest spans first."""
    if not profile:
        return "(no spans recorded)"
    ranked = sorted(
        profile.items(), key=lambda item: item[1].self_s, reverse=True
    )[: max(top, 1)]
    rows = []
    for name, entry in ranked:
        rows.append((
            name,
            entry.count,
            f"{entry.self_s * 1e3:.2f}",
            f"{entry.total_s * 1e3:.2f}",
            f"{entry.total_s / entry.count * 1e3:.3f}",
        ))
    return (
        f"self-time profile (top {len(rows)} by self time)\n\n"
        + table(("span", "count", "self ms", "total ms", "avg ms"), rows)
    )


class _TraceNode:
    """One aggregated (proc, name, parent) cell of the stitched tree."""

    __slots__ = ("proc", "name", "count", "total_s", "self_s", "children")

    def __init__(self, proc: str, name: str) -> None:
        self.proc = proc
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.children: List["_TraceNode"] = []


def stitch_spans(
    spans: Sequence[SpanRecord],
) -> List[_TraceNode]:
    """Fold spans (possibly from several processes) into one call tree.

    Spans aggregate by ``(proc, name, parent)``; a node attaches under
    the node whose name matches its recorded ``parent`` — preferring a
    same-process parent, else any process.  That second case is exactly
    the ONFI trace-parent hop: a ``ChipServer`` span whose parent is the
    client-side span name stitches under the client's subtree even
    though the two spans were recorded in different processes.
    """
    nodes: Dict[Tuple[str, str, Optional[str]], _TraceNode] = {}
    order: List[Tuple[str, str, Optional[str]]] = []
    for record in spans:
        key = (record.proc, record.name, record.parent)
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = _TraceNode(record.proc, record.name)
            order.append(key)
        node.count += 1
        node.total_s += record.duration_s
        node.self_s += record.self_s
    by_name: Dict[str, List[Tuple[str, str, Optional[str]]]] = {}
    for key in order:
        by_name.setdefault(key[1], []).append(key)
    roots: List[_TraceNode] = []
    for key in order:
        proc, _name, parent = key
        if parent is None:
            roots.append(nodes[key])
            continue
        candidates = by_name.get(parent, [])
        chosen = None
        for cand in candidates:
            if cand == key:
                continue
            if cand[0] == proc:
                chosen = cand
                break
            if chosen is None:
                chosen = cand
        if chosen is None:
            roots.append(nodes[key])
        else:
            nodes[chosen].children.append(nodes[key])
    return roots


def render_trace_tree(spans: Sequence[SpanRecord]) -> str:
    """The stitched trace as an indented tree, one line per node."""
    roots = stitch_spans(spans)
    if not roots:
        return "(no spans recorded)"
    lines = ["stitched trace tree", ""]
    seen: set = set()

    def emit(node: _TraceNode, depth: int) -> None:
        if id(node) in seen:  # name-based parenting can loop; cut it
            return
        seen.add(id(node))
        label = node.name if not node.proc else f"{node.name} [{node.proc}]"
        lines.append(
            f"{'  ' * depth}{label}  ×{node.count}  "
            f"total {node.total_s * 1e3:.2f} ms  "
            f"self {node.self_s * 1e3:.2f} ms"
        )
        for child in sorted(
            node.children, key=lambda n: (-n.total_s, n.name, n.proc)
        ):
            emit(child, depth + 1)

    for root in sorted(roots, key=lambda n: (-n.total_s, n.name, n.proc)):
        emit(root, 0)
    return "\n".join(lines)


def one_line_summary(snapshot: ObsSnapshot, enabled: bool = True) -> str:
    """The run footer: ops, corrected bits, GC rescues, wall time."""
    wall = f"wall {snapshot.wall_s:.2f} s"
    if not enabled:
        return f"[obs] observability disabled (REPRO_OBS=0) · {wall}"
    ops = snapshot.op_counters
    if ops is None:
        op_part = "0 chip ops"
        busy = ""
    else:
        total = ops.reads + ops.programs + ops.erases + ops.partial_programs
        op_part = (
            f"{total} chip ops ({ops.reads} reads, {ops.programs} programs, "
            f"{ops.erases} erases, {ops.partial_programs} PP)"
        )
        busy = f" · busy {ops.busy_time_s * 1e3:.1f} ms"
    corrected = int(snapshot.counters.get("bch.decode.errors_corrected", 0))
    rescued = int(snapshot.counters.get("ftl.gc.pages_rescued", 0))
    return (
        f"[obs] {op_part} · {corrected} bits corrected · "
        f"{rescued} GC pages rescued{busy} · {wall}"
    )
