"""EXPERIMENTS.md's numeric tables, rendered from the committed baselines.

Each of the six paper drivers has a gated baseline (``BENCH_<name>.json``,
held by ``bench --check-all``).  The doc's table for that driver sits
between ``<!-- bench:<name>:begin -->`` and ``<!-- bench:<name>:end -->``
and is exactly :func:`render_table` of the baseline's deterministic
section, so a re-baselined number cannot leave the doc behind
(``tests/test_experiments_doc.py``).  Regenerate the doc with
``PYTHONPATH=src python -m repro.bench.experiments``.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Callable, Dict, List, Sequence

from repro.bench import fig6, fig7, fig8, microcosts

__all__ = ["PAPER_TABLES", "render_document", "render_table"]

#: The drivers whose baselines EXPERIMENTS.md tabulates, in doc order.
PAPER_TABLES = ("table1", "fig6", "fig7", "fig8", "micro", "ablations")

_BLOCK = re.compile(
    r"(<!-- bench:(?P<name>[a-z0-9]+):begin -->\n)(.*?)(<!-- bench:(?P=name):end -->)",
    re.DOTALL,
)


def _markdown(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return lines


def _paper(value) -> str:
    return "(illegible)" if value is None else f"{value:g}"


def _table1(det: dict) -> List[str]:
    names = {"rmp": "RMP", "udp": "UDP"}
    return _markdown(
        ["protocol", "host-host", "CAB-CAB", "paper host-host", "paper CAB-CAB"],
        [
            (
                names.get(row["protocol"], row["protocol"]),
                f"{row['host_rtt_us']:.1f}",
                f"{row['cab_rtt_us']:.1f}",
                _paper(row["paper_host_us"]),
                _paper(row["paper_cab_us"]),
            )
            for row in det["rows"]
        ],
    )


def _fig6(det: dict) -> List[str]:
    rows = []
    for row in det["rows"]:
        if row["component"] == "total one-way":
            rows.append(
                ("**total one-way**", f"**{row['us']:.1f}** (paper: ~{fig6.PAPER_TOTAL_US:g})")
            )
        else:
            rows.append((row["component"], f"{row['us']:.1f}"))
    shares = ", ".join(
        f"{name} {share * 100:.0f}% (paper ~{fig6.PAPER_SHARES[name] * 100:.0f}%)"
        for name, share in det["shares"].items()
    )
    return _markdown(["component", "measured (us)"], rows) + ["", f"Shares: {shares}."]


def _fig7(det: dict) -> List[str]:
    rows = []
    for row in det["rows"]:
        rmp = f"{row['rmp_mbps']:.2f}"
        if row["size"] == 8192:
            rmp = f"**{rmp}** (paper ~{fig7.PAPER_RMP_8K:g})"
        rows.append(
            (
                row["size"],
                rmp,
                f"{row['tcp_mbps']:.2f}",
                f"{row['tcp_nochecksum_mbps']:.2f}",
                f"{row['tcp_cpu_util'] * 100:.0f}%",
                f"{row['rmp_cpu_util'] * 100:.0f}%",
            )
        )
    return _markdown(
        ["size (B)", "RMP", "TCP/IP", "TCP w/o checksum", "TCP sender CPU", "RMP sender CPU"],
        rows,
    )


def _fig8(det: dict) -> List[str]:
    rows = []
    for row in det["rows"]:
        rmp, tcp = f"{row['rmp_mbps']:.2f}", f"{row['tcp_mbps']:.2f}"
        if row["size"] == 8192:
            rmp = f"**{rmp}** (paper ~{fig8.PAPER_RMP_MAX:g})"
            tcp = f"**{tcp}** (paper ~{fig8.PAPER_TCP_MAX:g})"
        rows.append((row["size"], rmp, tcp))
    base = det["baselines"]
    return _markdown(["size (B)", "RMP", "TCP/IP"], rows) + [
        "",
        f"Reference points: network-device mode {base['netdev_mbps']:.2f} Mbit/s "
        f"(paper {fig8.PAPER_NETDEV:g}), Ethernet {base['ethernet_mbps']:.2f} Mbit/s "
        f"(paper {fig8.PAPER_ETHERNET:g}).",
    ]


def _micro(det: dict) -> List[str]:
    value = {row["quantity"]: row["value"] for row in det["rows"]}
    return _markdown(
        ["quantity", "measured", "paper"],
        [
            ("thread context switch", f"{value['context_switch_us']:.1f} us",
             f"~{microcosts.PAPER_CONTEXT_SWITCH_US:g} us"),
            ("HUB setup + first byte", f"{value['hub_setup_ns']:.0f} ns",
             f"{microcosts.PAPER_HUB_SETUP_NS} ns"),
            ("link 1-byte latency", f"{value['link_one_byte_us']:.2f} us",
             f"< {microcosts.PAPER_LINK_LATENCY_LIMIT_US:g} us"),
            ("host-to-host RPC RTT", f"{value['rpc_rtt_us']:.1f} us",
             f"< {microcosts.PAPER_RPC_LIMIT_US:g} us"),
        ],
    )


def _ablations(det: dict) -> List[str]:
    return _markdown(
        ["ablation", "quantity", "value"],
        [(row["ablation"], row["quantity"], f"{row['value']:g}") for row in det["rows"]],
    )


_RENDERERS: Dict[str, Callable[[dict], List[str]]] = {
    "table1": _table1,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "micro": _micro,
    "ablations": _ablations,
}


def render_table(name: str, deterministic: dict) -> str:
    """The doc block for one driver's baseline (its deterministic section)."""
    return "\n".join(_RENDERERS[name](deterministic)) + "\n"


def render_document(text: str, root: pathlib.Path) -> str:
    """``text`` with every bench block re-rendered from ``root``'s baselines."""

    def block(match: re.Match) -> str:
        name = match.group("name")
        report = json.loads((root / f"BENCH_{name}.json").read_text(encoding="utf-8"))
        return match.group(1) + render_table(name, report["deterministic"]) + match.group(4)

    return _BLOCK.sub(block, text)


if __name__ == "__main__":
    from repro.scenario.model import repo_root

    doc = repo_root() / "EXPERIMENTS.md"
    doc.write_text(render_document(doc.read_text(encoding="utf-8"), repo_root()), encoding="utf-8")
