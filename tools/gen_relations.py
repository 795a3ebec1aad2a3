#!/usr/bin/env python3
"""Regenerate the shipped relation catalogs.

The catalog is data: one relation per line, `id | kind | lhs | rhs`, with
expressions in the prefix grammar understood by jordan_osc.model (tokens:
add, sub, mul, smul, comm, acomm, neg, operator names, the generators z,
zbar, dz, dzbar, scalar literals like 4*a, -1/2, 8*b, 2*q*p^-1). Index families (gl(2) E-pairs, the E-D / D-D / a-E / a-D
families) are expanded here programmatically so no delta bookkeeping is ever
transcribed by hand into the file.

Run from the repository root:  python tools/gen_relations.py
"""

from __future__ import annotations

import pathlib

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "jordan_osc" / "data"

E = {(1, 1): "E11", (1, 2): "E12", (2, 1): "E21", (2, 2): "E22"}
DP = {(1, 1): "D+11", (1, 2): "D+12", (2, 1): "D+12", (2, 2): "D+22"}
DM = {(1, 1): "D-11", (1, 2): "D-12", (2, 1): "D-12", (2, 2): "D-22"}
AM = {1: "a1-", 2: "a2-"}
AP = {1: "a1+", 2: "a2+"}

D_KEYS = ((1, 1), (1, 2), (2, 2))
E_KEYS = ((1, 1), (1, 2), (2, 1), (2, 2))


def combo(terms: list[tuple[int, str]]) -> str:
    """Render an integer combination of named operators in prefix form."""
    merged: dict[str, int] = {}
    for c, name in terms:
        merged[name] = merged.get(name, 0) + c
    parts = [(c, name) for name, c in merged.items() if c != 0]
    if not parts:
        return "0"

    def one(c: int, name: str) -> str:
        return name if c == 1 else f"smul {c} {name}"

    expr = one(*parts[0])
    for c, name in parts[1:]:
        expr = f"add {expr} {one(c, name)}"
    return expr


def main() -> None:
    rel: list[tuple[str, str, str, str]] = []

    def add(rid: str, kind: str, lhs: str, rhs: str) -> None:
        rel.append((rid, kind, lhs, rhs))

    # ---- shape-invariance ladder in z ----
    add("shape.H-Aplus", "commutator", "comm H A+", "smul 4*a A+")
    add("shape.H-Aminus", "commutator", "comm H A-", "smul -4*a A-")
    add("shape.Aminus-Aplus", "commutator", "comm A- A+", "0")

    # ---- chain ladder in zbar ----
    add("ladder.H-Bplus", "commutator", "comm H B+", "add smul 4*a B+ smul 8*b A+")
    add("ladder.H-Bminus", "commutator", "comm H B-", "add smul -4*a B- smul -8*b A-")
    add("ladder.Bminus-Bplus", "commutator", "comm B- B+", "-4*b")
    add("ladder.Aplus-Bplus", "commutator", "comm A+ B+", "0")
    add("ladder.Aminus-Bminus", "commutator", "comm A- B-", "0")
    add("ladder.Aplus-Bminus", "commutator", "comm A+ B-", "2*a")
    add("ladder.Aminus-Bplus", "commutator", "comm A- B+", "-2*a")

    # ---- bilinear block operators R, S, T, U ----
    add("block.H-R", "commutator", "comm H R", "0")
    add("block.H-S", "commutator", "comm H S", "smul 8*b T")
    add("block.H-T", "commutator", "comm H T", "smul -16*b R")
    add("block.H-U", "commutator", "comm H U", "0")
    add("block.R-S", "commutator", "comm R S", "smul -2*a T")
    add("block.R-T", "commutator", "comm R T", "smul 4*a R")
    add("block.R-U", "commutator", "comm R U", "0")
    add("block.S-T", "commutator", "comm S T", "add smul -4*a S smul 4*b U")
    add("block.S-U", "commutator", "comm S U", "smul 4*b T")
    add("block.T-U", "commutator", "comm T U", "smul -8*b R")
    add("block.U-H", "identity", "U", "add smul -1/2 H 2*a")

    # ---- gl(2) generators ----
    add("gl2.K-J0", "commutator", "comm K J0", "0")
    add("gl2.K-Jplus", "commutator", "comm K J+", "0")
    add("gl2.K-Jminus", "commutator", "comm K J-", "0")
    add("gl2.J0-Jplus", "commutator", "comm J0 J+", "J+")
    add("gl2.J0-Jminus", "commutator", "comm J0 J-", "smul -1 J-")
    add("gl2.Jplus-Jminus", "commutator", "comm J+ J-", "smul 2 J0")
    add("gl2.H-via-K", "identity", "H", "add smul 4*a K J-")
    add("gl2.embed-J0", "identity", "J0", "smul 1/2 sub E11 E22")
    add("gl2.embed-Jplus", "identity", "J+", "E12")
    add("gl2.embed-Jminus", "identity", "J-", "E21")
    add("gl2.embed-K", "identity", "K", "add E11 E22")
    # [E_ij, E_kl] = d_jk E_il - d_il E_kj over distinct unordered pairs
    keys = list(E_KEYS)
    for x in range(len(keys)):
        for y in range(x + 1, len(keys)):
            (i, j), (k, l) = keys[x], keys[y]
            rhs = combo(
                [(1, E[i, l])] * (j == k) + [(-1, E[k, j])] * (i == l)
            )
            add(f"gl2.E{i}{j}-E{k}{l}", "commutator", f"comm E{i}{j} E{k}{l}", rhs)

    # ---- boson commutators ----
    add("boson.a1m-a1p", "commutator", "comm a1- a1+", "1")
    add("boson.a1m-a2p", "commutator", "comm a1- a2+", "0")
    add("boson.a2m-a1p", "commutator", "comm a2- a1+", "0")
    add("boson.a2m-a2p", "commutator", "comm a2- a2+", "1")
    add("boson.a1m-a2m", "commutator", "comm a1- a2-", "0")
    add("boson.a1p-a2p", "commutator", "comm a1+ a2+", "0")

    # ---- sp(4) even sector from boson bilinears ----
    add("sp4.acomm-a1m-a1p", "anticommutator", "acomm a1- a1+", "add K smul 2 J0")
    add("sp4.acomm-a1m-a2p", "anticommutator", "acomm a1- a2+", "smul 2 J-")
    add("sp4.acomm-a2m-a1p", "anticommutator", "acomm a2- a1+", "smul 2 J+")
    add("sp4.acomm-a2m-a2p", "anticommutator", "acomm a2- a2+", "sub K smul 2 J0")
    for (i, j) in D_KEYS:
        add(f"sp4.Dplus{i}{j}-def", "identity", DP[i, j], f"smul 1/2 acomm {AP[i]} {AP[j]}")
        add(f"sp4.Dminus{i}{j}-def", "identity", DM[i, j], f"smul 1/2 acomm {AM[i]} {AM[j]}")

    # ---- osp(1|4) bracket families ----
    # [E_ij, D+_kl] = d_jk D+_il + d_jl D+_ik
    for (i, j) in E_KEYS:
        for (k, l) in D_KEYS:
            rhs = combo([(1, DP[i, l])] * (j == k) + [(1, DP[i, k])] * (j == l))
            add(f"osp.E{i}{j}-Dp{k}{l}", "commutator", f"comm E{i}{j} {DP[k, l]}", rhs)
    # [E_ij, D-_kl] = -d_ik D-_jl - d_il D-_jk
    for (i, j) in E_KEYS:
        for (k, l) in D_KEYS:
            rhs = combo([(-1, DM[j, l])] * (i == k) + [(-1, DM[j, k])] * (i == l))
            add(f"osp.E{i}{j}-Dm{k}{l}", "commutator", f"comm E{i}{j} {DM[k, l]}", rhs)
    # [D-_ij, D+_kl] = d_ik E_lj + d_il E_kj + d_jk E_li + d_jl E_ki
    for (i, j) in D_KEYS:
        for (k, l) in D_KEYS:
            rhs = combo(
                [(1, E[l, j])] * (i == k)
                + [(1, E[k, j])] * (i == l)
                + [(1, E[l, i])] * (j == k)
                + [(1, E[k, i])] * (j == l)
            )
            add(f"osp.Dm{i}{j}-Dp{k}{l}", "commutator", f"comm {DM[i, j]} {DP[k, l]}", rhs)
    # [D+_ij, D+_kl] = [D-_ij, D-_kl] = 0 (distinct pairs)
    for x in range(len(D_KEYS)):
        for y in range(x + 1, len(D_KEYS)):
            (i, j), (k, l) = D_KEYS[x], D_KEYS[y]
            add(f"osp.Dp{i}{j}-Dp{k}{l}", "commutator", f"comm {DP[i, j]} {DP[k, l]}", "0")
            add(f"osp.Dm{i}{j}-Dm{k}{l}", "commutator", f"comm {DM[i, j]} {DM[k, l]}", "0")
    # [a_i^-, E_jk] = d_ij a_k^-   and   [a_i^+, E_jk] = -d_ik a_j^+
    for i in (1, 2):
        for (j, k) in E_KEYS:
            add(
                f"osp.a{i}m-E{j}{k}", "commutator", f"comm {AM[i]} E{j}{k}",
                combo([(1, AM[k])] * (i == j)),
            )
            add(
                f"osp.a{i}p-E{j}{k}", "commutator", f"comm {AP[i]} E{j}{k}",
                combo([(-1, AP[j])] * (i == k)),
            )
    # [a_i^+, D-_jk] = -d_ij a_k^- - d_ik a_j^-   (and the +/- mirror)
    for i in (1, 2):
        for (j, k) in D_KEYS:
            add(
                f"osp.a{i}p-Dm{j}{k}", "commutator", f"comm {AP[i]} {DM[j, k]}",
                combo([(-1, AM[k])] * (i == j) + [(-1, AM[j])] * (i == k)),
            )
            add(
                f"osp.a{i}m-Dp{j}{k}", "commutator", f"comm {AM[i]} {DP[j, k]}",
                combo([(1, AP[k])] * (i == j) + [(1, AP[j])] * (i == k)),
            )
            add(f"osp.a{i}p-Dp{j}{k}", "commutator", f"comm {AP[i]} {DP[j, k]}", "0")
            add(f"osp.a{i}m-Dm{j}{k}", "commutator", f"comm {AM[i]} {DM[j, k]}", "0")

    ids = [r[0] for r in rel]
    assert len(ids) == len(set(ids)), "duplicate relation ids"

    OUT.mkdir(parents=True, exist_ok=True)
    header = (
        "# jordan-osc relation catalog, format v1\n"
        "# one relation per line: id | kind | lhs | rhs (prefix grammar)\n"
    )
    body = "".join(f"{rid} | {kind} | {lhs} | {rhs}\n" for rid, kind, lhs, rhs in rel)
    (OUT / "relations_v1.txt").write_text(header + body)

    negative = (
        "# jordan-osc negative controls, format v1: deliberately corrupted\n"
        "# relations that the structure suite must reject\n"
        "neg.shape.Aminus-Aplus | commutator | comm A- A+ | 1\n"
        "neg.ladder.Bminus-Bplus-sign | commutator | comm B- B+ | 4*b\n"
        "neg.block.U-H-offset | identity | U | smul -1/2 H\n"
        "neg.gl2.Jplus-Jminus | commutator | comm J+ J- | smul 2 J+\n"
        "neg.osp.E12-Dp11 | commutator | comm E12 D+11 | smul 2 D+12\n"
    )
    (OUT / "negative_controls_v1.txt").write_text(negative)
    print(f"wrote {len(rel)} relations and 5 negative controls to {OUT}")


if __name__ == "__main__":
    main()
