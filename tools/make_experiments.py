#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from the repro harness outputs in results/.

Usage: python3 tools/make_experiments.py > EXPERIMENTS.md
Each section embeds the corresponding harness output verbatim (the
harness already prints measured vs paper tables and its shape checks),
preceded by curated commentary on what reproduced and what deviated.
"""

import datetime
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

SECTIONS = [
    (
        "Table I — complexity validation",
        "repro_complexity",
        """Claim: average time O(n log m + n log r). The harness doubles n three
times and reports the runtime normalised by n·(log m + log r). **Outcome:
reproduced** — the normalised cost stays within a small constant factor
while t/n drifts upward (an O(n²) algorithm would drift 8× over this
range).""",
    ),
    (
        "Table II — sequential comparison",
        "repro_table2",
        """**Outcome: shape reproduced.** μDBSCAN is the fastest R-tree-family
algorithm on every analogue (1.8–32× over R-DBSCAN; paper: 1.6–28×);
G-DBSCAN collapses on large low-dimensional data exactly as in the paper
(>12 h there, slowest by an order of magnitude here) while staying
competitive at high dimension; GridDBSCAN memory-errors at d ≥ 14 (the
paper's "Mem Err" rows); m ≪ n everywhere; query savings are highest on
the HHP/KDDB/3DSRN analogues and lowest on the diffuse DGB galaxy data
(paper 43.6 %, ours ≈ 39 %).

**Deviation to note:** at these scaled-down sizes (≤ 100K points) our
hash-grid GridDBSCAN is faster than μDBSCAN on the 3-d analogues, whereas
the paper's GridDBSCAN loses from 0.43M points upward. The grid's
neighbour-list memory (Table IV) and its high-d failure reproduce
regardless.""",
    ),
    (
        "Table III — μDBSCAN phase split-up",
        "repro_table3",
        """**Outcome: shape reproduced in the paper-faithful configuration.** The
harness prints two profiles. With Algorithm 7 exactly as written
(per-member post-processing scan), post-processing is the dominant or
co-dominant phase and peaks on the high-query-savings datasets (KDDB14),
matching the paper's 36–97 % pattern directionally. The second profile
shows this repo's MC-granularity skip (DESIGN.md §8.1) collapsing that
phase to a few percent — an implementation improvement the paper's
numbers say the original code did not have.""",
    ),
    (
        "Table IV — peak memory",
        "repro_table4",
        """**Outcome: shape mostly reproduced.** G-DBSCAN is smallest (no index);
μDBSCAN's two-level μR-tree costs more than R-DBSCAN's single R-tree
(paper: ×1.1–1.8, ours similar); GridDBSCAN explodes with dimension and
hits the memory budget at d = 14 (paper: 20.17 GB / Mem Err). At our
scaled 3-d sizes the grid's absolute footprint is comparable to the
trees rather than 3–4× larger — a small-scale effect; the qualitative
ordering and the high-d blow-up are the reproduced phenomena.""",
    ),
    (
        "Table V — distributed comparison (32 ranks)",
        "repro_table5",
        """**Outcome: headline reproduced.** Only μDBSCAN-D completes every row
(billion-scale and high-dimensional analogues); μDBSCAN-D beats
PDSDBSCAN-D wherever both run; RP-DBSCAN is the slowest by an order of
magnitude and approximate — we quantify its deviation with the
cluster-count delta and the Adjusted Rand Index against the exact
clustering (the paper reports cluster-count deviations for approximate
competitors). Rows the paper marks '-' (binaries not capable) are
skipped identically; GridDBSCAN-D's d = 14 cell (paper: 483.87 s on 32
nodes) is a MemErr here because our per-rank budget models a single
host's share. HPDBSCAN's speed on low-d grids reproduces; unlike the
original (inconsistent cluster counts, ~27 % deviation noted in the
paper) our port is exactness-fixed through the shared merge.""",
    ),
    (
        "Table VI — 32 → 128 cores",
        "repro_table6",
        """**Outcome: reproduced on MPAGD800M3D, within noise on FOF500M3D.**
MPAGD800M3D keeps dropping as ranks double from 32 to 128 (paper: ~2.3×
over the span on both datasets). FOF500M3D flattens past 64 ranks: at
120K points a rank holds under 1K points, and its virtual makespan sits
in the run-to-run noise — three runs of the previous commit (its own kd
partitioner and merge) gave 32→128 speedups of 1.37×, 1.05× and 0.83×;
the committed run gives 1.47×.""",
    ),
    (
        "Table VII — μDBSCAN-D phase split-up",
        "repro_table7",
        """**Outcome: partially reproduced, deviation documented.** In the paper
merging stays < 4 % of a much larger local runtime. Here the local
phases are far cheaper (MC-skip post-processing, small analogues) while
our merge *includes* one ε-query per halo point (the cross-partition
edges that restore exactness, DESIGN.md §8.3) and one per owned
non-core point the local stage attached to a cluster (the border
candidates of the canonical minimum-id rule that makes μDBSCAN-D
bit-identical to the naive oracle). So the merge SHARE is inflated,
most on FOF28M14D, where at d = 14 the halos outnumber the owned points
(see "One partition→local→merge engine" below for the before/after). What does transfer: tree construction is a large share
on 3-d galaxy data, and among local phases clustering dominates at high
dimension exactly as the paper reports for FOF28M14D. The second table
is the partitioning wall time (shard planner + one-pass halo gather),
which the reported runtime excludes, as the paper does.""",
    ),
    (
        "Table VIII — per-step speedup (32 ranks vs sequential)",
        "repro_table8",
        """**Outcome: reproduced.** Every step of μDBSCAN-D speeds up
individually; finding reachable groups scales super-linearly (32 small
level-1 trees beat one large one — the same effect the paper reports at
176×); merging is a small additive cost with no sequential counterpart.""",
    ),
    (
        "Fig. 5 — runtime vs ε",
        "repro_fig5",
        """**Outcome: reproduced, one point within noise.** μDBSCAN-D beats
PDSDBSCAN-D at every ε on both datasets but the smallest ε on
MPAGD100M3D, where the two are within a few milliseconds and
PDSDBSCAN-D edges ahead (it did in two re-runs at the previous commit
too: its R-tree DBSCAN local stage gained most from the allocation-free
R-tree). Its relative growth over the sweep is far milder than
PDSDBSCAN-D's on MPAGD100M3D and about the same on FOF56M3D (+103 % vs
+100 % here; +111–119 % vs +122–126 % in two runs of the previous
commit) — the paper's observation is that saved queries turn into
cheaper post-processing as ε grows.""",
    ),
    (
        "Fig. 6 — runtime vs dimensionality",
        "repro_fig6",
        """**Outcome: reproduced.** μDBSCAN-D runtime grows steeply and
monotonically from d = 14 to d = 74 (paper: 8.15 s → 460.83 s, a 56×
growth driven by per-distance cost and R-tree overlap).""",
    ),
    (
        "Fig. 7 — speedup vs number of nodes",
        "repro_fig7",
        """**Outcome: reproduced with one scale artifact.** Speedup grows
monotonically with p for every dataset up to 32 ranks, super-linear at
small p on the tree-bound workloads (paper: up to 70×; the
super-linearity comes from smaller per-rank R-trees, which the
virtual-clock model captures). The KDDB145K14D analogue is the artifact:
at 10K points its ε=45 halo covers nearly the whole dataset, so every
rank repeats nearly full work and speedup saturates near 1× — at the
paper's real 145K scale the halos are a small fraction and it reports
~15×. The 3-d rows, where halos are thin, show the paper's shape.""",
    ),
    (
        "Ablations (DESIGN.md §7–§8)",
        "repro_ablation",
        """Design-choice ablations on one workload; every variant produces the
identical exact clustering, only cost moves. See also the criterion
benches (`cargo bench -p bench`) for the μR-tree-vs-flat query ablation,
union–find compaction variants and the partitioning comparison.""",
    ),
]

HEADER = f"""# EXPERIMENTS — paper vs measured

This file records, for every table and figure in the paper's evaluation
(§VI), the paper's reported values next to the values measured by the
corresponding `repro_*` harness in this repository. Regenerate any
section with `cargo run --release -p bench --bin <harness>`; regenerate
this file with `python3 tools/make_experiments.py > EXPERIMENTS.md`.

**Reading guide.** The paper ran C++/MPI binaries on a 32-node cluster
(Xeon E3-1230v2, 32 GB/node) against proprietary datasets of 145K–1B
points. This reproduction runs on a single-core host against seeded
synthetic analogues of 6K–150K points (DESIGN.md §2), with the cluster
replaced by a deterministic BSP simulator with virtual clocks
(`cluster-sim`). Absolute times are therefore not comparable; the
reproduction targets are the **shapes** — which algorithm wins, by what
rough factor, where memory errors appear, how phases split, how speedup
scales. Each harness prints both tables and asserts its shape checks.

Recorded: {datetime.date.today().isoformat()}, single-core x86-64 VM,
Rust 1.95, `--release`.

## Exactness (paper Theorem 1) — verified continuously

Not a table, but the paper's central claim. Enforced by the test suite
rather than a harness: property-based exactness against the naive O(n²)
oracle for μDBSCAN (sequential / parallel / no-promotion), all exact
baselines, μDBSCAN-D / PDSDBSCAN-D / GridDBSCAN-D / HPDBSCAN at
arbitrary rank counts, the streaming variant at arbitrary prefixes, and
OPTICS extraction at arbitrary radii. See THEORY.md for the claim-to-test
map and `test_output.txt` for the full run.
"""


def main() -> None:
    out = [HEADER]
    for title, harness, commentary in SECTIONS:
        path = RESULTS / f"{harness}.txt"
        out.append(f"\n---\n\n## {title}\n")
        out.append(f"Harness: `cargo run --release -p bench --bin {harness}`\n")
        out.append(commentary.strip() + "\n")
        if path.exists() and path.stat().st_size > 0:
            body = path.read_text().rstrip()
            out.append("\n```text\n" + body + "\n```\n")
        else:
            out.append("\n*(harness output missing — re-run the harness)*\n")
            print(f"warning: {path} missing", file=sys.stderr)
    print("\n".join(out))


if __name__ == "__main__":
    main()
