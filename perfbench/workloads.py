"""Seeded job generators for the benchmark workloads.

A workload is an endless sequence of `ringlab` argv lists built from a fixed
schedule of slots. The schedule (which subcommand runs on which ring with
which exponent shape, subgroup, depth and set family, and in which order) is
the same for every seed, so runs of equal length measure the same mix of
work and their figures can be compared across seeds. The seed picks each
slot's free inputs (unit coefficients, test-function and random-set seeds)
from a small finite set of alternatives. The alternatives are finite so that
`reference/<workload>.json` can hold the seed-commit report of every job a
workload can emit.

Each schedule is one round; the sequence repeats the round with fresh draws.
"""

from __future__ import annotations

import itertools
import random

# The release catalog of the acceptance suite: 28 rings over all five
# constructors, orders 4 to 360, and ten exponent shapes of degree 1 to 6.
CATALOG_RINGS = (
    "Z/8", "Z/12", "Z/13", "Z/35", "Z/64", "Z/97", "Z/125", "Z/360",
    "GF(4)", "GF(8)", "GF(9)", "GF(16)", "GF(25)", "GF(27)", "GF(49)", "GF(64)",
    "PQ(q=2;g=0,0,1)", "PQ(q=2;g=0,1,1)", "PQ(q=3;g=0,0,1)", "PQ(q=4;g=0,0,1)",
    "GR(2,2,2)", "GR(2,2,3)", "GR(3,2,2)", "GR(5,2,2)",
    "prod(Z/4;GF(4))", "prod(Z/5;Z/7)", "prod(GF(4);GF(9))", "prod(Z/9;Z/4)",
)
CATALOG_SHAPES = (
    "0,1", "0,0,1", "0,0,0,1", "0,0,0,0,1", "0,0,0,0,0,0,1",
    "0,1,1", "0,1,1,0,1", "0,1,0,0,2", "1,2,0,1", "1,0,0,1,0,0,1",
)

# Nonzero coefficients are drawn from the units 1 and -1 (equal in
# characteristic 2). Scaling by a unit is an automorphism of (R, +), so a
# draw changes the polynomial without changing how much work it costs;
# zero-divisor coefficients would change the cost of a slot from seed to
# seed and blur the comparison between runs.
COEFF_TOKENS = ("1", "-1")

# Ring ladder: orders 256, 1024 and 4096 (rungs), one ring per constructor.
# Each ring carries the exponent shape of its expsum and tebound jobs and
# three small-subgroup generator sets (sizes 4, 8, 16) written in its
# mixed-radix element encoding. The shapes are fixed per ring so that every
# seed runs the same mix of work. x^2 on GF(4096) is left out on purpose:
# it is a bijection, so the value-subgroup closure pairs all 4096 values
# with each other and peaks above 3 GB, which a shared desk machine cannot
# spare; x^3 on PQ(q=64;...) exercises the same closure path at ~740 MB.
LADDER = (
    (
        ("Z/256", "0,0,0,1", ("64", "32", "16")),
        ("GF(256)", "0,0,1", ("1,2", "1,2,4", "1,2,4,8")),
        ("GR(2,2,4)", "0,1,1,0,1", ("1", "1,8", "1,4")),
        ("PQ(q=16;g=0,0,1)", "1,0,0,1,0,0,1", ("1,2", "1,2,4", "1,2,4,8")),
        ("prod(GF(16);GF(16))", "0,0,0,1", ("1,16", "1,2,16", "1,2,16,32")),
    ),
    (
        ("Z/1024", "0,0,1", ("256", "128", "64")),
        ("GF(1024)", "0,1,1,0,1", ("1,2", "1,2,4", "1,2,4,8")),
        ("GR(2,2,5)", "0,0,0,1", ("1", "1,8", "1,4")),
        ("PQ(q=32;g=0,0,1)", "0,0,1", ("1,2", "1,2,4", "1,2,4,8")),
        ("prod(Z/32;GF(32))", "1,0,0,1,0,0,1", ("8", "16,32,64", "8,32,64")),
    ),
    (
        ("Z/4096", "0,0,1", ("1024", "512", "256")),
        ("GF(4096)", "0,1,1,0,1", ("1,2", "1,2,4", "1,2,4,8")),
        ("GR(2,2,6)", "1,0,0,1,0,0,1", ("1", "1,8", "1,4")),
        ("PQ(q=64;g=0,0,1)", "0,0,0,1", ("1,2", "1,2,4", "1,2,4,8")),
        ("prod(GF(64);GF(64))", "0,0,0,1", ("1,64", "1,2,64", "1,2,64,128")),
    ),
)
CHAR2_PREFIXES = ("GF(", "PQ(q=", "prod(GF(")
# vdc jobs per ring visit as (k, subgroup size index): vdc costs |H|^k
# passes, so both are fixed by the schedule and the seed picks only the
# test functions. These cheap jobs set the ladder's median.
LADDER_VDC = (("1", 0), ("1", 2), ("2", 0), ("2", 1))
TEBOUND_MAX_ORDER = 1024

# Small rings for the batch mix, each with vdc subgroup descriptors that
# name a real subgroup in its encoding, and Z/N rings up to 1024.
BATCH_RINGS = (
    ("Z/8", ("gen:2", "0,4")),
    ("Z/12", ("gen:4", "0,6")),
    ("Z/13", ("gen:1", "0")),
    ("Z/35", ("gen:7", "0")),
    ("Z/64", ("gen:16", "0,32")),
    ("GF(4)", ("gen:1", "0,1")),
    ("GF(8)", ("gen:1,2", "0,1")),
    ("GF(9)", ("gen:1", "0,1,2")),
    ("GF(16)", ("gen:1,2", "0,1")),
    ("GF(25)", ("gen:1", "0")),
    ("GF(27)", ("gen:1", "0,1,2")),
    ("GF(64)", ("gen:1,2", "0,1")),
    ("PQ(q=2;g=0,0,1)", ("gen:1", "0,2")),
    ("PQ(q=3;g=0,0,1)", ("gen:3", "0,1,2")),
    ("PQ(q=4;g=0,0,1)", ("gen:1,2", "0,1")),
    ("GR(2,2,2)", ("gen:1", "0,2")),
    ("GR(2,3,2)", ("gen:4", "0,4")),
    ("prod(Z/4;GF(4))", ("gen:1", "0,2")),
    ("prod(Z/5;Z/7)", ("gen:5", "0")),
    ("prod(Z/9;Z/4)", ("gen:3", "0,9,18,27")),
)
BATCH_ZN = ("Z/97", "Z/128", "Z/360", "Z/512", "Z/1000", "Z/1024")
BATCH_TINY = ("Z/5", "Z/7", "GF(8)", "GF(9)", "Z/10")
BATCH_SHAPES = ("0,0,1", "0,1,1", "0,0,0,1", "0,1,0,1")
ROOTCOUNT_COEFFS = ("[0,1]", "[1,0,1]", "[[0,1],[1,0]]", "[[1,2],[0,1]]")
SET_PAIRS = (
    ("squares", "random:3:{s}"),
    ("coset:0,1,1", "random:2:{s}"),
    ("random:4:{s}", "squares"),
)
INTEGER_POLYS = ("-1,0,1", "0,0,1", "-2,0,1", "1,1,1", "-4,0,0,1")
FPT_JOBS = (("FPT(2)", "0,0,1"), ("FPT(3)", "1,0,1"), ("FPT(5)", "0,1,1"))
SEED_CHOICES = (1, 2, 3)


def _shape_variants(shape: str) -> list[str]:
    """Every literal with the shape's nonzero positions filled by tokens."""
    cells = shape.split(",")
    nonzero = [i for i, c in enumerate(cells) if c != "0"]
    out = []
    for combo in itertools.product(COEFF_TOKENS, repeat=len(nonzero)):
        filled = list(cells)
        for i, tok in zip(nonzero, combo):
            filled[i] = tok
        out.append(",".join(filled))
    return out


def _poly_arg(lit: str) -> str:
    # One token, so a leading minus sign never reads as an option.
    return f"--poly={lit}"


def _catalog_round() -> list[list[list[str]]]:
    slots = []
    for r in range(10):
        for i, ring in enumerate(CATALOG_RINGS):
            shape_e = CATALOG_SHAPES[(i + r) % 10]
            shape_d = CATALOG_SHAPES[(i + r + 5) % 10]
            slots.append(
                [["expsum", "--ring", ring, _poly_arg(v)] for v in _shape_variants(shape_e)]
            )
            slots.append(
                [["poly", "ddeg", "--ring", ring, _poly_arg(v)] for v in _shape_variants(shape_d)]
            )
            if i % 5 == r % 5:
                d = "2" if r < 5 else "3"
                slots.append([["paley", "--ring", ring, "--d", d]])
    return slots


def _ladder_round() -> list[list[list[str]]]:
    slots = []
    for r in range(5):
        for rung, entries in enumerate(LADDER):
            ring, shape, gens = entries[(r + rung) % 5]
            polys = _shape_variants(shape)
            slots.append(
                [["expsum", "--ring", ring, _poly_arg(p), "--mode", "bound"] for p in polys]
            )
            if 4 ** (4 + rung) <= TEBOUND_MAX_ORDER:
                slots.append(
                    [
                        ["tebound", "--ring", ring, _poly_arg(p), "--mode", "bound",
                         "--random", "1", "--seed", str(s)]
                        for p in polys
                        for s in SEED_CHOICES
                    ]
                )
            if ring.startswith(CHAR2_PREFIXES):
                slots.append([["paley", "--ring", ring, "--d", "2"]])
            for k, size in LADDER_VDC:
                slots.append(
                    [
                        ["vdc", "--ring", ring, "--subgroup", f"gen:{gens[size]}", "--k", k,
                         "--random", "4", "--seed", str(s)]
                        for s in SEED_CHOICES
                    ]
                )
    return slots


def _batch_round() -> list[list[list[str]]]:
    # Each ring visit runs every subcommand once; the schedule fixes the
    # shape, subgroup, depth, set family and oracle input of each slot, and
    # the seed draws only unit coefficients and set/test-function seeds.
    slots = []
    for i, (ring, subgroups) in enumerate(BATCH_RINGS):
        zn = BATCH_ZN[i % len(BATCH_ZN)]
        tiny = BATCH_TINY[i % len(BATCH_TINY)]

        def polys(offset: int) -> list[str]:
            return _shape_variants(BATCH_SHAPES[(i + offset) % len(BATCH_SHAPES)])

        slots.append([["ring", "info", ring]])
        slots.append([["ring", "info", zn]])
        slots.append([["subgroup", "--ring", ring, _poly_arg(p)] for p in polys(0)])
        slots.append([["subgroup", "--ring", zn, _poly_arg(p)] for p in polys(1)])
        slots.append([["expsum", "--ring", ring, _poly_arg(p), "--table"] for p in polys(2)])
        slots.append(
            [
                ["vdc", "--ring", ring, "--subgroup", subgroups[i % 2], "--k", str(1 + i % 2),
                 "--random", "8", "--seed", str(s)]
                for s in SEED_CHOICES
            ]
        )
        slots.append([["rootcount", "--ring", ring, "--coeffs", ROOTCOUNT_COEFFS[i % 4]]])
        search_ring, search = (ring, "exact") if i % 2 == 0 else (zn, "greedy")
        set_a, set_b = SET_PAIRS[i % len(SET_PAIRS)]
        slots.append(
            [
                ["sarkozy", "--ring", search_ring, _poly_arg(p), "--search", search,
                 "--seed", str(s), "--sets", set_a.format(s=s), set_b.format(s=s)]
                for p in polys(3)
                for s in SEED_CHOICES
            ]
        )
        if i % 2 == 0:
            family, poly = "INTEGERS", INTEGER_POLYS[(i // 2) % len(INTEGER_POLYS)]
            bound = "40"
        else:
            family, poly = FPT_JOBS[(i // 2) % len(FPT_JOBS)]
            bound = "3"
        slots.append([["intersective", "--family", family, _poly_arg(poly), "--bound", bound]])
        slots.append([["paley", "--ring", tiny, "--d", "2", "--sets", "exhaustive"]])
        slots.append([["paley", "--ring", ring, "--d", str(2 + i % 2), "--sets", "structured"]])
    return slots


_ROUNDS = {"catalog": _catalog_round, "ladder": _ladder_round, "batch": _batch_round}
WORKLOADS = tuple(_ROUNDS)
# Jobs per second of each workload at the commit that defined the benchmark
# (2 vCPUs, Python 3.11, numpy 2.4). They only size a run: a pass holds
# max(100, rate x seconds / passes) jobs, so the jobs of a run follow from
# its seed and --seconds alone, never from how fast the machine was.
JOBS_PER_SECOND = {"catalog": 12, "ladder": 8, "batch": 40}


def schedule(workload: str) -> list[list[list[str]]]:
    """One round of the workload: a list of slots, each a list of argv
    alternatives."""
    return _ROUNDS[workload]()


def jobs(workload: str, seed: int):
    """Endless argv sequence for (workload, seed): the round repeated, each
    slot drawing one alternative from a seeded generator."""
    slots = schedule(workload)
    rng = random.Random(f"{workload}:{seed}")
    while True:
        for alternatives in slots:
            yield list(alternatives[rng.randrange(len(alternatives))])


def pool(workload: str) -> list[list[str]]:
    """Every distinct argv the workload can emit, in first-seen order."""
    seen: dict[str, list[str]] = {}
    for alternatives in schedule(workload):
        for argv in alternatives:
            seen.setdefault(job_key(argv), argv)
    return list(seen.values())


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


# Per-layer metrics each workload is built to exercise. The traced run fails
# its coverage check if any of these records zero calls on that workload.
NAMED_LAYERS = {
    "catalog": (
        "cli.main", "cli.build_parser", "rings.make_ring", "rings.sub_vec",
        "rings.add_table", "rings.eval_poly_vec", "rings.mul_vec", "rings.pow_vec",
        "polynomials.parse_poly_literal", "polynomials.derivational_degree",
        "subgroups.value_subgroup", "characters.character_group",
        "characters.all_char_sums", "characters.annihilator_mask",
        "harmonics.character_bound_check", "paley.build_paley", "paley.spectrum",
        "paley.quasirandomness_verdict",
    ),
    "ladder": (
        "cli.main", "rings.make_ring", "rings.add_vec", "rings.sub_vec",
        "rings.neg_vec", "rings.pow_vec", "rings.eval_poly_vec", "rings.add_table",
        "polynomials.derivational_degree", "subgroups.value_subgroup",
        "subgroups.from_generators", "characters.character_group",
        "characters.all_char_sums", "characters.character_table",
        "characters.annihilator_mask", "harmonics.character_bound_check",
        "harmonics.te_estimate", "harmonics.vdc_check", "paley.build_paley",
        "paley.spectrum",
    ),
    "batch": (
        "cli.main", "cli.build_parser", "rings.make_ring", "rings.add_vec",
        "rings.neg_vec", "rings.mul_vec", "polynomials.parse_poly_literal",
        "subgroups.value_subgroup", "subgroups.from_generators",
        "subgroups.from_elements", "characters.character_table",
        "harmonics.exp_sums_all", "harmonics.vdc_check",
        "harmonics.root_count_bound_check", "combinatorics.difference_free_max",
        "combinatorics.verify_difference_free", "combinatorics.sarkozy_bound_check",
        "combinatorics.config_count", "combinatorics.config_count_fourier",
        "combinatorics.intersectivity_oracle", "paley.build_paley",
        "paley.uniformity_measure", "paley.quasirandomness_verdict",
    ),
}
