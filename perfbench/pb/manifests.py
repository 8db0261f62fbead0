"""The benchmark's workloads: campaign manifests generated from a seed.

The program only ever sees the generated TOML text. The same seed gives
the same manifests, byte for byte.
"""

# Source seeds the engine accepts: TOML integers are signed 64-bit.
SEED_MODULUS = 2**31

# branch_join: two filter -> group_by chains over one source, then a join
# of the two group relations (examples/manifests/branch_join.toml).
BRANCH_JOIN = """
[[stage]]
op = "filter"
modulus = 10
remainder = 0

[[stage]]
op = "group_by_key"

[[stage]]
op = "filter"
input = "source"
modulus = 3
remainder = 1

[[stage]]
op = "group_by_key"

[[stage]]
op = "join"
input = 1
build = 3
"""

# cogroup_union: two feeder chains (one amplified by flat_map), a union
# and a cogroup of the same two edges, then a last stage over the union
# (examples/manifests/cogroup_union.toml). The last stage is the one
# sweep_edit edits.
COGROUP_UNION = """
[[stage]]
op = "filter"
modulus = 10
remainder = 0

[[stage]]
op = "flat_map"
fanout = 3

[[stage]]
op = "filter"
modulus = 3
remainder = 1
input = "source"

[[stage]]
op = "union"
input = [1, 2]

[[stage]]
op = "cogroup"
input = [1, 2]

[[stage]]
op = "{last_op}"
input = 3
"""

ALL_SYSTEMS = ["cpu", "nmp", "nmp-perm", "nmp-rand", "nmp-seq", "mondrian-noperm", "mondrian"]
AUTO_SYSTEMS = ["cpu", "nmp-perm", "mondrian"]

PAPER_TPV = 256
SWEEP_TPV = 96
SWEEP_SEEDS = 12


def campaign_seed(seed):
    """The source seed a benchmark seed selects."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed % SEED_MODULUS


def _header(name, systems, topology, tpv, seed, concurrency):
    quoted = ", ".join(f'"{s}"' for s in systems)
    return (
        "[campaign]\n"
        f'name = "{name}"\n'
        f"systems = [{quoted}]\n"
        f'topology = "{topology}"\n'
        f"tuples_per_vault = {tpv}\n"
        f"seed = {campaign_seed(seed)}\n"
        f'concurrency = "{concurrency}"\n'
    )


def paper_manifest(seed, concurrency, systems):
    """branch_join on the scaled topology (4 HMC x 16 vaults)."""
    name = f"paper-{concurrency}"
    return _header(name, systems, "scaled", PAPER_TPV, seed, concurrency) + BRANCH_JOIN


def sweep_manifest(seed, last_op):
    """cogroup_union on the tiny topology, every system, swept over
    SWEEP_SEEDS consecutive source seeds."""
    base = campaign_seed(seed)
    seeds = ", ".join(str((base + i) % SEED_MODULUS) for i in range(SWEEP_SEEDS))
    return (
        _header("sweep-edit", ALL_SYSTEMS, "tiny", SWEEP_TPV, seed, "serial")
        + f"\n[sweep]\nseeds = [{seeds}]\n"
        + COGROUP_UNION.format(last_op=last_op)
    )


# sweep_edit fills the store with the base campaign, then times the
# campaign with only its last stage changed.
SWEEP_BASE_OP = "sort_by_key"
SWEEP_EDIT_OP = "reduce_by_key"
