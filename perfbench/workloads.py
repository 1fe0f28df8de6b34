"""The benchmark's workloads: seeded ``gen_random`` families and why each is here.

Every instance comes from ``nashflow.gen_random``.  The benchmark seed picks
the shapes and the per-instance generator seeds through its own
``random.Random``, so one seed always yields the same pool of instances.  The
program under test only ever sees the pool as JSON.

Pool sizes are chosen so that one pass over the pool takes about the run
length in BENCHMARK.json (25 s on a 2-core Intel Xeon container, Python 3.11)
at the commit that added the benchmark.  That is enough instances for the mix
one seed draws to move a pool's mean solve time by only a few percent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n: tuple  # buyer counts, one drawn uniformly per instance
    g: tuple  # good counts, one drawn uniformly per instance
    u_max: int
    c_max: int
    pool: int  # instances per seed
    why: str

    def instances(self, gen_random, seed: int) -> list:
        """The seed's pool as JSON objects, built with the program's generator."""
        rng = random.Random(f"{self.name}/{seed}")
        pool = []
        for _ in range(self.pool):
            n, g = rng.choice(self.n), rng.choice(self.g)
            inst = gen_random(n, g, self.u_max, self.c_max, rng.getrandbits(32))
            pool.append(inst.to_json_dict())
        return pool


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 01's random family.  About a third are infeasible and
        # run Stage I plus both certificates.  The fixed cost per solve
        # dominates (about 20 max-flows of about 130 us each), so flow-core
        # and balanced-flow asymptotics barely move it, and any set-up
        # added per call shows as a loss here.
        Workload("tiny-sweep", (1, 2, 3), (1, 2, 3), 3, 2, 2000,
                 "gen_random n,g in {1,2,3}, U=3, C=2, 2000 per seed: "
                 "fixed per-solve cost dominates; a third infeasible"),
        # Big utilities: about 750 max-flows per solve, about 20 per
        # balanced flow, Edmonds-Karp scales of up to 180 bits, and Fisher
        # initialisation is two thirds of the time.  Fewer max-flows per
        # balanced flow and narrower integers show here.
        Workload("deep-u1000", (12,), (12,), 1000, 1500, 30,
                 "gen_random 12x12, U=1000, C=1500, 30 per seed: ~750 "
                 "max-flows per solve, scales up to 180 bits; Stage I freezes"),
        # Large networks: only about 21 max-flows per solve, but each one
        # costs about 50 ms on 160 nodes, mostly in sums over all 6400
        # buyer-good pairs; verify_property1 and the self-verification are
        # each over a tenth of the time.  A cheaper max-flow call shows
        # here, fewer max-flows per balanced flow barely does.
        Workload("wide-80", (80,), (80,), 10, 10, 16,
                 "gen_random 80x80, U=C=10, 16 per seed: ~21 max-flows per "
                 "solve, each ~50 ms over 6400 buyer-good pairs; all feasible"),
    )
}
