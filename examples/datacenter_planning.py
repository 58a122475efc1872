#!/usr/bin/env python3
"""A realistic consolidation-planning engagement with constraints.

Models the workflow the paper's team ran in 30+ engagements: pull a
month of monitoring data, apply the customer's deployment constraints
(HA anti-affinity, a pinned compliance box, a same-subnet application
group), compare consolidation variants, and sweep the live-migration
reservation to decide whether dynamic consolidation is worth its risk
for this estate (Figs. 7 and 13 in one run).

The seven planner runs (three baseline schemes + a four-point
reservation sweep) are independent, so they fan out as
``planning-run`` tasks over :class:`repro.runner.ExperimentRunner` —
sharing one cached trace set — unless ``--serial`` keeps them
in-process, where the run computes the trace set and the repeated
``dynamic@0.80`` plan once each even with the disk cache off.

Run:  python examples/datacenter_planning.py [datacenter] [--scale S]
          [--serial | --workers N]
"""

import argparse

from repro import build_target_pool, generate_datacenter
from repro.experiments.formatting import format_table
from repro.runner import ExperimentRunner, planning_task

BASELINE_SCHEMES = ("semi-static", "stochastic", "dynamic")
RESERVATION_BOUNDS = (0.7, 0.8, 0.9, 1.0)


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("datacenter", nargs="?", default="beverage")
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument(
        "--serial",
        action="store_true",
        help="run the planner tasks in-process (no worker pool)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (default: auto)",
    )
    return parser.parse_args(argv)


def main(args: argparse.Namespace) -> None:
    datacenter, scale = args.datacenter, args.scale
    traces = generate_datacenter(datacenter, scale=scale)
    pool_hosts = max(12, len(traces) // 2)
    # Mirror the pool the planning-run executor builds, so the pinned
    # host id below resolves inside the workers too.
    pool = build_target_pool(
        f"{datacenter}-pool", host_count=pool_hosts, hosts_per_rack=14
    )
    vm_ids = traces.vm_ids

    # The customer's deployment rules: two replicated tiers that must
    # not share a host, a compliance appliance pinned to blade 0, and a
    # three-tier application that must stay in one subnet.
    constraints = (
        {"type": "anti-colocate", "vms": [vm_ids[0], vm_ids[1]]},
        {"type": "anti-colocate", "vms": [vm_ids[2], vm_ids[3]]},
        {"type": "pin", "vm": vm_ids[4], "host": pool.hosts[0].host_id},
        {
            "type": "same-subnet",
            "vms": [vm_ids[5], vm_ids[6], vm_ids[7]],
        },
    )

    def plan(scheme: str, bound: float = 0.8):
        return planning_task(
            datacenter,
            scale=scale,
            algorithm=scheme,
            utilization_bound=bound,
            pool_hosts=pool_hosts,
            constraints=constraints,
        )

    # Baseline comparison at the 20% migration reservation (Table 3),
    # then the reservation sweep — one task list, one fan-out.
    tasks = [plan(scheme) for scheme in BASELINE_SCHEMES]
    tasks += [plan("dynamic", bound) for bound in RESERVATION_BOUNDS]

    runner = ExperimentRunner(workers=args.workers, serial=args.serial)
    print(
        f"Engagement: {datacenter}, {len(traces)} source servers, "
        f"{len(constraints)} deployment constraints, {len(tasks)} planner "
        f"runs ({'serial' if runner.serial else f'{runner.workers} workers'})"
        "\n"
    )
    report = runner.run(tasks)
    baseline = dict(zip(BASELINE_SCHEMES, report.results))
    sweep = dict(
        zip(RESERVATION_BOUNDS, report.results[len(BASELINE_SCHEMES):])
    )

    rows = [
        (
            name,
            r.provisioned_servers,
            f"{r.energy_kwh:.0f} kWh",
            f"{r.contention_time_fraction():.4f}",
            r.total_migrations(),
        )
        for name, r in baseline.items()
    ]
    print(format_table(
        ["scheme", "servers", "energy(14d)", "contention", "migrations"],
        rows,
    ))

    print("\nDynamic consolidation vs live-migration reservation:")
    sweep_rows = [
        (
            f"{1 - bound:.0%}",
            result.provisioned_servers,
            f"{result.energy_kwh:.0f} kWh",
            f"{result.contention_time_fraction():.4f}",
        )
        for bound, result in sweep.items()
    ]
    print(format_table(
        ["reservation", "servers", "energy(14d)", "contention"], sweep_rows
    ))
    stochastic_servers = baseline["stochastic"].provisioned_servers
    print(
        f"\nDecision aid: stochastic semi-static needs "
        f"{stochastic_servers} servers with zero migrations — dynamic "
        "must beat that within a reservation you can actually afford "
        "(the paper's Observation 4 says 20%)."
    )
    print(f"\n{report.describe()}")


if __name__ == "__main__":
    main(parse_args())
