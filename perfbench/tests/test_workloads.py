"""Seeded argv generation: reproducible, seed-independent in shape, parseable."""

import pytest

from diskmaps import cli
from workloads import WORKLOADS, generate


def _shape(case):
    # Option names and the subcommand, without the seeded values.
    return case.kind, tuple(a.split("=")[0] for a in case.argv if a.startswith("--")), \
        case.argv[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_argvs(workload):
    assert generate(workload, 7) == generate(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_values_but_not_the_round_shape(workload):
    a, b = generate(workload, 1), generate(workload, 2)
    assert [c.argv for c in a] != [c.argv for c in b]
    assert [_shape(c) for c in a] == [_shape(c) for c in b]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_argv_and_twin_parses(workload):
    parser = cli.build_parser()
    for seed in (0, 1):
        for case in generate(workload, seed):
            parser.parse_args(list(case.argv))
            if case.oracle["kind"] == "twin":
                twin = case.oracle["argv"]
                parser.parse_args(list(twin))
                assert "--psi" in case.argv and "--psi" not in twin


@pytest.mark.parametrize("workload", WORKLOADS)
def test_only_default_quadrature_flags(workload):
    quad = {"--radial-nodes", "--angular-nodes", "--patch-radius", "--patch-nodes",
            "--boundary-nodes"}
    for case in generate(workload, 3):
        assert not quad & set(case.argv)
