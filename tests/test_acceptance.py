"""End-to-end acceptance gate.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see
them all) and then asserts, so a red criterion is visible both in the
printed summary and in the pytest report. Tolerances and time budgets
are fixed here on purpose: they are the contract, not tunables.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from cglsolve.experiments import (build_problem, initial_state, make_preset,
                                  run_convergence_study, run_preset,
                                  stability_sweep)
from cglsolve.flows import cubic_flow, quintic_flow
from cglsolve.integrators import integrate
from cglsolve.io import read_snapshot, write_snapshot
from cglsolve.linalg import expm_pade
from cglsolve.operators import (BlockOperator, KroneckerOperator,
                                build_periodic_operator,
                                fd_second_derivative_dirichlet,
                                fd_second_derivative_dirichlet_neumann)
from cglsolve.params import CglParameters
from cglsolve.spectral import FourierGrid
from cglsolve.tensors import kron_sum_apply, tucker_apply

from oracles import (expm_taylor_ref, kron_chain, kron_sum_matrix,
                     random_complex, rk4_ode_ref, vec)
from test_operators import (dirichlet_apply_error,
                            dirichlet_neumann_apply_error,
                            expected_dirichlet, expected_dirichlet_neumann)

SECOND_ORDER = ("strang", "if2", "rk2", "strang_3t")
FOURTH_ORDER = ("split4", "if4", "rk4", "split4_3t")


def _report(num, label, ok, seconds, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f", {detail}" if detail else ""
    print(f"ACCEPTANCE {num:2d} {label}: {verdict} "
          f"({seconds:.1f}s{suffix})")
    return ok


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_criterion_01_tensor_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    shapes = []
    while len(shapes) < 24:
        d = int(rng.integers(1, 5))
        ext = tuple(int(rng.integers(2, 9)) for _ in range(d))
        if np.prod(ext) <= 4096:
            shapes.append(ext)
    worst = 0.0
    for shape in shapes:
        u = random_complex(rng, shape)
        mats = [random_complex(rng, (n, n)) for n in shape]
        worst = max(worst, _rel(vec(tucker_apply(u, mats)),
                                kron_chain(mats) @ vec(u)))
        worst = max(worst, _rel(vec(kron_sum_apply(u, mats)),
                                kron_sum_matrix(mats) @ vec(u)))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-13 and seconds < 5.0
    assert _report(1, "tensor identities", ok, seconds,
                   f"24 draws, worst {worst:.1e}")


def test_criterion_02_matrix_exponential():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    worst_semi = 0.0
    for n in (2, 3, 5, 8, 13, 21, 32):
        a = random_complex(rng, (n, n))
        norm1 = float(np.max(np.sum(np.abs(a), axis=0)))
        for target in (0.5, 2.0, 5.0, 8.0):
            s = target / norm1
            worst = max(worst, _rel(expm_pade(a, s),
                                    expm_taylor_ref(a, s)))
            half = expm_pade(a, s / 2.0)
            worst_semi = max(worst_semi, _rel(half @ half, expm_pade(a, s)))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_semi <= 1e-11 and seconds < 5.0
    assert _report(2, "matrix exponential", ok, seconds,
                   f"vs Taylor {worst:.1e}, semigroup {worst_semi:.1e}")


def test_criterion_03_exponential_factorization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    tau = 0.37
    fractions = (Fraction(1), Fraction(1, 2))
    worst = 0.0
    for shape in ((6, 7), (4, 5, 6), (8, 8, 8)):
        mats = [0.8 * random_complex(rng, (n, n)) for n in shape]
        op = KroneckerOperator(mats)
        exps = op.prepare(tau, fractions)
        u = random_complex(rng, shape)
        dense = kron_sum_matrix(mats)
        for frac in fractions:
            got = vec(op.exp_apply(exps[frac], u))
            want = expm_taylor_ref(dense, float(frac) * tau) @ vec(u)
            worst = max(worst, _rel(got, want))
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-11 and seconds < 10.0
    assert _report(3, "exponential factorization", ok, seconds,
                   f"worst {worst:.1e}")


def test_criterion_04_fd_operators():
    t0 = time.perf_counter()
    exact = all(
        np.array_equal(fd_second_derivative_dirichlet(n, 87.5),
                       expected_dirichlet(n, 87.5))
        for n in (6, 7, 10, 33)) and all(
        np.array_equal(fd_second_derivative_dirichlet_neumann(n, 87.5),
                       expected_dirichlet_neumann(n, 87.5))
        for n in (7, 8, 11, 40))
    length = 10.0
    orders = []
    for error_fn, h_of_n in (
            (dirichlet_apply_error, lambda n: length / (n + 1)),
            (dirichlet_neumann_apply_error, lambda n: length / n)):
        errs = {n: error_fn(n, length) for n in (64, 128, 256)}
        for a, b in ((64, 128), (128, 256)):
            orders.append(math.log(errs[a] / errs[b])
                          / math.log(h_of_n(a) / h_of_n(b)))
    seconds = time.perf_counter() - t0
    ok = exact and min(orders) >= 3.5 and seconds < 5.0
    assert _report(4, "fd operators", ok, seconds,
                   f"bit-exact {exact}, min order {min(orders):.2f}")


def test_criterion_05_exact_flows():
    t0 = time.perf_counter()
    points = np.array([1.0, 0.3 - 0.7j, -1.1 + 0.4j, 0.05j, 2.0 + 1.0j])
    cub = CglParameters(alpha1=1.0, beta1=2.0, alpha2=1.0,
                        alpha3=-1.0, beta3=0.2)
    quin = CglParameters(alpha1=0.5, beta1=0.5, alpha2=-0.5,
                         alpha3=2.52, beta3=1.0, alpha4=-1.0, beta4=-0.11)
    err_c = _rel(cubic_flow(points, 0.3, cub),
                 rk4_ode_ref(lambda u: (cub.alpha3 + 1j * cub.beta3)
                             * np.abs(u) ** 2 * u, points, 0.3))
    err_q = _rel(quintic_flow(points, 0.05, quin),
                 rk4_ode_ref(lambda u: (quin.alpha4 + 1j * quin.beta4)
                             * np.abs(u) ** 4 * u, points, 0.05))
    comp_c = _rel(cubic_flow(points, 0.5, cub),
                  cubic_flow(cubic_flow(points, 0.2, cub), 0.3, cub))
    comp_q = _rel(quintic_flow(points, 0.08, quin),
                  quintic_flow(quintic_flow(points, 0.03, quin), 0.05, quin))
    seconds = time.perf_counter() - t0
    ok = (max(err_c, err_q) <= 1e-10 and max(comp_c, comp_q) <= 1e-12
          and seconds < 2.0)
    assert _report(5, "exact flows", ok, seconds,
                   f"vs oracle {max(err_c, err_q):.1e}, "
                   f"composition {max(comp_c, comp_q):.1e}")


def test_criterion_06_scheme_orders():
    t0 = time.perf_counter()
    schemes = list(SECOND_ORDER + FOURTH_ORDER)
    wave = make_preset("plane-wave-1d")
    _, meta_wave = run_convergence_study(wave, schemes, [14, 20, 28, 40, 56])
    desk = replace(make_preset("cubic-2d-periodic"),
                   t_final=1.0, ic="smooth_modes")
    _, meta_desk = run_convergence_study(desk, schemes, [12, 17, 24, 34, 48])
    ok = True
    details = []
    for tag, meta in (("1d", meta_wave), ("2d", meta_desk)):
        orders = meta["orders"]
        for s in SECOND_ORDER:
            ok = ok and 1.7 <= orders[s] <= 2.3
        for s in FOURTH_ORDER:
            ok = ok and 3.7 <= orders[s] <= 4.3
        dev2 = max(abs(orders[s] - 2.0) for s in SECOND_ORDER)
        dev4 = max(abs(orders[s] - 4.0) for s in FOURTH_ORDER)
        details.append(f"{tag} dev2 {dev2:.2f} dev4 {dev4:.2f}")
    seconds = time.perf_counter() - t0
    ok = ok and seconds < 120.0
    assert _report(6, "scheme orders", ok, seconds, "; ".join(details))


def test_criterion_07_stability_pattern():
    t0 = time.perf_counter()
    cfg = make_preset("cubic-2d-dirichlet")
    survivors = ("strang", "split4", "if2", "if4")
    ladder = [10, 20, 40]
    table = stability_sweep(cfg, ["rk2", "rk4", *survivors], ladder)
    witness = None
    for i, m in enumerate(ladder):
        explicit_die = (table["rk2"][i]["diverged"]
                        and table["rk4"][i]["diverged"])
        others_live = all(not table[s][i]["diverged"] for s in survivors)
        if explicit_die and others_live:
            witness = m
            break
    seconds = time.perf_counter() - t0
    ok = witness is not None and seconds < 60.0
    assert _report(7, "stability pattern", ok, seconds,
                   f"witness steps={witness}")


def test_criterion_08_three_term_gap():
    t0 = time.perf_counter()
    cfg = replace(make_preset("cubic-quintic-3d-periodic"), t_final=1.0)
    problem = build_problem(cfg)
    state0 = problem.from_physical(initial_state(cfg))
    ref = problem.to_physical(
        integrate(problem, "if4", state0, 1.0, 800).fields)
    errs = {}
    errs_max = {}
    for scheme in ("strang", "strang_3t"):
        out = problem.to_physical(
            integrate(problem, scheme, state0, 1.0, 100).fields)
        diff = np.ravel(out[0] - ref[0])
        errs[scheme] = (np.linalg.norm(diff)
                        / np.linalg.norm(np.ravel(ref[0])))
        errs_max[scheme] = _rel(out[0], ref[0])
    ratio = errs["strang_3t"] / errs["strang"]
    ratio_max = errs_max["strang_3t"] / errs_max["strang"]
    seconds = time.perf_counter() - t0
    ok = 3.0 <= ratio <= 15.0 and seconds < 90.0
    assert _report(8, "three-term gap", ok, seconds,
                   f"euclidean ratio {ratio:.1f} (max-norm {ratio_max:.1f})")


def test_criterion_09_coupled_system():
    t0 = time.perf_counter()
    # block exponential acts componentwise, bit for bit
    grid = FourierGrid((8, 6), ((0.0, 7.0), (0.0, 3.0)))
    params = CglParameters(alpha1=0.125, beta1=0.5, alpha2=-0.9,
                           alpha3=1.0, beta3=0.8, alpha4=-0.1, beta4=-0.6,
                           alpha0=-0.4, alpha5=0.5)
    blocks = [build_periodic_operator(grid, params, 1),
              build_periodic_operator(grid, params, -1)]
    alone = [build_periodic_operator(grid, params, 1),
             build_periodic_operator(grid, params, -1)]
    block = BlockOperator(blocks)
    half = Fraction(1, 2)
    exps = block.prepare(0.21, (half,))
    rng = np.random.default_rng(5)
    fields = (random_complex(rng, (8, 6)), random_complex(rng, (8, 6)))
    got = block.exp_apply(exps[half], fields)
    want = tuple(op.exp_apply(op.prepare(0.21, (half,))[half], f)
                 for op, f in zip(alone, fields))
    block_ok = all(np.array_equal(g, w) for g, w in zip(got, want))

    # benchmark run: mirrored solitons, bounded by the saturation amplitude
    cfg = make_preset("coupled-2d-periodic")
    u0, v0 = initial_state(cfg)
    n1 = cfg.extents[0]
    reflected = np.array_equal(v0, u0[(-np.arange(n1)) % n1, :])
    problem = build_problem(cfg)
    result = integrate(problem, "if4", problem.from_physical((u0, v0)),
                       cfg.t_final, cfg.steps)
    physical = problem.to_physical(result.fields)
    peak = max(float(np.max(np.abs(f))) for f in physical)
    seconds = time.perf_counter() - t0
    ok = (block_ok and reflected and not result.diverged and peak <= 3.0
          and seconds < 60.0)
    assert _report(9, "coupled system", ok, seconds,
                   f"blocks exact {block_ok}, mirrored {reflected}, "
                   f"peak {peak:.3f}")


def test_criterion_10_determinism_and_serialization(tmp_path):
    t0 = time.perf_counter()
    cfg = replace(make_preset("cubic-2d-dirichlet"),
                  extents=(24, 24), steps=20, t_final=2.0)
    dirs = [tmp_path / "a", tmp_path / "b"]
    final = None
    for d in dirs:
        d.mkdir()
        _, physical = run_preset(cfg, snapshot_steps=(10, 20),
                                 out_dir=str(d))
        final = physical
    names = sorted(p.name for p in dirs[0].iterdir()
                   if p.name.endswith(".cgls"))
    identical = bool(names) and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
        for n in names)
    fields, t = read_snapshot(dirs[0] / f"{cfg.name}-final.cgls")
    round_trip = fields[0].tobytes() == final[0].tobytes()
    # and a rewrite of what was read is byte-identical on disk
    write_snapshot(tmp_path / "again.cgls", fields, t,
                   [np.zeros(n) for n in fields[0].shape])
    round_trip = round_trip and (
        (tmp_path / "again.cgls").read_bytes()
        == (dirs[0] / f"{cfg.name}-final.cgls").read_bytes())
    seconds = time.perf_counter() - t0
    ok = identical and round_trip and seconds < 5.0
    assert _report(10, "determinism and serialization", ok, seconds,
                   f"{len(names)} snapshots bit-identical {identical}, "
                   f"round-trip {round_trip}")
