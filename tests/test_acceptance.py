"""Acceptance gate: eleven end-to-end criteria, one verdict line each.

Each test prints "PASS:" or "FAIL:" with measured numbers (visible with
-s / -rA, and always on failure) and asserts the criterion at its
stated tolerance.  Training criteria share one canonical 5-task stream
protocol through a module-scoped fixture so each mode/seed trains once;
that fixture also feeds the behaviour-fingerprint check.
"""

import hashlib
import time

import numpy as np
import pytest

from factorcl import autodiff as ad
from factorcl import checkpoint as ck
from factorcl import compression as cp
from factorcl import factorized as fz
from factorcl import linalg as la
from factorcl import regularizers as reg
from factorcl import trainer as tr
from factorcl.datasets import TaskStreamSpec, generate_stream
from factorcl.errors import FormatError

SEEDS3 = (1, 2, 3)
SEEDS5 = (1, 2, 3, 4, 5)


def verdict(num: int, name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}: criterion {num} ({name})"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


# -- canonical 5-task protocol (criteria 1, 8, 10) -------------------------------------


def net5() -> fz.NetworkSpec:
    return fz.NetworkSpec.build((8, 8), in_channels=2, input_hw=(6, 6), stride=(1, 2))


def stream5(seed: int):
    return generate_stream(TaskStreamSpec(
        kind="synthetic_blobs", tasks=5, classes_per_task=2, samples_per_class=200,
        input_shape=(2, 6, 6), seed=seed, overlap=0.15, scale=3.0,
    ))


def cfg5(mode: str, seed: int) -> tr.TrainConfig:
    return tr.TrainConfig(
        epochs=100, batch_size=32, lr_drop_epochs=(60, 85), lambda_orth=1.0,
        lambda_sparse=0.7, energy_e=1e-2, seed=seed, mode=mode,
    )


@pytest.fixture(scope="module")
def runs5():
    """(model, report, seconds) for every mode and seed of the shared protocol."""
    out = {}
    for mode in tr.MODES:
        for seed in SEEDS3:
            begin = time.perf_counter()
            model, report = tr.run_continual(stream5(seed), net5(), cfg5(mode, seed))
            out[mode, seed] = (model, report, time.perf_counter() - begin)
    return out


# The refactor oracle: a change that keeps behaviour keeps both digests.  Each
# hashes a seed-1 model's file bytes and then every task's test logits; the
# "full" one is bench/workloads.train's stream5-full fingerprint.  A change
# that moves one must say why and re-pin it.
FINGERPRINTS = {
    "full": "2208e1d6140ecb9a382211808a7d10dc253851e4a3c02d0883e322c5ecf5d1a5",
    "baseline_ub": "df04cb6b1078e3e8c5e04cc42cc3fe8240f985cd257421757a610d8ea0624d56",
}


def test_the_canonical_seed_1_runs_keep_their_fingerprints(runs5):
    stream = stream5(1)
    got = {}
    for mode, to_bytes, predict in (
            ("full", ck.space_to_bytes, fz.predict_logits),
            ("baseline_ub", ck.dense_to_bytes, tr.DenseTaskModels.predict_logits)):
        model = runs5[mode, 1][0]
        digest = hashlib.sha256(to_bytes(model))
        for t, data in enumerate(stream, 1):
            digest.update(predict(model, t, data.test_x).tobytes())
        got[mode] = digest.hexdigest()
    assert got == FINGERPRINTS


# -- toy single-task protocol (criteria 6, 7) -------------------------------------------

SPEC_TOY = fz.NetworkSpec.build((8, 8), in_channels=2, input_hw=(6, 6))


def train_toy(seed: int, lambda_orth: float, lambda_sparse: float):
    data = generate_stream(TaskStreamSpec(
        kind="synthetic_blobs", tasks=1, classes_per_task=2, samples_per_class=200,
        input_shape=(2, 6, 6), seed=seed, overlap=0.15, scale=3.0,
    ))[0]
    cfg = tr.TrainConfig(
        epochs=100, batch_size=32, lr_drop_epochs=(60, 85), lambda_orth=lambda_orth,
        lambda_sparse=lambda_sparse, energy_e=1e-5, seed=seed,
    )
    fresh, head = fz.expand(SPEC_TOY, 1, seed, data.classes)
    trained, trained_head = tr.train_task(data, None, fresh, head, cfg, spec=SPEC_TOY)
    return data, trained, trained_head, cfg


# -- criteria ----------------------------------------------------------------------------


def test_criterion_01_zero_forgetting(runs5):
    begin = time.perf_counter()
    spec, cfg = net5(), cfg5("full", 1)
    stream = stream5(1)
    space = fz.empty_space(spec)
    snapshots = []
    for t, data in enumerate(stream, 1):
        fresh, head = fz.expand(spec, t, cfg.seed, data.classes)
        trained, trained_head = tr.train_task(
            data, space if space.num_tasks else None, fresh, head, cfg, spec=spec
        )
        space = fz.append(space, cp.compress(trained, cfg.prune_config()), trained_head)
        snapshots.append(fz.predict_logits(space, t, data.test_x))

    bitwise = all(
        np.array_equal(snapshots[t - 1], fz.predict_logits(space, t, stream[t - 1].test_x))
        for t in range(1, 6)
    )
    diag = [tr.accuracy(snapshots[i], stream[i].test_y) for i in range(5)]
    final = [
        tr.accuracy(fz.predict_logits(space, i + 1, stream[i].test_x), stream[i].test_y)
        for i in range(5)
    ]
    bwt = float(np.mean([final[i] - diag[i] for i in range(4)]))
    elapsed = time.perf_counter() - begin
    loop_bwts = [runs5["full", s][1].bwt for s in SEEDS3]
    ok = bitwise and bwt == 0.0 and all(b == 0.0 for b in loop_bwts) and elapsed < 300
    verdict(1, "zero forgetting", ok,
            f"bitwise={bitwise} BWT={bwt} loop BWTs={loop_bwts} runtime={elapsed:.0f}s")


def test_criterion_02_svd_correctness():
    begin, cpu_begin = time.perf_counter(), time.process_time()
    rng = np.random.default_rng(202)
    worst_rec = worst_gram = 0.0
    sorted_ok = True
    for i in range(1000):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 601))
        m = (rng.normal(size=(rows, cols)) * rng.uniform(0.1, 10.0)).astype(np.float32)
        if i % 7 == 0 and rows > 2:
            m[rows // 2:] = m[: rows - rows // 2]  # exact rank deficiency
        if i % 11 == 0:
            m[:, : cols // 2] = 0.0
        f = la.svd(m)
        denom = max(float(np.linalg.norm(m)), 1e-30)
        rec = float(
            np.linalg.norm(la.reconstruct(f).astype(np.float64) - m.astype(np.float64))
        ) / denom
        r = f.u.shape[1]
        gram = max(
            float(np.linalg.norm(f.u.astype(np.float64).T @ f.u - np.eye(r))),
            float(np.linalg.norm(f.v.astype(np.float64).T @ f.v - np.eye(r))),
        )
        worst_rec = max(worst_rec, rec)
        worst_gram = max(worst_gram, gram)
        sorted_ok = sorted_ok and bool(np.all(np.diff(f.sigma) <= 0))
    elapsed = time.perf_counter() - begin
    cpu = time.process_time() - cpu_begin  # beside wall time: tells host load from slowness
    ok = worst_rec <= 1e-4 and worst_gram <= 1e-5 and sorted_ok and elapsed < 60
    verdict(2, "svd correctness", ok,
            f"worst rec {worst_rec:.2e} worst gram {worst_gram:.2e} "
            f"sorted={sorted_ok} runtime={elapsed:.0f}s cpu={cpu:.0f}s")


def test_criterion_03_rank_k_error_identity():
    """Dropping the tail past k costs exactly the tail's squared singular values.

    Mismatch is measured relative to the total energy sum(sigma^2): both sides
    of the identity are energies on that scale, and at k = r the right side is
    exactly zero, so a tail-relative ratio has no finite-precision meaning.
    """
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(200):
        rows = int(rng.integers(2, 40))
        cols = int(rng.integers(2, 40))
        r = int(rng.integers(1, min(rows, cols) + 1))
        u = la.random_orthonormal(rows, r, seed=3 * i)
        v = la.random_orthonormal(cols, r, seed=3 * i + 1)
        sigma = np.sort(rng.uniform(0.0, 5.0, r).astype(np.float32))[::-1].copy()
        f = la.SvdFactors(u=u, sigma=sigma, v=v)
        a = la.reconstruct(f).astype(np.float64)
        energy = sigma.astype(np.float64) ** 2
        total = max(float(energy.sum()), 1e-30)
        # k = 0: dropping everything costs the whole energy
        worst = max(worst, abs(float(np.linalg.norm(a) ** 2) - total) / total)
        for k in range(1, r + 1):
            lhs = float(np.linalg.norm(a - la.rank_k_approx(f, k).astype(np.float64)) ** 2)
            rhs = float(energy[k:].sum())
            worst = max(worst, abs(lhs - rhs) / total)
    ok = worst <= 1e-6
    verdict(3, "rank-k error identity", ok, f"worst relative mismatch {worst:.2e}")


def _kink_free(rng, shape, floor=0.3, scale=1.0):
    a = rng.normal(size=shape) * scale
    return (np.sign(a) * (np.abs(a) + floor)).astype(np.float32)


def _op_graph(op: str, rng):
    g = ad.Graph()

    def leaf(shape, scale=1.0, floor=None):
        a = _kink_free(rng, shape, floor, scale) if floor is not None else (
            rng.normal(size=shape) * scale
        ).astype(np.float32)
        return g.leaf(a, trainable=True)

    if op == "add":
        loss = g.frobenius_norm(g.add(leaf((3, 3)), leaf((3, 3))))
    elif op == "scale":
        loss = g.frobenius_norm(g.scale(leaf((4, 2)), float(rng.uniform(0.3, 2.0))))
    elif op == "transpose":
        # axes that are not their own inverse, mixed by a trainable product
        flat = g.reshape(g.transpose(leaf((2, 3, 2, 2)), (2, 0, 3, 1)), (4, 6))
        loss = g.frobenius_norm(g.linear(flat, leaf((6, 2)), g.leaf(np.zeros(2, np.float32))))
    elif op == "relu":
        loss = g.frobenius_norm(g.relu(leaf((4, 4), floor=0.3)))
    elif op == "reshape":
        loss = g.frobenius_norm(g.reshape(leaf((2, 6)), (3, 4)))
    elif op == "linear":
        loss = g.frobenius_norm(g.linear(leaf((4, 3)), leaf((3, 2)), leaf((2,), scale=0.2)))
    elif op == "softmax_cross_entropy":
        labels = rng.integers(0, 4, size=5)
        loss = g.softmax_cross_entropy(leaf((5, 4), scale=0.5), labels)
    elif op == "factor_product":
        loss = g.frobenius_norm(g.factor_product(leaf((4, 3)), leaf((3,)), leaf((5, 3))))
    elif op == "gram_deviation":
        loss = g.gram_deviation(leaf((5, 3)))
    elif op == "hoyer":
        loss = g.hoyer(leaf((6,), floor=0.3))
    elif op == "frobenius_norm":
        loss = g.frobenius_norm(leaf((3, 5), floor=0.3))
    elif op == "conv2d":
        x = leaf((2, 5, 5, 2), scale=0.5)  # (C, H, W, N)
        w = leaf((3, 2 * 3 * 3), scale=0.3)
        out = g.conv2d(w, x, kernel=(2, 3, 3), stride=int(rng.integers(1, 3)), padding=1)
        n_out = g.value(out).shape[0]
        loss = g.frobenius_norm(g.reshape(out, (n_out, int(np.prod(g.value(out).shape[1:])))))
    else:
        raise AssertionError(op)
    return g, loss


def _composed_graph(rng):
    """Shared-plus-residual weight build through conv, head, and both penalties.

    Kept deliberately small: each relu input is a chance for a finite
    difference probe to cross the kink, so fewer units means more instances
    where the check is valid.
    """
    spec = fz.NetworkSpec.build((3, 3), in_channels=2, input_hw=(2, 2))
    seed = int(rng.integers(1e6))
    base, base_head = fz.expand(spec, 1, seed, classes=3)
    shared = fz.append(
        fz.empty_space(spec), cp.compress(base, cp.PruneConfig(0.3)), base_head
    )
    residual, head = fz.expand(spec, 2, seed + 1, classes=3)
    # nudge U, V off the orthonormal manifold: the orthogonality penalty is a
    # plain (non-squared) norm, so exactly orthonormal factors sit on its kink
    # where finite differences are undefined
    for l in range(spec.num_layers):
        residual.u[l] = residual.u[l] + 0.05 * rng.normal(
            size=residual.u[l].shape
        ).astype(np.float32)
        residual.v[l] = residual.v[l] + 0.05 * rng.normal(
            size=residual.v[l].shape
        ).astype(np.float32)
    g = ad.Graph()
    composed = fz.compose_weights(g, fz.extract_subnetwork(shared, 1)[0], residual)
    x = g.leaf((rng.normal(size=(2, 2, 2, 2)) * 0.5).astype(np.float32))
    feats = fz.graph_forward(g, composed.weights, spec, x)
    hw = g.leaf(head.weight, trainable=True, name="head_w")
    hb = g.leaf(head.bias, trainable=True, name="head_b")
    task_loss = g.softmax_cross_entropy(g.linear(feats, hw, hb), rng.integers(0, 3, size=2))
    orth = reg.l_orth_graph(g, composed.u_leaves, composed.v_leaves)
    sparse = reg.l_sparse_graph(g, composed.sigma_leaves)
    return g, g.add(task_loss, g.add(orth, sparse))


def _relu_kink_margin(g) -> float:
    """Distance from the closest pre-activation to the relu kink.

    A finite-difference probe shifts conv pre-activations by at most a few
    multiples of the step; any unit closer to zero than that can flip sides
    mid-probe and invalidate the comparison.
    """
    gaps = [
        float(np.min(np.abs(g.nodes[n.inputs[0]].value)))
        for n in g.nodes
        if n.op == "relu"
    ]
    return min(gaps) if gaps else float("inf")


def test_criterion_04_gradient_oracle():
    ops = sorted(ad._BACKWARD)
    failures = []
    for oi, op in enumerate(ops):
        for i in range(20):
            rng = np.random.default_rng(40_000 + 1000 * oi + i)
            g, loss = _op_graph(op, rng)
            report = ad.grad_check(g, loss, tolerance=1e-3)
            if not report.passed:
                failures.append((op, i))
    built = 0
    attempt = 0
    while built < 20 and attempt < 500:
        rng = np.random.default_rng(44_000 + attempt)
        attempt += 1
        g, loss = _composed_graph(rng)
        if _relu_kink_margin(g) < 0.01:
            continue
        # the composed graph is deeper and carries the orthogonality norm's
        # curvature, so a half-size step keeps O(step^2) truncation well
        # under the tolerance; the float64 re-evaluation keeps noise low
        report = ad.grad_check(g, loss, step=5e-4, tolerance=1e-3, max_entries=12)
        if not report.passed:
            failures.append(("composed", attempt - 1))
        built += 1
    ok = not failures and built == 20
    verdict(4, "gradient oracle", ok,
            f"{len(ops)} ops + composed graph x {built} instances; failures={failures}")


def scan_min_rank(sigma, e: float) -> int:
    """Scan every k and keep the first that meets the retained/total ratio.

    Retained energy accumulates sequentially while scanning, matching the
    cumulative-sum definition; a pairwise-summed total can differ by one
    ulp and flip the verdict right at the e = 0 boundary.
    """
    energy = np.asarray(sigma, np.float64) ** 2
    total = float(energy.sum())
    if total == 0.0:
        return 1
    retained = 0.0
    for k in range(1, len(sigma) + 1):
        retained += float(energy[k - 1])
        if retained / total >= 1.0 - e:
            return k
    return len(sigma)


def test_criterion_05_pruning_trace_equivalence():
    traces = [
        (np.array([3, 2, 1, 0.001], np.float32), 1e-5, 3),
        (np.array([5, 0, 0], np.float32), 1e-5, 1),
        (np.array([2, 1], np.float32), 0.5, 1),
    ]
    traces_ok = all(
        cp.retained_rank(s, cp.PruneConfig(e)) == expect for s, e, expect in traces
    )
    rng = np.random.default_rng(505)
    mismatches = 0
    for i in range(500):
        r = int(rng.integers(1, 21))
        s = rng.uniform(0.0, 4.0, r)
        if i % 3 == 0:
            s = np.round(s, 1)  # ties
        if i % 4 == 0 and r > 1:
            s[-int(rng.integers(1, r + 1)):] = 0.0  # zero tails
        if i % 29 == 0:
            s[:] = 0.0
        s = np.sort(s.astype(np.float32))[::-1].copy()
        e = (0.0, 1e-5, 0.5)[i % 3]
        if cp.retained_rank(s, cp.PruneConfig(e)) != scan_min_rank(s, e):
            mismatches += 1
    ok = traces_ok and mismatches == 0
    verdict(5, "pruning trace equivalence", ok,
            f"worked traces ok={traces_ok}, mismatches {mismatches}/500")


def test_criterion_06_orthogonality_efficacy():
    seeds_ok, details = [], []
    for seed in SEEDS3:
        devs = {}
        for lam in (1.0, 0.0):
            _, trained, _, _ = train_toy(seed, lambda_orth=lam, lambda_sparse=0.1)
            per_layer = []
            for l in range(SPEC_TOY.num_layers):
                r = trained.sigma[l].shape[0]
                per_layer.append(
                    max(reg.gram_deviation(trained.u[l]), reg.gram_deviation(trained.v[l]))
                    / r**2
                )
            devs[lam] = per_layer
        small = all(d < 1e-2 for d in devs[1.0])
        separated = all(d0 > 5.0 * d1 for d0, d1 in zip(devs[0.0], devs[1.0]))
        seeds_ok.append(small and separated)
        details.append(f"seed {seed}: on={max(devs[1.0]):.1e} off={max(devs[0.0]):.1e}")
    ok = all(seeds_ok)
    verdict(6, "orthogonality efficacy", ok, "; ".join(details))


def test_criterion_07_sparsity_buys_rank():
    ranks = {0.4: [], 0.0: []}
    accs = {0.4: [], 0.0: []}
    for seed in SEEDS3:
        for lam in (0.4, 0.0):
            data, trained, head, cfg = train_toy(seed, lambda_orth=1.0, lambda_sparse=lam)
            pruned = cp.compress(trained, cfg.prune_config())
            ranks[lam].append(sum(pruned.ranks()))
            weights = [(u * s) @ v.T for u, s, v in zip(pruned.u, pruned.sigma, pruned.v)]
            logits = fz.run_network(weights, head, SPEC_TOY, data.test_x)
            accs[lam].append(tr.accuracy(logits, data.test_y))
    mean_rank = {lam: float(np.mean(ranks[lam])) for lam in ranks}
    cost = float(np.mean(accs[0.0]) - np.mean(accs[0.4]))
    ok = mean_rank[0.4] < mean_rank[0.0] and cost <= 0.02
    verdict(7, "sparsity buys rank", ok,
            f"mean rank {mean_rank[0.4]:.1f} vs {mean_rank[0.0]:.1f}, "
            f"accuracy cost {cost * 100:+.2f}pts")


def test_criterion_08_compression_vs_dense_baseline(runs5):
    ratios, gaps = [], []
    elapsed = 0.0
    for seed in SEEDS3:
        _, full, t_full = runs5["full", seed]
        _, ub, t_ub = runs5["baseline_ub", seed]
        ratios.append(full.size_bytes / ub.size_bytes)
        gaps.append(ub.acc - full.acc)
        elapsed += t_full + t_ub
    ok = all(r <= 0.6 for r in ratios) and all(g <= 0.05 for g in gaps) and elapsed < 900
    verdict(8, "compression vs dense baseline", ok,
            f"size ratios {[f'{r:.3f}' for r in ratios]}, "
            f"acc gaps {[f'{g * 100:+.2f}pt' for g in gaps]}, runtime={elapsed:.0f}s")


def test_criterion_09_dynamic_allocation():
    spec = fz.NetworkSpec.build((24, 24), in_channels=18, input_hw=(1, 1), kernel=1, padding=0)
    wins, allocs = 0, []
    for seed in SEEDS5:
        stream = generate_stream(TaskStreamSpec(
            kind="synthetic_blobs", tasks=4, classes_per_task=8, samples_per_class=150,
            input_shape=(18, 1, 1), seed=seed, overlap=(0.0, 0.25, 0.5, 1.0), scale=3.0,
        ))
        cfg = tr.TrainConfig(
            epochs=100, batch_size=32, lr_drop_epochs=(60, 85), lambda_orth=1.0,
            lambda_sparse=0.2, energy_e=1e-3, seed=seed, mode="full",
        )
        _, report = tr.run_continual(stream, spec, cfg)
        appended = [
            sum(report.rank_allocation[l][t] for l in range(spec.num_layers))
            for t in range(4)
        ]
        allocs.append(appended)
        non_constant = len(set(appended)) > 1
        hardest_most = appended[3] == max(appended) and appended[3] > appended[0]
        wins += int(non_constant and hardest_most)
    ok = wins >= 3
    verdict(9, "dynamic rank allocation", ok, f"{wins}/5 seeds, allocations {allocs}")


def test_criterion_10_ablation_ordering(runs5):
    rows = []
    ok = True
    for seed in SEEDS3:
        ub = runs5["baseline_ub", seed][1]
        st = runs5["st", seed][1]
        fixed = runs5["fixed", seed][1]
        full = runs5["full", seed][1]
        ordering = ub.acc >= st.acc >= fixed.acc - 0.02
        sizing = st.size_bytes >= full.size_bytes
        ok = ok and ordering and sizing
        rows.append(
            f"seed {seed}: ub={ub.acc:.3f} st={st.acc:.3f} fixed={fixed.acc:.3f} "
            f"size st-full={st.size_bytes - full.size_bytes:+d}B"
        )
    verdict(10, "ablation ordering", ok, "; ".join(rows))


def test_criterion_11_serialization(tmp_path):
    rng = np.random.default_rng(111)
    round_trips_ok = True
    last_blob = None
    for i in range(100):
        n_layers = int(rng.integers(1, 3))
        channels = [int(rng.integers(2, 7)) for _ in range(n_layers)]
        kernel = int(rng.choice([1, 3]))
        spec = fz.NetworkSpec.build(
            channels, in_channels=int(rng.integers(1, 4)),
            input_hw=(int(rng.integers(3, 6)),) * 2,
            kernel=kernel, padding=1 if kernel == 3 else 0,
        )
        space = fz.empty_space(spec, isolated=bool(rng.integers(2)))
        for t in range(1, int(rng.integers(0, 4)) + 1):
            factors, head = fz.expand(spec, t, seed=i, classes=int(rng.integers(2, 5)))
            factors = cp.compress(factors, cp.PruneConfig(float(rng.uniform(0.0, 0.5))))
            head.weight[:] = rng.normal(size=head.weight.shape).astype(np.float32)
            space = fz.append(space, factors, head)
        path = tmp_path / f"space_{i}.cacl"
        ck.save_space(path, space)
        blob = path.read_bytes()
        loaded = ck.load_space(path)
        round_trips_ok = round_trips_ok and ck.space_to_bytes(loaded) == blob
        last_blob = blob

    cuts = range(0, len(last_blob), 64)
    refused = 0
    for cut in cuts:
        try:
            ck.space_from_bytes(last_blob[:cut])
        except FormatError:
            refused += 1
    ok = round_trips_ok and refused == len(cuts)
    verdict(11, "serialization", ok,
            f"100 round-trips bitwise={round_trips_ok}, "
            f"truncations refused {refused}/{len(cuts)}")
