"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavier criteria
train small models on the synthetic trace; everything is seeded and runs in
about a minute on one core.

Criterion 2(a) is expected to fail: only 20% of the baseline's entries lie
within 0.08 of the mean hypothesis curve, against the 90% it needs. A
mean-absolute-error learner fits the conditional median, but that is a
small part of the miss: trained with squared error, the baseline reaches
only 28-31%. Most of the miss is a fit bias at the rare phase that the
criterion scores. See ``ROADMAP.md``, section "Standing: acceptance
criterion 2(a) is red", for the measurements.
"""

import functools
import math

import numpy as np
import pytest

import intervalcast as ic
from intervalcast import (
    DecaySpec,
    DiscretePartition,
    FULL_DOMAIN,
    Interval,
    PolicyConfig,
    SplitSpec,
    TimeSeries,
    WindowConfig,
)
from intervalcast.cli import main
from intervalcast.data import synth_hypothesis
from intervalcast.evaluation import interval_mae
from intervalcast.intervals import target_weights
from intervalcast.models import ModelParams, backward, forward_batch, init, project_histories
from intervalcast.patching import _cell_outputs, forecast, intersecting
from intervalcast.training import draw_batch
from fd_check import check_gradient

DATA_SEED = 15       # fixed trace seed; all four hypotheses appear in the
                     # held-out fresh blocks (coverage checked below)
TRAIN_SEEDS = (0, 1, 2)
HIDDEN = 128
WCFG = WindowConfig(48, 24)
SPLIT = SplitSpec(0.66, 0.17, 0.17)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")


@functools.lru_cache(maxsize=None)
def _splits():
    return ic.split_windows(ic.generate_synthds(DATA_SEED, 0.0), WCFG, SPLIT)


@functools.lru_cache(maxsize=None)
def _baseline(seed: int):
    tr, va, _, _ = _splits()
    params, _, _ = ic.train(PolicyConfig("b"), "mlp", tr, va, seed, hidden=HIDDEN)
    return params


@functools.lru_cache(maxsize=None)
def _d4(seed: int):
    tr, va, _, _ = _splits()
    policy = PolicyConfig("d", partition=DiscretePartition(4))
    params, _, _ = ic.train(policy, "mlp", tr, va, seed, hidden=HIDDEN)
    return params, policy


@functools.lru_cache(maxsize=None)
def _dstar4(seed: int):
    tr, va, _, _ = _splits()
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(4), nu=DecaySpec(0.4), phi=0.5
    )
    params, _, _ = ic.train(policy, "mlp", tr, va, seed, hidden=HIDDEN)
    return params, policy


def _fresh_windows(samples):
    """Windows whose target is one full, previously unseen output segment."""
    return samples[samples.t_origin % 48 == 24]


def _predict(params, history, interval):
    """Regression output of one history conditioned on one interval."""
    reg, _ = forward_batch(params, history[None], [interval])
    return reg[0]


# ---------------------------------------------------------------------------


def test_criterion_1_decay_figure():
    w = float(target_weights(np.full((1, 1, 1), 0.375), 0.0, 0.25, DecaySpec(37.0))[0])
    ok = 0.009 <= w <= 0.011
    _report(1, "decay weight reaches 1% at adjacent midpoint", ok, f"weight={w:.5f}")
    assert ok


def test_criterion_2_policy_separation():
    tr, va, te, _ = _splits()
    fresh = _fresh_windows(te)
    targets = fresh.target
    cells = DiscretePartition(4).intervals
    for cell in cells:  # evaluation is meaningful only with full coverage
        assert interval_mae(targets, targets, cell).covered_entries > 0

    mean_curve = (synth_hypothesis(1) + synth_hypothesis(2)) / 2.0
    distances = []
    b_mae = {cell: [] for cell in cells}
    d_mae = {cell: [] for cell in cells}
    for seed in TRAIN_SEEDS:
        pb = _baseline(seed)
        pd, _ = _d4(seed)
        preds_b = np.stack(
            [_predict(pb, s.history, FULL_DOMAIN) for s in fresh]
        )
        distances.append(np.abs(preds_b[:, :, 0] - mean_curve).ravel())
        for cell in cells:
            preds_d = np.stack(
                [_predict(pd, s.history, cell) for s in fresh]
            )
            b_mae[cell].append(interval_mae(preds_b, targets, cell).mae)
            d_mae[cell].append(interval_mae(preds_d, targets, cell).mae)

    frac_close = float(np.mean(np.concatenate(distances) < 0.08))
    ok_a = frac_close >= 0.90

    improvements = []
    for cell in cells:
        base = float(np.mean(b_mae[cell]))
        cond = float(np.mean(d_mae[cell]))
        improvements.append((1.0 - cond / base) * 100.0)
    ok_b = all(imp >= 40.0 for imp in improvements)

    detail = (
        f"(a) averaging tendency: {frac_close:.0%} of entries within 0.08 "
        f"(need 90%); (b) per-interval improvement "
        f"{['%.1f%%' % i for i in improvements]} (need all >= 40%)"
    )
    _report(2, "synthetic-trace policy separation", ok_a and ok_b, detail)
    assert ok_b, f"D4 must beat B by >= 40% on every interval: {improvements}"
    assert ok_a, (
        "known limitation: the MAE loss's conditional median is a small part of "
        "the miss (a squared-error baseline reaches only 28-31%); most of it is a "
        "fit bias at the rare phase; see ROADMAP.md, section 'Standing: acceptance "
        "criterion 2(a) is red'"
    )


def test_criterion_3_dstar_d_equivalence():
    tr, va, _, _ = _splits()
    partition = DiscretePartition(4)
    d_policy = PolicyConfig("d", partition=partition)
    ds_policy = PolicyConfig(
        "dstar", partition=partition, nu=DecaySpec(math.inf), phi=0.0
    )
    _, rep_d, _ = ic.train(d_policy, "mlp", tr, va, 0, epochs=10, hidden=32)
    _, rep_ds, _ = ic.train(ds_policy, "mlp", tr, va, 0, epochs=10, hidden=32)
    diffs = [
        max(abs(a.train_loss - b.train_loss), abs(a.val_loss - b.val_loss))
        for a, b in zip(rep_d.epochs, rep_ds.epochs)
    ]
    ok = len(rep_d.epochs) == len(rep_ds.epochs) and max(diffs) <= 1e-12
    _report(3, "dstar(nu=inf, phi=0) trajectory equals d", ok, f"max step diff={max(diffs):.3g}")
    assert ok


def test_criterion_4_patching_contracts():
    tr, va, te, _ = _splits()
    policy = PolicyConfig(
        "dstar", partition=DiscretePartition(8), nu=DecaySpec(37.0), phi=0.5
    )
    params, _, _ = ic.train(policy, "mlp", tr, va, 0, epochs=8, hidden=32)
    query = Interval(0.75, 1.0)
    cells_ok = envelope_ok = copy_ok = True
    for s in te[:50]:
        pred = forecast(params, policy, s.history, query)
        cells = intersecting(policy.partition, query)
        cells_ok &= len(cells) == 2
        regs, _ = _cell_outputs(project_histories(params, s.history[None]), cells, ())
        envelope_ok &= bool(
            np.all(pred >= regs.min(axis=0)) and np.all(pred <= regs.max(axis=0))
        )
        pred_max = forecast(params, policy, s.history, query, "max")
        copy_ok &= any(np.array_equal(pred_max, r) for r in regs)
    ok = cells_ok and envelope_ok and copy_ok
    _report(
        4, "patching contracts",
        ok,
        f"two cells: {cells_ok}, envelope: {envelope_ok}, bit-identical: {copy_ok}",
    )
    assert ok


def test_criterion_5_gradient_correctness():
    dims = (6, 3, 2)
    policies = {
        "b": PolicyConfig("b"),
        "e2e": PolicyConfig("e2e", task_interval=Interval(0.2, 0.8)),
        "c": PolicyConfig("c", delta=0.3),
        "d": PolicyConfig("d", partition=DiscretePartition(4)),
        "dstar": PolicyConfig(
            "dstar", partition=DiscretePartition(4), nu=DecaySpec(2.0), phi=0.5
        ),
    }
    def fd_oracle_valid(params, H, Y, draw):
        # central differences are informative only away from the |.| kink and
        # away from exact sign cancellations, where the true derivative is 0
        # and the quotient measures nothing but float jitter
        reg, _ = ic.forward_batch(params, H, draw.bounds)
        resid = reg - Y
        if np.abs(resid).min() < 1e-3:
            return False
        weights = draw.weight
        if weights.sum() == 0:
            return True  # fully masked draw: loss is exactly 0 everywhere
        signed = np.sign(resid) * weights[:, None, None]
        per_entry = signed.sum(axis=0)          # bias rows of the mlp head
        per_slot = per_entry.sum(axis=1)        # channel-shared linear rows
        return bool(np.all(per_entry != 0) and np.all(per_slot != 0))

    failures = []
    for kind in ("mlp", "linear"):
        for name, policy in policies.items():
            rng = np.random.default_rng(1000)
            nonzero_checks = 0
            checked = attempts = 0
            while checked < 10 and attempts < 80:
                attempts += 1
                histories, targets = [], []
                for _ in range(4):
                    histories.append(rng.uniform(0, 1, (dims[0], dims[2])))
                    level = rng.uniform(0.05, 0.95)
                    targets.append(np.clip(
                        np.full((dims[1], dims[2]), level)
                        + rng.uniform(-0.02, 0.02, (dims[1], dims[2])),
                        0, 1,
                    ))
                H, Y = np.stack(histories), np.stack(targets)
                draw = draw_batch(policy, Y, rng)
                params = init(
                    kind, dims, 2000 + attempts, hidden=5, kernel=3,
                    use_covariate=policy.uses_covariate,
                )
                if not fd_oracle_valid(params, H, Y, draw):
                    continue
                checked += 1
                phi = policy.effective_phi
                loss, grad = backward(params, H, Y, draw, phi)
                if loss > 0:
                    nonzero_checks += 1
                f = lambda th: backward(ModelParams(params.arch, th), H, Y, draw, phi)[0]
                report = check_gradient(f, params.theta, grad, step=1e-5, tol=1e-5)
                if not report.passed:
                    failures.append((kind, name, checked, report.max_relative_error))
            assert checked == 10, f"{kind}/{name}: only {checked} smooth draws found"
            assert nonzero_checks >= 5, f"{kind}/{name}: too many vacuous checks"
    ok = not failures
    _report(5, "gradient checks for every model/policy pair", ok, f"failures={failures}")
    assert ok


def test_criterion_6_mask_partition_identity():
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    for _ in range(20):
        preds = rng.uniform(-0.2, 1.2, (30, 5))
        targets = rng.uniform(0, 1, (30, 5))
        cells = DiscretePartition(int(rng.integers(2, 12))).intervals
        metrics = [interval_mae(preds, targets, c) for c in cells]
        covered = sum(m.covered_entries for m in metrics)
        recombined = (
            sum(m.mae * m.covered_entries for m in metrics if m.mae is not None)
            / targets.size
        )
        full = float(np.abs(preds - targets).mean())
        worst = max(worst, abs(recombined - full))
        ok &= covered == targets.size and abs(recombined - full) <= 1e-12
    _report(6, "mask-partition identity", ok, f"worst residual={worst:.3g}")
    assert ok


def test_criterion_7_energy_oracles():
    cfg = ic.EnergySimConfig()
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(100):
        u = rng.uniform(0, 1, int(rng.integers(10, 200)))
        th = float(rng.uniform(0, 1))
        errs = ic.compare_decisions(u, u, th, cfg)
        ok &= (
            errs.sleep_duration_error == 0
            and errs.mismatch_steps == 0
            and errs.energy_error_wh == 0.0
        )
    out = ic.sweep_threshold(np.array([0.5]), [0.6], cfg)[0][0]
    hand_ok = out.sleep_steps == 1 and out.r_bar == pytest.approx(15.0)
    ok = ok and hand_ok
    _report(7, "energy-sim oracle equivalence", ok, f"R(t)={out.r_bar:.1f} Mbps")
    assert ok


def test_criterion_8_energy_directional_claim():
    *_, test_series = _splits()
    query = [Interval(0.0, 0.5)]
    cfg = ic.EnergySimConfig()
    thresholds = ic.default_threshold_grid()

    wins = total = 0
    for seed in TRAIN_SEEDS:
        pb, (pds, ds_policy) = _baseline(seed), _dstar4(seed)
        (fc_b,), truth = ic.rolled_forecasts(pb, PolicyConfig("b"), test_series, WCFG, query)
        (fc_d,), _ = ic.rolled_forecasts(pds, ds_policy, test_series, WCFG, query)
        # channel 0 of every rolled forecast, in time order
        u_true = 0.05 * truth[..., 0].ravel()
        u_b = np.clip(0.05 * fc_b[..., 0].ravel(), 0.0, 1.0)
        u_d = np.clip(0.05 * fc_d[..., 0].ravel(), 0.0, 1.0)
        for th in thresholds:
            err_b = ic.compare_decisions(u_true, u_b, float(th), cfg)
            err_d = ic.compare_decisions(u_true, u_d, float(th), cfg)
            wins += err_d.sleep_duration_error <= err_b.sleep_duration_error
            total += 1
    frac = wins / total
    ok = frac >= 0.75
    _report(
        8, "interval-trained decisions track the oracle",
        ok, f"dstar <= baseline on {wins}/{total} = {frac:.0%} of (seed, threshold) pairs",
    )
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    args = [
        "train", "--policy", "dstar", "--L", "4", "--nu", "37", "--phi", "0.5",
        "--w", "12", "--tau", "6", "--epochs", "4", "--hidden", "8",
        "--noise-sd", "0", "--seed", "1",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    ok = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("checkpoint.json", "report.csv", "summary.csv")
    )
    _report(9, "repeated training runs are byte-identical", ok)
    assert ok
