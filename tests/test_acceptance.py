"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with its runtime. Tolerances and time limits are fixed here, not tuned."""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dynten.embed import DynEmbedConfig, default_rank, dynamic_embedding, make_weights
from dynten.graphs import katz_adjacency, laplacian, spectral_radius
from dynten.io import load_dynamic_network
from dynten.linkpred import (auc_roc, average_precision,
                             evaluate_link_prediction, holdout_split)
from dynten.clustering import ClusterState, streaming_update
from dynten.spectral import effective_resistance, resistance_embedding
from dynten.synth import dynamic_sbm, sbm_matched_er
from dynten.tensors import AlsConfig, SparseTensor3, cp_als, ocp_als

from conftest import random_connected_graph


@contextmanager
def criterion(number, limit_s, description):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:2d}] {status} ({elapsed:5.2f}s / "
              f"limit {limit_s:g}s) {description}")
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s"


def test_c01_resistance_identity():
    with criterion(1, 5.0, "rank-d pseudoinverse identity on 50 graphs"):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(4, 16))
            A = random_connected_graph(n, rng, weighted=True)
            L = laplacian(A)
            dense = L.toarray()
            vals, vecs = np.linalg.eigh(dense)
            keep = vals > 1e-9 * vals.max()
            vals, vecs = vals[keep], vecs[:, keep]
            emb = resistance_embedding(L, n - 1)
            for d in range(1, n):
                S = (vecs[:, :d] / vals[:d]) @ vecs[:, :d].T
                F = emb[:, :d]
                diag = np.einsum("id,id->i", F, F)
                dist2 = diag[:, None] + diag[None, :] - 2 * F @ F.T
                lhs = np.diag(S)[:, None] + np.diag(S)[None, :] - 2 * S
                assert np.abs(lhs - dist2).max() < 1e-9


def test_c02_effective_resistance_oracle():
    with criterion(2, 5.0, "full-rank embedding reproduces resistances"):
        P3 = sp.csr_array(np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]]))
        emb = resistance_embedding(P3, 2)
        assert abs(np.sum((emb[0] - emb[2]) ** 2) - 2.0) < 1e-9
        K3 = np.ones((3, 3)) - np.eye(3)
        L3 = sp.csr_array(np.diag(K3.sum(axis=1)) - K3)
        emb = resistance_embedding(L3, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.sum((emb[i] - emb[j]) ** 2) - 2 / 3) < 1e-9
        rng = np.random.default_rng(102)
        for _ in range(20):
            n = int(rng.integers(4, 14))
            A = random_connected_graph(n, rng, weighted=True)
            L = laplacian(A)
            emb = resistance_embedding(L, n - 1)
            for i in range(n):
                for j in range(i + 1, n):
                    want = effective_resistance(L, i, j)
                    got = np.sum((emb[i] - emb[j]) ** 2)
                    assert abs(got - want) < 1e-9


def test_c03_katz_closed_form_vs_series():
    with criterion(3, 10.0, "sparse solver matches 50-term Katz series"):
        rng = np.random.default_rng(103)
        for _ in range(20):
            n = int(rng.integers(8, 51))
            A = random_connected_graph(n, rng, weighted=True)
            omega = 0.5 / spectral_radius(A)
            solver = katz_adjacency(A, omega).toarray()
            dense = A.toarray()
            term = dense.copy()
            series = dense.copy()
            for _k in range(49):
                term = omega * (dense @ term)
                series += term
            assert np.abs(solver - series).max() < 1e-10


def test_c04_constant_slice_cpd_limit():
    with criterion(4, 10.0, "identical slices recover sqrt(tau)-scaled spectrum"):
        n, tau = 8, 5
        rng = np.random.default_rng(104)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        mu = np.arange(n, 0, -1).astype(float)  # distinct positive eigenvalues
        A = Q @ np.diag(mu) @ Q.T
        Z = SparseTensor3.from_dense(np.repeat(A[:, :, None], tau, axis=2))
        model = cp_als(Z, AlsConfig(rank=n, max_sweeps=200))
        want = np.sqrt(tau) * mu
        assert np.abs(model.lambdas - want).max() / np.abs(want).max() < 1e-6
        uniform = np.full(tau, 1 / np.sqrt(tau))
        for k in range(n):
            c = model.factor_c[:, k]
            assert min(np.abs(c - uniform).max(), np.abs(c + uniform).max()) < 1e-6


def test_c05_ocpd_orthogonality():
    with criterion(5, 30.0, "orthogonal node factor and monotone fits, 20 tensors"):
        rng = np.random.default_rng(105)
        for trial in range(20):
            n = int(rng.integers(5, 31))
            tau = int(rng.integers(2, 11))
            dense = np.where(rng.random((n, n, tau)) < 0.2,
                             rng.standard_normal((n, n, tau)), 0.0)
            Z = SparseTensor3.from_dense(dense)
            if Z.nnz == 0:
                continue
            rank = int(rng.integers(2, min(n, 10) + 1))
            model = ocp_als(Z, AlsConfig(rank=rank, seed=trial))
            G = model.factor_b.T @ model.factor_b
            assert np.abs(G - np.eye(rank)).max() < 1e-8
            h = model.fit_history
            assert all(h[k + 1] <= h[k] + 1e-12 for k in range(len(h) - 1))


def test_c06_exact_rank_recovery():
    with criterion(6, 30.0, "rank-2/3 recovery in >= 18 of 20 trials"):
        rng = np.random.default_rng(106)
        hits = 0
        for trial in range(20):
            r = 2 if trial % 2 == 0 else 3
            n = int(rng.integers(6, 12))
            tau = int(rng.integers(3, 7))
            U = np.linalg.qr(rng.standard_normal((n, r)))[0]
            V = np.linalg.qr(rng.standard_normal((n, r)))[0]
            C = rng.standard_normal((tau, r))
            C /= np.linalg.norm(C, axis=0)
            lam = np.sort(rng.uniform(1.0, 3.0, r))[::-1]
            dense = np.einsum("r,ir,jr,tr->ijt", lam, U, V, C)
            model = cp_als(SparseTensor3.from_dense(dense),
                           AlsConfig(rank=r, max_sweeps=500, seed=trial))
            if model.fit < 1e-6:
                hits += 1
        assert hits >= 18, f"only {hits}/20 trials converged"


def test_c07_two_vector_tensor():
    with criterion(7, 2.0, "rank-3 orthogonal model reconstructs Z1"):
        rng = np.random.default_rng(107)
        Q = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        a, b = Q[:, 0], Q[:, 1]
        Z1 = (4 * np.einsum("i,j,t->ijt", a, b, b)
              + 3 * np.einsum("i,j,t->ijt", b, b, b)
              + np.einsum("i,j,t->ijt", a, a, a))
        model = ocp_als(SparseTensor3.from_dense(Z1),
                        AlsConfig(rank=3, max_sweeps=500))
        assert model.fit < 1e-6


def _linkpred_run(net, d, seed):
    train, target, n_links = holdout_split(net)
    pre = make_weights("exponential", train.tau, alpha=1.0)
    cfg = DynEmbedConfig(d=d, pre_weights=pre, post_weights=pre,
                         als=AlsConfig(rank=default_rank(train, d, orthogonal=False), seed=seed))
    emb = dynamic_embedding(train, cfg).embedding
    n_pos = min(400, n_links)
    out = {}
    for metric in ("l2", "hadamard"):
        rep = evaluate_link_prediction(net, target, emb, metric, n_pos, seed=7)
        out[metric] = (rep["AUC"], rep["AP"])
    return out


def test_c08_link_prediction_signal():
    with criterion(8, 60.0, "dynamic SBM beats thresholds and the ER control"):
        net, _ = dynamic_sbm(100, 8, 2, 0.2, 0.01, 0.05, seed=42)
        sbm = _linkpred_run(net, d=16, seed=0)
        control_net = sbm_matched_er(100, 8, 2, 0.2, 0.01, seed=43)
        control = _linkpred_run(control_net, d=16, seed=0)
        for metric in ("l2", "hadamard"):
            auc, ap = sbm[metric]
            c_auc, _c_ap = control[metric]
            assert auc >= 0.75, f"{metric} AUC {auc:.3f}"
            assert ap >= 0.70, f"{metric} AP {ap:.3f}"
            assert 0.4 <= c_auc <= 0.6, f"control {metric} AUC {c_auc:.3f}"
            assert auc - c_auc >= 0.2, f"{metric} margin {auc - c_auc:.3f}"


def test_c09_ranking_metric_oracles():
    with criterion(9, 10.0, "AUC/AP match brute force on 1000 random sets"):
        rng = np.random.default_rng(109)
        for _ in range(1000):
            m = int(rng.integers(4, 201))
            if rng.random() < 0.4:  # discrete scores force ties
                scores = rng.choice(np.linspace(-1, 1, 7), size=m)
            else:
                scores = rng.standard_normal(m)
            labels = np.where(rng.random(m) < rng.uniform(0.2, 0.8), 1, -1)
            if np.abs(labels.sum()) == m:
                continue
            pos = labels > 0
            gt = scores[pos][:, None] > scores[~pos][None, :]
            eq = scores[pos][:, None] == scores[~pos][None, :]
            brute = (gt.sum() + 0.5 * eq.sum()) / (pos.sum() * (~pos).sum())
            assert auc_roc(scores, labels) == brute
            order = np.argsort(-scores, kind="stable")
            ss, ll = scores[order], pos[order]
            ap = 0.0
            prev_recall = 0.0
            for th in sorted(set(ss), reverse=True):
                kept = ss >= th
                tp = int((ll & kept).sum())
                recall = tp / ll.sum()
                ap += (recall - prev_recall) * (tp / kept.sum())
                prev_recall = recall
            assert abs(average_precision(scores, labels) - ap) < 1e-12


def test_c10_streaming_centroid():
    with criterion(10, 5.0, "decayed centroid updates match closed forms"):
        rng = np.random.default_rng(110)
        pts = rng.standard_normal((12, 3))
        base = ClusterState(centroids=pts[:5].mean(axis=0, keepdims=True),
                            counts=np.array([5.0]), alpha=1.0)
        out = streaming_update(base, 0, pts[5:])
        assert np.abs(out.centroids[0] - pts.mean(axis=0)).max() < 1e-12
        base0 = ClusterState(centroids=np.array([[4.0, 4.0, 4.0]]),
                             counts=np.array([9.0]), alpha=0.0)
        out0 = streaming_update(base0, 0, pts[5:])
        assert np.abs(out0.centroids[0] - pts[5:].mean(axis=0)).max() < 1e-12
        worked = ClusterState(centroids=np.array([[0.0]]), counts=np.array([2.0]),
                              alpha=0.5)
        assert streaming_update(worked, 0, [[3.0]]).centroids[0, 0] == 1.5


SCHOOL_PATH = os.environ.get("DYNTEN_SCHOOL_DATA",
                             str(Path(__file__).resolve().parent.parent
                                 / "data" / "school.edges"))


def test_c11_school_dataset_directional():
    if not Path(SCHOOL_PATH).exists():
        pytest.skip(f"School dataset not supplied at {SCHOOL_PATH} "
                    "(set DYNTEN_SCHOOL_DATA); table values are not "
                    "reproducible at desk scale")
    with criterion(11, 1800.0, "School: pipeline runs and orders methods"):
        from dynten.embed import adj_last_embedding
        net = load_dynamic_network(SCHOOL_PATH)
        train, target, n_links = holdout_split(net)
        n_pos = min(1000, n_links)
        for d in (32, 128):
            pre = make_weights("gaussian", train.tau, sigma=8.0)
            cfg = DynEmbedConfig(d=d, pre_weights=pre, post_weights=pre,
                                 als=AlsConfig(rank=default_rank(train, d, orthogonal=False)))
            dyn = dynamic_embedding(train, cfg).embedding
            stat = adj_last_embedding(train, d)
            rep_dyn = evaluate_link_prediction(net, target, dyn, "l2", n_pos, seed=7)
            rep_adj = evaluate_link_prediction(net, target, stat, "l2", n_pos, seed=7)
            for rep in (rep_dyn, rep_adj):
                assert 0.5 < rep["AUC"] <= 1.0
                assert 0.5 < rep["AP"] <= 1.0
            assert rep_dyn["AUC"] >= rep_adj["AUC"], \
                f"d={d}: {rep_dyn['AUC']:.4f} < {rep_adj['AUC']:.4f}"
