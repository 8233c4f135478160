import importlib
import math
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from pmtc import experiments, tensor
from pmtc.experiments import (
    CLUSTER_METHODS,
    DESIGN_METHODS,
    SUBSPACE_METHODS,
    Task,
    run_experiment,
    write_results_csv,
)
from pmtc.pchooi import pchooi
from pmtc.simulate import (
    BlockDesign,
    LowRankDesign,
    SimDesign,
    gen_coupled_lowrank,
    gen_pmtc,
)
from pmtc.tensor import subspace_distance, unfolding_gram


def test_results_csv_cells_parse_as_floats(tmp_path):
    task = Task("small", SimDesign(dims=(24, 20), T=10, seed=3))
    rows = run_experiment([task], CLUSTER_METHODS, replications=2)
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment_id,method,replication,mode,metric,value"
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert len(cells) == 6
        for cell in (cells[2], cells[3], cells[5]):
            assert math.isfinite(float(cell))
        assert float(cells[5]) == row.value and type(row.value) is float


# Memberships of one six-method replication of a small coupled design, as
# 0-based label strings per clustered mode.  Kernel and layout changes must
# leave them unchanged.
_LOWSNR_MEMBERSHIPS = {
    "Y: SC": ("300140223330313400222012230003211230333340230022012034214231",),
    "X: HSC+HLloyd": ("021330011304333120000103124020342422101431301233020034200324",
                      "41220133311113303012413031013323011101110111131111"),
    "X: HSC+PMTLloyd": ("021330011304333120000103124220342422101431301233020034200324",
                        "41220133311113303012413031013323011101110111131111"),
    "X+Y: PMTSC": ("300140223330313400222012230003211230333340230022012034214231",
                   "34102344133232300132424014111310240402403401424234"),
    "X+Y: PMTSC+HLloyd": ("300140223330313400222012230003211230333340230022012034214231",
                          "34102344133232300132424014111310240402403401424234"),
    "X+Y: PMTSC+PMTLloyd": ("300140223330313400222012230003211230333340230022012034214231",
                            "34102344133232300132424014111310240402403401424234"),
}
_HIGHSNR_LABELS = ("003411442240242030114340420312104120420213120014341320423124",
                   "11021313033412314102133401400411314322142333421402")
_HIGHSNR_MEMBERSHIPS = {
    "Y: SC": ("300140223330313400222012230003211230333340230022012034214231",),
    **{m: _HIGHSNR_LABELS for m in CLUSTER_METHODS[1:]},
}


@pytest.mark.parametrize("gamma_x, expected", [
    (-0.5, _LOWSNR_MEMBERSHIPS),  # below the noise edge: omega=0, HOOI stops on a flat objective
    (0.1, _HIGHSNR_MEMBERSHIPS),  # informative tensor: omega=1, coupled Lloyd runs
])
def test_six_method_memberships_unchanged(gamma_x, expected):
    design = SimDesign(dims=(60, 50), T=30, gamma_x=gamma_x, seed=1)
    got = experiments._draw_and_fit(design)[2]
    labels = {method: tuple("".join(map(str, m.labels)) for m in final)
              for method, final in got.items()}
    assert labels == expected


@pytest.mark.parametrize("gamma_x, calls", [(-0.5, 0), (0.1, 1)])
def test_panel_clustering_reuses_the_zero_weight_warm_start(monkeypatch, gamma_x, calls):
    # omega="auto" drops the tensor at gamma_x=-0.5, and the coupled mode-1
    # warm start is then Y: SC's estimate; at 0.1 it keeps the tensor
    design = SimDesign(dims=(60, 50), T=30, gamma_x=gamma_x, seed=1)
    ran = []
    original = experiments.spectral_cluster_rows

    def spectral_cluster_rows(*args, **kwargs):
        ran.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "spectral_cluster_rows", spectral_cluster_rows)
    got = experiments._draw_and_fit(design)[2]
    assert len(ran) == calls
    expected = _LOWSNR_MEMBERSHIPS if gamma_x < 0 else _HIGHSNR_MEMBERSHIPS
    assert "".join(map(str, got["Y: SC"][0].labels)) == expected["Y: SC"][0]


def test_a_failing_helper_family_raises_and_leaves_no_thread(monkeypatch):
    design = SimDesign(dims=(24, 20), T=10, seed=3)
    failure = RuntimeError("coupled start failed")
    original = experiments.cluster

    def cluster(x, y, *args, **kwargs):
        if y is not None:
            raise failure
        return original(x, y, *args, **kwargs)

    monkeypatch.setattr(experiments, "cluster", cluster)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        experiments._draw_and_fit(design)
    assert raised.value is failure
    assert threading.active_count() == before


@pytest.mark.parametrize("design", [
    SimDesign(dims=(60, 50), T=30, gamma_x=0.1, seed=1),
    BlockDesign(dims=(30, 20, 25), ranks=(3, 2, 4), seed=2),
], ids=["coupled", "block"])
def test_streamed_grams_equal_the_formed_grams_bit_for_bit(monkeypatch, design):
    streamed = []
    original = experiments.slab_grams

    def slab_grams(slabs, modes):
        streamed.append(original(slabs, modes))
        return streamed[-1]

    monkeypatch.setattr(experiments, "slab_grams", slab_grams)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between the threads as often as it can
    try:
        drawn = experiments._draw_and_fit(design)[0]
    finally:
        sys.setswitchinterval(interval)
    x = drawn.x if isinstance(design, SimDesign) else drawn
    [grams] = streamed  # clustered modes 2, 3, ...
    assert sorted(grams) == list(range(1, len(design.ranks)))
    for mode, g in grams.items():
        assert np.array_equal(g.view(np.uint64), unfolding_gram(x, mode).view(np.uint64))


def _record_formed_grams(monkeypatch, design) -> list:
    """Record the mode of every full-tensor unfolding Gram that a start or
    ``auto``'s test forms after the draw (:func:`pmtc.tensor.unfolding_gram`,
    or the one pass of :func:`pmtc.pipeline.cluster`), and every ``lsvd``
    call in ``pmtc.pchooi`` or ``pmtc.pmtsc`` on a full-tensor unfolding."""
    got = []
    # the package exports functions of these module names
    pchooi_module = importlib.import_module("pmtc.pchooi")
    pipeline_module = importlib.import_module("pmtc.pipeline")

    def unfolding_gram(x, mode, original=pchooi_module.unfolding_gram):
        got.append(mode)
        return original(x, mode)

    def slab_grams(slabs, modes, original=pipeline_module.slab_grams):
        got.extend(modes)
        return original(slabs, modes)

    monkeypatch.setattr(pchooi_module, "unfolding_gram", unfolding_gram)
    monkeypatch.setattr(pipeline_module, "slab_grams", slab_grams)
    entries = math.prod(design.dims) * getattr(design, "T", 1)
    for name in ("pmtc.pchooi", "pmtc.pmtsc"):
        module = importlib.import_module(name)

        def lsvd(a, rank, original_lsvd=module.lsvd):
            if np.size(a) >= entries:  # an unfolding of the whole tensor, not its Gram
                got.append(("lsvd", np.shape(a)))
            return original_lsvd(a, rank)

        monkeypatch.setattr(module, "lsvd", lsvd)
    return got


@pytest.mark.parametrize("design, formed", [
    # below the noise edge mode 2 fails the test and no start reads mode 1
    (SimDesign(dims=(60, 50), T=30, gamma_x=-0.5, seed=1), []),
    # above it the test passes mode 2, then forms mode 1's Gram
    (SimDesign(dims=(60, 50), T=30, gamma_x=0.1, seed=1), [0]),
    (BlockDesign(dims=(30, 30, 30), ranks=(2, 2, 2), core_scale=0.5, seed=1), []),
], ids=["lowsnr", "highsnr", "block"])
def test_a_streamed_gram_is_never_formed_again(monkeypatch, design, formed):
    got = _record_formed_grams(monkeypatch, design)
    scores = experiments._run_one((design, 0))
    assert got == formed
    assert set(scores) == set(DESIGN_METHODS[type(design)])


@pytest.mark.parametrize("gamma_x", [-0.5, 0.1])
def test_one_unfolding_gram_per_mode_per_draw(monkeypatch, gamma_x):
    design = SimDesign(dims=(60, 50), T=30, gamma_x=gamma_x, seed=1)
    # mode of every full-tensor unfolding Gram, streamed or formed
    grams_computed = _record_formed_grams(monkeypatch, design)
    original_slab_grams = experiments.slab_grams

    def slab_grams(slabs, modes):
        grams = original_slab_grams(slabs, modes)
        grams_computed.extend(grams)
        return grams

    monkeypatch.setattr(experiments, "slab_grams", slab_grams)
    experiments._draw_and_fit(design)
    # the draw streams mode 2's Gram; at -0.5 mode 2 fails the noise-edge
    # test and no start reads mode 1's Gram, at 0.1 the test forms it once
    assert sorted(grams_computed) == ([1] if gamma_x < 0 else [0, 1])


@pytest.mark.parametrize("where", ["draw", "helper"])
def test_a_failing_stream_raises_and_leaves_no_thread(monkeypatch, where):
    failure = RuntimeError(f"{where} failed")
    if where == "draw":
        original = experiments.gen_pmtc

        def gen_pmtc(design, on_slab=None):
            handed = []

            def hand_over(slab):  # the draw fails after handing over three slabs
                if len(handed) == 3:
                    raise failure
                handed.append(slab)
                on_slab(slab)

            return original(design, on_slab=hand_over)

        monkeypatch.setattr(experiments, "gen_pmtc", gen_pmtc)
    else:
        def slab_grams(slabs, modes):
            next(iter(slabs))
            raise failure

        monkeypatch.setattr(experiments, "slab_grams", slab_grams)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        experiments._draw_and_fit(SimDesign(dims=(24, 20), T=10, seed=3))
    assert raised.value is failure
    assert threading.active_count() == before


@pytest.mark.parametrize("methods", [
    CLUSTER_METHODS,
    ("X: HSC+HLloyd", "X: HSC+PMTLloyd"),
    ("Y: SC", "X+Y: PMTSC", "X+Y: PMTSC+PMTLloyd"),
], ids=["all", "hsc", "coupled"])
def test_the_coupled_start_runs_on_the_draws_one_helper_thread(monkeypatch, methods):
    # whichever methods a run asks for, both families are fitted
    design = SimDesign(dims=(24, 20), T=10, gamma_x=0.1, seed=3)
    threads = {}  # the threads that summed the streamed Grams and ran each family's start
    original_grams, original_cluster = experiments.slab_grams, experiments.cluster

    def slab_grams(slabs, modes):
        threads["grams"] = threading.current_thread()
        return original_grams(slabs, modes)

    def cluster(x, y, *args, **kwargs):
        threads["coupled" if y is not None else "hsc"] = threading.current_thread()
        return original_cluster(x, y, *args, **kwargs)

    monkeypatch.setattr(experiments, "slab_grams", slab_grams)
    monkeypatch.setattr(experiments, "cluster", cluster)
    before = threading.active_count()
    rows = run_experiment([Task("t", design)], methods, replications=1)  # in this process
    assert threading.active_count() == before
    assert tuple(dict.fromkeys(r.method for r in rows)) == methods
    assert threads["hsc"] is threading.main_thread()
    assert threads["coupled"] is threads["grams"] is not threading.main_thread()


@pytest.mark.parametrize("design", [
    SimDesign(dims=(24, 20), T=10, gamma_x=0.1, seed=3),
    BlockDesign(dims=(20, 20, 20), ranks=(2, 2, 2), core_scale=0.5, seed=1),
    LowRankDesign(dims=(20, 15), T=12, ranks=(3, 2), seed=4),
], ids=["coupled", "block", "lowrank"])
def test_a_method_subset_gets_exactly_the_full_runs_rows(design):
    every = DESIGN_METHODS[type(design)]
    full = run_experiment([Task("t", design)], every, replications=2)
    for subset in (every[::-2], every[::-1]):
        rows = run_experiment([Task("t", design)], subset, replications=2)
        # the full run's rows of those methods, ordered as the subset names them
        expected = sorted((r for r in full if r.method in subset),
                          key=lambda r: (r.replication, subset.index(r.method)))
        assert rows == expected


@pytest.mark.parametrize("design, method", [
    (SimDesign(dims=(24, 20), T=10), "PCHOOI"),
    (BlockDesign(dims=(20, 20, 20)), "Y: SC"),
    (LowRankDesign(dims=(20, 15), T=12, ranks=(3, 2)), "X: HSC+HLloyd"),
    (SimDesign(dims=(24, 20), T=10), "X: HSC"),
], ids=["subspace-on-coupled", "panel-on-block", "clustering-on-lowrank", "unknown"])
def test_a_method_the_design_does_not_support_is_refused(monkeypatch, design, method):
    supported = DESIGN_METHODS[type(design)][0]
    monkeypatch.setattr(experiments, "_run_one", None)  # refused before anything is drawn
    with pytest.raises(ValueError, match=re.escape(f"method {method!r} is not one that task 't'")):
        run_experiment([Task("t", design)], (supported, method), replications=1)


_LARGE = 2.0**330  # about 2.2e99; scaling by a power of two is exact


@pytest.mark.parametrize("unit, large", [
    (BlockDesign(dims=(30, 30, 30), ranks=(2, 2, 2), core_scale=0.5, seed=1),
     BlockDesign(dims=(30, 30, 30), ranks=(2, 2, 2), sigma=_LARGE, core_scale=0.5 * _LARGE,
                 seed=1)),
    (SimDesign(dims=(24, 20), T=10, gamma_x=0.1, seed=3),
     SimDesign(dims=(24, 20), T=10, gamma_x=0.1, sigma_x=_LARGE, sigma_y=_LARGE, seed=3)),
    (LowRankDesign(dims=(20, 15), T=12, ranks=(3, 2), seed=4),
     LowRankDesign(dims=(20, 15), T=12, ranks=(3, 2), c_x=math.exp(300), seed=4)),
], ids=["block", "coupled", "lowrank-log_cx=300"])
def test_a_large_accepted_scale_runs_to_finite_values(unit, large):
    methods = DESIGN_METHODS[type(unit)]
    rows = run_experiment([Task("t", large)], methods, replications=1)
    assert rows and all(math.isfinite(r.value) for r in rows)
    # scaled noise and signal: every clustering error is as at unit scale
    unit_rows = run_experiment([Task("t", unit)], methods, replications=1)
    assert [r for r in rows if r.metric == "cer"] == [r for r in unit_rows if r.metric == "cer"]


def test_subspace_methods_share_grams_without_changing_bits(monkeypatch):
    design = LowRankDesign(dims=(20, 15), T=12, ranks=(3, 2), seed=4)
    formed = _record_formed_grams(monkeypatch, design)
    original_slab_grams = experiments.slab_grams

    def slab_grams(slabs, modes):
        formed.append(("one pass", tuple(modes)))
        return original_slab_grams(slabs, modes)

    monkeypatch.setattr(experiments, "slab_grams", slab_grams)
    rows = run_experiment([Task("lowrank", design)], SUBSPACE_METHODS, replications=1)
    assert formed == [("one pass", (1,))]  # mode 2's Gram, for both starts; mode 1's unread
    data, truth = gen_coupled_lowrank(design)
    alone = {"PCHOOI": pchooi(data.x, data.y, design.ranks).bases,
             "HOOI": pchooi(data.x, None, design.ranks).bases}
    for row in rows:
        if row.method in alone:
            u = alone[row.method][row.mode - 1]
            assert row.value == subspace_distance(u, truth.bases[row.mode - 1])
    assert {r.method for r in rows} == set(SUBSPACE_METHODS)


@pytest.mark.parametrize("threads, replications, workers", [
    (3, 1, None),  # one job runs in this process
    (64, 2, 2),  # never more workers than jobs
    (2, 3, 2),
])
def test_the_worker_pool_is_capped_at_the_job_count(pool_recorder, threads, replications, workers):
    tasks = [Task("lowrank", LowRankDesign(dims=(12, 10), T=8, ranks=(2, 2), seed=4))]
    rows = run_experiment(tasks, SUBSPACE_METHODS, replications, threads=threads)
    assert pool_recorder == ([] if workers is None else [workers])
    assert rows == run_experiment(tasks, SUBSPACE_METHODS, replications)


def test_two_tasks_with_one_design_are_one_job(pool_recorder):
    design = LowRankDesign(dims=(12, 10), T=8, ranks=(2, 2), seed=4)
    rows = run_experiment([Task("a", design), Task("b", design)], SUBSPACE_METHODS, 1, threads=2)
    assert pool_recorder == []  # one job runs in this process
    half = len(rows) // 2
    assert [r.experiment_id for r in rows] == ["a"] * half + ["b"] * half
    assert rows[:half] == [replace(r, experiment_id="a") for r in rows[half:]]


@pytest.mark.parametrize("gamma_x", [-0.5, 0.1])
def test_a_full_size_draw_fits_the_same_memberships_with_split_products(kernel_pool, monkeypatch,
                                                                       gamma_x):
    # 110 x 100 x 100 entries: every fit's first product on the tensor may split
    design = SimDesign(dims=(110, 100), T=100, gamma_x=gamma_x, seed=5)
    split = experiments._draw_and_fit(design)[2]
    # only the family left running splits: the two families fill both cores.
    # At gamma_x = -0.5 the coupled family (omega = 0) ends long before HSC's.
    assert set(kernel_pool.fitting) <= {1}
    assert kernel_pool.halves or gamma_x > 0
    with monkeypatch.context() as m:
        m.setattr(tensor, "_SPLIT_SIZE", math.inf)
        whole = experiments._draw_and_fit(design)[2]
    for method, members in split.items():
        for split_m, whole_m in zip(members, whole[method]):
            assert np.array_equal(split_m.labels, whole_m.labels)
