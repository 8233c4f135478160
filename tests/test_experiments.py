import importlib
import math
import sys
import threading

import numpy as np
import pytest

from pmtc import experiments
from pmtc.experiments import (
    CLUSTER_METHODS,
    SUBSPACE_METHODS,
    Task,
    run_experiment,
    write_results_csv,
)
from pmtc.pchooi import hooi, pchooi
from pmtc.simulate import (
    BlockDesign,
    LowRankDesign,
    SimDesign,
    gen_coupled_lowrank,
    gen_pmtc,
    gen_tensor_block,
)
from pmtc.tensor import UnfoldingGrams, subspace_distance


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
    data, _ = gen_pmtc(design)
    got = experiments._method_memberships(data.x, data.y, design.ranks, design.seed,
                                          CLUSTER_METHODS)
    labels = {method: tuple("".join(map(str, m.labels)) for m in final)
              for method, final in got.items()}
    assert labels == expected


@pytest.mark.parametrize("gamma_x, calls", [(-0.5, 0), (0.1, 1)])
def test_panel_clustering_reuses_the_zero_weight_warm_start(monkeypatch, gamma_x, calls):
    # omega="auto" drops the tensor at gamma_x=-0.5, and the coupled mode-1
    # warm start is then Y: SC's estimate; at 0.1 it keeps the tensor
    design = SimDesign(dims=(60, 50), T=30, gamma_x=gamma_x, seed=1)
    data, _ = gen_pmtc(design)
    ran = []
    original = experiments.spectral_cluster_rows

    def spectral_cluster_rows(*args, **kwargs):
        ran.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "spectral_cluster_rows", spectral_cluster_rows)
    got = experiments._method_memberships(data.x, data.y, design.ranks, design.seed,
                                          CLUSTER_METHODS)
    assert len(ran) == calls
    expected = _LOWSNR_MEMBERSHIPS if gamma_x < 0 else _HIGHSNR_MEMBERSHIPS
    assert "".join(map(str, got["Y: SC"][0].labels)) == expected["Y: SC"][0]
    alone = experiments._method_memberships(data.x, data.y, design.ranks, design.seed,
                                            ("Y: SC",))
    assert np.array_equal(alone["Y: SC"][0].labels, got["Y: SC"][0].labels)
    assert len(ran) == calls + 1  # without the coupled family, Y: SC runs alone


@pytest.mark.parametrize("gamma_x", [-0.5, 0.1])
def test_one_unfolding_gram_per_mode_per_draw(monkeypatch, gamma_x):
    design = SimDesign(dims=(60, 50), T=30, gamma_x=gamma_x, seed=1)
    data, _ = gen_pmtc(design)
    x = data.x
    grams_formed = []  # mode of every full-tensor unfolding Gram formed

    original_form = UnfoldingGrams.form

    def form(self, mode):
        grams_formed.append(mode)
        return original_form(self, mode)

    monkeypatch.setattr(UnfoldingGrams, "form", form)
    for name in ("pmtc.pchooi", "pmtc.pmtsc"):  # the package exports functions of these names
        module = importlib.import_module(name)
        original_lsvd = module.lsvd

        def lsvd(a, rank, original_lsvd=original_lsvd):
            a = np.asarray(a)
            if a.size >= x.size:  # holds an unfolding of the whole tensor, outside the holder
                grams_formed.append(x.shape.index(a.shape[0]))
            return original_lsvd(a, rank)

        monkeypatch.setattr(module, "lsvd", lsvd)
    experiments._method_memberships(x, data.y, design.ranks, design.seed, CLUSTER_METHODS)
    # at -0.5 mode 2 fails the noise-edge test, and no start reads mode 1's
    # Gram; at 0.1 both modes pass, so the test forms both
    assert sorted(grams_formed) == ([1] if gamma_x < 0 else [0, 1])


def test_a_failing_helper_family_raises_and_leaves_no_thread(monkeypatch):
    design = SimDesign(dims=(24, 20), T=10, seed=3)
    data, _ = gen_pmtc(design)
    failure = RuntimeError("coupled start failed")
    original = experiments.cluster

    def cluster(x, y, *args, **kwargs):
        if y is not None:
            raise failure
        return original(x, y, *args, **kwargs)

    monkeypatch.setattr(experiments, "cluster", cluster)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        experiments._method_memberships(data.x, data.y, design.ranks, design.seed,
                                        CLUSTER_METHODS)
    assert raised.value is failure
    assert threading.active_count() == before


@pytest.mark.parametrize("draw, design", [
    (gen_pmtc, SimDesign(dims=(60, 50), T=30, gamma_x=0.1, seed=1)),
    (gen_tensor_block, BlockDesign(dims=(30, 20, 25), ranks=(3, 2, 4), seed=2)),
], ids=["coupled", "block"])
def test_streamed_grams_equal_the_formed_grams_bit_for_bit(draw, design):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between the threads as often as it can
    try:
        drawn, grams = experiments._draw_with_grams(draw, design, (1, 2))
    finally:
        sys.setswitchinterval(interval)
    x = drawn[0].x if draw is gen_pmtc else drawn[0]
    assert sorted(grams) == [1, 2]
    for mode, g in grams.items():
        assert np.array_equal(g.view(np.uint64), UnfoldingGrams(x).form(mode).view(np.uint64))


_HSC_METHODS = ("X: HSC+HLloyd", "X: HSC+PMTLloyd")


@pytest.mark.parametrize("design, methods, formed", [
    # below the noise edge mode 2 fails the test and no start reads mode 1
    (SimDesign(dims=(60, 50), T=30, gamma_x=-0.5, seed=1), CLUSTER_METHODS, []),
    # above it the test passes mode 2, then forms mode 1's Gram
    (SimDesign(dims=(60, 50), T=30, gamma_x=0.1, seed=1), CLUSTER_METHODS, [0]),
    (BlockDesign(dims=(30, 30, 30), ranks=(2, 2, 2), core_scale=0.5, seed=1), _HSC_METHODS, []),
], ids=["lowsnr", "highsnr", "block"])
def test_a_streamed_gram_is_never_formed_again(monkeypatch, design, methods, formed):
    got = []
    original_form = UnfoldingGrams.form

    def form(self, mode):
        got.append(mode)
        return original_form(self, mode)

    monkeypatch.setattr(UnfoldingGrams, "form", form)
    rows = experiments._run_cluster_task(Task("t", design), 0, methods)
    assert got == formed
    assert {r.method for r in rows} == set(methods)


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
        experiments._run_cluster_task(Task("t", SimDesign(dims=(24, 20), T=10, seed=3)), 0,
                                      CLUSTER_METHODS)
    assert raised.value is failure
    assert threading.active_count() == before


@pytest.mark.parametrize("methods, helper", [
    (CLUSTER_METHODS, True),
    (("X: HSC+HLloyd", "X: HSC+PMTLloyd"), False),
    (("Y: SC", "X+Y: PMTSC", "X+Y: PMTSC+PMTLloyd"), False),
])
def test_only_two_families_start_a_helper_thread(monkeypatch, methods, helper):
    design = SimDesign(dims=(24, 20), T=10, gamma_x=0.1, seed=3)
    data, _ = gen_pmtc(design)
    threads = {}  # the thread each family's warm start ran on, by panel given
    original = experiments.cluster

    def cluster(x, y, *args, **kwargs):
        threads[y is not None] = threading.current_thread()
        return original(x, y, *args, **kwargs)

    monkeypatch.setattr(experiments, "cluster", cluster)
    before = threading.active_count()
    got = experiments._method_memberships(data.x, data.y, design.ranks, design.seed, methods)
    assert threading.active_count() == before
    assert set(got) == set(methods)
    main = threading.main_thread()
    if helper:
        assert threads == {True: threads[True], False: main} and threads[True] is not main
    else:
        assert set(threads.values()) == {main}


def test_subspace_methods_share_grams_without_changing_bits():
    design = LowRankDesign(dims=(20, 15), T=12, ranks=(3, 2), seed=4)
    rows = run_experiment([Task("lowrank", design)], SUBSPACE_METHODS, replications=1)
    data, truth = gen_coupled_lowrank(design)
    alone = {"PCHOOI": pchooi(data.x, data.y, design.ranks).bases,
             "HOOI": hooi(data.x, design.ranks).bases}
    for row in rows:
        if row.method in alone:
            u = alone[row.method][row.mode - 1]
            assert row.value == subspace_distance(u, truth.bases[row.mode - 1])
    assert {r.method for r in rows} == set(SUBSPACE_METHODS)
