import json
import re

import numpy as np
import pytest

from walklab.data import (Dataset, DatasetMeta, baseline_mean, gen_dataset,
                          kfold_split, load_dataset, save_dataset)
from walklab.errors import InputError
from walklab.graphs import cycle_graph, erdos_renyi, from_edge_list

from oracles import complete_graph


class TestGenDataset:
    def test_dense_graphs_are_complete_with_known_triangles(self):
        ds = gen_dataset(3, 4, 1.0, "triangles", seed=0)
        assert len(ds) == 3
        for g, t in ds.items:
            assert g.edge_count == 6
            assert t == 4.0

    def test_empty_graphs_have_zero_four_cycles(self):
        ds = gen_dataset(2, 5, 0.0, "four_cycles", seed=0)
        assert ds.targets() == [0.0, 0.0]
        assert all(g.edge_count == 0 for g in ds.graphs())

    def test_metadata_records_recipe(self):
        ds = gen_dataset(4, 6, 0.5, "triangles", seed=77)
        assert ds.meta == DatasetMeta(n_graphs=4, n_nodes=6, edge_prob=0.5,
                                      target="triangles", seed=77)

    def test_per_graph_seeds_differ(self):
        ds = gen_dataset(6, 12, 0.5, "triangles", seed=3)
        edge_sets = {tuple(g.edges()) for g in ds.graphs()}
        assert len(edge_sets) > 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            gen_dataset(0, 5, 0.5, "triangles", seed=0)
        with pytest.raises(InputError):
            gen_dataset(1, 5, 0.5, "pentagons", seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError, match="seed must be >= 0, got -5"):
            gen_dataset(2, 5, 0.5, "triangles", seed=-5)


class TestRoundTrip:
    def test_save_load_preserves_graphs_and_targets(self, tmp_path):
        ds = gen_dataset(5, 8, 0.4, "triangles", seed=9)
        path = tmp_path / "toy.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.meta == ds.meta
        assert loaded.targets() == ds.targets()
        for a, b in zip(loaded.graphs(), ds.graphs()):
            assert a == b

    def test_regeneration_from_meta_is_exact(self, tmp_path):
        ds = gen_dataset(5, 10, 0.3, "four_cycles", seed=21)
        path = tmp_path / "toy.jsonl"
        save_dataset(ds, path)
        meta = load_dataset(path).meta
        again = gen_dataset(meta.n_graphs, meta.n_nodes, meta.edge_prob,
                            meta.target, meta.seed)
        assert again.items == ds.items

    def test_integer_targets_stay_integers_on_disk(self, tmp_path):
        ds = Dataset(items=[(complete_graph(3), 1.0)])
        path = tmp_path / "toy.jsonl"
        save_dataset(ds, path)
        rec = json.loads(path.read_text().strip())
        assert rec["target"] == 1
        assert rec["n"] == 3
        assert sorted(map(tuple, rec["edges"])) == [(0, 1), (0, 2), (1, 2)]

    def test_save_writes_each_record_as_compact_json(self, tmp_path):
        # ids of one to four digits, an edgeless graph, non-integral
        # targets, and enough graphs to span several runs
        graphs = [from_edge_list(1200, [(0, 9), (10, 99), (100, 999), (1000, 1199), (5, 1000)]),
                  from_edge_list(3, []), complete_graph(12)]
        graphs += [erdos_renyi(30, 0.3, seed) for seed in range(150)]
        targets = [3.0, 0.25, -1.5e300] + [float(seed) for seed in range(150)]
        path = tmp_path / "many.jsonl"
        save_dataset(Dataset(items=list(zip(graphs, targets))), path)
        records = [{"n": g.n, "edges": [list(e) for e in g.edges()],
                    "target": int(t) if t.is_integer() else t} for g, t in zip(graphs, targets)]
        assert path.read_text() == "".join(json.dumps(rec, separators=(",", ":")) + "\n"
                                           for rec in records)
        loaded = load_dataset(path)
        assert loaded.graphs() == graphs and loaded.targets() == targets

    def test_save_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_dataset(Dataset(items=[]), path)
        assert path.read_text() == "\n"

    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"n":3,"edges":[],"target":0}\nnot json\n')
        with pytest.raises(InputError, match="bad.jsonl:2"):
            load_dataset(path)

    @pytest.mark.parametrize("record, message", [
        ('{"n":50,"edges":[[0,50]],"target":0}', "edge (0, 50) out of range for n=50"),
        ('{"n":50,"edges":[[0,1]],"target":"x"}', "target must be a number"),
        ('{"n":50,"edges":[[0,1]]', "bad JSON"),
    ])
    def test_load_names_a_bad_line_deep_in_the_file(self, tmp_path, record, message):
        # every record is parsed before the batch is built, and the
        # failure sends the load back through the records one by one
        path = tmp_path / "bad.jsonl"
        save_dataset(gen_dataset(200, 50, 0.1, "triangles", 3), path)
        lines = path.read_text().split("\n")
        lines[149] = record
        lines[170] = '{"n":3,"edges":[[0,3]],"target":0}'
        path.write_text("\n".join(lines))
        with pytest.raises(InputError, match=r"^.*bad\.jsonl:150: .*" + re.escape(message)):
            load_dataset(path)

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"n":3,"edges":[]}\n')
        with pytest.raises(InputError, match="bad.jsonl:1"):
            load_dataset(path)

    @pytest.mark.parametrize("record, message", [
        ('{"n":3,"edges":[[0]],"target":0}', "is not a (u, v) pair"),
        ('{"n":3,"edges":[[0,1.5]],"target":0}', "needs two integer node ids"),
        ('{"n":3,"edges":[[0,true]],"target":0}', "needs two integer node ids"),
        ('{"n":3,"edges":[[0,7]],"target":0}', "out of range"),
        ('{"n":3.0,"edges":[],"target":0}', "node count must be an integer"),
        ('{"n":3,"edges":5,"target":0}', "not iterable"),
        ('{"n":3,"edges":[],"target":"many"}', "target must be a number, got 'many'"),
        ('{"n":3,"edges":[],"target":"3"}', "target must be a number, got '3'"),
        ('{"n":3,"edges":[],"target":" 7 "}', "target must be a number, got ' 7 '"),
        ('{"n":3,"edges":[],"target":true}', "target must be a number, got True"),
        ('{"n":3,"edges":[],"target":null}', "target must be a number, got None"),
        ('{"n":3,"edges":[],"target":[1]}', "target must be a number, got [1]"),
        pytest.param('{"n":3,"edges":[],"target":1' + "0" * 400 + "}",
                     "int too large to convert to float", id="target-past-float-range"),
        pytest.param('{"n":3,"edges":[],"target":' + "1" * 5000 + "}",
                     "bad JSON: Exceeds the limit", id="integer-past-digit-limit"),
        ('{"n":3,"edges":[],"target":NaN}', "target nan is not finite"),
        ('{"n":3,"edges":[],"target":-Infinity}', "target -inf is not finite"),
        ('[3]', "list indices"),
    ])
    def test_load_rejects_malformed_record(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"n":3,"edges":[[0,1]],"target":0}\n' + record + "\n")
        with pytest.raises(InputError, match=r"bad\.jsonl:2: .*" + re.escape(message)):
            load_dataset(path)

    def test_load_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "latin.jsonl"
        path.write_bytes(b'{"n":3,"edges":[[0,1]],"target":0}\n\xff\n')
        with pytest.raises(InputError, match="latin.jsonl: not UTF-8 text"):
            load_dataset(path)

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(InputError, match="empty"):
            load_dataset(path)

    @pytest.mark.parametrize("sidecar", [
        '{"n_graphs": 6',                                  # bad JSON
        '\xff',                                            # not UTF-8 once encoded
        '[6, 8, 0.5, "triangles", 1]',                     # not an object
        '{"n_graphs": 6, "n_nodes": 8, "edge_prob": 0.5, "target": "triangles",'
        ' "seed": 1, "colour": 1}',                        # unknown key
        '{"n_graphs": 6, "n_nodes": 8, "edge_prob": 0.5, "target": "triangles"}',
        '{"n_graphs": "6", "n_nodes": 8, "edge_prob": 0.5, "target": "triangles", "seed": 1}',
        '{"n_graphs": 6, "n_nodes": 8.0, "edge_prob": 0.5, "target": "triangles", "seed": 1}',
        '{"n_graphs": 6, "n_nodes": 8, "edge_prob": "0.5", "target": "triangles", "seed": 1}',
        '{"n_graphs": 6, "n_nodes": 8, "edge_prob": 0.5, "target": 3, "seed": 1}',
        '{"n_graphs": 6, "n_nodes": 8, "edge_prob": 0.5, "target": "triangles", "seed": true}',
    ])
    def test_load_rejects_malformed_sidecar(self, tmp_path, sidecar):
        path = tmp_path / "d.jsonl"
        path.write_text('{"n":4,"edges":[[0,1]],"target":2}\n')
        meta = tmp_path / "d.jsonl.meta.json"
        meta.write_bytes(sidecar.encode("latin-1"))
        with pytest.raises(InputError, match=re.escape(str(meta))):
            load_dataset(path)

    def test_integral_edge_prob_sidecar_accepted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"n":4,"edges":[[0,1]],"target":2}\n')
        (tmp_path / "d.jsonl.meta.json").write_text(
            '{"n_graphs": 1, "n_nodes": 4, "edge_prob": 1, "target": "triangles", "seed": 1}')
        assert load_dataset(path).meta.edge_prob == 1

    def test_save_without_meta_removes_stale_sidecar(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset(gen_dataset(3, 8, 0.3, "triangles", seed=1), path)
        save_dataset(Dataset(items=[(cycle_graph(4), 0.0)]), path)
        assert not (tmp_path / "d.jsonl.meta.json").exists()
        assert load_dataset(path).meta is None

    @pytest.mark.parametrize("nodes, n_graphs, n_nodes", [
        ([4], 3, 4),      # more graphs than the file holds
        ([4], 1, 8),      # graphs of another size
        ([4, 5], 2, 4),   # one graph of another size
    ])
    def test_load_rejects_sidecar_of_another_dataset(self, tmp_path, nodes, n_graphs, n_nodes):
        path = tmp_path / "d.jsonl"
        path.write_text("".join(f'{{"n":{n},"edges":[[0,1]],"target":2}}\n' for n in nodes))
        meta = tmp_path / "d.jsonl.meta.json"
        meta.write_text(json.dumps({"n_graphs": n_graphs, "n_nodes": n_nodes, "edge_prob": 0.5,
                                    "target": "triangles", "seed": 1}))
        with pytest.raises(InputError, match=re.escape(str(meta))):
            load_dataset(path)

    def test_load_without_sidecar_has_no_meta(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        path.write_text('{"n":4,"edges":[[0,1]],"target":2.5}\n')
        ds = load_dataset(path)
        assert ds.meta is None
        assert ds.targets() == [2.5]


class TestKfold:
    def test_test_folds_partition_the_indices(self):
        plan = kfold_split(1000, 10, seed=0)
        seen = []
        for i in range(10):
            train, val, test = plan.round(i)
            assert len(test) == 100
            seen.extend(test)
        assert sorted(seen) == list(range(1000))

    def test_round_splits_are_disjoint_and_complete(self):
        plan = kfold_split(23, 5, seed=4)
        for i in range(5):
            train, val, test = plan.round(i)
            combined = sorted(train + val + test)
            assert combined == list(range(23))

    def test_validation_is_next_fold_cyclically(self):
        plan = kfold_split(30, 3, seed=8)
        for i in range(3):
            _, val, _ = plan.round(i)
            _, _, next_test = plan.round((i + 1) % 3)
            assert val == next_test

    def test_singleton_folds(self):
        plan = kfold_split(10, 10, seed=1)
        for i in range(10):
            train, val, test = plan.round(i)
            assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_uneven_sizes_spread_remainder(self):
        plan = kfold_split(11, 3, seed=2)
        sizes = sorted(len(plan.round(i)[2]) for i in range(3))
        assert sizes == [3, 4, 4]

    def test_deterministic_given_seed(self):
        assert kfold_split(50, 5, seed=6) == kfold_split(50, 5, seed=6)
        assert kfold_split(50, 5, seed=6) != kfold_split(50, 5, seed=7)

    def test_rejects_small_k_and_small_size(self):
        with pytest.raises(InputError):
            kfold_split(10, 2, seed=0)
        with pytest.raises(InputError):
            kfold_split(4, 5, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            kfold_split(10, 3, seed=-1)


class TestBaselineMean:
    def test_exact_mean_prediction(self):
        assert baseline_mean([1.0, 2.0, 3.0], [2.0]) == 0.0

    def test_constant_train_targets(self):
        assert baseline_mean([0.0, 0.0], [3.0]) == 9.0

    def test_mean_of_squared_errors(self):
        assert baseline_mean([1.0, 3.0], [1.0, 3.0]) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            baseline_mean([], [1.0])
        with pytest.raises(InputError):
            baseline_mean([1.0], [])


class TestDatasetViews:
    def test_graphs_and_targets_align(self):
        ds = Dataset(items=[(cycle_graph(4), 1.0), (complete_graph(3), 2.0)])
        assert len(ds) == 2
        assert [g.n for g in ds.graphs()] == [4, 3]
        assert ds.targets() == [1.0, 2.0]
