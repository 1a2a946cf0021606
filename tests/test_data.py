import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mico import data as md
from mico import framing
from mico.data import (
    FeatureBag,
    SynthConfig,
    generate,
    make_folds,
    read_bag,
    read_dataset,
    write_bag,
    write_dataset,
)
from mico.errors import (
    ChecksumError,
    ConfigError,
    DataError,
    HeaderError,
    TruncationError,
)
from mico.losses import SubtypeLabel, SurvivalLabel


def cfg(**kw):
    base = dict(n_bags=20, d=8, seed=0, task="subtype")
    base.update(kw)
    return SynthConfig(**base)


def prototypes(config):
    rng = np.random.default_rng(config.seed)
    p = rng.standard_normal((config.n_prototypes, config.d))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    return p * config.prototype_separation


class TestGenerate:
    def test_zero_noise_instances_sit_on_prototypes(self):
        config = cfg(noise_std=0.0)
        protos = prototypes(config)
        for bag in generate(config):
            expected = protos[bag.true_type_map]
            assert np.max(np.abs(bag.features - expected)) < 1e-12

    def test_nearest_prototype_recovers_type_map(self):
        config = cfg(n_bags=30, prototype_separation=10.0, noise_std=1.0)
        protos = prototypes(config)
        correct = total = 0
        for bag in generate(config):
            d2 = ((bag.features[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
            correct += int((np.argmin(d2, axis=1) == bag.true_type_map).sum())
            total += bag.n_instances
        assert correct / total > 0.99

    def test_bit_identical_under_seed(self):
        a, b = generate(cfg(task="survival")), generate(cfg(task="survival"))
        for x, y in zip(a, b):
            assert x.bag_id == y.bag_id
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.coords, y.coords)
            assert (x.label.time, x.label.event) == (y.label.time, y.label.event)

    def test_different_seeds_differ(self):
        a, b = generate(cfg(seed=1)), generate(cfg(seed=2))
        assert not np.array_equal(a[0].features, b[0].features)

    def test_subtype_label_consistent_with_tumor_fraction(self):
        config = cfg(n_bags=60)
        for bag in generate(config):
            rho = (bag.true_type_map == config.tumor_prototype_index).mean()
            assert bag.label.class_index == (1 if rho > md.SUBTYPE_THRESHOLD else 0)

    def test_both_subtype_classes_occur(self):
        classes = {bag.label.class_index for bag in generate(cfg(n_bags=60, seed=3))}
        assert classes == {0, 1}

    def test_survival_labels_valid(self):
        bags = generate(cfg(task="survival", n_bags=80, seed=4))
        events = [bag.label.event for bag in bags]
        assert any(events) and not all(events)
        assert all(bag.label.time >= 0 for bag in bags)

    def test_bag_sizes_within_range(self):
        config = cfg(m_range=(5, 9), n_bags=40)
        sizes = {bag.n_instances for bag in generate(config)}
        assert min(sizes) >= 5 and max(sizes) <= 9

    def test_tumor_coords_cluster_in_dispersion_blobs(self):
        config = cfg(n_bags=40, dispersion=3, seed=5)
        found_multi = False
        for bag in generate(config):
            tumor = bag.true_type_map == config.tumor_prototype_index
            if tumor.sum() < 6:
                continue
            pts = bag.coords[tumor]
            # snap to the coarse lattice cell each point falls in
            cell = md.ARENA / md.CELL_GRID
            cells = {tuple((p // cell).astype(int)) for p in pts}
            assert len(cells) <= 2 * config.dispersion  # jitter can cross an edge
            if len(cells) > 1:
                found_multi = True
        assert found_multi

    @pytest.mark.parametrize("field", [{"n_prototypes": 1}, {"noise_std": -1.0},
                                       {"m_range": (5, 2)}, {"task": "grading"}],
                             ids=["n_prototypes", "noise_std", "m_range", "task"])
    def test_bad_config_rejected_when_built(self, field):
        with pytest.raises(ConfigError):
            cfg(**field)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            generate(cfg(n_prototypes=1))
        with pytest.raises(ConfigError):
            generate(cfg(dispersion=1))
        with pytest.raises(ConfigError):
            generate(cfg(censoring_rate=1.5))


class TestBagIo:
    def _bag(self, task="survival"):
        return generate(cfg(n_bags=1, task=task, seed=6))[0]

    @pytest.mark.parametrize("task", ["survival", "subtype"])
    def test_round_trip_bit_exact(self, tmp_path, task):
        bag = self._bag(task)
        p = str(tmp_path / "b.mbag")
        write_bag(bag, p)
        got = read_bag(p)
        assert got.bag_id == bag.bag_id
        assert np.array_equal(got.features, bag.features)
        assert np.array_equal(got.coords, bag.coords)
        assert np.array_equal(got.true_type_map, bag.true_type_map)
        assert got.label == bag.label

    @pytest.mark.parametrize("reserved", [-1, 0, 3, 2 ** 31 - 1, -2 ** 31])
    def test_survival_reserved_field_is_written_as_minus_one_and_ignored(
            self, tmp_path, reserved):
        bag = self._bag()
        p = tmp_path / "r.mbag"
        write_bag(bag, str(p))
        raw = p.read_bytes()
        # magic, u16 id length + id, u32 M + u32 d, u8 kind, f64 time, u8 event
        at = len(md.MAGIC) + 2 + len(bag.bag_id) + 8 + 1 + 8 + 1
        assert struct.unpack_from("<i", raw, at) == (-1,)
        body = raw[len(md.MAGIC):at] + struct.pack("<i", reserved) + raw[at + 4:-4]
        framing.write_framed(str(p), md.MAGIC, [body])
        assert read_bag(str(p)).label == bag.label

    def test_bad_magic_raises_header_error(self, tmp_path):
        p = tmp_path / "bad.mbag"
        p.write_bytes(b"XXXXX" + b"\x00" * 32)
        with pytest.raises(HeaderError):
            read_bag(str(p))

    def test_truncation_raises(self, tmp_path):
        # the CRC is checked before any field, so a cut that leaves magic and
        # a would-be checksum in place fails the CRC
        bag = self._bag()
        p = tmp_path / "t.mbag"
        write_bag(bag, str(p))
        raw = p.read_bytes()
        p.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ChecksumError):
            read_bag(str(p))

    def test_shorter_than_magic_and_crc_raises_truncation_error(self, tmp_path):
        p = tmp_path / "s.mbag"
        p.write_bytes(md.MAGIC + b"\x00\x00\x00")
        with pytest.raises(TruncationError):
            read_bag(str(p))

    def test_bit_flip_raises_checksum_error(self, tmp_path):
        bag = self._bag()
        p = tmp_path / "c.mbag"
        write_bag(bag, str(p))
        raw = bytearray(p.read_bytes())
        raw[-20] ^= 0x01
        p.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            read_bag(str(p))

    def test_unlabeled_bag_rejected(self, tmp_path):
        bag = FeatureBag(bag_id="x", features=np.zeros((2, 3)))
        with pytest.raises(DataError):
            write_bag(bag, str(tmp_path / "x.mbag"))

    @pytest.mark.parametrize("field,value,message", [
        ("coords", np.zeros((3, 3)), r"coords must be \(3, 2\), got \(3, 3\)"),
        ("true_type_map", np.zeros(5), r"true_type_map must be \(3,\), got \(5,\)"),
    ], ids=["coords", "type-map"])
    def test_per_instance_array_of_another_shape_rejected(self, field, value, message):
        # write_bag would store it, and read_bag would refuse the file
        with pytest.raises(DataError, match=f"^bag 'x': {message}$"):
            FeatureBag(bag_id="x", features=np.zeros((3, 4)), **{field: value})

    def test_dataset_round_trip(self, tmp_path):
        bags = generate(cfg(n_bags=5, seed=7))
        write_dataset(bags, str(tmp_path))
        got = read_dataset(str(tmp_path))
        assert [b.bag_id for b in got] == [b.bag_id for b in bags]
        for x, y in zip(got, bags):
            assert np.array_equal(x.features, y.features)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            read_dataset(str(tmp_path))

    def test_unreadable_manifest(self, tmp_path):
        (tmp_path / "manifest.txt").mkdir()
        with pytest.raises(DataError):
            read_dataset(str(tmp_path))


class TestDataset:
    def test_ids_with_inner_whitespace_round_trip(self, tmp_path):
        ids = ["slide 01", "a\tb", "x  y\tz"]
        bags = generate(cfg(n_bags=len(ids), seed=8))
        for bag, bag_id in zip(bags, ids):
            bag.bag_id = bag_id
        write_dataset(bags, str(tmp_path))
        assert [bag.bag_id for bag in read_dataset(str(tmp_path))] == ids

    @pytest.mark.parametrize("bad", ["../x", "a/b", "nul\0", "two\nlines", "cr\r",
                                     " lead", "trail ", "tab\t"],
                             ids=["parent-dir", "slash", "nul", "newline", "return",
                                  "leading-space", "trailing-space", "trailing-tab"])
    def test_id_that_cannot_read_back_is_rejected_before_writing(self, tmp_path, bad):
        bags = generate(cfg(n_bags=2, seed=8))
        bags[1].bag_id = bad
        out_dir = tmp_path / "ds"
        with pytest.raises(DataError, match="cannot name a dataset file"):
            write_dataset(bags, str(out_dir))
        assert not (out_dir / "manifest.txt").exists()
        assert list(tmp_path.rglob("*.mbag")) == []

    def test_repeated_id_is_rejected_before_writing(self, tmp_path):
        bags = generate(cfg(n_bags=3, seed=8))
        bags[2].bag_id = bags[0].bag_id
        out_dir = tmp_path / "ds"
        with pytest.raises(DataError, match=f"bag id '{bags[0].bag_id}' occurs more than once"):
            write_dataset(bags, str(out_dir))
        assert not out_dir.exists()

    @pytest.mark.parametrize("copy", ["same-file", "second-file"])
    def test_repeated_id_is_rejected_when_read(self, tmp_path, copy):
        write_dataset(generate(cfg(n_bags=3, seed=8)), str(tmp_path))
        if copy == "second-file":
            (tmp_path / "again.mbag").write_bytes((tmp_path / "bag0001.mbag").read_bytes())
        with open(tmp_path / "manifest.txt", "a") as f:
            f.write("bag0001.mbag\n" if copy == "same-file" else "again.mbag\n")
        with pytest.raises(DataError, match="^bag id 'bag0001' occurs more than once$"):
            read_dataset(str(tmp_path))

    def test_bags_keep_features_and_labels_but_not_coords_or_type_maps(self, tmp_path):
        bags = generate(cfg(n_bags=3, seed=8))
        write_dataset(bags, str(tmp_path))
        for got, bag in zip(read_dataset(str(tmp_path)), bags):
            assert np.array_equal(got.features, bag.features) and got.label == bag.label
            assert got.coords is None and got.true_type_map is None
        # read_bag, which export-assignments uses, keeps both
        got = read_bag(str(tmp_path / "bag0000.mbag"))
        assert np.array_equal(got.coords, bags[0].coords)
        assert np.array_equal(got.true_type_map, bags[0].true_type_map)

    def test_damage_in_a_type_map_is_still_caught(self, tmp_path):
        write_dataset(generate(cfg(n_bags=3, seed=8)), str(tmp_path))
        path = tmp_path / "bag0002.mbag"
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x01  # the last type-map byte, just before the CRC
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            read_dataset(str(tmp_path))


class TestFolds:
    def test_split_sizes_100_bags(self):
        ids = [f"b{i}" for i in range(100)]
        for train, val, test in make_folds(ids, seed=0):
            assert (len(train), len(val), len(test)) == (60, 15, 25)

    def test_each_fold_partitions_ids(self):
        ids = [f"b{i}" for i in range(60)]
        for train, val, test in make_folds(ids, seed=1):
            combined = train + val + test
            assert sorted(combined) == sorted(ids)
            assert len(set(combined)) == len(ids)

    def test_test_sets_rotate(self):
        ids = [f"b{i}" for i in range(100)]
        folds = make_folds(ids, seed=2)
        tests = [set(t) for _, _, t in folds]
        assert not (tests[0] & tests[1] & tests[2] & tests[3])
        assert tests[0] != tests[1]

    def test_deterministic(self):
        ids = [f"b{i}" for i in range(40)]
        assert make_folds(ids, seed=3) == make_folds(ids, seed=3)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            make_folds(["a", "a", "b"] * 10)

    def test_too_few_bags_rejected(self):
        with pytest.raises(DataError):
            make_folds(["a", "b"])

    def test_folds_whose_test_sets_would_overlap_are_rejected(self):
        # 25 bags hold four test chunks of 6; a fifth would wrap onto the first
        ids = [f"b{i}" for i in range(25)]
        tests = [set(t) for _, _, t in make_folds(ids, n_folds=4)]
        assert sum(map(len, tests)) == len(set().union(*tests)) == 24
        with pytest.raises(ConfigError, match=r"^5 folds of 6 test bags need 30 bags, got 25: "
                                              r"at most 4 folds keep every test set apart$"):
            make_folds(ids, n_folds=5)

    def test_huge_fold_count_is_rejected_before_any_fold_is_built(self):
        with pytest.raises(ConfigError, match="at most 4 folds"):
            make_folds([f"b{i}" for i in range(24)], n_folds=100000)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 90), n_folds=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_folds_partition_the_ids_and_never_test_a_bag_twice(n, n_folds, seed):
    ids = [f"b{i}" for i in range(n)]
    n_test = round(md.SPLIT[2] * n)
    try:
        folds = make_folds(ids, n_folds=n_folds, seed=seed)
    except ConfigError:
        # refused exactly when the test chunks cannot all be disjoint
        assert n_folds * n_test > n
        return
    except DataError:
        assert n_test < 1 or round(md.SPLIT[1] * n) < 1 or n - n_test - round(md.SPLIT[1] * n) < 1
        return
    assert len(folds) == n_folds
    tested = []
    for train, val, test in folds:
        assert sorted(train + val + test) == sorted(ids)
        assert len(test) == n_test
        tested += test
    assert len(set(tested)) == len(tested)
