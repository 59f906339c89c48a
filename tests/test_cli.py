import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from rdslink import cli
from rdslink.cli import main
from rdslink.constructions import theorem_1_2_rds
from rdslink.groups import (FiniteGroup, cyclic, elementary_abelian,
                            quaternion8)
from rdslink.rds import RdsError


def run(args):
    return main(args)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_construct_q8_bundle(tmp_path):
    out = tmp_path / "q8.json"
    assert run(["construct", "q8", "--out", str(out)]) == 0
    b = load(out)
    c = b["certificate"]
    assert (c["m"], c["n"], c["k"], c["lambda"], c["s"], c["mu"],
            c["nu"]) == (4, 2, 4, 2, 2, 1, 3)
    assert b["associated_group"]["kind"] == "cyclic"
    assert b["associated_group"]["order"] == 3
    assert len(b["group"]["table"]) == 64


def test_construct_heisenberg_bundle(tmp_path):
    out = tmp_path / "h.json"
    assert run(["construct", "heisenberg", "--q", "3", "--out",
                str(out)]) == 0
    b = load(out)
    c = b["certificate"]
    assert (c["m"], c["n"], c["k"], c["lambda"], c["s"]) == (9, 3, 9, 3, 3)
    assert b["provenance"]["eps"] == 2
    assert b["provenance"]["delta"] == 2
    assert b["associated_group"]["order"] == 4


def test_construct_thm12_bundle(tmp_path):
    out = tmp_path / "t.json"
    assert run(["construct", "thm12", "--p", "3", "--r", "2", "--out",
                str(out)]) == 0
    b = load(out)
    assert b["certificate"]["m"] == 81
    assert b["exponent"] == 9


def test_construct_dps_bundle(tmp_path):
    out = tmp_path / "d.json"
    assert run(["construct", "dps", "--n", "4", "--t", "4", "--s", "4",
                "--out", str(out)]) == 0
    c = load(out)["certificate"]
    assert (c["m"], c["n"], c["k"], c["lambda"], c["s"], c["mu"],
            c["nu"]) == (16, 4, 16, 4, 3, 7, 3)


def test_construct_invalid_params():
    assert run(["construct", "heisenberg", "--q", "4"]) == 1  # even q
    assert run(["construct", "extraspecial", "--p", "4"]) == 1


def test_bundles_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["construct", "extraspecial", "--p", "3", "--out", str(a)])
    run(["construct", "extraspecial", "--p", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_rds_roundtrip(tmp_path):
    bundle = tmp_path / "q8.json"
    run(["construct", "q8", "--out", str(bundle)])
    b = load(bundle)
    sets = tmp_path / "set.json"
    sets.write_text(json.dumps({"set": b["sets"][0]["indices"]}))
    forb = tmp_path / "forb.json"
    forb.write_text(json.dumps(b["forbidden"]))
    report = tmp_path / "rep.json"
    assert run(["verify", "rds", "--group", str(bundle), "--sets", str(sets),
                "--forbidden", str(forb), "--out", str(report)]) == 0
    r = load(report)
    assert r["ok"]
    assert r["certificates"][0]["k"] == 4


def test_verify_linked_perturbed_fails(tmp_path):
    bundle = tmp_path / "q8.json"
    run(["construct", "q8", "--out", str(bundle)])
    b = load(bundle)
    fam = [s["indices"] for s in b["sets"]]
    # move one element of X_1
    bad = sorted(set(fam[0]) - {fam[0][-1]} | {6})
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"sets": [bad, fam[1]]}))
    forb = tmp_path / "forb.json"
    forb.write_text(json.dumps(b["forbidden"]))
    report = tmp_path / "rep.json"
    assert run(["verify", "linked", "--group", str(bundle), "--sets",
                str(sets), "--forbidden", str(forb), "--out",
                str(report)]) == 1
    r = load(report)
    assert not r["ok"]
    assert "error" in r


def test_verify_sring(tmp_path):
    bundle = tmp_path / "q8.json"
    run(["construct", "q8", "--out", str(bundle)])
    classes = tmp_path / "classes.json"
    # partition of Q8 by {e},{a^2},{a,a^3},{b,a^2 b},{ab,a^3 b}
    classes.write_text(json.dumps(
        {"classes": [[0], [2], [1, 3], [4, 6], [5, 7]]}))
    report = tmp_path / "rep.json"
    assert run(["verify", "sring", "--group", str(bundle), "--sets",
                str(classes), "--out", str(report)]) == 0
    r = load(report)
    assert r["ok"]
    assert len(r["certificates"][0]["tensor"]) == 5


def test_verify_sring_rejects_member_out_of_range(tmp_path):
    group = tmp_path / "c4.json"
    group.write_text(json.dumps({"order": 4,
                                 "table": cyclic(4).table.ravel().tolist()}))
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps([[2], [1, 3, 4]]))
    report = tmp_path / "rep.json"
    assert run(["verify", "sring", "--group", str(group), "--sets",
                str(classes), "--out", str(report)]) == 1
    assert load(report)["error"] == (
        "SRingError: class 2 has member 4, not an element index 0..3")


def test_export_graph_formats(tmp_path, capsys):
    assert run(["export", "graph", "--q", "3", "--format", "adjlist"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 27
    assert all(len(ln.split(":")[1].split()) == 8 for ln in lines)
    assert run(["export", "graph", "--q", "3", "--format", "dimacs"]) == 0
    dimacs = capsys.readouterr().out.splitlines()
    assert dimacs[0] == "p edge 27 108"


def test_export_dev_q8(capsys):
    assert run(["export", "dev", "--family", "q8", "--format", "json"]) == 0
    blocks = json.loads(capsys.readouterr().out)["blocks"]
    assert len(blocks) == 8


@pytest.mark.parametrize("args", [
    ["export", "dev", "--family", "extraspecial", "--p", "5"],
    ["export", "ctensor", "--family", "q8"],
    ["export", "graph", "--family", "q8"],
    ["export", "graph", "--family", "extraspecial"]])
def test_export_rejects_a_family_it_does_not_build(capsys, args):
    assert run(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"export {args[1]} does not build --family {args[3]}" in err


def test_export_ctensor(capsys):
    assert run(["export", "ctensor", "--family", "heisenberg",
                "--q", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["classes"]) == 5
    assert sorted(data["class_sizes"]) == [1, 2, 8, 8, 8]


def test_resolve_branch_reports(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["resolve-branch", "--target", "heis2r", "--q", "3",
                "--r", "2", "--out", str(rep)]) == 0
    r = load(rep)
    assert r["ok"]
    assert r["realized"] in r["branches"]
    rep2 = tmp_path / "r2.json"
    assert run(["resolve-branch", "--target", "q8-2r", "--r", "2",
                "--out", str(rep2)]) == 0
    r2 = load(rep2)
    assert r2["ok"]
    assert r2["realized"] in r2["branches"]


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundles")
    assert run(["construct", "thm12", "--p", "3", "--r", "2", "--out",
                str(d / "rds.json")]) == 0
    assert run(["construct", "q8", "--out", str(d / "linked.json")]) == 0
    return d


@pytest.mark.parametrize("kind", ["rds", "linked"])
def test_verify_derives_forbidden(bundles, tmp_path, kind):
    bundle = bundles / f"{kind}.json"
    report = tmp_path / "rep.json"
    assert run(["verify", kind, "--group", str(bundle), "--sets",
                str(bundle), "--out", str(report)]) == 0
    r = load(report)
    assert r["ok"]
    assert r["certificates"][0]["forbidden"] == load(bundle)["forbidden"]


@pytest.mark.parametrize("kind", ["rds", "linked"])
def test_verify_perturbed_without_forbidden(bundles, tmp_path, kind):
    b = load(bundles / f"{kind}.json")
    fam = [s["indices"] for s in b["sets"]] if "sets" in b else [
        b["set"]["indices"]]
    outside = min(set(range(b["group"]["order"])) - set(fam[0]))
    fam[0] = sorted(set(fam[0]) - {fam[0][-1]} | {outside})
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"sets": fam}))
    report = tmp_path / "rep.json"
    assert run(["verify", kind, "--group", str(bundles / f"{kind}.json"),
                "--sets", str(sets), "--out", str(report)]) == 1
    r = load(report)
    assert not r["ok"]
    typed = {c.__name__ for c in (RdsError, *RdsError.__subclasses__())}
    assert r["error"].split(":")[0] in typed


# sha256 of each command's output, pinned when every table was still
# built cell by cell and every bundle went through json.dumps whole: the
# array-native construction layer and the streamed table writer must
# write the same bytes.  q = 9 and n = 9 cover extension fields; thm12
# at r = 3 (v = 2187, 4.8 M table entries) and q8-2r at r = 4 are the
# bundles of the benchmark's bundle workload.
BUNDLE_DIGESTS = {
    "construct heisenberg --q 3":
        "291c9528c091c8890d34da3a8350e1eee55ecc57a902d61bde2051c0d6a069ca",
    "construct heisenberg --q 9":
        "66f265b24f4de539eb6a3f32bdbd7fff9331c0b34c4df148cdc1596138a5d82d",
    "construct heisenberg2r --q 3 --r 2":
        "e76b9962b070dc17fa9c24dcc88d2a54e530c902d8b45c0d7c256d34e366dcc8",
    "construct extraspecial --p 3":
        "c20bc5aed1f0b86bfdd1529dc9e0826cbb70ce3b278c8e643410064987fb3283",
    "construct q8":
        "2dec87154131a4463ee08793b988e324e15a461a6b09e2218f67c79db4f1a437",
    "construct q8-2r --r 2":
        "f6d41222b27f36d8a0441a0cfe426752e1795de87e8a3c47211ba731c192ca09",
    "construct q8-2r --r 3":
        "3b848d5150c455155fb043e8005ba7bd1376152977259640e039cedebb53f51b",
    "construct dps --n 4 --t 4 --s 4":
        "e8ebd0ef050bc94701d470cfee7b8004de6079d8da0d04ff5ffe2fbd0d3cb904",
    "construct dps --n 9 --t 3 --s 3":
        "9f4652646ec54f802cc10b8c610a1ef5d140862fc975f0197dd46f8f2c2d6eb3",
    "construct thm12 --p 3 --r 2":
        "f5a71947f0c2032c6144489a87f1bb020d2c758deef473a7e51dccf529025020",
    "construct thm12 --p 3 --r 3":
        "9b404c467160ed3014a95106e236d2edcd7e22bd6789aaa4a2669a47d90424d0",
    "construct q8-2r --r 4":
        "1d436586cae033f79904b426d98828f3dffbd7853ed5c9d949e0252335cdd62c",
    "export graph --q 3 --format dimacs":
        "c0978f353b9302188ec83cfed80282ec1ac664bd9d447054a5352f07986dda72",
    "export graph --q 3 --format adjlist":
        "28f0534469698a4cad14b7afa271e6a0a6097cd4872042ec9706817e266f95f1",
    "export graph --q 3 --format json":
        "aba3d90a245f7f0207e36a0999c3271e7a026060d8df377c092d8309315eb467",
    "export dev --q 3 --format json":
        "f26848203a6fa03c08c773567034fe347ffbec4bbda706d62524296febec6309",
    "export dev --family q8 --format adjlist":
        "5115e63a66bdd29220531d5a4d66dd2d6da91b3b138b40600f81ed4a910918ba",
    "export ctensor --family extraspecial --p 3":
        "497e18280a47e1620bc49771e08cf4db0efdb7646758428fce8b36fa18392868",
    "export ctensor --q 5":
        "49d55712cf74fe0442525e8118806b18922dbada4e3b78d0544b020c49587070",
}


@pytest.mark.parametrize("command", list(BUNDLE_DIGESTS))
def test_bundle_digests(tmp_path, command):
    out = tmp_path / "out"
    assert run(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        BUNDLE_DIGESTS[command]


@pytest.mark.parametrize("group, where", [
    ({"order": 2, "table": [0, 1, 1, 0.9]}, "at (1, 1)"),
    ({"order": 3, "table": [0, 1, 2, 1, 2, 0, 2, 0]}, "position 8"),
    ({"table": [0, 1, 1, 0]}, "'order'"),
    ({"order": 2, "table": [0, True, True, 0]}, "True at (0, 1)"),
    ({"order": 2, "table": [0, 1, 1, 2 ** 70]}, "out of range"),
])
def test_verify_rejects_malformed_table(tmp_path, group, where):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(group))
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps({"classes": [[0], [1]]}))
    report = tmp_path / "rep.json"
    assert run(["verify", "sring", "--group", str(gfile), "--sets",
                str(classes), "--out", str(report)]) == 1
    r = load(report)
    assert r["ok"] is False
    assert r["error"].startswith("GroupError:")
    assert where in r["error"]


@pytest.mark.parametrize("perturb, where", [
    pytest.param(lambda X: [g + 0.4 for g in X],
                 "set 0 has 0.4 at position 0", id="float"),
    pytest.param(lambda X: X[:3] + [True] + X[4:],
                 "set 0 has True at position 3", id="bool"),
    pytest.param(lambda X: X[:5] + [str(X[5])] + X[6:],
                 "at position 5", id="string"),
])
def test_verify_rejects_non_integer_set_entries(tmp_path, perturb, where):
    bundle = tmp_path / "h.json"
    assert run(["construct", "heisenberg", "--q", "3", "--out",
                str(bundle)]) == 0
    X0 = load(bundle)["sets"][0]["indices"]
    assert X0[0] == 0  # so 0.4 is the first entry of the perturbed set
    sets = tmp_path / "set.json"
    sets.write_text(json.dumps({"set": perturb(X0)}))
    report = tmp_path / "rep.json"
    assert run(["verify", "rds", "--group", str(bundle), "--sets",
                str(sets), "--out", str(report)]) == 1
    r = load(report)
    assert r["ok"] is False
    assert r["error"].startswith("GroupError:")
    assert where in r["error"]


def test_verify_rejects_one_row_swap_in_c3_7(tmp_path):
    # order 2187: a sampled associativity audit accepted this table
    t = elementary_abelian(3, 7).table.copy()
    t[1, [1, 2]] = t[1, [2, 1]]
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({"order": 2187,
                                 "table": t.reshape(-1).tolist()}))
    sets = tmp_path / "set.json"
    sets.write_text(json.dumps({"set": [0, 1, 2]}))
    report = tmp_path / "rep.json"
    assert run(["verify", "pds", "--group", str(gfile), "--sets",
                str(sets), "--out", str(report)]) == 1
    r = load(report)
    assert r["ok"] is False
    assert r["error"].startswith("GroupError: associativity fails at a=")


def test_verify_reports_the_audit(bundles, tmp_path):
    report = tmp_path / "rep.json"
    bundle = str(bundles / "linked.json")
    assert run(["verify", "linked", "--group", bundle, "--sets", bundle,
                "--out", str(report)]) == 0
    group = load(report)["group"]
    assert group == {"order": 8, "audit": "light",
                     "generators": quaternion8().gens}


def test_verify_rejects_forbidden_out_of_range(bundles, tmp_path):
    forbidden = tmp_path / "forbidden.json"
    forbidden.write_text(json.dumps([0, 99]))
    report = tmp_path / "rep.json"
    bundle = str(bundles / "linked.json")
    assert run(["verify", "linked", "--group", bundle, "--sets", bundle,
                "--forbidden", str(forbidden), "--out", str(report)]) == 1
    r = load(report)
    assert r["ok"] is False
    assert r["error"].startswith("GroupError: subgroup member 99 is not")


def _listed(obj):
    """obj with every array in it (a bundle's table) as its flat list."""
    if isinstance(obj, np.ndarray):
        return obj.reshape(-1).tolist()
    if isinstance(obj, dict):
        return {key: _listed(value) for key, value in obj.items()}
    return obj


@pytest.mark.parametrize("command", [
    "construct heisenberg --q 3", "construct heisenberg2r --q 3 --r 2",
    "construct extraspecial --p 3", "construct q8",
    "construct q8-2r --r 2", "construct dps --n 4 --t 4 --s 4",
    "construct thm12 --p 3 --r 2"])
def test_streamed_bundle_equals_json_dumps(tmp_path, capsys, monkeypatch,
                                           command):
    dumped = []

    def record(obj, out_path):
        dumped.append(obj)
        return dump(obj, out_path)

    dump = cli._dump
    monkeypatch.setattr(cli, "_dump", record)
    out = tmp_path / "out.json"
    assert run(command.split() + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(command.split()) == 0
    want = json.dumps(_listed(dumped[0]), sort_keys=True, indent=2) + "\n"
    assert isinstance(dumped[0]["group"]["table"], np.ndarray)
    assert out.read_text() == want
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("group", [
    FiniteGroup([[0]]), cyclic(5), cyclic(64), cyclic(130)],
    ids=["v=1", "v=5", "v=64", "v=130"])
def test_streamed_table_with_awkward_labels(tmp_path, capsys, group):
    # strings the encoder escapes, and text that looks like the table
    odd = ['q"uote', "caf\u00e9 \u03c7", "nul\u0000", '"table": [',
           "line\nbreak", "back\\slash", "{}", "]\n  },"]
    group.labels = [odd[i % len(odd)] + str(i) for i in range(group.order)]
    group.name = odd[3]
    bundle = {"family": odd[0], "group": cli._group_spec(group),
              "a": {"b": [odd[5], {}]}, "empty": {}, "zz": odd,
              "nested": {"inner": {"table": group.table[:1, :1].copy(),
                                   "x": odd[7]}}}
    want = json.dumps(_listed(bundle), sort_keys=True, indent=2) + "\n"
    out = tmp_path / "out.json"
    cli._dump(bundle, str(out))
    cli._dump(bundle, None)
    assert out.read_text() == want
    assert capsys.readouterr().out == want


def test_streamed_table_is_never_one_list(tmp_path):
    G = elementary_abelian(3, 7)  # 4.8 M entries: a list of them is 38 MB
    bundle = {"group": cli._group_spec(G)}
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        cli._dump(bundle, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 50_000_000
    assert peak < 16_000_000


def test_verify_parses_each_file_once(bundles, tmp_path, monkeypatch):
    bundle = str(bundles / "rds.json")
    forbidden = tmp_path / "forbidden.json"
    forbidden.write_text(json.dumps(load(bundle)["forbidden"]))
    parsed = []
    json_load = json.load

    def counting(fh, **kwargs):
        parsed.append(fh.name)
        return json_load(fh, **kwargs)

    monkeypatch.setattr(json, "load", counting)
    report = tmp_path / "rep.json"
    assert run(["verify", "rds", "--group", bundle, "--sets", bundle,
                "--forbidden", str(forbidden), "--out", str(report)]) == 0
    assert sorted(parsed) == sorted([bundle, str(forbidden)])
    assert load(report)["ok"]


def test_verify_rereads_a_rewritten_file(tmp_path):
    bundle = tmp_path / "bundle.json"
    report = tmp_path / "rep.json"
    args = ["verify", "linked", "--group", str(bundle), "--sets",
            str(bundle), "--out", str(report)]
    assert run(["construct", "q8", "--out", str(bundle)]) == 0
    assert run(args) == 0
    assert load(report)["group"]["order"] == 8
    assert run(["construct", "heisenberg", "--q", "3", "--out",
                str(bundle)]) == 0
    assert run(args) == 0
    assert load(report)["group"]["order"] == 27
    assert load(report)["certificates"][0]["m"] == 9


@pytest.mark.parametrize("sets, where", [
    ({"sets": [{"foo": [0]}]}, "set 0 has no 'indices'"),
    ({"sets": [{"indices": [0, 1]}, [0, 2]]}, "set 1 has no 'indices'"),
    ({"sets": [[0, 1], {"indices": [0, 2]}]},
     "set 1 is {'indices': [0, 2]}, not a list"),
    ({"sets": []}, "the list of sets is empty"),
    ({"classes": "none"}, "no list of sets"),
])
def test_verify_rejects_malformed_sets(bundles, tmp_path, sets, where):
    sets_file = tmp_path / "sets.json"
    sets_file.write_text(json.dumps(sets))
    report = tmp_path / "rep.json"
    assert run(["verify", "linked", "--group", str(bundles / "linked.json"),
                "--sets", str(sets_file), "--out", str(report)]) == 1
    r = load(report)
    assert r["ok"] is False
    assert r["error"] == f"GroupError: {sets_file}: {where}"


def test_verify_rejects_empty_forbidden(bundles, tmp_path):
    forbidden = tmp_path / "forbidden.json"
    forbidden.write_text("[]")
    report = tmp_path / "rep.json"
    bundle = str(bundles / "linked.json")
    assert run(["verify", "linked", "--group", bundle, "--sets", bundle,
                "--forbidden", str(forbidden), "--out", str(report)]) == 1
    r = load(report)
    assert r["ok"] is False
    assert r["error"] == (f"GroupError: {forbidden}: the list of sets is "
                          f"empty")


def _typed(obj):
    """obj with each scalar paired with its type, so 1, 1.0 and True
    differ."""
    if isinstance(obj, list):
        return [_typed(x) for x in obj]
    if isinstance(obj, dict):
        return {key: _typed(x) for key, x in obj.items()}
    return type(obj), obj


def _parsed(loads, text):
    try:
        return "value", _typed(cli._listed(loads(text)))
    except Exception as exc:
        return type(exc), str(exc)


LABELED = json.dumps({"labels": ["e]", "café χ", "[2", "3"],
                      "name": "C₂ × C₂",
                      "table": [0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1,
                                3, 2, 1, 0]}, ensure_ascii=False)

# a piece ends at the first comma _CHUNK or more characters into it:
# the small sizes cut "[10,20,30,]" at its trailing comma, and put a
# cut right before or after the whitespace-split pair of the two texts
# after it
READER_CORPUS = [
    "[]", "[0]", "[1 2]", "[01]", "[+1]", "[1,]", "[,1]", "[1,,2]",
    "[-1]", "[2.5]", "[true, 1]", "[1e3]", '["1"]', "[[1],[2]]",
    "[123456789012345678901]", "[9999999999999999999]",
    "[999999999999999999]", "[ 1 ,\t2\r\n, 30 ]", "[0, 00]", "[1, 2",
    "[1, 2]]", "[1, 2] x", '{"a": [1, [2, 3]], "b": [4], "c": [5 6]}',
    "[10,20,30,]", "[10,20,30 40]", "[10,20 30,40]", "[10,20, 30]",
    "[01, ,2]", "[1, ,2]", "[10,20,3٣]", '{"a": 3٣}',
    # deeper than the reader's Python frames allow, and than json's own
    pytest.param("[" * 700 + "]" * 700, id="nested-700"),
    pytest.param('{"a": ' * 700 + "[1]" + "}" * 700, id="objects-700"),
    pytest.param("[" * 5000 + "]" * 5000, id="nested-5000"),
    pytest.param(LABELED, id="labeled-group")]


@pytest.mark.parametrize("chunk", [1, 3, 6, 1 << 20])
@pytest.mark.parametrize("text", READER_CORPUS)
def test_reader_matches_json(monkeypatch, chunk, text):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    assert _parsed(lambda t: json.loads(t, cls=cli._TableDecoder),
                   text) == _parsed(json.loads, text)


@pytest.mark.parametrize("chunk", [1, 2, 1 << 20])
def test_reader_matches_json_on_every_short_array(monkeypatch, chunk):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    for n in range(6):
        for chars in itertools.product("01, ]", repeat=n):
            text = "[" + "".join(chars) + "]"
            assert _parsed(lambda t: json.loads(t, cls=cli._TableDecoder),
                           text) == _parsed(json.loads, text), text


@pytest.mark.parametrize("chunk", [1, 5, 1 << 20])
def test_reader_makes_one_array_per_integer_list(monkeypatch, chunk):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    doc = json.loads(LABELED, cls=cli._TableDecoder)
    assert isinstance(doc["table"], np.ndarray)
    assert doc["table"].dtype == np.int64
    assert doc["table"].tolist() == json.loads(LABELED)["table"]
    assert doc["labels"] == json.loads(LABELED)["labels"]


@pytest.fixture(scope="module")
def thm12_r3(tmp_path_factory):
    path = tmp_path_factory.mktemp("thm12") / "thm12.json"
    assert run(["construct", "thm12", "--p", "3", "--r", "3", "--out",
                str(path)]) == 0
    return path


def test_loading_the_order_2187_bundle_holds_no_int_per_entry(thm12_r3):
    # reading holds the file's bytes and its text at once (2 x 55 MB);
    # the table is one 38 MB int64 array.  As a list of Python ints the
    # same load peaks at 213 MB.
    size = thm12_r3.stat().st_size
    tracemalloc.start()
    try:
        with open(thm12_r3) as fh:
            G = cli._load_group(thm12_r3, json.load(fh,
                                                    cls=cli._TableDecoder))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(G.table, theorem_1_2_rds(3, 3)[0].table)
    assert size > 55_000_000
    assert peak < 2.2 * size


def _with_group(bundle, tmp_path, **fields):
    b = load(bundle)
    b["group"].update(fields)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(b))
    return path


@pytest.mark.parametrize("fields, where", [
    ({"labels": 5}, "labels 5 is not a list"),
    ({"labels": ["e", "a"]},
     "order 8 needs 8 labels, found 2; position 2 is wrong"),
    ({"labels": list("abcdefghi")},
     "order 8 needs 8 labels, found 9; position 8 is wrong"),
    ({"labels": list("abcd") + [4] + list("fgh")},
     "label 4 at position 4 is not a string"),
    ({"labels": list(range(8))}, "label 0 at position 0 is not a string"),
    ({"name": 5}, "name 5 is not a string"),
    ({"name": ["Q8"]}, "name ['Q8'] is not a string"),
])
@pytest.mark.parametrize("kind", ["rds", "linked"])
def test_verify_rejects_malformed_labels(bundles, tmp_path, kind, fields,
                                         where):
    bundle = _with_group(bundles / "linked.json", tmp_path, **fields)
    report = tmp_path / "rep.json"
    assert run(["verify", kind, "--group", str(bundle), "--sets",
                str(bundle), "--out", str(report)]) == 1
    assert load(report)["error"] == f"GroupError: {bundle}: {where}"


def test_verify_needs_no_labels_or_name(bundles, tmp_path):
    b = load(bundles / "linked.json")
    del b["group"]["labels"], b["group"]["name"]
    bundle = tmp_path / "bare.json"
    bundle.write_text(json.dumps(b))
    report = tmp_path / "rep.json"
    assert run(["verify", "linked", "--group", str(bundle), "--sets",
                str(bundle), "--out", str(report)]) == 0
    assert load(report)["ok"]
