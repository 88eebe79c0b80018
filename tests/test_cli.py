"""End-to-end tests of the command-line surface."""

import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import limitcanon
from limitcanon import grassmann, strata
from conftest import SWEEP_GRID
from limitcanon.cli import main, parse_q, qstr, stratum_key_from_obj, stratum_obj
from limitcanon.model import CurveConfig
from limitcanon.strata import enumerate_strata, stratum_key


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rational_round_trip():
    from fractions import Fraction

    assert qstr(Fraction(-6, 4)) == "-3/2"
    assert parse_q("7") == 7
    assert parse_q("-3/2") == Fraction(-3, 2)


def test_stratum_obj_formats_the_rationals_it_reads():
    # mu, gamma and epsilon, formatted from the integers, are qstr of the
    # Fractions; a zero genus puts its level at 0/1
    zeros = set()
    for triple in SWEEP_GRID + [(0, 0, 2), (0, 0, 3)]:
        cfg = CurveConfig(*triple)
        for s in enumerate_strata(cfg):
            obj = stratum_obj(cfg, s)
            assert obj["mu"] == [qstr(m) for m in s.witness_mu], triple
            assert (obj["gamma"], obj["epsilon"]) == (qstr(s.gamma), qstr(s.epsilon)), triple
            zeros.update(name for name in ("gamma", "epsilon") if obj[name] == "0/1")
    assert zeros == {"gamma", "epsilon"}


def test_numdata_command(capsys):
    code, out, _ = run_cli(capsys, ["numdata", "--mu", "1,2", "--upsilon", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["alpha"] == [1, 0]
    assert obj["I"] == ["p1"]
    assert obj["level"] == "1/1"


@pytest.mark.parametrize("upsilon", [10 ** 9, -7])
def test_numdata_far_targets_match_the_galloping_oracle(capsys, upsilon):
    from fractions import Fraction
    from time import perf_counter

    from oracles import galloping_breakpoint

    t0 = perf_counter()
    code, out, _ = run_cli(capsys, ["numdata", "--mu", "1/3,2/7,5/11", "--upsilon", str(upsilon)])
    assert code == 0 and perf_counter() - t0 < 1.0
    m, t = (77, 66, 105), 231  # mu cleared to integers
    c = galloping_breakpoint(m, upsilon)
    alpha = [c // mp for mp in m]
    assert json.loads(out) == {
        "labels": ["p1", "p2", "p3"],
        "alpha": alpha,
        "rho": [qstr(Fraction(mp * (a + 1) - c, t)) for mp, a in zip(m, alpha)],
        "I": [f"p{p + 1}" for p, mp in enumerate(m) if c % mp == 0],
        "level": qstr(Fraction(c, t)),
    }


def test_stratum_trivial(capsys):
    code, out, _ = run_cli(
        capsys, ["stratum", "--gx", "0", "--gy", "0", "--mu", "1,1,1"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["alpha"] == [0, 0, 0] and obj["beta"] == [0, 0, 0]
    assert obj["I"] == obj["J"] == ["p1", "p2", "p3"]
    assert obj["dim"] == 0


def test_enumerate_components_count(capsys):
    code, out, _ = run_cli(
        capsys, ["enumerate", "--gx", "2", "--gy", "4", "--delta", "3", "--format", "json"]
    )
    assert code == 0
    objs = json.loads(out)
    assert sum(1 for o in objs if o["dim"] == 2) == 25


def test_components_command(capsys):
    code, out, _ = run_cli(
        capsys, ["components", "--gx", "3", "--gy", "3", "--delta", "3"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 9
    assert obj["formulas"]["statement1_value"] == 9


def test_round_trip_keys(capsys):
    cfg = CurveConfig(g_x=2, g_y=4, delta=2)
    code, out, _ = run_cli(
        capsys, ["enumerate", "--gx", "2", "--gy", "4", "--delta", "2"]
    )
    assert code == 0
    objs = json.loads(out)
    expected = [stratum_key(cfg, s) for s in enumerate_strata(cfg)]
    rebuilt = [stratum_key_from_obj(cfg, o) for o in objs]
    assert rebuilt == expected


def test_model_command(capsys):
    code, out, _ = run_cli(
        capsys, ["model", "--gx", "1", "--gy", "2", "--mu", "2,3", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["total_degree"] == 2 * (1 + 2 + 2 - 1) - 2
    assert len(obj["components"]) == 2 + 1 + 2


def test_fan_svg_command(capsys):
    code, out, _ = run_cli(
        capsys, ["fan", "--gx", "2", "--gy", "4", "--delta", "2", "--format", "svg"]
    )
    assert code == 0
    marks = [
        el
        for el in ET.fromstring(out).iter()
        if "xmark" in el.attrib.get("class", "") or "starmark" in el.attrib.get("class", "")
    ]
    assert len(marks) == 6


def test_determinism(capsys):
    argv = ["enumerate", "--gx", "2", "--gy", "4", "--delta", "2"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_poset_dot(capsys):
    code, out, _ = run_cli(
        capsys, ["poset", "--gx", "1", "--gy", "1", "--delta", "2", "--format", "dot"]
    )
    assert code == 0
    assert out.startswith("digraph strata {")


def test_poset_dot_escapes_quotes_and_backslashes_in_labels(capsys):
    # a node label is one DOT double-quoted string: a quote or a backslash
    # in a node name is escaped, and unescaping gives the label back
    code, out, _ = run_cli(
        capsys,
        ["poset", "--gx", "2", "--gy", "4", "--delta", "2", "--format", "dot", "--labels", 'p"1,q\\2'],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph strata {" and lines[-1] == "}"
    node = re.compile(r'  s\d+ \[label="((?:[^"\\]|\\.)*)"\];')
    edge = re.compile(r"  s\d+ -> s\d+;")
    labels = []
    for line in lines[1:-1]:
        found = node.fullmatch(line)
        if found is None:
            assert edge.fullmatch(line), line
        else:
            labels.append(re.sub(r"\\(.)", r"\1", found.group(1)))
    assert labels and any('{p"1,q\\2}' in label for label in labels)
    assert len(labels) == len(set(labels))


def test_weierstrass_command(capsys):
    code, out, _ = run_cli(
        capsys, ["weierstrass", "--gx", "1", "--gy", "1", "--mu", "1,1"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["stratum_form"]["total"] == obj["expected_total"] == 24


def test_region_command(capsys):
    code, out, _ = run_cli(
        capsys, ["region", "--gx", "2", "--gy", "4", "--mu", "1,1"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["constraints"]


def test_orbit_closure_command(tmp_path, capsys):
    payload = {"basis": [["1", "0", "2", "3"], ["0", "1", "5", "7"]]}
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, ["orbit-closure", "--input", str(path), "--brute-force"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "single"
    assert obj["brute_force"]["all_sampled_in_predicted"]
    assert obj["brute_force"]["all_predicted_reached"]


def test_orbit_closure_pair_command(tmp_path, capsys):
    payload = {
        "V": {"basis": [["1", "1"]]},
        "W": {"basis": [["1", "2"]]},
        "I": ["p", "q"],
        "J": ["p", "q"],
        "alpha_tilde": 1,
        "beta_tilde": 2,
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, ["orbit-closure", "--input", str(path), "--brute-force"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "pair"
    assert obj["brute_force"]["all_sampled_in_predicted"]
    assert obj["brute_force"]["all_predicted_reached"]


def test_orbit_closure_of_a_point(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"basis": [], "ambient": 3}))
    code, out, _ = run_cli(capsys, ["orbit-closure", "--input", str(path), "--brute-force"])
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 0
    assert obj["fingerprints"] == [{"support": [[]], "invariants": []}]
    assert obj["brute_force"]["all_sampled_in_predicted"]
    assert obj["brute_force"]["all_predicted_reached"]


@pytest.mark.parametrize("flags", [[], ["--brute-force"]], ids=["plain", "brute-force"])
def test_orbit_closure_rejects_a_negative_ambient(tmp_path, capsys, flags):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"basis": [], "ambient": -2}))
    code, out, err = run_cli(capsys, ["orbit-closure", "--input", str(path), *flags])
    assert code == 3 and out == ""
    assert err == "error: the ambient size must be nonnegative, got -2\n"


@pytest.mark.parametrize("flags", [[], ["--brute-force"]], ids=["plain", "brute-force"])
def test_orbit_closure_rejects_a_huge_ambient_at_once(tmp_path, capsys, flags):
    from time import perf_counter

    path = tmp_path / "point.json"
    path.write_text(json.dumps({"basis": [], "ambient": 10 ** 9}))
    t0 = perf_counter()
    code, out, err = run_cli(capsys, ["orbit-closure", "--input", str(path), *flags])
    assert code == 3 and out == "" and perf_counter() - t0 < 1.0
    assert err.startswith("error: desk-scale guard: ambient 1000000000 > 6")


def test_zero_denominator_in_mu(capsys):
    code, out, err = run_cli(capsys, ["stratum", "--gx", "2", "--gy", "2", "--mu", "1/0,1"])
    assert code == 3 and out == ""
    assert err == "error: zero denominator in '1/0'\n"


def test_zero_denominator_in_basis(tmp_path, capsys):
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps({"basis": [["1/0", "1"]]}))
    code, out, err = run_cli(capsys, ["orbit-closure", "--input", str(path)])
    assert code == 3 and out == ""
    assert err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize(
    "payload",
    [
        {"basis": 5},
        [1, 2],
        {"basis": [[1, 0, 2, 3], [0, 1, 5, 7]]},
        {"V": {"basis": [["1", "1"]]}, "W": 3, "I": ["p", "q"], "J": ["p", "q"]},
    ],
)
def test_orbit_closure_rejects_malformed_payload(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, ["orbit-closure", "--input", str(path)])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# sha256 of the stdout of enumerate (json), poset (json, dot), components,
# fan (json, svg; delta 2 and 3 only) and region (at GOLDEN_MU).  enumerate
# pins the representative witnesses as well as the keys.
GOLDEN = {
    (2, 4, 3): (
        "a2ff6e2e00c3ce4015453aeb98ef89209fab9f7cee4940c3d3df390632bcc568",
        "cd718c33ca88bdfde3c7f52ae878a97687a29e0beada083e0088ba3928433fb2",
        "4a40e7928b1eec6a4e477c21510a8bf57a2f6bcb9f87ffbd44deb91f80a2efed",
        "cf35998d184ebae9c275ffa4d360d8da8e7e5c9d3d7733fe0509b3f6919e3090",
        "d3070be0a62476a9e1dc0d95de7c52aa490c06450ad57226f71ae37b2776cb31",
        "fca224ab676601b09c2f0b192e0e94cce622184bea2df55271cee02a260953e2",
        "7666505ebafa2e52df0f7875ecfbd5c9ae42ca8b69dd55bb37654223f358649b",
    ),
    (3, 3, 3): (
        "41c302d6e89ec8025c9e4cbc8c048b30ae23a9fc9be2c63c175f8ab14f5aa95a",
        "08aa4efd921734ef16ad4e4698e6defebbfe1514a6012fca5c8487b34db691ac",
        "7a8273e0c9700d98a1edfdf161a95c749a15ec93d7c32cade9b5d6ad5aa1bc6a",
        "f91a269a87b3f06f989237f361a806efcf184d034e14fd78bdfdc10a8a12f508",
        "c92c236a2b222c6c239d916f2d2f60da875ca2b4254a6367064d7b6d2294f4e7",
        "044acc14b7190520c3a5df487aef3c41fa8a3adafcdc637d683a91da96bb4802",
        "86b754ddb8c72f46ca1fdbce5077f06046eef6ed77b7ca28b71a3c21a47b1a84",
    ),
    (0, 5, 3): (
        "3840d84ff99b544bee7012c6a0e0d452e4e9100985838654586a6819e6ea85e2",
        "28313f12a29fa3ef57a3f6d73c3986593b9a53d631640a67d320ac88ab58a19a",
        "32ca978600d6c2220a04d121a1594bba740d4685bb095c1268030d1e3f64a571",
        "bf2b34619d19186c29e2dd79e735f16d20410fe2e0531acc6d9f16bf14aa5926",
        "71885b348dbf2130a33b4cbb9826206fee61ebcd6d974a5bd73e885a1db4fca5",
        "0f6321a50780f8d8c7176c359d43c5be6949ca233c80d1f7541c15593122c6fa",
        "1ec4c19b0431c0f5105f1e89cfe66e9d434446c7db9e95444ad019532b7a2e58",
    ),
    (1, 3, 2): (
        "7a140c61a07ea29e26ce0397be444afb6f3c0875fd52bc1e58bbe595d4c48d98",
        "33decd0f42b417a1efda7b340b2d5e30ed1ffd8e5769a7bade664328d64d03f6",
        "4ae0d4aeeca6bdcca9b6619f9c22df93ba23fe14fffd0410e48283749f3aea49",
        "57bd86418c7d55a3847cbd7a0957eef767fb8bde9fc465513f75f24e26aa1e1c",
        "d835cdd4f9c801506720ba17c1814d9e65fcae8a52e6d2968b4ab8f8a7430693",
        "f09b05ec82ea6b5c3e49ba10543d12948dac4394f0debed284c5b5bf37cac808",
        "81b1cbc83af28f5bf4e355a35fe4b3c7d6d7706d27c4268068a9d6dc5f61d70d",
    ),
    (1, 3, 4): (
        "901676b53ce0dfca6156e5f3df0bec71cf0112b819fbbe2d7a01cf87e4fb6274",
        "cf803efbf13682add1819e1a090e51ad6242de1aa78784745a2106d279af0540",
        "17dcf78b1082e232dad2b7a0e8549e649b3a30ec4828c1ad7a7143e22c538355",
        "5d8472a562f1e70abee75bdbd67db1fd99bdf504a32e413076aa0261b78d40eb",
        "8c1c73f21db2e3ae93737fcd6f040a3af13b39bab988e75de26a6f7546ec2209",
    ),
    (4, 0, 4): (
        "ec3ea40cf07bd1a47627130864f0b3225da6124f3228d88f6b42e4b08c98ee8c",
        "e3c11354e9163760d0dad86f3c9ba9a4d672fc4ced77cea97d729914fe59a078",
        "5abaf1f5c478a472574af08906428a3e3b42ea540f4e0b03adbcb043611ebcab",
        "a1dd1305c0042721c4e53060eea0897f3c042296c27a437cc5d50f1b99f9fd50",
        "306c839bf18d64976ef03ad015406d79f32c9af9fb922d6d6a9555311e27cc84",
    ),
    (4, 4, 4): (
        "50c15052ffbfe510d9bd728b57cdb3cf0ac1fd3afe54b4cee208b7a879dc0475",
        "a9c0431c667da5f1edf12bbb73b4c5d4496a946d95c1631c07772ad42f4c6b9b",
        "610cde7e566530f2f3431aa8c2b461e72b6a0d8bbc4210ee3bdf2222f4b1e5ff",
        "e79f4bf14430c65bcc9516231a1788e5fc22c3e926ffc0e64919856e0842e57d",
        "a7865eb1c9ef8abc2c51412c8537ddbc517e6f7807b5f1b2f8ceb4c3a199387e",
    ),
    (3, 5, 4): (
        "7ceb337e1410ee018a182c63551143ae8ad663353cb4ee7a4a726922905467d2",
        "23aceb896a47d5d3905dd6023edbf6a51527a99b911f663a7322ec32def1348d",
        "f170aef235b2a3d5013106660b99de20c0fbf09ba2e9010c09d36a7c173eaa63",
        "683743505ce6f466413d1110f09abdb459b7661d7c379e484719b284f5af811b",
        "c13a260611c48f6d95623cd50393c1a96a52c73a9d2f8aa1566721619b1c51bd",
    ),
}


GOLDEN_MU = {2: "2,3", 3: "2,3,5", 4: "2,3,5,7"}


@pytest.mark.parametrize("triple", sorted(GOLDEN))
def test_golden_outputs(capsys, triple):
    g_x, g_y, delta = triple
    base = ["--gx", str(g_x), "--gy", str(g_y), "--delta", str(delta)]
    commands = [
        ["enumerate", *base, "--format", "json"],
        ["poset", *base, "--format", "json"],
        ["poset", *base, "--format", "dot"],
        ["components", *base],
    ]
    if delta in (2, 3):
        commands += [["fan", *base, "--format", "json"], ["fan", *base, "--format", "svg"]]
    commands.append(["region", "--gx", str(g_x), "--gy", str(g_y), "--mu", GOLDEN_MU[delta]])
    assert len(commands) == len(GOLDEN[triple])
    for argv, digest in zip(commands, GOLDEN[triple]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

# sha256 of the stdout of numdata (json, text; upsilon = g_Y), stratum,
# model (json, text) and weierstrass at GOLDEN_MU, for the same configs.
GOLDEN_POINT = {
    (1, 3, 2): (
        "2457ec9ac83e57199c28ce6bbb25975fdb8b823549342cc7735250f80c045995",
        "6e5b9910530cee341aa827aca9cf9f68c2398544d405cbc2cc0b04285745cad0",
        "039a3bebd4be6eb9c0064cb21e350badab95adddc8ec7964de5c042f5b341cdb",
        "b7bb415c6f7cce546372594c3f398ab2e01190a86c7cdb5df69ea9fa734813f0",
        "9c257fbd8181a02d7da02cdf10f8a800c80d20a2a00cac651cee19d975c954fe",
        "06adf090a9fb615d7d0d5120f72e7ecbd6448da946531c5135ecf52ca34e938f",
    ),
    (1, 3, 4): (
        "75b0638969308bbaa432393e37e193a924c33dc3eb73009ac26da10214290930",
        "7d77c832e7ee62e007b333e4c291e804ee003e5314e4f014d5f88fd3ed1f538e",
        "bf50f9ccd46503b1fbb059c38ff2e8565f9fe2a46059fea30d070b5fd241d670",
        "9885ca04db55f78c5476e26ce96fdcc540dd6a5f9f823055719432f939deefce",
        "4cf9b6c10ba952a1b4d261284dd15c33039e8db75ef3abd6a3d328e2640a32b3",
        "f450e586b67fa6bbf272cdf5f2e4a042fcfebc7744c7830ad4b9723afd931424",
    ),
    (0, 5, 3): (
        "5a4043b9e7479e713bd0ada9529a091372d1147a986e41c302e10f7a4bd5aee4",
        "3aeed6c8fba9f9c0a9ffc210688b4b5dffab8f32828c858b88629440869dff2a",
        "4ea5349f1df80a9d83dc279af723a1bb756b114f0a7fea24e0ffff05e34041f4",
        "82c2a74b68fee1fcd6223dbfcfee219c3b3d55761e9e1d90d36815bd6623fdba",
        "3a380f843ecb1f9baae3610988a47859ac2199fee5a0ccbf538070d1008ba276",
        "4c0470c8b8b89ff2f00131fcebf0fa19b40a3b31226c366f0f2abf903dd817cb",
    ),
    (2, 4, 3): (
        "be0191e6e0b7ca27ae7b6336657afb1c5a1f56390e9a3e323e86e86c392cb463",
        "cff2f15640b789835aaa5a07bec97a7e5ab6f64fa890abccbc76308defe51859",
        "fa6edfd3023d30ead134fd11d9a90d48c19d5d2313aa5f6588c3cde0a7e5012f",
        "361a246aba6157b485a74cde046d05d15d95ddec36796a043b259a29984d1298",
        "cc42ce19106368a621540b7f6ee62e49ec522696169e290151e8cf28b247ac2f",
        "5074466549e6782bd64cf8c3a2458432007a8ef91008d8a01fe985a44c1b4e28",
    ),
    (3, 3, 3): (
        "4f041d165888434527de2d3d4ba0413c85ee5396bd40c10a50e7c234d8e1a6ab",
        "9c3a77d15f9b780da04cc92e46cb338e0594e6af5fcba173c50467bfa351e12d",
        "b06816c1442b384a31ed2dc55b545bc2008d97f9c78ccc5de7cf63f3b318d419",
        "f6b7410c158e85b8bc1ee5d5a7a8947a18fa6bbde6f929d750e15918f04c4b16",
        "93451f729b2aab63c5046a02aaba614296e6d12022835e7a5e185153560d8f6e",
        "b9b303ca4459e31861d02829ad77ec078820a8807890d1d3c80473ff89fe3b79",
    ),
    (4, 0, 4): (
        "1c4ab14652f383feecd2bc41f42e801c9f4ab3d280221ef19fd059a26d0ee947",
        "9d2131f3476b181787db95db604ad7dd9227dc5d3f986c8f089d66b45a3bb017",
        "d2f16484a549b8a01e246a4877f699ada6ff91ec5423eeb66d7932498d307a36",
        "09554058cbb9b08787a2dfa6fabd39e278859aa67329083fe4254679e7d63164",
        "cd57a2c21ad1d173e14a9d0d8cc3ed8f0158dcd8a060f7d0597f984f7f688231",
        "1fdcbe8a0115fb74439689662803945a7d9f9c31b21f44d7e70e36282abeeafe",
    ),
}


@pytest.mark.parametrize("triple", sorted(GOLDEN_POINT))
def test_golden_point_outputs(capsys, triple):
    g_x, g_y, delta = triple
    mu = GOLDEN_MU[delta]
    genera = ["--gx", str(g_x), "--gy", str(g_y)]
    commands = [
        ["numdata", "--mu", mu, "--upsilon", str(g_y), "--format", "json"],
        ["numdata", "--mu", mu, "--upsilon", str(g_y), "--format", "text"],
        ["stratum", *genera, "--mu", mu],
        ["model", *genera, "--mu", mu, "--format", "json"],
        ["model", *genera, "--mu", mu, "--format", "text"],
        ["weierstrass", *genera, "--mu", mu],
    ]
    assert len(commands) == len(GOLDEN_POINT[triple])
    for argv, digest in zip(commands, GOLDEN_POINT[triple]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of `orbit-closure --brute-force` on the README's single subspace
# and on a coupled pair sharing two nodes.
GOLDEN_ORBIT = {
    "single": (
        {"basis": [["1", "0", "2", "3"], ["0", "1", "5", "7"]]},
        "b1624f7ddb33dc89330cafc0504ac938e7dd9d88b4934cc698ff8c6e4eac35fc",
    ),
    "pair": (
        {
            "V": {"basis": [["1", "2", "-1"], ["0", "3", "4"]]},
            "W": {"basis": [["2", "-3"]]},
            "I": ["p", "q", "r"],
            "J": ["q", "r"],
            "alpha_tilde": 2,
            "beta_tilde": 1,
        },
        "5c638af03c0e02abc545cd82749e2cabce08e0c51f75b8304e68e235a3cc7e4a",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ORBIT))
def test_golden_orbit_closure(tmp_path, capsys, name):
    payload, digest = GOLDEN_ORBIT[name]
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["orbit-closure", "--input", str(path), "--brute-force"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

# sha256 of `orbit-closure --brute-force` on a general 3-space of k^6 (the
# costliest closure shape; bound 1 keeps the walk at 3^6 vectors) and on a
# coupled pair sharing all three nodes.
GOLDEN_ORBIT_MORE = {
    "general_k6_dim3": (
        {"basis": [["1", "0", "0", "1", "2", "3"], ["0", "1", "0", "4", "-1", "5"], ["0", "0", "1", "2", "7", "-3"]]},
        ["--bound", "1"],
        "45b8fd3386abf1dee88be1c74027c7d77e395f1ee66e7a962ecc908163889cfc",
    ),
    "pair_three_shared": (
        {
            "V": {"basis": [["1", "2", "-1"], ["0", "3", "4"]]},
            "W": {"basis": [["2", "-3", "5"]]},
            "I": ["p", "q", "r"],
            "J": ["p", "q", "r"],
            "alpha_tilde": 2,
            "beta_tilde": 3,
        },
        [],
        "b7406f6481a734e4659e2aaa5d883604c3b6272d66cc29ee0a9dbc66d6a6dfb3",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ORBIT_MORE))
def test_golden_orbit_closure_more(tmp_path, capsys, name):
    payload, flags, digest = GOLDEN_ORBIT_MORE[name]
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["orbit-closure", "--input", str(path), "--brute-force", *flags])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_exit_code_flag_error():
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--gx", "2"])
    assert err.value.code == 2


def test_exit_code_math_error(capsys):
    code, _, err = run_cli(capsys, ["stratum", "--gx", "1", "--gy", "1", "--mu", "0,1"])
    assert code == 3 and "error" in err
    code, _, err = run_cli(capsys, ["fan", "--gx", "1", "--gy", "1", "--delta", "4"])
    assert code == 3


def test_exit_code_cap(capsys):
    code, _, err = run_cli(
        capsys,
        ["enumerate", "--gx", "2", "--gy", "4", "--delta", "3", "--cap", "5"],
    )
    assert code == 4


def test_exit_code_internal_check(capsys, monkeypatch):
    # a witness that fails its level check is an internal fault: exit 5, one line
    monkeypatch.setattr(strata, "_at_levels", lambda *args: False)
    code, out, err = run_cli(capsys, ["enumerate", "--gx", "2", "--gy", "4", "--delta", "3"])
    assert code == 5 and out == ""
    assert err.startswith("error: internal check failed: witness ") and err.count("\n") == 1


def test_exit_code_internal_check_pair_closure(tmp_path, capsys, monkeypatch):
    # the brute-force pair sampler's coupling-case check is internal too
    def no_case(*args):
        raise AssertionError("support pair matches none of the coupling cases")

    monkeypatch.setattr(grassmann, "_pair_recipe_cochar", no_case)
    payload = {
        "V": {"basis": [["1", "1"]]},
        "W": {"basis": [["1", "2"]]},
        "I": ["p", "q"],
        "J": ["p", "q"],
        "alpha_tilde": 1,
        "beta_tilde": 2,
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, ["orbit-closure", "--input", str(path), "--brute-force"])
    assert code == 5 and out == ""
    assert err == "error: internal check failed: support pair matches none of the coupling cases\n"


@pytest.mark.parametrize("command", ["enumerate", "poset", "components"])
def test_negative_cap_is_flag_error(capsys, command):
    argv = [command, "--gx", "2", "--gy", "4", "--delta", "3", "--cap", "-3"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --cap ") and err.count("\n") == 1


def test_negative_bound_is_flag_error(tmp_path, capsys):
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps({"basis": [["1", "0", "2", "3"], ["0", "1", "5", "7"]]}))
    argv = ["orbit-closure", "--input", str(path), "--brute-force", "--bound", "-1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --bound ") and err.count("\n") == 1


# a line in k^6: --bound 3 walks 7^6 exponent vectors, --bound 5 would walk
# 11^6, past the 10^6 limit; the digest is that of the bound-3 output
LINE_K6 = {"basis": [["1", "2", "3", "4", "5", "6"]]}
LINE_K6_BOUND3 = "f5ceff0fe48562775c13439a582ab8ddbbec674c5625bd40330ef8565c3aac76"


def test_oversized_bound_is_flag_error(tmp_path, capsys):
    from time import perf_counter

    path = tmp_path / "line.json"
    path.write_text(json.dumps(LINE_K6))
    argv = ["orbit-closure", "--input", str(path), "--brute-force", "--bound", "5"]
    t0 = perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: --bound ") and err.count("\n") == 1


def test_bound_within_walk_limit_is_walked(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(LINE_K6))
    argv = ["orbit-closure", "--input", str(path), "--brute-force", "--bound", "3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LINE_K6_BOUND3


def test_text_formats(capsys):
    code, out, _ = run_cli(
        capsys, ["model", "--gx", "1", "--gy", "2", "--mu", "2,3", "--format", "text"]
    )
    assert code == 0 and "intersection matrix" in out
    code, out, _ = run_cli(
        capsys,
        ["components", "--gx", "2", "--gy", "4", "--delta", "2", "--format", "text"],
    )
    assert code == 0 and "components: 6" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys,
        ["stratum", "--gx", "0", "--gy", "0", "--mu", "1,1", "--output", str(target)],
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["alpha"] == [0, 0]


@pytest.mark.parametrize("case", ["missing input", "input is a directory", "output dir missing"])
def test_unopenable_file_exits_2(tmp_path, capsys, case):
    if case == "missing input":
        argv = ["orbit-closure", "--input", str(tmp_path / "missing.json")]
    elif case == "input is a directory":
        argv = ["orbit-closure", "--input", str(tmp_path)]
    else:
        target = tmp_path / "missing" / "out.json"
        argv = ["stratum", "--gx", "0", "--gy", "0", "--mu", "1,1", "--output", str(target)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: can't open ") and err.count("\n") == 1


def test_python_m_entry_point(capsys):
    src = str(Path(limitcanon.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "limitcanon", *argv], capture_output=True, text=True, env=env, timeout=60
        )

    assert run("--help").returncode == 0
    argv = ["enumerate", "--gx", "1", "--gy", "1", "--delta", "2"]
    done = run(*argv)
    assert done.returncode == 0
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and done.stdout == out
