"""Byte-identity pins for the orderings and the assembly trees built on them.

The analysis chain (ordering → elimination tree → supernodes → amalgamation)
fixes the tree topology every simulation runs on, so any change to its tie
order silently changes every downstream number.  These pins hold the sha256
of each permutation and of each tree's ``npiv``/``nfront``/``parent`` for
every paper problem × ordering at scale 0.2, plus a few non-default
parameterisations, and of two problems × the four paper orderings at scale
1.0, the size ``repro tables`` runs (whole-graph AMD/AMF on n ≈ 4–5k, and
deeper dissection recursions for METIS/PORD).  A failing pin means the algorithm's output changed: fix
the algorithm, never the pin.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments.problems import get_problem
from repro.ordering import compute_ordering
from repro.symbolic import build_assembly_tree

SCALE = 0.2
PROBLEMS = ("BMWCRA_1", "GUPTA3", "MSDOOR", "SHIP_003", "PRE2", "TWOTONE", "ULTRASOUND3", "XENON2")
ORDERINGS = ("metis", "amd", "amf", "pord")
EXTRA_ORDERINGS = ("rcm", "amd(seed=3)", "amf(seed=5)", "metis(leaf_method=fill)", "pord(nd_levels=2)")
EXTRA_PROBLEMS = ("TWOTONE", "XENON2")
FULL_SCALE = 1.0
FULL_SCALE_PROBLEMS = ("BMWCRA_1", "PRE2")

#: case -> (permutation sha256, tree sha256)
PINS: dict[str, tuple[str, str]] = {
    "BMWCRA_1/metis": (
        "a4573e95276bc444c16aa2804bd8ee58415e688dba7d381170a6b062697faef9",
        "9049258f2ed6a33284fecaf0754a0e1455f494c426e80d5cef5d9a2db3282fa1",
    ),
    "BMWCRA_1/amd": (
        "2d5a19a4fb4449b76fa86ca7351fd82e576e9480c561e28ba35d270ca6843d2d",
        "25a22c0cae2f5c940fd8bcbe991e6c9a0d25f86f06330fe9ab9c2a37ca4f9359",
    ),
    "BMWCRA_1/amf": (
        "dc7944372765d037bbcef5ee03850c034b3c3d036642def6cefa1d41cf7db520",
        "86676d033add87e5ed957a53a291eb7f3013d776b808318db190fd186e712cb7",
    ),
    "BMWCRA_1/pord": (
        "ab8e3173372eda4edde582c41349115c34765c23dd07a71b1bf1a8619ff2a6fd",
        "3d76a5a23f2253ea7ab094409f709c3cdfed9e08ad074af378be520cdf44d547",
    ),
    "GUPTA3/metis": (
        "7fd2fadf9f29ef6c3a4cfb3d4a9f499ed7a2d40952dca0ed78af0a402a7447ae",
        "2ad8c15cfadd7347afd12b1ee34fe5d457b5fd134c0257e8cba3b6877cac7f5f",
    ),
    "GUPTA3/amd": (
        "97a056e78e9db0ecb03be0c857704480a7776edd2700a8e0226ed7ede7c47430",
        "fba5137c8c3de8c7a62a8b23869ebd9d96991c90219858b6072766f7c3d9eb38",
    ),
    "GUPTA3/amf": (
        "a5483a550a99f251722563475f73d44939febf047e0083080e2c307f4f57a4ab",
        "f8deda515aac4b09f033e3539f0766dea46828d25afe5eef1c4ca7b587afe98d",
    ),
    "GUPTA3/pord": (
        "4e2b4bb435f3403dc4028a20544e39e3cd7fd95f341d8cce33ec7d36d0ae18ce",
        "90ed00e6147b982a8de1e0ea3e24a5057e5c826a5ed9b09eafd19d09408df088",
    ),
    "MSDOOR/metis": (
        "cb8437b20f58a9bc4e8d013666736aed61cab87542a4ad3f0c4d90b9a8f4fe42",
        "a4d7233b5ba400d95f928a64c4b8261c5c348a1624098b7dd2a8035372dc8530",
    ),
    "MSDOOR/amd": (
        "d7553a0395cdf1b8fd5743fa7c3bf69af16fa0a0385aa4172fabe048c608cbd1",
        "ab8b191742bd315b37c5f0f8d90f41134d151edfa11c82f7ee214f326cb19ae6",
    ),
    "MSDOOR/amf": (
        "888d114aec5aa7d4173459a3737a38201c21939fd8c0c597f0ac99da44a9aa25",
        "e7f898e139ced821736bb457963354d31a9a91d652f434e7c9fb222e0207d3de",
    ),
    "MSDOOR/pord": (
        "55fc11dace61bdd16dcd6cb4749bf096c43c0667914dcf0f1b1225e6dca7fd27",
        "7fee45de4f2dc3c7d0ee3cfb19daabf1e686454532474a91ec245b4f754f3265",
    ),
    "SHIP_003/metis": (
        "d31feceb0b1185e68357baceda0bf4e55007aa950fd839bcee2bf4cd0a4c6ac4",
        "711a606b473a65c461924d4c6e470d7a1163b71d116c7b52a4cc147652395729",
    ),
    "SHIP_003/amd": (
        "2379a3abe2c55e4ff12f5f3dc02a8710ea6f49fec5a55f922028a12d21b04e76",
        "e10a0925b32c014e8eb0fb03ffde82ff2254789aa1b0a88bd68ac3194f3ad117",
    ),
    "SHIP_003/amf": (
        "79fcf06c812173230ad6095e3ecb8cb44bacdd7c6a9f016eb280ae3fb1440be4",
        "025e6c91bcc4dc3ac88e14dff6e95f987374c5f37a354d46c191316098ac9e90",
    ),
    "SHIP_003/pord": (
        "9a6bc3f95e81cd6f1d3b050234acd0eecb2b2b2f367677e3b76c512972e0927a",
        "c98ddad2c66ee40809d52f96158fead006f1a958069aa6fe7d2c2d1450c140b6",
    ),
    "PRE2/metis": (
        "b180b06f19550d8fa936d344dd5cc6ef3146fceefddd6e9f7d209bedccdd82ff",
        "467fe27545c420293067b2955141d904e3a8ea2884e74a6fabb5d57a8a9e6ff5",
    ),
    "PRE2/amd": (
        "bc10b80e19946ef80450a49697f70e1f696f48ff3ff71e462673b23e3a78e9e3",
        "0856b9452ed2179e1a1b60637f566e1bff680a9abdec2b57218b88c0d601bf4a",
    ),
    "PRE2/amf": (
        "a8658db5f155e7e353daa7cf6a6f23d1eaeb3594f771530729ff2f359d70f17c",
        "b6bff8f7065f7977acf23b2fe934dad88a3c58bfe9d2a1d20b0e2dbe8d7191e2",
    ),
    "PRE2/pord": (
        "1bfcd91dfc10cb98f703adabe7cda5f23b97ea04f470c374bb48103c457d2730",
        "8582ae40ab1c519d496a840c84ccf1e3f44f63d09998cf5be174bb323857073e",
    ),
    "TWOTONE/metis": (
        "aa89ecfca54da996cabb51f2c25e1cc2d26104a6aeb86147d816d6f41a487916",
        "ead6b47f4ff5ba8b98b3fc815b572a7a4b3f957e8f94b3756655634746b00585",
    ),
    "TWOTONE/amd": (
        "28369543181006bd7fa01c8f76b2b09dcd9c8060ae13a3d7d1b16f575c46e0cf",
        "ff2314f7d86d834d01039413cf0fc443e33711298e10f125ab803a834b6de915",
    ),
    "TWOTONE/amf": (
        "12e9635c28259e45ace94fe88133975f572f17e8e52eacbdb4635d8a8444b31f",
        "8a614d591c84936929b06adf90c545248d4615770bb11d4d6357d8e590a980a6",
    ),
    "TWOTONE/pord": (
        "3f78f309c162285a4fcc6059d5bbe8c5b5a01ace8cc96447318187e037f14cd4",
        "eb5820ff78eb0276f385aa8e3e7bf9c6b73cd0d241655e1e7b6a43effaf9be3f",
    ),
    "ULTRASOUND3/metis": (
        "feb896aa9ce013c0cdc8e4f6c66612ee6064cbf43e046791558d99ce9127ada0",
        "bcbaf6d66e13918013c4079e4b2c6a95b9d7d742d81dfa8bbf5bd7557affea01",
    ),
    "ULTRASOUND3/amd": (
        "6126ecff934f7d56cf21498d16e7f7e3e6c6d453c2f6b2cf61ad671467fcd3c0",
        "eb9bf27a8a1eaa9101e89f7014967dffc9c049d2b6ff6de9ff94cbe85521c44a",
    ),
    "ULTRASOUND3/amf": (
        "4b431b0c3ab098bf81c27a911cb180674d17340d48363d8c493dff0d909a5bf1",
        "c7f460ad3f2393c6c86b24be03785d014d07f9479b3aaca67af4de2d7de70a45",
    ),
    "ULTRASOUND3/pord": (
        "611ca67f489291fcdd5ba01634bfdfae6f2fa0a8756d6407ae79c92c4869a556",
        "8a1aae315921bde052ce8c290400478e02921d29af1c0e411b1cc97099aa203c",
    ),
    "XENON2/metis": (
        "0b2855bfa5e62b81cc9de304199c7099e1070d7122578eca5c194eff4d963042",
        "d53105a693919c74e063f2abee0c1a29b183c7e3fc472868b9be37ff35b3d8d9",
    ),
    "XENON2/amd": (
        "2fee03639f37c707c6057e68351fa37757211a4d1c76d7040af00ac0574bea41",
        "ba8f76b8a671a4258cd1905f7789d3e8e5a5ada4301f4df9f53823e8b61b3a75",
    ),
    "XENON2/amf": (
        "d0dc95790e58119c611e9cace6f36ec913e82998cb21275ff26a2b9d1936325b",
        "bdfab0d00209df5230ba1a91b4fee90bbbc9ea99883c7dcf3c02f3845b044173",
    ),
    "XENON2/pord": (
        "67cabf7cc1b02059b79874de81fd59cda271a20156897e0533cdbc509d80be2b",
        "2db20449c40906190046925e2937870df2ac8e186583a4c085af668574e52617",
    ),
    "TWOTONE/rcm": (
        "1069ded53de1a9a492f469fd4078bedcb73a077ac06a0af0ceb5473a6bc0f0b2",
        "120650b84e0450cba9a1de61e6f2cf35144e7c7e2a14efa162468ada087cf2c2",
    ),
    "TWOTONE/amd(seed=3)": (
        "efffb16da13ec4bf91707c0dffea3e622c9096f83277390891ab0fb02234307b",
        "f64b587e0860f6a52b81a67c8886b9901010a769cf123b7711052b876652abab",
    ),
    "TWOTONE/amf(seed=5)": (
        "3af7806fcb21fa43d88fa0e8eda3bf16fb7c2c5bf1740d5137096a2f0358377c",
        "4213fa4cdaa96cefb5b032fdf16850ce8354f42ebf02daf0319a28c5ffa496cd",
    ),
    "TWOTONE/metis(leaf_method=fill)": (
        "260fb828a4cedc12e500b2f137a6d57fa4d2c60df844b98317345d982cc82fa3",
        "6f3db11f2069e840d2b29a1ed62a89d7ba86cd52fec2c1a17236693ba145195f",
    ),
    "TWOTONE/pord(nd_levels=2)": (
        "6a1a9bb9ea0b3e7db96d4646e169daba85aa8780a5b2ab780cb3de1b3f7ba00c",
        "db44763442807d2d90a82c28a95e76fd31d1ce846501f62c0011e1c140bbf534",
    ),
    "XENON2/rcm": (
        "027908989730c15551f4379bf2e2a378f4c1df19b89e57b236a72f29167a420b",
        "0b147704b8a0c2df497cfbec729816999add9f582f4cb34d6cba59b41b10d8ed",
    ),
    "XENON2/amd(seed=3)": (
        "fa0a1d9d0e80ece89e8e764953d76b615880a5c3b0420a5179ed1f49b5b3b882",
        "6b3469a11af275b9e7f735729c058272c98cb644fbc7fe52555320141e75b69a",
    ),
    "XENON2/amf(seed=5)": (
        "696977bf914c021fa18e8527f84e2ff28c8a4251b942fef293c7a50bacd1a40b",
        "65c6bf08d12469613b3ee06c637677273240869c47d80d37a3f79cba0ae0cfae",
    ),
    "XENON2/metis(leaf_method=fill)": (
        "5fb1853f0583c8199b5f117cc24763acda4aa3988520bfbd268b6794cdb4af5c",
        "0d480317f8940bd99e7208faafdeaee4757a56e5ee536d84ea5b1314f62be507",
    ),
    "XENON2/pord(nd_levels=2)": (
        "f050ca066e7748a1f2d098fa0f143b3ec33e6bd2d5e6c92f067221f88aa32344",
        "5a6d9ea8a032b37ec4b7cc9ad433c2d7bbab703b932d9ef9f5f3cd465ccce390",
    ),
}

#: scale-1.0 case -> (permutation sha256, tree sha256)
PINS_FULL_SCALE: dict[str, tuple[str, str]] = {
    "BMWCRA_1/metis": (
        "7ddba31f69951e90231a1e35cd7e834b18fb120d417ea8ee197fd4b9435f2b6f",
        "62a5d508092ed57c407bafb2e87b4b0a57d98048be1d2dc475c2f82e14c362f5",
    ),
    "BMWCRA_1/amd": (
        "ca7a958dcba37dc60bcbe3e8e850386bea2493bd7829649092c95c8735cc7dad",
        "a9bb79971cea0a9b655a4d3bc59d6b2903fb698bd1d1c25c564419bc203b2f16",
    ),
    "BMWCRA_1/amf": (
        "cdf9b7b22f7245d372e36983221cc56e7cafa9257c565fea6b4d37cb224fc100",
        "663277d8ead0b57f634775a54f735e26ac0046c092e1bc4c285049b6ca261351",
    ),
    "BMWCRA_1/pord": (
        "db0a4db36effd1ad81ff0efb8b1fc8d384556a42af619f4a14ba80f5b387f863",
        "9816f7079cf55fdbe3ea9d27e00aa587d37a947c8dbb70c1867c2e6e1b29908f",
    ),
    "PRE2/metis": (
        "4dfdd42e53b73fd88d6fb9071a42b55b55bbcfcf2a181af0cfe1d1f3c67cbfe9",
        "e95f888c036e476e9b6a02610e6bfe61a73de51b7cb0ce29d30df1fbc3b72d0b",
    ),
    "PRE2/amd": (
        "a9fd52f0e6c39f588ff93d158ab0f65d8a57974fb6960920b0ee39be0add3180",
        "3ec414cce594fa19dffdb3194e7942dfa99bfab85754ac5b372265cac535ab14",
    ),
    "PRE2/amf": (
        "485ae3ac213ec4933ffdea536d2607fd2c14fec13479f5bba7886fd9b4b7f7c8",
        "ec96b0f55657db1e3aee19ad65cfd87e55b71e799c77e8f1cdf199253899c5f3",
    ),
    "PRE2/pord": (
        "97116f8c14fa94d8f9e8171d27db92d51e661d6a49460a86acaf70ea18c82364",
        "5d7742cd0863f531edf434aef13926f88263d4539a00af85f074b4735fd190a8",
    ),
}

_patterns: dict[tuple[str, float], object] = {}


def _pattern(problem: str, scale: float):
    if (problem, scale) not in _patterns:
        _patterns[problem, scale] = get_problem(problem).build(scale)
    return _patterns[problem, scale]


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


def fingerprint(problem: str, ordering: str, scale: float = SCALE) -> tuple[str, str]:
    """(permutation digest, tree digest) of one case, with the pipeline's tree parameters."""
    pattern = _pattern(problem, scale)
    perm = compute_ordering(pattern, ordering)
    tree = build_assembly_tree(
        pattern, perm, amalgamation_min_pivots=4, amalgamation_relax=0.15, keep_variables=False
    )
    return _digest(perm), _digest(tree.npiv, tree.nfront, tree.parent)


CASES = [f"{p}/{o}" for p in PROBLEMS for o in ORDERINGS] + [
    f"{p}/{o}" for p in EXTRA_PROBLEMS for o in EXTRA_ORDERINGS
]

FULL_SCALE_CASES = [f"{p}/{o}" for p in FULL_SCALE_PROBLEMS for o in ORDERINGS]


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)
    assert sorted(PINS_FULL_SCALE) == sorted(FULL_SCALE_CASES)


@pytest.mark.parametrize("case", CASES)
def test_pinned(case):
    problem, ordering = case.split("/", 1)
    perm_sha, tree_sha = fingerprint(problem, ordering)
    assert perm_sha == PINS[case][0], "permutation changed"
    assert tree_sha == PINS[case][1], "assembly tree changed"


@pytest.mark.parametrize("case", FULL_SCALE_CASES)
def test_pinned_full_scale(case):
    problem, ordering = case.split("/", 1)
    perm_sha, tree_sha = fingerprint(problem, ordering, FULL_SCALE)
    assert perm_sha == PINS_FULL_SCALE[case][0], "permutation changed"
    assert tree_sha == PINS_FULL_SCALE[case][1], "assembly tree changed"
