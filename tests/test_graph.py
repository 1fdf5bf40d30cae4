import hashlib
import json

import pytest
from helpers import reference_generate_er
from hypothesis import given, settings
from hypothesis import strategies as st

from qkmp.graph import (
    CONNECTIVITY_RETRY_LIMIT,
    Graph,
    UnsatisfiableDensityError,
    density,
    generate_er,
    is_connected,
    make_graph,
)
from qkmp.harness import builtin_tables

# Conditional mean edge count of G(10, 0.2) given connectivity, estimated
# by an independent rejection sampler over 10^5 draws (Random(20260821)).
# Connectivity conditioning pulls the unconditional mean 9.0 up to ~11.94.
CONDITIONAL_MEAN_EDGES = 11.93838


def test_make_graph_basic():
    g = make_graph(3, [(0, 1), (2, 1)])
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.neighbors(1) == {0, 2}
    assert g.degree(1) == 2
    assert g.degree(0) == 1


def test_make_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])


def test_make_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 1), (1, 0)])


def test_make_graph_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 2)])


@pytest.mark.parametrize(
    "n,edges,expected",
    [
        (1, [], 0.0),
        (0, [], 0.0),
        (2, [(0, 1)], 1.0),
        (4, [(0, 1), (1, 2), (2, 3)], 0.5),
    ],
)
def test_density(n, edges, expected):
    assert density(make_graph(n, edges)) == expected


def test_is_connected_examples():
    assert is_connected(make_graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(make_graph(2, []))
    assert is_connected(make_graph(1, []))
    # pendant edge removed, vertex 3 stranded
    assert not is_connected(make_graph(4, [(0, 1), (0, 2), (1, 2)]))


class TestGenerateEr:
    def test_singleton(self):
        g = generate_er(1, 0.5, seed=7)
        assert g.n == 1 and g.edges == ()
        assert is_connected(g)

    def test_forced_complete_pair(self):
        g = generate_er(2, 1.0, seed=1)
        assert g.edges == ((0, 1),)

    def test_density_one_is_complete(self):
        g = generate_er(6, 1.0, seed=3)
        assert len(g.edges) == 15

    def test_zero_density_unsatisfiable(self):
        with pytest.raises(UnsatisfiableDensityError):
            generate_er(2, 0.0, seed=1)

    def test_determinism(self):
        a = generate_er(12, 0.3, seed=99)
        b = generate_er(12, 0.3, seed=99)
        assert a == b
        c = generate_er(12, 0.3, seed=100)
        assert a != c  # overwhelmingly likely for distinct seeds

    def test_retry_cap_is_finite(self):
        assert CONNECTIVITY_RETRY_LIMIT == 10_000

    def test_samples_connected_and_simple(self):
        for seed in range(40):
            g = generate_er(9, 0.25, seed=seed)
            assert is_connected(g)
            assert all(i < j for i, j in g.edges)
            assert len(set(g.edges)) == len(g.edges)

    def test_conditional_mean_edge_count(self):
        """Average over seeds 1..1000 must sit near the rejection-sampling
        estimate of E[|E|] for G(10, 0.2) conditioned on connectivity."""
        total = sum(len(generate_er(10, 0.2, seed).edges) for seed in range(1, 1001))
        mean = total / 1000
        assert abs(mean - CONDITIONAL_MEAN_EDGES) <= 0.15 * CONDITIONAL_MEAN_EDGES

    def test_takes_a_whole_number_float_vertex_count(self):
        assert generate_er(3.0, 0.5, 1) == generate_er(3, 0.5, 1)

    @pytest.mark.parametrize(
        "n,d",
        [(2.5, 0.5), (True, 0.5), ("3", 0.5), (None, 0.5), (0, 0.5),
         (5, True), (5, "0.5"), (5, None), (5, float("nan")), (5, 1.5), (5, -0.1)],
    )
    def test_refuses_bad_arguments_with_value_error(self, n, d):
        # the rule for outside numbers everywhere else (as_count): no
        # TypeError from range, and a bool is no density
        with pytest.raises(ValueError):
            generate_er(n, d, 1)


def er_outcome(generate, n, d, seed):
    """The graph a generator returns, or the type of what it raises."""
    try:
        return generate(n, d, seed)
    except Exception as exc:  # compared by type against the reference
        return type(exc)


# the early rejection and the stream skip must leave every draw where the
# straightforward sampler puts it, on every Python the suite runs on
@pytest.mark.parametrize("n", range(1, 6))
def test_generate_er_matches_the_reference_sampler(n):
    # n <= 5 keeps the retry-exhausted cases (10,000 attempts each) cheap
    for d in (0.0, 0.01, 0.03, 0.05, 0.1, 0.2, 0.5, 1.0):
        for seed in range(5):
            assert er_outcome(generate_er, n, d, seed) == er_outcome(
                reference_generate_er, n, d, seed
            ), (n, d, seed)


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 30, 50])
def test_generate_er_matches_the_reference_sampler_on_larger_graphs(n):
    for d in (0.2, 0.5, 1.0):
        for seed in range(5):
            assert generate_er(n, d, seed) == reference_generate_er(n, d, seed), (n, d, seed)


# sha256 of the compact JSON of generate_er(n, d, seed) for the first three
# seeds of every builtin configuration, recorded with the straightforward
# sampler: every benchmark instance's graph stays byte for byte the same
ER_DIGESTS = {
    ("q1-1", 10100): "cff5de274382e4e3d1db7de95a3b24a67af30b2014851bd9e490569c6a26b776",
    ("q1-1", 10101): "7c258ef13d06abb132fbe25243bcadfa8faaad379560ddf84c0e4b8d4f0953dc",
    ("q1-1", 10102): "c126529a34ae99f37841c9aa02e98f5f6d3396d7d4322f8d1bd45c2b9404a502",
    ("q1-2", 10200): "92566b8073ae539f3d128691afeeac15ff4002568e2f5c96f70e9fc8f1213cbd",
    ("q1-2", 10201): "c2139a94f9ae4821fdac0dacbe98764cf725714cdb4bd6af1c98ed97469c2269",
    ("q1-2", 10202): "80f3321b8698d18faa472dbdcbcdc05f41adfa2bec3ca75803e75b9f3df50f54",
    ("q1-3", 10300): "44dd16189bdbf1bb99e6500629673c09710d434401cae1906ab11fde3c98114f",
    ("q1-3", 10301): "37fc9535d3b588febd08847895c8c34e416e64a8b2ca15564395d4b8a3a148cd",
    ("q1-3", 10302): "a57b0d6677883ec259ae60f5968e7c973835df01526b6127c44d12c26b892821",
    ("q1-4", 10400): "95f104586de9758212a416222ed71a19f0a4d1a6e0e10a5d3016b8ee44065b10",
    ("q1-4", 10401): "2dc60a7d976a17772ce98e82f2dbf0ffeace0383190d01d78aa8867949fe327d",
    ("q1-4", 10402): "24e52787f2896a8ae7c1d396e1a31557aee48eede6681452f380965fa856a505",
    ("q1-5", 10500): "3196f9f29a53ad2f30aaf808fcaf26b44949ee4b2da6ec9de5575ab3223c4711",
    ("q1-5", 10501): "d4987489c9fc3171a59378a0a001884f623dbebff3071a8acd9727fd256f282d",
    ("q1-5", 10502): "e909b6cc7ec4a1b8aa8a54c37631a253e20dbe95730f15d28aec2f7a47de4ca4",
    ("q1-6", 10600): "dd201acfd3df9010b9de1b02b7d965144fe6e51867cab1ad12f53e403272a3cd",
    ("q1-6", 10601): "b80b32abf3d5cc3215999263d79e34e43c4beb8519eb642a1467fac5f8e0527b",
    ("q1-6", 10602): "cac914bdce41abe846af4bbb7a90151052025e1bad5ef13f9bf93ba39430157f",
    ("q1-7", 10700): "d5b0d52c75be39fe666c4526ec58fb61df7ab39c21c50c89f153009a8561c233",
    ("q1-7", 10701): "33ef8a1a1beb54caa25c57c89211f1d1ae7c6372411a68bfb6b9be94e7e203e1",
    ("q1-7", 10702): "0a3871bb1a8a29ad997cfa82331cc17fd529924e70bc65a7487d99159140cefa",
    ("q1-8", 10800): "6dd21c649e492fe0b5efdd47cf8bf0a653705522011258a72ee112747af37a0e",
    ("q1-8", 10801): "6d6bcffb68bc8aeec19094b5a6029be7d362547ad9489750eccb7d5488c33aa6",
    ("q1-8", 10802): "3f63554a63c8133d47c83f206f19d91a726caea3a8639c5019979d4e577e134e",
    ("q1-9", 10900): "bc96b2e56a01b9c3eb312d371df60dd0eb42cc9488f01392390eb884787a5f24",
    ("q1-9", 10901): "7365d87fd84b31313bd618292be2fde4c0269b6e5937b81e3acbe91c28f5742b",
    ("q1-9", 10902): "4d755666900d4dc115fd83edd331382a2c363c6c76a9704be58cf59cabd2db19",
    ("q1-10", 11000): "4fcdebfa52693fa722a796542b104c5d6e05a4bf850ac94480aa7a710610293c",
    ("q1-10", 11001): "f686829f6cfef90c980aafd488113e353f93cd2ca4adb7dcde7f7fd1638dff15",
    ("q1-10", 11002): "9c70d3ca8e49c8559c729c89815b7242585c5495383daa8714196bc04156f9b5",
    ("q1-11", 11100): "43318a715178084b673632cfe62e60ed9e0a4c4ecec78db8aaf1d5356df6f4a7",
    ("q1-11", 11101): "70010d91ac9f1be03ace5353bc2ecc81f132593a37e95368f5aad81a80e08803",
    ("q1-11", 11102): "b0b317980a44e82007f956602cf3465862124c9c1cb0a678f4b2853c3bbd35b8",
    ("q1-12", 11200): "510291e80a5a658fb28be7659268e7a18accbd28196e8875dec99f951e87cb9e",
    ("q1-12", 11201): "6e8243eac99302e99d7401a97c068b2f5d4cb5bdcd74a99a15ee6c7d40dfd967",
    ("q1-12", 11202): "fea9eff106611482c1f7eeb662949736104810aef76cd620d7073a5aa09e1ec2",
    ("q1-13", 11300): "60810aa681a5e25f625b54f9bbcdbf73daeb8d91159a83164de8f939e8461545",
    ("q1-13", 11301): "d518f95a61df5b1d55836df5e6f8ed5eb72b953a3792ae0cc318fff538fa5eaf",
    ("q1-13", 11302): "a0626261c66bf6fc2b928a9c4248fdaf8629d67fe76ea5ea48ee60885a4a6b77",
    ("q2-1", 20100): "bcc150840e3d6707d2a46bed8d6b777f91cadae0b9bba03f597763e7facba105",
    ("q2-1", 20101): "5fa156e0ec6633e2b9bcc2de4e3abfda2e0413aa5072b548b32e36dc6e986117",
    ("q2-1", 20102): "d77f6ff6ca995ee4b7d248c59d6e1f4d78b9ec7c0f4d9893acb19ccf3614f86d",
    ("q2-2", 20200): "4a7e65261b65c4a751b3ae09f175638241df77b1d68f27ee8ba52e19d04b6ee7",
    ("q2-2", 20201): "9a3af6f4e658f781765f4f1de10bd51decc9ed090d67ee97198496d4d806ab33",
    ("q2-2", 20202): "62ad4d6a25d49a0ebcd1b40744ea4fc4ae141d169aabc210e90199894e68c2cb",
    ("q2-3", 20300): "8564d4c7b82e654b9534cffbffd24419539d201e7916a6f2bfa3201509e30657",
    ("q2-3", 20301): "8b9707b5eb824605c42984df8499838834c4a14d7b329e96bbde43fa6bdc5387",
    ("q2-3", 20302): "c11a61476f08f4272716ab26e1ee3e8887ff7689a3553e50ae2150429e6dea28",
    ("q2-4", 20400): "b7fdd8cd126a18f4a554d354feff4eca1308f7d30a4a33e2d6dde2bc901cbdab",
    ("q2-4", 20401): "f6ca8e073bfac630e964ef70f92af2ab284b8661f0b01e94138922c358ca3792",
    ("q2-4", 20402): "387a7428fb729dbe41fccb99f5ec2c3349ec64ba0b93afafd818e84c3d897589",
    ("q2-5", 20500): "675299028cf4f5ba502b081b5b189352f14fe3cf27ee08c3a723264d62c4eb33",
    ("q2-5", 20501): "d2ffe770961ec2fb5c31b5659bf4d11f92a734ef8cfa8ad8eed51a0c0d7a54f0",
    ("q2-5", 20502): "116545e3b1369a5142d94a2a2869a225dbe628bbcd14b7ee87f6e8491c29b085",
    ("q2-6", 20600): "005e256885721caf04630483e7a46137a27c5ab5ca4b0465397e8a6cd5d8565b",
    ("q2-6", 20601): "04216633527e8b6179e1aeec8fa8513d2f5d46a81cfe59a2a5ae66e3c6293f4c",
    ("q2-6", 20602): "f735ef8f5886e80b8c3ef0f994f026576ed804ec3e029e2d7d5aa490f1032a80",
    ("q2-7", 20700): "4397131d2ce4e47d011a16e4207a87774a7f1f2304ebd5ccd305df8abc7ff4fc",
    ("q2-7", 20701): "85d4c5ba0c122c905ed62d45176785ce29a3568a56081be4c75d2eac1a912b59",
    ("q2-7", 20702): "a620c8c9027f25a5bcfbbfe83cf55a9b2bed78a8b74c8cd0bad1e725c388c25e",
    ("q2-8", 20800): "c9331b68b106a18bbcfe373abc6258f61b7981dcabe2edbbdd17737916390549",
    ("q2-8", 20801): "764ff31882daac66659a62410f72faf8573358349848004747ce3d1a6ca56ea9",
    ("q2-8", 20802): "e3a88998d2ab51c1fafea21d6acdefb86b6cfab3cdf91d18b824d018d0831f6c",
    ("q2-9", 20900): "be98fba6c3f043a54ce6eae2f756f4c1ad5be39636b62fef73afc849177bf8f8",
    ("q2-9", 20901): "fd07166069ad117e72511763f1d09791a53bbe7b64b0b0fa2b5762ea25a959ad",
    ("q2-9", 20902): "6715252ca2c6bdf9e7728393d6d9fb6ee9fa7dfe618afde7317a9aab952d984a",
    ("q2-10", 21000): "b3eafb0678e58453744e8c89df6d1313dbe06ba84a0aaebcedad888d76540d27",
    ("q2-10", 21001): "5a5b7cd51686c5f55ac0a333ef1dba6a0fbc2853911aa476c0ea112df729684c",
    ("q2-10", 21002): "79866f9a5dd9690f8344f2ed2393ca28c24d2b9a998e9165d552491904989937",
    ("q2-11", 21100): "a6bf06a715a56d37bcd1aa1a4d98f0c327f58026f43c3318267be2fe4f77bb7e",
    ("q2-11", 21101): "7613ca816d78948c1756c8209db3bf5840c731193111a3df09c076770a41e992",
    ("q2-11", 21102): "810035397cbb84f3a2850885ef1ab55e3f08619afa6583d15f56c95d06d2af0a",
    ("q2-12", 21200): "a9797b2f73af2da36b17de9927ae491c8a24fbf7b636ebd0eb168f669f70b5fc",
    ("q2-12", 21201): "6c2042bf1965eb0e4289c188386ab74398c3d1eda9944b173d1421d1093576cc",
    ("q2-12", 21202): "34cca2778aeeb13207e413240417130f349f949980b56c2898dacd7d4179b824",
    ("q2-13", 21300): "4c777137303dba7540f17ade44ca089971837702595b3f109f5929653fa36e5c",
    ("q2-13", 21301): "9f138ec347e4839ee6d48a8c8ae7412272522e43ef3813aa04c90bea224edfcb",
    ("q2-13", 21302): "151a6a10d4b8af188340035af2fc79a8b307998e3aa8403e87c4ddc591033939",
}


def test_builtin_config_graphs_match_their_digests():
    got = {}
    for cfg in builtin_tables():
        for seed in range(cfg.base_seed, cfg.base_seed + 3):
            text = json.dumps(generate_er(cfg.n, cfg.d, seed).to_json_dict(), separators=(",", ":"))
            got[cfg.config_id, seed] = hashlib.sha256(text.encode()).hexdigest()
    assert got == ER_DIGESTS


def test_graph_json_round_trip():
    g = make_graph(5, [(0, 3), (1, 2), (3, 4)])
    assert Graph.from_json_dict(g.to_json_dict()) == g


@pytest.mark.parametrize(
    "data",
    [
        {"n": 3.7, "edges": [[0, 1], [1, 2]]},
        {"n": 3, "edges": [[0, 1.5], [1, 2]]},
        {"n": 3, "edges": [[0, "1"], [1, 2]]},
        {"n": True, "edges": []},
        {"n": 3, "edges": 5},
        {"n": 3, "edges": [0, 1]},
        {"n": 3},
        {"edges": []},
    ],
)
def test_graph_json_refuses_what_is_not_whole_numbers(data):
    with pytest.raises(ValueError):
        Graph.from_json_dict(data)


def test_graph_json_reads_whole_number_floats():
    g = Graph.from_json_dict({"n": 3.0, "edges": [[0.0, 1.0], [1, 2]]})
    assert g == make_graph(3, [(0, 1), (1, 2)])
    assert type(g.n) is int
    assert all(type(v) is int for e in g.edges for v in e)


def test_graph_json_sorted_edges():
    g = make_graph(4, [(3, 2), (1, 0)])
    assert g.to_json_dict() == {"n": 4, "edges": [[0, 1], [2, 3]]}


@settings(deadline=None, derandomize=True, max_examples=60)
@given(n=st.integers(2, 10), d=st.floats(0.15, 1.0), seed=st.integers(0, 10**6))
def test_generated_graphs_satisfy_invariants(n, d, seed):
    g = generate_er(n, d, seed)
    assert g.n == n
    assert is_connected(g)
    for i, j in g.edges:
        assert 0 <= i < j < n
        assert j in g.neighbors(i) and i in g.neighbors(j)
    assert sum(g.degree(v) for v in range(n)) == 2 * len(g.edges)
