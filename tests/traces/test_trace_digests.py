"""Pinned digests of every app model's event stream and loadgen chunks.

The default-scale digests were computed from the event records of the
object-per-event trace representation, before traces became columnar;
the ``steps=16`` and 12-rank pins were computed from the per-rank list
topology helpers, before those became array-native.  None may ever
change: any drift in an app model's RNG draw order, event order or
field values shows up here.  Each event contributes
``(kind, time, rank, peer, tag, comm, nbytes)``; ``peer`` is the dst of
a send, the (possibly wildcard) src of a receive post, and -1 for a
barrier, whose ``tag``/``comm``/``nbytes`` count as 0, as does a
receive post's ``nbytes``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.serve.loadgen import (DEFAULT_BENCH_APPS, busiest_rank,
                                 tenant_stream_from_trace)
from repro.traces import app_names, generate_trace


def _event_columns(trace) -> list[np.ndarray]:
    """The digest columns rebuilt by walking the trace's event records."""
    rows = []
    for ev in trace.events:
        if ev.kind == "send":
            rows.append((0, ev.time, ev.rank, ev.dst, ev.tag, ev.comm,
                         ev.nbytes))
        elif ev.kind == "post_recv":
            rows.append((1, ev.time, ev.rank, ev.src, ev.tag, ev.comm, 0))
        else:
            rows.append((2, ev.time, ev.rank, -1, 0, 0, 0))
    return [np.asarray(c) for c in zip(*rows)]


def _digest(columns) -> str:
    h = hashlib.sha256()
    for name, col in zip(("kind", "time", "rank", "peer", "tag", "comm",
                          "nbytes"), columns):
        h.update(np.asarray(col, dtype="<f8" if name == "time"
                            else "<i8").tobytes())
    return h.hexdigest()


def trace_digest(trace) -> str:
    return _digest([trace.kind, trace.time, trace.rank, trace.peer,
                    trace.tag, trace.comm, trace.nbytes])


def chunks_digest(chunks) -> str:
    h = hashlib.sha256()
    for msgs, reqs in chunks:
        h.update(np.asarray([len(msgs), len(reqs)], dtype="<i8").tobytes())
        for col in (msgs.src, msgs.tag, msgs.comm,
                    msgs.state_dict()["packed"],
                    reqs.src, reqs.tag, reqs.comm):
            h.update(np.asarray(col, dtype="<i8").tobytes())
    return h.hexdigest()


SEEDS = (0, 1, 2)

TRACE_DIGESTS: dict[tuple[str, int], str] = {
    ("df_amg", 0):
        "8cfe888a3cb1e6ff759b15d7d140bfdbcd38e085d7f97111296949768695707d",
    ("df_amg", 1):
        "25cbd005d7d180d98822d024fa567fd4f144b0c8d1a86c51b9df11eb454c6d71",
    ("df_amg", 2):
        "b830225c84db2e03e67295420205e710175575e31f12cc343e546566025f5851",
    ("df_minidft", 0):
        "a99411fa5ae7f1e294cdb5bc6c0e8bde7ca72ee53b758afc44fd08888a1dafbe",
    ("df_minidft", 1):
        "4043a9cc2ce231cc71221b359cd5afd3d654c899d5dc9bfd37707687ef69a68e",
    ("df_minidft", 2):
        "99be5f3daa396c0e4769e4257dbe35f2df4f59977bc4dbc8ef743b28be4d77ef",
    ("df_minife", 0):
        "0bcf68e1ee67055864dc08c9300f572c81e17bebe0fdde757f019c23446944f0",
    ("df_minife", 1):
        "ff9f20d9b48f01a752700b2d0db3f8054c3068c35f222337701c15c045e1ebc2",
    ("df_minife", 2):
        "2819d8e04e201f87ee7d26d4df9cb6a6294660029e90f4a54336c66c9e8f05fa",
    ("df_partisn", 0):
        "eb0f264329ccf8fd64c30701cb5aace3a69e10d12e0ce52cbb2a2e0e2f7dadf6",
    ("df_partisn", 1):
        "53b5b96d9466a22c83bddd0d4307699f6ed7a8f91d152a5bedbeb0b6100be847",
    ("df_partisn", 2):
        "c8e3eafa3056eb707d1667581ae1954838e991b8df156227d742eab6db89306a",
    ("df_snap", 0):
        "b0912b59f8f7ed57e8bb79efd0d5919779bf36a2250b8b4789a5945381c992b1",
    ("df_snap", 1):
        "136b7e75af19750d512349be8323b30a62862e5b88cc5dd834f1d9db7bd13b04",
    ("df_snap", 2):
        "b947ab308e8d71838383bdcc0b75ceb8cbbd011ec7fd77501bf48c5205976f83",
    ("cesar_nekbone", 0):
        "8b461bfa9b905aa8ee93ac940a3c6c390545bda5433bbdaa5152152a90a4c80b",
    ("cesar_nekbone", 1):
        "5a39ec1b3b39fe7e61d96eef4e5205ef0bcd38fd32c6e5947079515d5135eab1",
    ("cesar_nekbone", 2):
        "82b7157064558f470fcc8de8d4c3491f616b4a53b0633cb5f7c33bfbb1cfa664",
    ("cesar_mocfe", 0):
        "b8b703e94bbef493b21adb3a4b4342f009f63c43659ad659f92b6c9a0676dc6b",
    ("cesar_mocfe", 1):
        "ddce5148daae843196447b636f924b1be8196c039caeff6cef96b9db12724245",
    ("cesar_mocfe", 2):
        "89a28509a1aea5e265f905539a3ed1741eb4b9d7ee24708bd26575db061db993",
    ("cesar_crystalrouter", 0):
        "7ab81bd3c8638b601d9991910379c7014aabc98b3e759d3951c5cf87b7566a39",
    ("cesar_crystalrouter", 1):
        "8310c57699aca6220e492c208416f4335e7dc1bf440ad090b8e17d60c36da932",
    ("cesar_crystalrouter", 2):
        "b05d16b986fc5c5e5fc6b92e295fa40e5c0be7c6f25110a7370d516de96c138f",
    ("exact_cns", 0):
        "dcd40dbdbe253d6b8b12ab3668e1e417ea76f77be1581c224114c56253c35302",
    ("exact_cns", 1):
        "f4f6a15ef72ecf481aa9a65388fef381e216d1a422ec36ede9ba57b66171b01c",
    ("exact_cns", 2):
        "87c8003916778807326d5b223e590a1828fd06a9e94ca7e6fcbbf53d46afd3cf",
    ("exact_multigrid", 0):
        "e9b6ede8c7b55ddbb7d262acb6cf336ee3119c2b1552c7d746d3381b82a6399e",
    ("exact_multigrid", 1):
        "d421c10eafa765b2abbf5bd09e870b331a8040ef20485a1a008301570d3e313c",
    ("exact_multigrid", 2):
        "5a5ac8133e4f9b53ac83b9d5aaaf1d31c5da2069509ae403325bee7425149715",
    ("exmatex_lulesh", 0):
        "b84ede4c472ee4670fe01e39ba903b5aaf3ee9d495a633c9f5726bb1c301ad83",
    ("exmatex_lulesh", 1):
        "d2cb043ec5701ce2676e586a8ecdca5fcd3036429bb48ff23cb2692a3a3eaaf3",
    ("exmatex_lulesh", 2):
        "4f16c9d813dbab6284cc55aa6a24acd8190000cc22b5996a6456496b0c4fdac5",
    ("exmatex_cmc", 0):
        "2d120a751fb12d6259ef9010d77822ef6cf544681c2b30880162ed7ecd2432d8",
    ("exmatex_cmc", 1):
        "a9af948815747c430f7a074add728bc05b3fada4e0fedf85820164410b9317d7",
    ("exmatex_cmc", 2):
        "331e64a9035e747592dbeab34caf70d3bf4da8426b8c67f810657d55f87d4701",
    ("amr_boxlib", 0):
        "28c59e1aceebf103139433ef308c0c2d896c3394f751d2260c04bae6e91c59a4",
    ("amr_boxlib", 1):
        "09835117de25e27b7b785713922dcdefef5ed82b0fb209c79bd19b54ef79dfee",
    ("amr_boxlib", 2):
        "a0f2ab00d8de1e49e95def62ab7a1f9ca3924369ff7171148d26139736ddf7ea",
    ("bp_amg2023", 0):
        "4516435a8facd11880e5006f308ec9cf05dffdd62079a60706013c797cacc5a8",
    ("bp_amg2023", 1):
        "ff3adf7d38651ae2b647ce03c95970d9b613946daa55f0b574c2c54a1d79ea0c",
    ("bp_amg2023", 2):
        "7b892a0814df9e67b3c71fed67dc7a1a884744baaa992cccf3dd371503e53b56",
    ("bp_kripke", 0):
        "dd6b13b9235b0bee831e01486ff710673aa5fb3ff8844c4a4492ee91787aaee2",
    ("bp_kripke", 1):
        "e126c6ae99e97eeba2f03e68646a90849fed66d5efc58b4ce1e3b556dcb3ffd5",
    ("bp_kripke", 2):
        "8ba6ec00622784e33ca8894eeb9262cf1c827f7b9e6d382a54cf6e5546b23d82",
    ("bp_laghos", 0):
        "27abc5927227e157d9862e774ffe25f0e1b5c426fb174f611ea4d7baf8bd395a",
    ("bp_laghos", 1):
        "073b5b48821d33b65e82eb09166592e623806ceb0ad8491ad9aa67b15795aca4",
    ("bp_laghos", 2):
        "ff4080433f805cedf0cf86f76904466e375388704bf1380237b7907f74831511",
}

CHUNK_DIGESTS: dict[str, str] = {
    "df_minife":
        "5522a6620cc5194d94c030ee55188ad10c85b15a84041c6cb484a02aa10078a1",
    "exmatex_lulesh":
        "c9c567f8abaab2b0ea233d496e8890a79a71167d4dcdb8ed509c2e6f97f88d98",
    "df_amg":
        "afac2c3209417712c353560f69b1b0e21ab8c498168b7b039224654e2cd45523",
}


#: ``trace_pipeline`` settings (``steps=16``) of the three loadgen apps.
PIPELINE_DIGESTS: dict[tuple[str, int], str] = {
    ('df_minife', 0):
        "32c4cc2004a1cd1531b320d66cb16905e99c01289308682e519f524746cf7824",
    ('df_minife', 1):
        "c80fa455b8a06f4a310e669b5770e88e18c002a88cd7397d427a59a18a5c3f21",
    ('df_minife', 2):
        "2982bfd93c32aed51df6b2483aac544c23a1de477f7b32c3dc5f27ab5ff0c833",
    ('exmatex_lulesh', 0):
        "584d6a0e1d5737e7892f94f42c3dd8e11c52076f269b2c87d7ff27a0da4c7a13",
    ('exmatex_lulesh', 1):
        "073f2fa0b4c6e1dd78a5c22fc334337f77720dda560c1c9ece2d137b880f8617",
    ('exmatex_lulesh', 2):
        "8f6b5b9bb7798b9f2736dc3b8c98cd66a349dfcac7ea16d14e5281983eff4715",
    ('df_amg', 0):
        "af1a63ff1eb409f6805aa1f6c1b1107bb0555e2b66b7469aa58b4489ee1903fe",
    ('df_amg', 1):
        "93af33258cbcdd65205d092e276ab329a8d5e4541f96960859e4a30e18bec902",
    ('df_amg', 2):
        "46a4b1525e56e2c194a0b2c5c8277fc3d07720e0fb3bf3e7925e7c879d5eeea1",
}

#: Every model at a rank count that is not a cube, seed 0.
RANKS12_DIGESTS: dict[str, str] = {
    'df_amg':
        "6daaa9df98efb7f85916ef4dd77993b8b5e6f8fa9b7439b8be0b581a6b269df1",
    'df_minidft':
        "0b063ea991172b931611508fdbcc8d9ebea431c2c238b10a4a234f06c7ee56f1",
    'df_minife':
        "b63273fd3fda7247903d35b89e97d092f240d77bd2423b12dd234599dc1b0c20",
    'df_partisn':
        "352f7c435a20adbdd54609f74aeca60f18b89cc77e4a00e71e1dbb02acde0816",
    'df_snap':
        "dc1de3fc9ce61d2e876a43ef439bce324ff2f1e168a765e85203e14424c891ed",
    'cesar_nekbone':
        "318ee8ef2385bc5c9ac91a793740c0aee67168776463a21fe739aa490017444f",
    'cesar_mocfe':
        "829fbedbe2c1c05505067bde2eb8d03941ec68c7464dc70c84078452ac5438f2",
    'cesar_crystalrouter':
        "19fd8fccb2348cf79c12b20d7774c768951262c3ae452a1b09c2139b3dcc6c69",
    'exact_cns':
        "b29c6e42ed5aec06ff31ca53cc4540fff3a162edf5afe30ff5eeaf7930531109",
    'exact_multigrid':
        "84d8dda0437ce7ff5acbf1b6c40f006ecfb140790e5fc89982988f063afb86bd",
    'exmatex_lulesh':
        "df404992d06a730f9030056ae97e7ac2a2f396d5afd307ab1cfe96da28b6715d",
    'exmatex_cmc':
        "f92fb92cac7b2b72db50941ec56e1a5543c2325c7ef89d36782e084e2cd595a6",
    'amr_boxlib':
        "e841af9df641207d0644bf5f7619528a586887a535fb4024bf8fec29c0971b3c",
    'bp_amg2023':
        "c2306620f0c9f398c56cab25afe98b8b42bf3ff3d54d0d9164193e9f97843615",
    'bp_kripke':
        "1a4fac9a310c93fe4e2e2d25e08ba47b4ae97807517c697862fb0c62acc5e872",
    'bp_laghos':
        "71b2ab6f2d4b85dea1faa3b0620b44e36f3f0065916780bd3d17a40e0853321f",
}


def test_every_model_is_pinned():
    assert set(TRACE_DIGESTS) == {(a, s) for a in app_names() for s in SEEDS}
    assert set(CHUNK_DIGESTS) == {a for a, _ in DEFAULT_BENCH_APPS}
    assert set(PIPELINE_DIGESTS) == {(a, s) for a in CHUNK_DIGESTS
                                     for s in SEEDS}
    assert set(RANKS12_DIGESTS) == set(app_names())


@pytest.mark.parametrize("app,seed", sorted(TRACE_DIGESTS))
def test_event_stream_digest(app, seed):
    assert trace_digest(generate_trace(app, seed=seed)) == \
        TRACE_DIGESTS[(app, seed)]


@pytest.mark.parametrize("app,seed", sorted(PIPELINE_DIGESTS))
def test_pipeline_event_stream_digest(app, seed):
    assert trace_digest(generate_trace(app, steps=16, seed=seed)) == \
        PIPELINE_DIGESTS[(app, seed)]


@pytest.mark.parametrize("app", sorted(RANKS12_DIGESTS))
def test_twelve_rank_event_stream_digest(app):
    assert trace_digest(generate_trace(app, n_ranks=12, seed=0)) == \
        RANKS12_DIGESTS[app]


@pytest.mark.parametrize("app", app_names())
def test_event_records_digest_like_columns(app):
    """The lazy event view carries exactly the columns' content."""
    trace = generate_trace(app, n_ranks=8, steps=1, seed=5)
    assert _digest(_event_columns(trace)) == trace_digest(trace)


@pytest.mark.parametrize("app", sorted(CHUNK_DIGESTS))
def test_loadgen_chunk_digest(app):
    trace = generate_trace(app, steps=16, seed=0)
    chunks = tenant_stream_from_trace(trace, busiest_rank(trace),
                                      chunk_envelopes=16)
    assert chunks_digest(chunks) == CHUNK_DIGESTS[app]
