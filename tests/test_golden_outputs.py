"""Golden outputs: six experiments whose exported files must keep their
bytes, so a change to the engine that keeps its behaviour has to
reproduce results.csv, summary.json and every trace exactly.  None of
these runs has a ping-pong; test_ran_sim pins that rule.  float64
`log10`/`hypot` may differ in the last bit across numpy versions, so the
check runs only on the version the digests were taken with.  Within it,
`power`, `log2` and `log10` round the last bit differently under numpy's
AVX-512 and AVX2 kernels, so the digests are keyed on the kernel set
numpy dispatches to, and any other set skips.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy before 2.0, which the version check skips anyway
    __cpu_dispatch__, __cpu_features__ = (), {}

from ric_cms.harness import (
    ExperimentConfig, desk_preset, export_csv, export_summary_json, export_traces, run_experiment)
from ric_cms.mitigation import Strategy
from ric_cms.ran_sim import SimConfig

GOLDEN_NUMPY = "2.4.6"
# numpy's enabled dispatch targets, in its own order
KERNELS = " ".join(k for k in __cpu_dispatch__ if __cpu_features__[k])

RUNS = {
    "desk": replace(desk_preset(0), reps=1),
    "ttt300": ExperimentConfig(SimConfig(n_ues=300, duration_s=30.0, ttt_ms=300.0), reps=2, base_seed=4),
    "step500_ttt1000": ExperimentConfig(
        SimConfig(n_ues=60, duration_s=60.0, step_ms=500.0, ttt_ms=1000.0), reps=2, base_seed=4),
    "min_rsrp_100": ExperimentConfig(SimConfig(n_ues=200, duration_s=30.0, min_rsrp_dbm=-100.0), reps=2, base_seed=4),
    "ues2000": ExperimentConfig(
        SimConfig(n_ues=2000, duration_s=20.0), strategies=(Strategy.NC, Strategy.SBD, Strategy.QACM),
        reps=1, base_seed=3),
    # a step that is not a binary fraction: the control plane keeps its own clock
    "step100_3": ExperimentConfig(SimConfig(n_ues=40, duration_s=20.0, step_ms=100 / 3), reps=2, base_seed=7),
}

# file name -> sha256 of its bytes, per run, under numpy's AVX-512 kernels
AVX512_DIGESTS = {
    "desk": {
        "results.csv": "8ca1ac452111eb3cdfe332dfaad7e29c122ba97ba9d573ee6ee3eb2b8e4b365c",
        "summary.json": "8baab9bb828029e0528507c23eb7cd0bae922eb43c310cd01e0e31f50ee7da50",
        "trace_nc_rep0.csv": "54a816a01508ff0dfdf76d51ce857c4b94977d86a5811dc5d96a6dea3dc4c992",
        "trace_p-es_rep0.csv": "097fa8fa18ace7b10387185a72878fa1a41f82bd857610bf88d5681d521ee2cf",
        "trace_p-mro_rep0.csv": "922929604daed07d0e157086b91a4d8d8bb772be6675ad5d62d23215c648d463",
        "trace_qacm_rep0.csv": "75870c3cd242d5831b001136cf4cdbfd589fcd440a3f97625e49cab46d72a3c0",
        "trace_sbd_rep0.csv": "93b9798f2c5204eb6f58b571d2dbdfa49ea460d7e2af7ab3a5b79a84bb8109e3",
    },
    "min_rsrp_100": {
        "results.csv": "b84d655cf628274ff94207f31df56f31a9be6963b1c112b54a07f67462f481c8",
        "summary.json": "0630fd07c28fb2e91b560f0f15e4d3758758f175f48f6182e7f7504b12282075",
        "trace_nc_rep0.csv": "f7b7f7e1f01073c0b6c7afa0b486116600df4a302fc006c38f02b08056a46ad0",
        "trace_p-es_rep0.csv": "250fddc067b01d8c34cc8179b7bc53eef9298a383453e59d4ff26d8645d5e83c",
        "trace_p-mro_rep0.csv": "eacb37f1f80a058bf9ba8d21146fb963331f629fead5610e2f22c8e6592061e5",
        "trace_qacm_rep0.csv": "71c1919033835822d7a8c99db14515ae58f80d84bca5134fadfaa2eed956a9de",
        "trace_sbd_rep0.csv": "39e5f09c9921ac3b4673e88502553ef4b6839dae3236cf173b84b79af5df8601",
    },
    "step500_ttt1000": {
        "results.csv": "389af7676a0d8624a79c2bd04e721f6a0d99834c6820159af6438be3aa92fc1f",
        "summary.json": "88de5646a35ee19848227fb78bb5d1c692d3023549f81144d71ee9fdf1d9abd1",
        "trace_nc_rep0.csv": "a8f396bbc7eb6740947938d9240b42c2a23f5e8b08aa773b13f4dcb1914deccc",
        "trace_p-es_rep0.csv": "7d9bca2465083e47285ef119fa8def4ddc3fe0efdd0446c8402c9b6c834dbc5c",
        "trace_p-mro_rep0.csv": "3237042a45441ae4c691c258f69ab91586fe98babfb020014dc578a915447d49",
        "trace_qacm_rep0.csv": "071bd7c9a39db53c150a63a43f4e1a556585e2334e90087201a6cee257407c6d",
        "trace_sbd_rep0.csv": "9d2c42ca7c51b1e829fc924b785f38ae0b4867a7a730619e79ead3c0741cae95",
    },
    "step100_3": {
        "results.csv": "bc69a074db5f6dd913253c17b0536bd21bd76e92db69b1a9bfd320a1d466829a",
        "summary.json": "1ee76ac711fb7d8e63744e2a0dd3829e8d98d96515c0b550870ed09b68fd9953",
        "trace_nc_rep0.csv": "e96b4a951311f52aefba8225a0710f29c3d0684adc21ac1c583ecf68203edd19",
        "trace_p-es_rep0.csv": "f2852913704f6e37a4b58c7ace85b5a8a6976f8f61fe71e9a5acc11b099777ae",
        "trace_p-mro_rep0.csv": "e92b34d1d42681e7070c36d1b614d711f304e7c246d33b91c479925835e285c1",
        "trace_qacm_rep0.csv": "b02ba8b647312eabb4b5253abe909cc3b48b6486645ff1eb6cfd5d29f0ae1bac",
        "trace_sbd_rep0.csv": "c8d469e64e2f7cbc41ed1134d5b9491a44e289a43d6745dce1b4b1f7e2cc2b3b",
    },
    "ttt300": {
        "results.csv": "fff03d9b2043f8694b85b28ed59b8ae57274146b9ea1539bf6d586f2825c8e6a",
        "summary.json": "df62fd50c4ddc34f575af1da7cbb83e73c11d85b40b43614a50c29bffbf435b6",
        "trace_nc_rep0.csv": "c1be7a63374016defb7d5db600023f732afc715400c06976e565f219b9ffc018",
        "trace_p-es_rep0.csv": "e617b13983a40149ca019fa2e7789243b88a9a8e5ed080fc17f14dcd7d536525",
        "trace_p-mro_rep0.csv": "9cffca09a58dbd0a6f8bd661aa49330ecb0dac194a23c5d38ca2553ca661fff5",
        "trace_qacm_rep0.csv": "6b4933dfcce036ed461ed09c2ee1698475b814d213fba115b5ce0e6152beaef6",
        "trace_sbd_rep0.csv": "abb174099cee2bb67231d1fdb6aaf73d60daa0cc6af465177e75c72684d4f141",
    },
    "ues2000": {
        "results.csv": "a10de52e9c72c9ebf11a304f987c6d1c17794482ae98d35752da66615caf0312",
        "summary.json": "473f8bd9e934d4ad031c80acf4159aa2baee10baeb33a15dfe54106e9434d4ef",
        "trace_nc_rep0.csv": "80872a3d9ab8f74f542f297a4247f8410e7dab59b22759f3838620b90423bf31",
        "trace_qacm_rep0.csv": "199952fe80de921afd45bffd7a89418c48e54b03e123f92d41f39b5fe56eb0d3",
        "trace_sbd_rep0.csv": "0b85fed419b7483961d0ef50085ec677cc8afadc6ec914cdd827ff8e36f6d063",
    },
}


# kernel set -> run -> file name -> sha256.  The AVX2 set is what a CPU without AVX-512 runs;
# its digests were taken on an AVX-512 Xeon with NPY_DISABLE_CPU_FEATURES="AVX512_SPR
# AVX512_ICL X86_V4".  Only energy efficiency's last digits differ, in two runs.
DIGESTS = {
    "X86_V3 X86_V4 AVX512_ICL AVX512_SPR": AVX512_DIGESTS,
    "X86_V3": {
        **AVX512_DIGESTS,
        "min_rsrp_100": {
            **AVX512_DIGESTS["min_rsrp_100"],
            "results.csv": "ab5fc8fd3ff640599215d29bf7940a7b933e6a49494ba362e276fd6019e04bc5",
            "summary.json": "a23a28acf7940f59642758d548cdc35554ab1398064a972a51aa89b0c01e09f4",
        },
        "step500_ttt1000": {
            **AVX512_DIGESTS["step500_ttt1000"],
            "results.csv": "c765c7ba170609254caec4957ce57f2d3818267a1768dc729f51bfee362a105b",
            "summary.json": "c159b9153006725bce725d3f91e19ef6493594cc224bbf6f0fbf94e6c9aafbf3",
        },
    },
}


def output_digests(exp: ExperimentConfig, outdir) -> dict[str, str]:
    """Run exp, write its three exports into outdir, hash every file."""
    result = run_experiment(exp)
    export_csv(result, outdir / "results.csv")
    export_summary_json(result, outdir / "summary.json")
    export_traces(result, outdir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"digests taken with numpy {GOLDEN_NUMPY}, running numpy {np.__version__}")
@pytest.mark.skipif(KERNELS not in DIGESTS, reason=f"no digests for numpy's dispatch targets {KERNELS.split()}")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_exports_keep_their_bytes(name, tmp_path):
    assert output_digests(RUNS[name], tmp_path) == DIGESTS[KERNELS][name]
