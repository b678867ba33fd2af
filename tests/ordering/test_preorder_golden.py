"""Golden digests of the preorder pipeline.

``preorder_for_javelin`` must produce the same permutation and the same
permuted matrix, bit for bit, whatever its graph code looks like inside.
The digests below were recorded from the original scalar-BFS
implementation; a faster graph layer has to reproduce every one of them.

Each case digests (sha256) the int64 permutation the ordering returns
for the Dulmage–Mendelsohn-prepared matrix, and the ``indptr``,
``indices`` and ``data`` of the matrix ``preorder_for_javelin`` returns.
Regenerate (only on purpose) with::

    PYTHONPATH=src:tests/ordering python -c \
        "import test_preorder_golden as t; t.print_golden()"
"""

import hashlib

import numpy as np
import pytest

from repro.matrices import SUITE, build_matrix, grid2d, preorder_for_javelin
from repro.ordering import dulmage_mendelsohn_row_perm, nested_dissection_order, rcm_order
from repro.sparse.pattern import has_full_diagonal

EXTRA = {
    "grid2d-64": lambda: grid2d(64),
    "grid2d-128-conv": lambda: grid2d(128, convection=1.0),
    "thermal2@8": lambda: build_matrix("thermal2", scale=8),
}

# (matrix, method, leaf_size); SUITE matrices at scale 1 ("transient" is transient@1)
CASES = (
    [(name, m, 32) for name in SUITE for m in ("nd", "rcm")]
    + [(name, m, 32) for name in EXTRA for m in ("nd", "rcm")]
    + [(name, "nd", 8) for name in ("grid2d-64", "transient", "wang3")]
)


def _matrix(name):
    return EXTRA[name]() if name in EXTRA else build_matrix(name, scale=1.0)


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def digests(name, method, leaf_size):
    A = _matrix(name)
    B = A
    if not has_full_diagonal(B):
        B = B.permute(row_perm=dulmage_mendelsohn_row_perm(B))
    if method == "nd":
        perm = nested_dissection_order(B, leaf_size=leaf_size)
    else:
        perm = rcm_order(B)
    P = preorder_for_javelin(A, method=method, leaf_size=leaf_size)
    return (
        _sha(np.asarray(perm, dtype=np.int64)),
        _sha(P.indptr.astype(np.int64)),
        _sha(P.indices.astype(np.int64)),
        _sha(P.data.astype(np.float64)),
    )


def print_golden():
    print("GOLDEN = {")
    for case in CASES:
        d = digests(*case)
        print(f"    {case!r}: (")
        for h in d:
            print(f'        "{h}",')
        print("    ),")
    print("}")


GOLDEN = {
    ('wang3', 'nd', 32): (
        "fa7c062a2930cb2affafbf098d22e97acca6d0175f340f79e3ff62ecc4197d50",
        "f59c107e5b8a8427786f6e1e8e2f823222eb2caf1499df1863be951a1c017bde",
        "00cdfd2b419761f391ff5556142f4d6ed092048038c919fd4c7bddb0f809e5cd",
        "61f1e1752b30ec3eb134fb633a4d67e51f005dbdbc029248599304f2ddadefe4",
    ),
    ('wang3', 'rcm', 32): (
        "8643fc0b2f3254b243616515cff782a1538740c6ccfeb3a755ee423d9891f547",
        "57195b758e0a96a4ac5479583a00eaa8abe424d333c93cacd16cb9def0954a55",
        "bfe33cdb6e52463d7a3a67e262886de5a132d57c65ebf75684c88caba510a3dd",
        "7ed60909f915cf907bb3cb7790befd12d06345d9a11bbd769a3bb5b914e2de3c",
    ),
    ('TSOPF_RS_b300_c2', 'nd', 32): (
        "cb07c97a8c2d52f29001ff4fd9a1ef335bdf16ce59a53f6e8625abc53be0b2cf",
        "20d9f05b88dba89a9b2b2cf6799da3d500f1ea89cc1a65cebcfe5e1499d0d2d4",
        "5bfbd144647496d37fef57283476136725ca3d8c2da6c344a2eaa710a021c0dd",
        "21205362a555a0f070bdff698bd089ec637fb177f75d85383ba96d9788999208",
    ),
    ('TSOPF_RS_b300_c2', 'rcm', 32): (
        "d141e5617b6ce05d5e099be2cbc042d166d54d4a358ff63d8e3f0c483e335bb5",
        "5ec43040c39f64f934146c9671a02353da4170f728630aa1e911df3ace0d73fc",
        "ef808c9940bfc708185828b0e32330636f1e387f3b96fd390011cdb25e981b55",
        "ba55c103d992cc7b0029d4ab8f57a75ea2f5aa526b47b6139f22f60af43d49c6",
    ),
    ('3D_28984_Tetra', 'nd', 32): (
        "f29f7494fbe525fbc93e5b49bfb22487858caa37dfc76697a84e6d5f90924fe2",
        "9d89ecf4334cb60073b35ce110da343ac66ce9d18c3b897131b6678d05d1b5bd",
        "68f02912e6097e259b8d52bad56a84bac5de3970cf54278df387ef3c07b46a72",
        "3452ef2660872b41ed179030c31614b2f57c03b59ff79b0808018aad52083aee",
    ),
    ('3D_28984_Tetra', 'rcm', 32): (
        "de503cd3446c57822bc012af52e7bfcd96e2a1f66f1cedec2f57a7c2c4123060",
        "b40313861bc77fb6dd0019ed7666e1283b23490d6eef622213a044d78f3c251c",
        "7dc1df3d3141b3a98e37996d250fa2a14ded931715d0b2df2c1a1dd32f5160c9",
        "0cff7d1cbdde6fccf02c16be3ae6f48303e51d05cbf3c7490373afe00af94d7f",
    ),
    ('ibm_matrix_2', 'nd', 32): (
        "bff4713fe03203495510bbbf32db4ab86e839c55975b26f0dac1865b0eacede0",
        "ee76df26106292237c0bfac74c7c95a32508f93c9aa71943e3ac022c2c150ef1",
        "ad222954c8a81c014e0893cc578653ffb59901ab23767b85968875680464513f",
        "d1bf1c4c83cf11775f19a7b8c3b66e6efdd2811718ac238b759a4b9aaa169aa8",
    ),
    ('ibm_matrix_2', 'rcm', 32): (
        "4079b9d0747c1f996607eb060855adf57f9f0f3ad5047f8170ad405b4ede75b7",
        "50ef29cd97d0f43ea02bddc78a3a510b9f447faabb965619517b5e62ace9046d",
        "aa7063b367558b62a00e576fa32e866ee8b75e589f07e6031f52bc6ac53e6bff",
        "b9ddda3611fb4f6bfbfcac72e7d91d006e8b547b70c2dd12575666399f1dd80d",
    ),
    ('fem_filter', 'nd', 32): (
        "e0506bad40150500d82762fb20dd924fd13016db991f991a494ca817cee90f42",
        "215c257a23d5821cc37b95e29d2f6c04c93f814be7963f783204a192e0b97700",
        "1ab1bc8364d94137da0ce1f3845fa258d46ec9362e82adbadfd9de73e19466dc",
        "dc45c462c845f58cb03d55e2c8161aeea9cdb37c066a1659b3cb6004b2ec9389",
    ),
    ('fem_filter', 'rcm', 32): (
        "b5689a5b005f28187d3b82a509d8cf6ad40edd7fbe905541b0ae2b80e9db1c45",
        "6bc55200dafb06cf6173271055360a04344f175125ad9bab57f8aa569f801efb",
        "04a0887b68116dc728891dbe663bba9569f408fbc0d0b9e37cf4f0ce340ef26a",
        "ecc3902e9ac1e29f1e2a57fdd9565bdb8276a8e0817dcd9279310d409cc08b41",
    ),
    ('trans4', 'nd', 32): (
        "98b43212e7b541ca728e3147fed91cda52b00ec0d672e0430d9118b4c5614763",
        "3af972975c790491e85a1499ab4694d49e1dfd03e13b910be5b2b149ffe37efe",
        "97d366024fdb1659abdddcdf475b81e56f6b122d379ac1f7ed80bd14bebd7f1e",
        "6665f083c488aabcf01f379ea84076eebc1c1037c00604ea45807885ee9b33a9",
    ),
    ('trans4', 'rcm', 32): (
        "f76e41d34254b8d895444a0da96d65dafaf46cb9688e006c00348d8e647ff73c",
        "f3e92fbbaed2e8ab0a9a1120e921e7983e814753ac5bab19fb84f8a424282308",
        "108db23d7067333f0bdf03f01d117a8e3f88010684990cd1df09ac3d91c7c8f7",
        "b031793f364340ea3091c6a56f7cea75a9b88d2a523a663796e9fdba61f1b53e",
    ),
    ('scircuit', 'nd', 32): (
        "59ad8891731e7e4672fcdbaba8ec1b43de73e52a314663bcca226e724fa6ef3d",
        "d6564f79341cf3830c97c9bcbbd4632b12aabc1ece7d35594a6ac092903a6184",
        "e53ca65cd186829bcbc14318dcbe7fbf314816cb736d99cd22e6fd423543825d",
        "ea0f0d973799015398ae36df38dbbe83e2fba9a9dac5316a4594722895a9154a",
    ),
    ('scircuit', 'rcm', 32): (
        "50d595b5dca52f1174e33734c107411160e615d8240da74a5bcafb53fc627ceb",
        "2b69244cfbd292d46d20fc4b8ec49d8e5300530cd13b9c0c47f4850f66d15450",
        "e655352c6b71f2f3c95a98af2ee68f38831ec7b2aeb9d78971b5a56c40e805a8",
        "51f583c20203d9b9c5db976caa52eb55437547ef3c6d080b7231262758c1da00",
    ),
    ('transient', 'nd', 32): (
        "0bcbfef98d7bb6ecbb9cd68215c0c56e3c98534f5f9746448029117c13d4f2ba",
        "336a4300318e008bfaa9e0ddd0a23ad0cc0d2485a66c4a3f6ecaccdbdccb845b",
        "9bd07d0b3be7e28d67d91b16b724e80de0365d0a8b167539512592f69f77aeb4",
        "f774d0c5dbf3a994ef303dbc6fd3c32fb286b23cd382d6db8ae5c48060a618d1",
    ),
    ('transient', 'rcm', 32): (
        "ec27e2061644a4b5b65efa24ce7118d189655222bad3333bb17dea6a1a4b9052",
        "4b797f0659256b62fa38fca6e3cda294afe3d2e809d246a7f1e57b4b74960b97",
        "e913bfad7554b89582b621603ab1facf882babf9e68907f26f21944157a59052",
        "0cd2d55d7070f24fe7937ec2c66bde432cc3af5cbd57a87f5c860f1f6b58dd66",
    ),
    ('offshore', 'nd', 32): (
        "eee62412c8934dd73bdaffb8e9cd859ebb6733a90a7dee542066de45956a29ae",
        "68a92614b03a6c60170e5833f693f9c8dec1ad81a42c1d4f72544a77ea87f07a",
        "ada5d9d958fb513ef0dbaab15b4bd15161a0d5908abf35d1a4710d842bcc11a5",
        "3da6c23ef3f71728324de8ad1baf5f1356d63f1a6c43fee43266525d4e2b0a36",
    ),
    ('offshore', 'rcm', 32): (
        "98a158c2bf217854dd32610a2239c98e59e2333497959bc114619376c315d8b8",
        "107494a26a1c5b8eb65dc58b633828b991cba5a56e6ab503fef074957dcc979b",
        "b2a437233593659e38bc9ed9c7a71143ab6fabc274a59640f65d02c70d21d77c",
        "ecdb2ddbbc1204c8bdd7c006a2917b786def74d903442f34afdfe322fc143176",
    ),
    ('ASIC_320ks', 'nd', 32): (
        "553665abfd08340a108f977fe8523cec94def715a62e389a9a71c0e67b607058",
        "e28ae90dbd624cee3f5b3a8d478e8c07116857ace45f765d940c24713fdd01b3",
        "5ddeb979ce9c96b43b634f2ba98ad3154c4ca7324f745869de4b4923abce5e74",
        "c98041d8e9bc119b6c43c1bfe147c2ade6d70e6038c4ec48fabfaca67e549035",
    ),
    ('ASIC_320ks', 'rcm', 32): (
        "103eb63857701f8b167181c8ba3e162f15112adb8b2ec20882b261e914c9cf57",
        "d23f2d338168384ef3dc1b5d4fab4088113207a9ad9630a7c70c4a12b9458b7c",
        "8fe48780a11745deb77687afc4e4d2f7c47b3efba5147d85747d00a9bd42691a",
        "2744e240006ff7c76e069400653ec8350ce826efdd08d17e1b66a7fd274f9884",
    ),
    ('af_shell3', 'nd', 32): (
        "25df9bb14599c913118034a55c6274f84acbacf8e516d93bf7a90c62f2ce0990",
        "d1a4f2bccaed4e28be58c190aa49a6918baa6e31ef97bfa9dfdf64400d497616",
        "1855b217a32d0cddefb5598c6b8d5423b877d0bf41ef40d879154ddfa78443b7",
        "65a70e5e87e25772a245b328c52c7b2c86e5529d7ea700b6d4e9cd72726ef4bb",
    ),
    ('af_shell3', 'rcm', 32): (
        "6215fa321f472fb6654fb6bf59beecf94887feea55efa009e3a5aa63d2027558",
        "ad1b6b4d269bef0e7786d3119ba0bbd9238adb70576df99306356f914ab1054d",
        "19a7a8c716a7258fe1b8bfc8b6600bf4307acfe241da395434006c728b9dcf39",
        "eed09300f65cd7546cc3ae939e65772ef36c64d8fb83a11cb1042b4eba44e4fe",
    ),
    ('parabolic_fem', 'nd', 32): (
        "6bcc74cdc85f11ac10af4803c73cd961656d483d452e85aae9842145cbd5cc93",
        "dff6eede217a66e991962ca751e0381143c5a2d717946a8826a98ca36cc251f0",
        "446762e35733f8e4275ce32a01cd7c4d60ca2c96672ccd3da2ec6d73b341c65f",
        "d2ef1dc16cf6fe58a6ba8416f3c61138f2ad3170c1b600ca454f35fd7352d6ae",
    ),
    ('parabolic_fem', 'rcm', 32): (
        "e54a9de7cefe23ebcde4c0ba7d47c147e071dfff6b0d2a7216d7e4d74e0e6191",
        "127a957363c746789cab4065243111ad0d5579f2561a691976d0122b1bf6bd74",
        "d7ee3c0eff4eccac480c71e04de8b9987d72f2dab8053189f83ca9e8a5de6f98",
        "06f59afa88225bff9986767f5a95d63dd1041d67811b95bee8daef543c9305a4",
    ),
    ('ASIC_680ks', 'nd', 32): (
        "59f51be53f2f3b1ef769aeffd4df8887e39586563dcd3d19d7d9d115d78ab697",
        "0ae12cc004fef78a20ba02c7b0a9358aefb1cef1b31079d9b8e4c821dd5b4c65",
        "584b241268df197e19f1a80634dc2cf3300da1e9ce23b7fd86350926d611f21e",
        "61ee80e7fd865cae073f07d1ad61a0d4e8b5e219f8845d2221032095e0733843",
    ),
    ('ASIC_680ks', 'rcm', 32): (
        "4212f4e586d5309e663713512b89990dadc1dc07385fa60cf7ff25c3f10d4e6e",
        "6441aee848447f597e6cc6a7a84af7b8c26519fffaba69a67edf8dec164121e5",
        "6a8c69ac590fe3f766e49099a619d9538ea204bf1b9226ee409c1a59ffacce48",
        "8f2b987ee533745b806514d0563de67b471b62d6dc010f5045267201aeea1473",
    ),
    ('apache2', 'nd', 32): (
        "6bcc74cdc85f11ac10af4803c73cd961656d483d452e85aae9842145cbd5cc93",
        "dff6eede217a66e991962ca751e0381143c5a2d717946a8826a98ca36cc251f0",
        "446762e35733f8e4275ce32a01cd7c4d60ca2c96672ccd3da2ec6d73b341c65f",
        "d2ef1dc16cf6fe58a6ba8416f3c61138f2ad3170c1b600ca454f35fd7352d6ae",
    ),
    ('apache2', 'rcm', 32): (
        "e54a9de7cefe23ebcde4c0ba7d47c147e071dfff6b0d2a7216d7e4d74e0e6191",
        "127a957363c746789cab4065243111ad0d5579f2561a691976d0122b1bf6bd74",
        "d7ee3c0eff4eccac480c71e04de8b9987d72f2dab8053189f83ca9e8a5de6f98",
        "06f59afa88225bff9986767f5a95d63dd1041d67811b95bee8daef543c9305a4",
    ),
    ('tmt_sym', 'nd', 32): (
        "fa7c062a2930cb2affafbf098d22e97acca6d0175f340f79e3ff62ecc4197d50",
        "f59c107e5b8a8427786f6e1e8e2f823222eb2caf1499df1863be951a1c017bde",
        "00cdfd2b419761f391ff5556142f4d6ed092048038c919fd4c7bddb0f809e5cd",
        "61f1e1752b30ec3eb134fb633a4d67e51f005dbdbc029248599304f2ddadefe4",
    ),
    ('tmt_sym', 'rcm', 32): (
        "8643fc0b2f3254b243616515cff782a1538740c6ccfeb3a755ee423d9891f547",
        "57195b758e0a96a4ac5479583a00eaa8abe424d333c93cacd16cb9def0954a55",
        "bfe33cdb6e52463d7a3a67e262886de5a132d57c65ebf75684c88caba510a3dd",
        "7ed60909f915cf907bb3cb7790befd12d06345d9a11bbd769a3bb5b914e2de3c",
    ),
    ('ecology2', 'nd', 32): (
        "1ceecbff6f006c13c83254a274c19e69ba357464e842745a928b45fc76bc576c",
        "ff367d77bc3bb639ec02b22ef432c0c01a75f865380fb216487459f813bf4d8c",
        "1921adc9dc14839f18203fc03b624131d06e6d4373e768fcf8dbea359984597c",
        "438dc9a570877b560535f05d6217d8acc2dd6005ad78e35c27d67290957cc457",
    ),
    ('ecology2', 'rcm', 32): (
        "958056b991c910b1517ecf08c3df8aed7a7cc01c08f76ee46eeaae6eecad35d1",
        "979bb22c1c8bc6256a0095bdc0451b8de6fb9912d5e916a3753660a834d5cdca",
        "83e7fe5ef2e100c20ef675ac51b4bccec12c8289045d85fc8336bf0da991d6be",
        "49e6746db29888f2b2792f8a52bcd45ca923edb35a6c5b1006c08a20a5093332",
    ),
    ('thermal2', 'nd', 32): (
        "a71bba7225e787a31d8cb71a95f6353d43906b5c9b85ddd8653ac03a700b6b5b",
        "716daa233aba14dc870e7e97b7a48029e22344f662856da0c34bd87bcfa732af",
        "ae439d8586d459f602fe0c66d2fd69d339fcb0df26e7faf6012983e5057dd193",
        "35afa11ad5b7fc22ffb35a1208040be84d5e8b2f9dd91b76655c5fc8a8d44c56",
    ),
    ('thermal2', 'rcm', 32): (
        "3fbca4887c541d1dcda2a3468c3237b2186dd6a119ca970ca8a0fb5c321651b1",
        "6901187f11b68585859ce7821ec16a828c279d872010b4319dc2a7fd9f55ecbc",
        "fffcce9caacd027994b90609b08930b2e39115e77835fde3d9ba3798574f1def",
        "38a5e04eb1f78267a6db1af553352a3d3e8ee79cb1dedc26a719a0dce23d1e70",
    ),
    ('G3_circuit', 'nd', 32): (
        "06d2468d5b52f4085c493b2de9f0e5de139e1da1b53b2db0d7fb8058d19492ba",
        "96b11c37b716e395fe8f0b321570781f8aee874cf94dfde047d26e5f2bb3b1a6",
        "6ecda64a2e7d93541a098a498016766840c2b89842b288c1ed4ee4e56a1b8030",
        "dcf4d6bc214d2ca63171d58d5a7202cbb7a324513290f2637d6a58c5d8a6c00f",
    ),
    ('G3_circuit', 'rcm', 32): (
        "59debcc083436bcd3476ef9fc1d79ed6213f1f9c460631528ac11ae751bdff73",
        "5d86509594603d63844f0504edfa79cc71e5ccbc4f55e5e5f0f3933ad6d480eb",
        "691d1f671a10089270083e43ad07905048eb2b7c41dbc87225e8d8c42d896ecd",
        "f3ec316da4023c53ddf13ad5852d8939c3ae7900642e803099245934bfbd5763",
    ),
    ('grid2d-64', 'nd', 32): (
        "705250a1a26ac0df78a2edb90712f0bcdf815d50ddfc788fcb831d2ee82e47f5",
        "3210863ef425193d6c8c19f271f7d13283f5a24759b1b80e5cbacaf97bd1b8b2",
        "65ac7b5addfff7a8aa2c1992e7941858d96f6dc3d121bad76565cbfacc4cbb11",
        "49cc2fafeaba9783d0bae14a932be58a7357436ee5b34393faacfdc65f928f16",
    ),
    ('grid2d-64', 'rcm', 32): (
        "460ad5fc29dd8d9fcfa47554927c7cb2eec433fa49cf91afd3c251225761436f",
        "fddadd0c1527233e76d3d5ac97394831fba5f79eefa394dfd61f115d37f354f5",
        "a2f4fb6a2ae457ee5a37cff0c899034bab9cfa139bb83787b2b3f737a9f76e16",
        "a4a6a10ee8e1bf7969f63fe04a4c5ed0160e3423e0416f93a7ad3c8a57626618",
    ),
    ('grid2d-128-conv', 'nd', 32): (
        "f3cf90951aee7456d351a07f99368ac5a1c269c0b140da20e73a8be2b828e067",
        "3c2e6e04552b9f7005f61a2e251a624630deb3fa480c3ac10498b219d8c3c2d9",
        "95bb2eac4cc8060820563b0d66cd2535d7b7830aa20fa40048d136a986433f93",
        "ae86df100ba2a712a396f1eaaf681fc010ceece152b63acb71cf311a1c2f384f",
    ),
    ('grid2d-128-conv', 'rcm', 32): (
        "093c2c7b5427ff0d343a22fbb399c7a4b91cdd7f6be7468fd231a1e39a6c4f51",
        "513d1f3183e06ef8e08c4281baa276da136eb61edeab91bbc5e3bedd0872c007",
        "4787a773cafef9787964ee540ffce9517a2063c1b82bbbc707d6f00264b45cf8",
        "9ec2b5255184d4e11958e9c8840c3563435e6553b63498ec64b43c078d21cf37",
    ),
    ('thermal2@8', 'nd', 32): (
        "f876dbc38bcd65ec079a2ed7020cdea888ffad288d3277d6803124f72bcadc57",
        "d378d63b6c0ccbd472429eee313750f766bf124ac9cbf74b0988605f21d6226d",
        "ad7a351c6a98b46c54258081902ea4bd34fe6345430a27798ef9f15801d65ee7",
        "f262983acbed1df1b4c97a9c19062a71a9f92c4a4c1731383cfe647440ea6a70",
    ),
    ('thermal2@8', 'rcm', 32): (
        "d0075280751c17965302060880e118fe9ab7c332a3f3e90748accd601871a90c",
        "8777577bb6061d2743f8f7d1a2b20bb0128ba282909d908fb120a9bead614f4d",
        "8a7519ac2109bff861d23181bf54f7aed7e16ec88c50c1beec6b37adc1542e49",
        "845dddf02c025c4bb27d10667dae63bf6c3a105ca503472eedd254106306a8d2",
    ),
    ('grid2d-64', 'nd', 8): (
        "6b9429b57cd54796f7d242028ac471f51e7efc075dbd73d045f0fd6c673eb8e9",
        "b262b4f7e97daf50b807963092f2828ec28c03737eec8979cc4ec09e7174855f",
        "30bd63c7eaf9d2898deeaa903d608beedc382f19056449ec31331a8c11982371",
        "899c4b094925898bc2fe70abf3c6286de0810c17b40d6db1ca2e97373e0c3e4f",
    ),
    ('transient', 'nd', 8): (
        "6d4f2edf4bdb9eeec2b218fb8f3ecc5102c3eaee3731bb526a9a20e481658e64",
        "ab0781afb4551f29d1c3644c52f7f65de721f5cb807582c0ce68ea269bcdd31a",
        "ec25dfcd8f6f2d50780026990e92f64a43854019483663251a2ecdb0dd394daa",
        "2d6b4ba816d1155b35cf910f94eee53f8b69d59c7c426823b89b558360bb85e8",
    ),
    ('wang3', 'nd', 8): (
        "5d4e20b97d4a61ca2a218a3893882d8f7fa513fd386a310201b1501c0968080e",
        "2d63aa83391c96a6de8538f7834484c6975ed1627d952b408f9a16bd203d425b",
        "18134a6a5655e523d851989100f462a930ff0e6d40a49c27fa304967aef8c119",
        "5802014fc8824f3f389774d324e3a4b680bebcda6ead5b8bcd61f7360746cf36",
    ),
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-leaf{c[2]}")
def test_preorder_matches_golden(case):
    assert digests(*case) == GOLDEN[case]
