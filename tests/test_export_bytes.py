"""The bytes that ``claimcheck export`` writes: the rules file and one fact
file per relation, for each corpus fixture and the Datalog fixture.  Export
hands the rule sets to an external solver, so its file names, fact order and
declarations are an interface."""

import hashlib
import json
from pathlib import Path

import pytest

from claimcheck.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (task, fixture) -> written file -> sha256 of its bytes
_EXPORTED = {
    ("msan", "msan/audio_buffer_trace.facts"): {
        "allocated.facts": "3a417345568ce3a8d651af6e2717f57e0fd6a5d4d7e357d7b2ee20da788eea2c",
        "flow.facts": "2d77c868c1a910cf98de9dba12007b8c3dd04ef639ee07770cafc692a118a333",
        "memoryError.facts": "f088188a6318fb6e727a21490845673d53ea3ac3dd3fcaaac91448e76cfc311a",
        "program.dl": "b6985949c7b1d00dc2a67274208da7b1ab761ac9d4927204531383e4151cb567",
        "uninitialized.facts": "3a417345568ce3a8d651af6e2717f57e0fd6a5d4d7e357d7b2ee20da788eea2c",
        "uses.facts": "8fe1e20d3a1c626a490df4991e27a9d75688fc7728e0e3e8bc1898fe0f8e5a48",
    },
    ("equiv", "equiv/guarded_call_renamed_fn.bundle"): {
        "binaryFun.facts": "56eb6f4cccb36b3e18430dc464439419a46a09f340056a12d1e49926cecf863b",
        "compared_at.facts": "e078c18a52879fd024dc861b83c161dba0a8abd13811f871e98c074e6677eb35",
        "controldep.facts": "52b775a9680743bcf8984382fe04fdf64e6bce8c1df3ce6a8a75b56865e20fba",
        "def.facts": "7654670cba9360db533f6255cdddda10946f4a7d84b3a3c2487beccc6903c4d7",
        "defWithExpr.facts": "f3d17726132f2558c7de749b2bdd2ff76cd677d1228b7d3d8a406b3879a64912",
        "exit.facts": "b95abad400106601a4f4a76dc07d2b7c60ea16b7113dcc05169e07ba875ede5d",
        "flow.facts": "edc05d51ffa2d8accfb60cbe7d0f317ed3d0bb1aac8bbe3a1a4c25ce1a771eae",
        "other.facts": "a385067639c63d142e5f203678201a5e53bf9059cf1c3945963232f9a0c7680a",
        "pair_cond_site.facts": "cef0aeaf8d9541ed096b1d14c956dda83ddce5ff38461531a93ccc3b1dacf91c",
        "pair_def_site.facts": "6dd5408dcabb5a2ec0b37364a6c8e30a18d5a7d3c964dccfb826d8e7c33f3603",
        "pair_exit.facts": "b6b4ab782dc4c22d38646bd22d251a7627fa34a783ad3833299072b4680af2a4",
        "pair_line.facts": "9ebd1248991696e7a4d6aa77277a7e01376d8675fed3764e08e8a5a644f61d67",
        "pair_var.facts": "4f3e24cf6b9b7d96049d02779864b28b46774506fa8f34c3e5b0e64e9bc69afc",
        "program.dl": "ebeceb48967cc60d9856d54797d5c7187f38ef2a7ff19938ef9ad03b101458a0",
        "unaryFun.facts": "1da5af8badc782f1bc422be8a7e171713a5975d06616945c441725e8d4171f1a",
        "use.facts": "0363a4dd08b7d9dbc3d29dd391af9847f1909d763f499c59a1a45b4214d2a683",
    },
    ("equiv", "equiv/field_assign_reorder.bundle"): {
        "binaryFun.facts": "e6ea0904b2ba339c04a774557107664525ff1850b69851df96fa8cd27e794c9a",
        "compared_at.facts": "33ad132c6db11857a90afbecd44e34c22fdccb2b53d9f72f24eb258f94d7a3af",
        "condWithExpr.facts": "ebfa6fb1dc26def77cd11dc662fdb5f5d5bd40eeaa0058b323d9746856b2fd56",
        "controldep.facts": "fecb6f44d00940590097d56feacdb40f5c9c3442727b194c72df7dc0c718d0a5",
        "def.facts": "715d79cf88ebdec6681bed45508ef81aa2f4d499b3045f38f684ada78c4312c2",
        "defWithExpr.facts": "b8b95c4aee13f924a62c7eb5456c6ab2ebeaeb594c874ccf16437063b20d4269",
        "entry.facts": "3356d3424b1c2f1223ac81df4cc2c64ac67af034be3551fad7b186c717545a04",
        "entry_cond.facts": "351d3c38de3da02e2843f5e939d04b97ce69bc630f6ded560e289f1cdb6c34e1",
        "exit.facts": "7616c55cee54ccc5ddc3c402c0bd71f5ffa85404eaa3764061a06b9a5a64619d",
        "flow.facts": "16d9b29e4439b74aa202383ef7635265334722e39df06ae5eec9601c301d400c",
        "isConstantValue.facts": "688339575101d0ce759463e6ca34a2ffec185668fcd082c0eb89df5b73f24d54",
        "other.facts": "a385067639c63d142e5f203678201a5e53bf9059cf1c3945963232f9a0c7680a",
        "pair_cond_site.facts": "518287359e75933c51a606612387b3a3424602cb0f8b7bf6535da3a92530e0de",
        "pair_def_site.facts": "80c4ec8b960be22d7ebfb412145b5f4add39c62176b885638a71db7f3cca5ea8",
        "pair_exit.facts": "e00a0896a96349aaad7460b9d09b2cbc3d50c301fc4e641a8fd3845233a06830",
        "pair_line.facts": "8573df59fd495189ae6c65d3fb936ab0e5f7de3f75f564ba6799980d014e0ae3",
        "pair_var.facts": "d9abe6741c7d97bd080894daefa67b492456d0c403ca63925330d3c22e401699",
        "program.dl": "ebeceb48967cc60d9856d54797d5c7187f38ef2a7ff19938ef9ad03b101458a0",
        "unaryFun.facts": "34a85584a835cf350a2e6fcd575a90a293d7bb064f82fa0c60d176398ed0b234",
        "use.facts": "9c0bd20f3cf4abf5759cd222fd45bcc78d5adc8bad1c80cc71a3119032b4ec87",
        "watchVar.facts": "27e78dbf0456f7fb79dfbafed5a41cbefc22874040ff36983400e4f34598c588",
    },
    ("equiv", "equiv/loop_cond_swap.bundle"): {
        "binaryFun.facts": "b159c066014306852399b581987277c7b75a1bf41c03af87c3087f812b2cf2e6",
        "compared_at.facts": "e71bfe6a3b584c3ecbbe50e7bc4aaa3eb02fa123f54f319f43f855e7380f663a",
        "controldep.facts": "81e37641c630838ec41cbc97d22c57930782b0e65d8a3442164baad84e84095e",
        "def.facts": "5b13f96e327cb2dfa7820eaed56ebe1a42eccf321875381dcb85b802e9387429",
        "defWithExpr.facts": "817518740b0fcdad3f1702d2b194d48c1f1f1cb5b2c9ca5837186d7b02561526",
        "entry.facts": "5fd29bec53d5dea33af10487fc1c26587ff306bd4eea28d584caab742e4a2cf8",
        "entry_cond.facts": "09669782d9cdc19f04f03da2ffa9953f5fcbe62a90f6c82a5849bd13ef259223",
        "exit.facts": "0a7c6d9d4ee5264400f5aad5e31a6c4b08da30060c03493e9b474eafa0269ebc",
        "flow.facts": "fbecb698fedb4bac29c24f76dbd68401750a88bacee88d74c6221114f63f73f7",
        "other.facts": "a385067639c63d142e5f203678201a5e53bf9059cf1c3945963232f9a0c7680a",
        "pair_cond_site.facts": "5e6ba52abc2b3033960c42a95c15ada48b1db8e276e302680e336f104d0e17f0",
        "pair_def_site.facts": "26c265e6782419d5ece0497f6e5a05e9177a394f7e584e06f416db50bbf3f84a",
        "pair_exit.facts": "ced71f5083f3f57b3720bb6afe693fa7229797b79e9409e999cca349b31fe34b",
        "pair_line.facts": "e88f2b3d3414aa2e5fbb763eb5fc5eb5e8749bf2b6bf77ba4c09c814fbef9faf",
        "pair_var.facts": "0d8a08f245a0b84bffb7df751ad7728349abcb18fd06ed7875fb0bcdb21942cd",
        "program.dl": "ebeceb48967cc60d9856d54797d5c7187f38ef2a7ff19938ef9ad03b101458a0",
        "unaryFun.facts": "dcc20f3aa4fd537074196cefcdf955dbee388ce86a17d1adc4a77cc04e21d7af",
        "use.facts": "f42a23b5614c7d052849567ee4cdfa8cdce4dcaaf9a45155d879810e05c35937",
        "watchVar.facts": "3a38b4929c7d4a08ae00d8af328dbef9d370333fd5e66ccc38adcb6d5b224df0",
    },
    ("equiv", "equiv/switch_vs_ifelse.bundle"): {
        "binaryFun.facts": "831a7c4d08abb543a3562913b651e12e97a93f8f193fcddbb608263ce48ae058",
        "compared_at.facts": "9fa68863cbe5b4aaecd75342cd9be2b3244ebaf53191482811adbb7af38d6013",
        "controldep.facts": "fb81cb397761a0275078875c25d9ccfb1d90afdb301b2e172d61304acc865d92",
        "def.facts": "11e11ea7b2ebf8813b98caaccf6d5aa3f904a7a94b2d0a06425147a19f60ea37",
        "defWithExpr.facts": "091f28559cf6bfedee01ee173525344785d353e462ece7e6ddf515e03faaa252",
        "entry.facts": "e85f1a0b0f696dac89f7d378ecb43e3acb7327d39999fc603f64025854fccbb3",
        "entry_cond.facts": "b74eb4561dc9bf5d30090d61c42c45d91ae1f46ce0086fbe2d60cbdaeb80f3fb",
        "exit.facts": "78ed71f3210d93db45c138fdf2e9419e8c00a8a55a2e78ed57fa994d1ed9fe6a",
        "flow.facts": "e4f93ffe875d27c101bed10a2991f394a6456ff0d959eb89243145a7ce9c982d",
        "isConstantValue.facts": "87e73a8002c036bc3968c69ff1acd5da08d9198fa69b009eeecda745ee7d023e",
        "other.facts": "a385067639c63d142e5f203678201a5e53bf9059cf1c3945963232f9a0c7680a",
        "pair_def_site.facts": "f594054b67aa6f0d1473b57d5f4b6deebf8b09aae3f7e97808776b50563b35ec",
        "pair_exit.facts": "0db2cd404c53a3eadd5c55198549eceb0d943669dcb59c996297b46b74c05190",
        "pair_line.facts": "569db395022698c21e27cec605e1c30ddb4e553981a7e2ba3da9fc791517533c",
        "pair_var.facts": "6dcc49cea6341ea47e4df7c6522e6c13c3c09b3bf4e6532ae22c6d5dc3226324",
        "program.dl": "ebeceb48967cc60d9856d54797d5c7187f38ef2a7ff19938ef9ad03b101458a0",
        "unaryFun.facts": "847bef3dac3eff9aed952d775f0b63f7d20dfa584aa6e8a70392f84f0183f900",
        "use.facts": "d42001cdd335fbd76e2cd55aa1d3e504bcb5b93d75356ec164cece080ead7ab6",
        "watchVar.facts": "0786a2aa8e5cc4b0a61a998aee49a3f770f3a61d4b35e60bac1f802bdf57d70f",
    },
    ("equiv", "equiv/guarded_call_self_pair.bundle"): {
        "binaryFun.facts": "56eb6f4cccb36b3e18430dc464439419a46a09f340056a12d1e49926cecf863b",
        "compared_at.facts": "e078c18a52879fd024dc861b83c161dba0a8abd13811f871e98c074e6677eb35",
        "controldep.facts": "35589a53ec6ef076d8d74d62b7b0920bf927a07914f4a78277785e7c6f6d2e7e",
        "def.facts": "7654670cba9360db533f6255cdddda10946f4a7d84b3a3c2487beccc6903c4d7",
        "defWithExpr.facts": "f3d17726132f2558c7de749b2bdd2ff76cd677d1228b7d3d8a406b3879a64912",
        "entry.facts": "108b26589e0f0b58adb9b9425ccb96213d731b33246138f29c397556e7c86591",
        "entry_cond.facts": "b74eb4561dc9bf5d30090d61c42c45d91ae1f46ce0086fbe2d60cbdaeb80f3fb",
        "exit.facts": "b95abad400106601a4f4a76dc07d2b7c60ea16b7113dcc05169e07ba875ede5d",
        "flow.facts": "f31755578c77180d48b3aff8f5da4c82e24ccf6c079fca0b032b29cba999d9f0",
        "isConstantValue.facts": "10a573de9c2e01088fe422d104254ee38e07cd9b4584767323cdde4f7a927d11",
        "other.facts": "a385067639c63d142e5f203678201a5e53bf9059cf1c3945963232f9a0c7680a",
        "pair_cond_site.facts": "cef0aeaf8d9541ed096b1d14c956dda83ddce5ff38461531a93ccc3b1dacf91c",
        "pair_def_site.facts": "6dd5408dcabb5a2ec0b37364a6c8e30a18d5a7d3c964dccfb826d8e7c33f3603",
        "pair_exit.facts": "b6b4ab782dc4c22d38646bd22d251a7627fa34a783ad3833299072b4680af2a4",
        "pair_line.facts": "9ebd1248991696e7a4d6aa77277a7e01376d8675fed3764e08e8a5a644f61d67",
        "pair_var.facts": "93672d16c00ee595ba24ea6b7f126d8591bfdc080bebd6baea6f50b56b7eb7ee",
        "program.dl": "ebeceb48967cc60d9856d54797d5c7187f38ef2a7ff19938ef9ad03b101458a0",
        "unaryFun.facts": "01bdbd9a9982582af385f55ba41ab6ec8eb152564c1ca5f0579f7641f0c8a669",
        "use.facts": "0363a4dd08b7d9dbc3d29dd391af9847f1909d763f499c59a1a45b4214d2a683",
        "watchVar.facts": "0cebe3acd9ef4bf88d427a237d957da09db381188c50d13cd55bfe199824dc9d",
    },
    ("equiv", "equiv/guarded_call_onesided_watch.bundle"): {
        "binaryFun.facts": "56eb6f4cccb36b3e18430dc464439419a46a09f340056a12d1e49926cecf863b",
        "compared_at.facts": "e078c18a52879fd024dc861b83c161dba0a8abd13811f871e98c074e6677eb35",
        "controldep.facts": "52b775a9680743bcf8984382fe04fdf64e6bce8c1df3ce6a8a75b56865e20fba",
        "def.facts": "7654670cba9360db533f6255cdddda10946f4a7d84b3a3c2487beccc6903c4d7",
        "defWithExpr.facts": "f3d17726132f2558c7de749b2bdd2ff76cd677d1228b7d3d8a406b3879a64912",
        "exit.facts": "b95abad400106601a4f4a76dc07d2b7c60ea16b7113dcc05169e07ba875ede5d",
        "flow.facts": "edc05d51ffa2d8accfb60cbe7d0f317ed3d0bb1aac8bbe3a1a4c25ce1a771eae",
        "other.facts": "a385067639c63d142e5f203678201a5e53bf9059cf1c3945963232f9a0c7680a",
        "pair_cond_site.facts": "cef0aeaf8d9541ed096b1d14c956dda83ddce5ff38461531a93ccc3b1dacf91c",
        "pair_def_site.facts": "6dd5408dcabb5a2ec0b37364a6c8e30a18d5a7d3c964dccfb826d8e7c33f3603",
        "pair_exit.facts": "b6b4ab782dc4c22d38646bd22d251a7627fa34a783ad3833299072b4680af2a4",
        "pair_line.facts": "9ebd1248991696e7a4d6aa77277a7e01376d8675fed3764e08e8a5a644f61d67",
        "pair_var.facts": "4f3e24cf6b9b7d96049d02779864b28b46774506fa8f34c3e5b0e64e9bc69afc",
        "program.dl": "ebeceb48967cc60d9856d54797d5c7187f38ef2a7ff19938ef9ad03b101458a0",
        "unaryFun.facts": "1da5af8badc782f1bc422be8a7e171713a5975d06616945c441725e8d4171f1a",
        "use.facts": "0363a4dd08b7d9dbc3d29dd391af9847f1909d763f499c59a1a45b4214d2a683",
        "watchVar.facts": "f08759abe031bff5e429625b1ceb58416c677dc717c1ae506d487122229306d4",
    },
    ("datalog", "datalog/nonzero_output_check.dl"): {
        "copy.facts": "0c7bf89c4cc3bc701dafc3658cf7c6022effd977b79ffcbe38e544fd22ff2dfa",
        "defNonZero.facts": "322c66eba4d4a932b3e7e2dfaf63ac43f463a3ef8485d3e3672584c47e518101",
        "defZero.facts": "9493985885f1acd67f91eb1c725fe4c30a6d46aff62b1e80d42dfb490bb84d4d",
        "outputFn.facts": "909fbed27417060d98eeeb425024ce918afd2a461818424305a281813fcde644",
        "program.dl": "152993965cd2bdc62af2809716ea07cc085e899175ab80c8078f44e2abc56032",
    },
}


@pytest.mark.parametrize("task,fixture", list(_EXPORTED), ids=[f for _, f in _EXPORTED])
def test_export_writes_the_pinned_files(capsys, tmp_path, task, fixture):
    out = tmp_path / "exported"
    assert main(["export", str(FIXTURES / fixture), "--task", task, "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    assert written == _EXPORTED[task, fixture]


def test_every_corpus_fixture_is_pinned():
    manifest = json.loads((FIXTURES / "corpus.json").read_text())
    assert {(e["task"], e["path"]) for e in manifest["fixtures"]} < set(_EXPORTED)
