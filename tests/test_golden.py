"""Byte-exact stdout of every subcommand, pinned by sha256.

The digests were recorded from the dense-matrix implementations of the
ladder representations and of the Fock realizations.  The band and
per-state formulas perform the same float operations (every other term of
those matrix products is an exact zero), so every byte of ``rep``,
``casimir``, ``deform``, ``verify`` and the BG eigen-residual of
``coherent`` must stay as it was.  Covered: all four sectors at d = 1, 2,
16 and 512, both output formats, the d = 512 deformation and the canonical
fermion; ``verify`` in all four sectors and both formats, from empty
interiors (exit 3) up to 1,000 Fock states.

The remaining commands are pinned in both formats as well: ``diffcheck``
for all four kinds (default and explicit sizes), ``spectrum`` up to N = 12
and over the wide windows 0..300, 395..460 and 1000..1010,
``measure`` (kummer, both moment tables, resolution; exit 3 at ``--tol=0``)
and the two Perelomov families of ``coherent``.  Two ``kummer`` cases with
non-integer c - a and two ``resolution`` labels were recorded before M(a; c; -x)
was memoised per check and its asymptotic 2F0 stopped at the first term that
cannot move the sum; the first ``kummer`` case reaches that 2F0 (R = 164).  The four non-fermion
``deform`` CSV digests were recorded after CSV cells became quoted: their
``residuals`` cell holds inline JSON with commas and quotes.  The two
d = 2048 ``rep`` JSON digests were recorded from the dense
``tolist()`` serialization of ``qp``/``qm``, which ``rep`` no longer builds.
The wide ``spectrum`` windows were recorded while ``brute_force_count``
still walked every (n1, n2) pair and every ``parts`` item was a dict.  The
largest shapes of the benchmark's ``exact`` deck (``diffcheck`` at size 120
in all four kinds, ``spectrum`` over 1990..2000) were recorded while the
band elements were built in Fraction arithmetic and every level piece was a
``LevelPart`` rendered through ``Fraction.__str__``.

The four ``rep``/``casimir`` digests of the noncompact label (1/2,
-100000000000000001/4), whose diagonal passes 2^53, were recorded while each
sector still had its own constructor with typed closed-form squares.

The eighteen ``coherent`` and moment-table digests (all eight BG cases, both
formats of the three Perelomov cases and of the two moment tables) were
re-recorded when every coherent family became one scaled walk over the
exact ladder squares and each moment target the rounded exact ratio:
``norm_constant`` and the coefficients moved by a few ulps, the provenance
took the uniform keys with ``log_norm_sq``, and each moment ``value`` became
``float(ratio_to_first)`` times target(0) instead of a sum of log-gammas.

The nine ``--help`` texts are pinned too, at a fixed ``COLUMNS`` (argparse
wraps to the terminal width).
"""

import csv
import hashlib
import sys

import numpy as np
import pytest

from quadalg.cli import main

# argv -> (exit code, sha256 of stdout)
GOLDEN = {
    "rep --sector=compact --k=1/2 --l=1/4 --format=json":
        (0, "85e3a58473d058eaa9d6cad3a688cfa478e98d42859a32dee0782926b79eb854"),
    "rep --sector=compact --k=1/2 --l=1/4 --format=csv":
        (0, "efbe8ad8d16d7842113fb0522cb9c0221366f3076a09a5933c9618f2cebadb84"),
    "casimir --sector=compact --k=1/2 --l=1/4 --format=json":
        (0, "d2e94a899c31971ca8cab7f259c0b22293a455f6c4ed24fcfb7eba93835a9dc9"),
    "casimir --sector=compact --k=1/2 --l=1/4 --format=csv":
        (0, "1bf7d7af41c3ea9be90018da5b79dd0ac9ead5675e86732d952bb9dee246cafa"),
    "rep --sector=compact --k=1 --l=1 --format=json":
        (0, "f4267c59c67f7fe0f1e8609e57d43b0f7ad81b1e0ef3a5e1bba85fe365ffd64b"),
    "rep --sector=compact --k=1 --l=1 --format=csv":
        (0, "6269cc10f6fda467db4e9f2df875201efce83472995959022c677e6e238085d4"),
    "casimir --sector=compact --k=1 --l=1 --format=json":
        (0, "489511aa74483422a0f45c2f47fd75d22ed1474b6a5ecfc9df8edb78414afe6f"),
    "casimir --sector=compact --k=1 --l=1 --format=csv":
        (0, "9dc74dd2bf123f9ba18f217fd1924b799fec146bdf6722135094832968bcc097"),
    "rep --sector=compact --k=3/2 --l=33/4 --format=json":
        (0, "853b7ac91e41e20d6fddf9b3303d9ef8169a6cd907d1970749581efb82084189"),
    "rep --sector=compact --k=3/2 --l=33/4 --format=csv":
        (0, "59788fde229b3b56225f3d7a89156f22cd9f1f87de7a3340f61636afcd3151bc"),
    "casimir --sector=compact --k=3/2 --l=33/4 --format=json":
        (0, "f8ccee5e4eecb84d135c21881035cec0c0bdbd415eebaabe472341a98498318e"),
    "casimir --sector=compact --k=3/2 --l=33/4 --format=csv":
        (0, "ebad175b0fda37dcffea21624fbdda4f92df5f3f722da20773e49831c102890a"),
    "rep --sector=compact --k=1/2 --l=1023/4 --format=json":
        (0, "5f541d4aa2e03232c4eb6e4645d018ae5ea407ca917d51b025095ab34f28bf6a"),
    "rep --sector=compact --k=1/2 --l=1023/4 --format=csv":
        (0, "9b5b75d5dda4f64fe93f7fc1cad5326c03cf6a1c859abdbd6c3811d797b1bed0"),
    "casimir --sector=compact --k=1/2 --l=1023/4 --format=json":
        (0, "7398a1bdf5b50d9053d679a23384275504441e21aef3bd5dceef95cc1bd2f403"),
    "casimir --sector=compact --k=1/2 --l=1023/4 --format=csv":
        (0, "6ca0e95faac87cc39b1002a3cd3f7b025a1319f169e6a67ac641b12eff057357"),
    "rep --sector=noncompact --k=1/2 --l=1/4 --dim=1 --format=json":
        (0, "dd1bfc7e319b74ecf891f4ed2c1af87b409b570ac110a164f4c056e703d4c53d"),
    "rep --sector=noncompact --k=1/2 --l=1/4 --dim=1 --format=csv":
        (0, "efbe8ad8d16d7842113fb0522cb9c0221366f3076a09a5933c9618f2cebadb84"),
    "casimir --sector=noncompact --k=1/2 --l=1/4 --dim=1 --format=json":
        (0, "0f9ce83143db4abc739967e57646dbaaa342c7d88640301f507ea4b9adc8b30d"),
    "casimir --sector=noncompact --k=1/2 --l=1/4 --dim=1 --format=csv":
        (0, "e307b86b15bbb84a73673164107931c035208a472724cf8739942a8e3895a48f"),
    "rep --sector=noncompact --k=1/2 --l=1/4 --dim=2 --format=json":
        (0, "f3f220199971446c0bd165e85f9294ba07a82653b4f788f35ce2688450c9822b"),
    "rep --sector=noncompact --k=1/2 --l=1/4 --dim=2 --format=csv":
        (0, "dda341183cfb1492f7662123b2ee9607c884875ebe2606d78f7c0e223e588011"),
    "casimir --sector=noncompact --k=1/2 --l=1/4 --dim=2 --format=json":
        (0, "8083320f8a2d762b808ca577a7df7261dfcaf890896bce740aa9e7b31b1c76d7"),
    "casimir --sector=noncompact --k=1/2 --l=1/4 --dim=2 --format=csv":
        (0, "6d79b0161bbe5b77e72d543058667e257efd310fdce6dc2c6b89757c501bd5fa"),
    "rep --sector=noncompact --k=1/2 --l=1/4 --dim=16 --format=json":
        (0, "63c2b6f7cfccf459db42f0cab1c0144ab0a2022f78563928d10cf89dc5f4a422"),
    "rep --sector=noncompact --k=1/2 --l=1/4 --dim=16 --format=csv":
        (0, "ddb7013dab958c4a9f8d622fc5760b263b798290c7356c1a29d333d85307564b"),
    "casimir --sector=noncompact --k=1/2 --l=1/4 --dim=16 --format=json":
        (0, "2d56f292c08780e225845c4f83686b8800ff945986df30e33a45a4f7ae4f15da"),
    "casimir --sector=noncompact --k=1/2 --l=1/4 --dim=16 --format=csv":
        (0, "4e0ff0baabea48191b848b17c1c32812427a303edc4996ddc2e75c687a065f0e"),
    "rep --sector=noncompact --k=1/2 --l=1/4 --dim=512 --format=json":
        (0, "f04fbd72fe268faa4964ae4610054ee15df39c0f1343abb80ad4538a1d11a8e0"),
    "rep --sector=noncompact --k=1/2 --l=1/4 --dim=512 --format=csv":
        (0, "5ba5350eee1302593d3cbc2f34e66c597ae13ae55282ffb892b2eaad0337f9aa"),
    "casimir --sector=noncompact --k=1/2 --l=1/4 --dim=512 --format=json":
        (0, "3eacae1ba410830f0b187a3657a4609ed8993b232d21543b0181a1bcb1dd7580"),
    "casimir --sector=noncompact --k=1/2 --l=1/4 --dim=512 --format=csv":
        (0, "e6dcf75aa68e4a8b5254098eb9badb669c564be96d8bd3821e7e10c462669df0"),
    "rep --sector=noncompact --k=3/2 --l=-1/4 --dim=16 --format=json":
        (0, "b22af7b7b23a7fb83bf645c8110c9b9ae8867e59e687f3dfc7d7a8c4ebd22593"),
    "rep --sector=noncompact --k=3/2 --l=-1/4 --dim=16 --format=csv":
        (0, "c7e03f5a3f16bd0ab1a9696f5a2747a3769880546c1cecd2bd2294bc08560227"),
    "casimir --sector=noncompact --k=3/2 --l=-1/4 --dim=16 --format=json":
        (0, "fa8052b06869a4214a5db8d79771bfed32306981d8dd3dcf0a4e5ae06b6ed81b"),
    "casimir --sector=noncompact --k=3/2 --l=-1/4 --dim=16 --format=csv":
        (0, "51bcce2d9d8e0b1643abe3af1fddcfa9aa09e7c68789433644350838e84cd264"),
    "rep --sector=noncompact --k=5/2 --l=3/4 --dim=16 --format=json":
        (0, "0caa4a327d623c5ca38e53743c713fb62bde43f6ac04545d5e801b8bbe9d7da7"),
    "rep --sector=noncompact --k=5/2 --l=3/4 --dim=16 --format=csv":
        (0, "afe99fcbbd071a3b7ad4de24e54aed46ef3481355a008ffec8bcabb513e39668"),
    "casimir --sector=noncompact --k=5/2 --l=3/4 --dim=16 --format=json":
        (0, "8871fc6c3cb2ffb4c72dca5a414a3639a9e3d84187526fd870bdcb9b43302b69"),
    "casimir --sector=noncompact --k=5/2 --l=3/4 --dim=16 --format=csv":
        (0, "c079eda5d22fc1da15500cafdf4c6d52612bc4ae5855e1751f7a8b760d1ac49d"),
    "rep --sector=su2 --j=0 --format=json":
        (0, "6aed408910943a486aada06f0346da722117d862c47f49804dbbb795bda50bf2"),
    "rep --sector=su2 --j=0 --format=csv":
        (0, "fe4c072e37957ac2b2e4057d145292a06e30f4f3913a120b6c7cd74520d22732"),
    "casimir --sector=su2 --j=0 --format=json":
        (0, "2d38478ab7a597341162e92c25d0b97686a1f6d2e5a229a0f3c96a053c3a86b9"),
    "casimir --sector=su2 --j=0 --format=csv":
        (0, "09e30b9cb3da9352cf5192ae4f46ed14052c546eeef9fa6aeb9a5e42ea4421c8"),
    "rep --sector=su2 --j=1/2 --format=json":
        (0, "42720b106cf36430b0c220c826ef8c0ace92123a98523e038ca13870b6374849"),
    "rep --sector=su2 --j=1/2 --format=csv":
        (0, "b9318586a00bdab0024437059166e0294084494b5398b9a41b5c85dd0f04c859"),
    "casimir --sector=su2 --j=1/2 --format=json":
        (0, "1706a7ac6f350fc2588b127259dad72cd816bc74e2a706fdfe4ac8c522e9b2a8"),
    "casimir --sector=su2 --j=1/2 --format=csv":
        (0, "dbecbf186d46addda361a167f60457ac31a2617825d6c3354e8ddef0e7588a93"),
    "rep --sector=su2 --j=15/2 --format=json":
        (0, "38de7f38b1c365f310d5101bca3e4fb76b7b1610d2cd7cd81735cb1cdc2ae620"),
    "rep --sector=su2 --j=15/2 --format=csv":
        (0, "2d0199f7763e0033256ea69f39544c8c5e6c55085022cfa2385ff1b13d8d202c"),
    "casimir --sector=su2 --j=15/2 --format=json":
        (0, "6083d2901d8a359c7a6ef847d75611a4ffefaf04f84e36526af7c98bd25af8b4"),
    "casimir --sector=su2 --j=15/2 --format=csv":
        (0, "59307e3ef5d281700c3c004f4a709c7fdcd89dc467f2bbb6de695048bfb06350"),
    "rep --sector=su2 --j=511/2 --format=json":
        (0, "bd337d5a89b44f10e5cf0c07dca29f77aa13aa9b92dadc3011a14f7ee5d2e077"),
    "rep --sector=su2 --j=511/2 --format=csv":
        (0, "c3239cf8cccfc26139578eee99df05be694ab23a5e9a3f36fba710e1d6d464f1"),
    "casimir --sector=su2 --j=511/2 --format=json":
        (0, "68352a186d2240db0988a7140f0f50e9b9142b577ad43f660d2069d0af9c4f4b"),
    "casimir --sector=su2 --j=511/2 --format=csv":
        (0, "1070ddcfef9a1731ead4f0f9c886de87aafdf705b514428e50bee77fe2a6c710"),
    "rep --sector=su11 --k=1 --dim=1 --format=json":
        (0, "f3de303f7c7184ad9cf718defa37567a9fb483a7e281c8a69637ea4c750b4ffb"),
    "rep --sector=su11 --k=1 --dim=1 --format=csv":
        (0, "d388da4f872caef59f5ade88091088b1933cb45cbee568f972eda5e617bfca13"),
    "casimir --sector=su11 --k=1 --dim=1 --format=json":
        (0, "296753d0d328b5ebc71f3713bdd54188810acd1d5b6e95668e348eb37e6be809"),
    "casimir --sector=su11 --k=1 --dim=1 --format=csv":
        (0, "a323519542563de14f6409ebcccc07f31df27470b9f054655e6eadd13a21523d"),
    "rep --sector=su11 --k=1 --dim=2 --format=json":
        (0, "6cb07512ffce07eb94976905418e298796e0274cab3bf7322cabe4d70dcfc3be"),
    "rep --sector=su11 --k=1 --dim=2 --format=csv":
        (0, "f870b5d2170591f43b70bbf9c2b2eceebed437e9d53380469e574bcffc612222"),
    "casimir --sector=su11 --k=1 --dim=2 --format=json":
        (0, "85b09ef7abc34b3b7f0ffc6c1f97ecc9e3dce2150696025f4a92423c0e1bba07"),
    "casimir --sector=su11 --k=1 --dim=2 --format=csv":
        (0, "332d3942bf83745356d70e8266464c129b1d2d770f206264a845483ea93c69f3"),
    "rep --sector=su11 --k=1 --dim=16 --format=json":
        (0, "860215bac96bba9737008362ee7114874c165fc8479832c12c220425bd160b65"),
    "rep --sector=su11 --k=1 --dim=16 --format=csv":
        (0, "640b73e4a05a6389716762c135fce267fc073da3ee77344de7f469816bc3e72d"),
    "casimir --sector=su11 --k=1 --dim=16 --format=json":
        (0, "e1e89dd02a5609ad062de6b52cff405708a7403a885d63e715918bd6b80bec73"),
    "casimir --sector=su11 --k=1 --dim=16 --format=csv":
        (0, "b22156865f752b262074cc9ed48c39a2fefb7ad48e9497859b4b5a0c3c6b42c8"),
    "rep --sector=su11 --k=1 --dim=512 --format=json":
        (0, "867f42d815e4ff39f66320a1ad399c54512aab328c50be3604ab171640b16ac4"),
    "rep --sector=su11 --k=1 --dim=512 --format=csv":
        (0, "0b4ac279dd4f162e8e986ffbd772b3e67b0e9158ddcefabf11c0cad9d0b6aae8"),
    "casimir --sector=su11 --k=1 --dim=512 --format=json":
        (0, "f0e9ce10d5494e3d076cfab35fe6d569436a160917a224ab194ed695ed3c19a8"),
    "casimir --sector=su11 --k=1 --dim=512 --format=csv":
        (0, "b3b09f875a47023dac517e41efe09d45a54c5d87f3b8a6e299afc313ed4c3c39"),
    "rep --sector=su11 --k=1/2 --dim=16 --format=json":
        (0, "e1f0777e57f2d8d6f5dd6708bfc2e55dd075c50f5cf7068d982068a0633b6cc9"),
    "rep --sector=su11 --k=1/2 --dim=16 --format=csv":
        (0, "dd922d3a5fb858f72e16ca95437d6c218542dd59f32d6672d2819f628443cc7b"),
    "casimir --sector=su11 --k=1/2 --dim=16 --format=json":
        (0, "fa5ea21e9992dfb591ff6d1d6048dc93b09d4d9906e27e118cd80a9ceb014ebf"),
    "casimir --sector=su11 --k=1/2 --dim=16 --format=csv":
        (0, "c7fa2183077fd0241b8e02f11663a536e42e4fef00598acdbc4041077a473319"),
    "deform --k=1/2 --l=1/4 --format=json":
        (0, "22e3509ef7b204701263ea8b7101526e962f7069b642415ab8bfcc1510969bca"),
    "deform --k=1/2 --l=1/4 --format=csv":
        (0, "f201d7198d74d3b3c67ba20778609bb0eaffa323c64ab332acf2a554a2113df0"),
    "deform --k=1 --l=1 --format=json":
        (0, "716fa171dae63828758858d375c2397fc9bd3f02683bf5df7a690b9c76b0ff55"),
    "deform --k=1 --l=1 --format=csv":
        (0, "fd2f29ecd4fcd5105ca25468b6448f264cb53212e380ab2767ce6c09c54e2407"),
    "deform --k=3/2 --l=33/4 --format=json":
        (0, "1215e526081726dbb1195ad483d4a79470c12655dfb27abd371bec6255cbb62c"),
    "deform --k=3/2 --l=33/4 --format=csv":
        (0, "8af975136d94a13fd8c278a2e8e6d12289bfc15e94eeeca9d003926ef3603b47"),
    "deform --k=1/2 --l=1023/4 --format=json":
        (0, "1e12f392cf2eb3084ff66c7fd259e5ec9ff07541efdc91ae8b93243eb0fbfd8e"),
    "deform --k=1/2 --l=1023/4 --format=csv":
        (0, "173c9f89f4fe768ab56c52e15e7348ec691230e69a5fa9d9998c44d173e556c1"),
    "deform --fermion --format=json":
        (0, "529fc03411a8723897d01bb872a3235ff779a9f60aa827944fc81def63e8d63c"),
    "deform --fermion --format=csv":
        (0, "7de38e11450384f44590d15ceb34f6df5278574528921ca7a9a264aeccaae7ab"),
    "deform --k=1/2 --l=1023/4 --tol=0":
        (3, "15fd005ba7d22fbaf1e9aacec7da8f293018371098601c566d9801060fb45444"),
    "coherent --family=bg --k=1/2 --l=1/4 --param=1+1j":
        (0, "b6bd08175f96a1ec062167baa793317cec4754c3e87436183ab53e0ac272e224"),
    "coherent --family=bg --k=1/2 --l=1/4 --param=0.5":
        (0, "57e89b8a1db82ee73d92959cf24a3291da16874a12fa4529dd03d5ebc99de3a8"),
    "coherent --family=bg --k=1/2 --l=1/4 --param=60+80j":
        (0, "3efc02448c98468e389064527817dae438a97f0fe50ae7bd1583b05cae358664"),
    "coherent --family=bg --k=1/2 --l=1/4 --param=0":
        (0, "d8c3d3afcabc1cb5446bf818b743b65e6c23b27c60f67310ee79640068d52b9d"),
    "coherent --family=bg --k=3/2 --l=1/4 --param=2-1j":
        (0, "376e946693359cba0c398cecc2cfd7b7ba1fc96337ab6861275e98ef175a04d7"),
    "coherent --family=bg --k=1 --l=0 --param=0.3j --dim=16":
        (0, "b251ccf5014a3902c3f7b3381661b93cd7474723c1942eae98dea4efee5544b5"),
    "coherent --family=bg --k=5/2 --l=3/4 --param=-4+0.5j --dim=64":
        (0, "4926fdd026acf74c886e3cf750c5c0bf674035d03c787fd6eecfc1749dd38136"),
    "coherent --family=bg --k=1/2 --l=1/4 --param=0.5 --format=csv":
        (0, "b8fb32ff219308d84a6bd6989ac0758b8bad9cbb1674a660ab7436a1f09ca826"),
    "coherent --family=bg --k=1/2 --l=1/4 --param=3 --dim=4":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "verify --sector=compact --cutoffs=1,1,1 --format=json":
        (3, "d8fe5e6927b45aad7b7f9d4c9100b4e865657253d46839de429baccbdf37ffa9"),
    "verify --sector=compact --cutoffs=1,1,1 --format=csv":
        (3, "133d14a31df7c59d2560518b3cbfa629a722c3dc6983d86a0f2dd63cd90d101c"),
    "verify --sector=compact --cutoffs=7,8,6 --format=json":
        (0, "3ea47a88fb6856b4fe385d58550dc927ba35029ca773a0e0b95aa9624d544fb2"),
    "verify --sector=compact --cutoffs=7,8,6 --format=csv":
        (0, "fb191bedd7d5fc283d15d8527d9dcb9b30c644a6d1adb305ceb2e334854a40df"),
    "verify --sector=compact --cutoffs=9 --format=json":
        (0, "3787d3abd7121defeaf754e75113bc2dbc37d9e7e610ee421aab4cd984d2ae8d"),
    "verify --sector=compact --cutoffs=9 --format=csv":
        (0, "36ba9ae4575712f4fd9186183ea8a59bff111611ac01625776ae938c4d5e6305"),
    "verify --sector=noncompact --cutoffs=1,1,1 --format=json":
        (3, "3f55df3fc7448b812e50c282898a93e71f14a77826517ec07d459cd367a096ad"),
    "verify --sector=noncompact --cutoffs=1,1,1 --format=csv":
        (3, "133d14a31df7c59d2560518b3cbfa629a722c3dc6983d86a0f2dd63cd90d101c"),
    "verify --sector=noncompact --cutoffs=7,8,6 --format=json":
        (0, "25597002068c18e492ab0b096416c5e6f6a89f24df40f2a2436e21577dd4ed3e"),
    "verify --sector=noncompact --cutoffs=7,8,6 --format=csv":
        (0, "0d18eb2d08ef2f65c69ab0ce52e0f2cffe0317dbc7dd5d48bd5f69bb6caf040e"),
    "verify --sector=noncompact --cutoffs=9 --format=json":
        (0, "5f515295c798294f4dfca88f3f54d49bcc61bfe6b7da6325193596d6c1dbe542"),
    "verify --sector=noncompact --cutoffs=9 --format=csv":
        (0, "79db0cea7e8ce6e27724a0397dcf2c2277d4c72355a7457f928773fe96ee222d"),
    "verify --sector=su2 --cutoffs=1 --format=json":
        (3, "9c0b73979ce354190e13025fc271989cf8ff74156b1279ff21e22a3ec3e30112"),
    "verify --sector=su2 --cutoffs=1 --format=csv":
        (3, "56468bb70e1cadbd1341b92f297ac45d0f8b97d3f3c44b48faa6593d59d22279"),
    "verify --sector=su2 --cutoffs=24,20 --format=json":
        (0, "5adae57a6878eca6a2f2c50329440fd200129b609f48bf20fc6c78b3bdaf673d"),
    "verify --sector=su2 --cutoffs=24,20 --format=csv":
        (0, "340f6cd69bb6bf8bafb496e78d6f35b5e345b43c630236f7d8a925d904153b0e"),
    "verify --sector=su2 --cutoffs=30 --format=json":
        (0, "23b3c128c3024120aaa549d62960fe16d930951d15b31eceb402efe8c9698012"),
    "verify --sector=su2 --cutoffs=30 --format=csv":
        (0, "e0307ccdcdfb0bba9a7367ac7b0c4a04fbd0a6224d8e8ff4678a1be69f015452"),
    "verify --sector=su11 --cutoffs=1 --format=json":
        (3, "6cae05a1e9d3b5f3b2da325a9bccdabda7260923d504bb5e504c03bf0cbce7f0"),
    "verify --sector=su11 --cutoffs=1 --format=csv":
        (3, "56468bb70e1cadbd1341b92f297ac45d0f8b97d3f3c44b48faa6593d59d22279"),
    "verify --sector=su11 --cutoffs=24,20 --format=json":
        (0, "cc87a984477bd8f219286c7740de65d5236fd283f3bf187bad402afdc5ffc2f1"),
    "verify --sector=su11 --cutoffs=24,20 --format=csv":
        (0, "43073804263447656ea7a000bdd8330c7ecc6bd941f54be2673d8307baf8a0af"),
    "verify --sector=su11 --cutoffs=30 --format=json":
        (0, "6ddff9617b79fe0f935bce6ef62a92ec0627c0ebd772cdc5b49920cb7cd186d9"),
    "verify --sector=su11 --cutoffs=30 --format=csv":
        (0, "14267f1b0986c7f2890596ba40ad1c40dcd9d5d1de877c047a6f2bdfa7eb15f7"),
    "diffcheck --kind=su2 --j=3/2 --format=json":
        (0, "df59fa447e0b12f33053f9c594499e7d795eafebec9e3edaa86bd9c8dbead8a4"),
    "diffcheck --kind=su2 --j=3/2 --format=csv":
        (0, "75b22fbbf7b0f5982ef3bd19c39e91c83a95ffefd1590727d08db94919cf427f"),
    "diffcheck --kind=su11 --k=1/2 --format=json":
        (0, "10bf35dbe42e147faf0461e940aa70e2f05910e1afd93c029725f22e5d873347"),
    "diffcheck --kind=su11 --k=1/2 --format=csv":
        (0, "75b22fbbf7b0f5982ef3bd19c39e91c83a95ffefd1590727d08db94919cf427f"),
    "diffcheck --kind=su11 --k=3/2 --size=20 --format=json":
        (0, "9596d74c04be17433beb975a4bffeaf8ff4a9c6881faa6438652c4b8bde7b626"),
    "diffcheck --kind=su11 --k=3/2 --size=20 --format=csv":
        (0, "75b22fbbf7b0f5982ef3bd19c39e91c83a95ffefd1590727d08db94919cf427f"),
    "diffcheck --kind=compactQ --k=1/2 --l=9/4 --format=json":
        (0, "0548cbe14034211f5693a1ff7ae3256cab7e325bf95d9cece0854123317da1e5"),
    "diffcheck --kind=compactQ --k=1/2 --l=9/4 --format=csv":
        (0, "75b22fbbf7b0f5982ef3bd19c39e91c83a95ffefd1590727d08db94919cf427f"),
    "diffcheck --kind=noncompactQ --k=1/2 --l=1/4 --format=json":
        (0, "1da8e8de650a1bbf38cd5e83b2cc39e5845d6a6d28a02f6f7df8415e38626c7c"),
    "diffcheck --kind=noncompactQ --k=1/2 --l=1/4 --format=csv":
        (0, "75b22fbbf7b0f5982ef3bd19c39e91c83a95ffefd1590727d08db94919cf427f"),
    "diffcheck --kind=noncompactQ --k=5/2 --l=3/4 --size=20 --format=json":
        (0, "7805d44f2ec5377728cc5963176f20d82722c99e702cd6d6f245d767768d5512"),
    "diffcheck --kind=noncompactQ --k=5/2 --l=3/4 --size=20 --format=csv":
        (0, "75b22fbbf7b0f5982ef3bd19c39e91c83a95ffefd1590727d08db94919cf427f"),
    "spectrum --from=0 --to=12 --format=json":
        (0, "8ac5623e3fdba4206bb74561de04a9f15ee697bee17e843fc3c05264bbbffba9"),
    "spectrum --from=0 --to=12 --format=csv":
        (0, "6fe3223dfd9bdfa235c125694f1f36bb8abbb53105ef2c19407d435be7e44d1a"),
    "spectrum --from=0 --to=300 --format=json":
        (0, "f2a24c48ef41554e4528481f44bfa1b5648ced12d3f7fc311a2b2707202fec28"),
    "spectrum --from=395 --to=460 --format=json":
        (0, "a66c7acbb91e3b0ce27f11aae53568483143f382a132c1ed6e6c2baa4f0de576"),
    "spectrum --from=395 --to=460 --format=csv":
        (0, "2cd46947384d7b132f3cbb87339dfb5a5bb211246ecaf40f9316550225e9f314"),
    "spectrum --from=1000 --to=1010 --format=json":
        (0, "eb455113b3b76816bfbce05ab7375a6003d68ec8c5a39b64b8c8e008278afbfa"),
    "spectrum --from=1000 --to=1010 --format=csv":
        (0, "68f700f2c19cfd9297de78ca63e6526df91012a703a884839ce5f97ee6f47312"),
    # the largest shapes of the benchmark's exact deck: size 120 in every kind, and N near 2000
    "diffcheck --kind=su2 --j=119/2 --format=json":
        (0, "eb6afd082ecb965c872e6796b9b784395be84e466213745ec4e956f9432d0449"),
    "diffcheck --kind=su2 --j=119/2 --format=csv":
        (0, "75b22fbbf7b0f5982ef3bd19c39e91c83a95ffefd1590727d08db94919cf427f"),
    "diffcheck --kind=su11 --k=7/2 --size=120 --format=json":
        (0, "09090a0ba900df1409d6608ecd28fddb9c669c0e373c3ec611a38a2695149e5a"),
    "diffcheck --kind=su11 --k=7/2 --size=120 --format=csv":
        (0, "75b22fbbf7b0f5982ef3bd19c39e91c83a95ffefd1590727d08db94919cf427f"),
    "diffcheck --kind=compactQ --k=5/2 --l=243/4 --format=json":
        (0, "530c9e99c973c6ab778222b7b9332476aa78df265d455fc4bf1491d5d01cd820"),
    "diffcheck --kind=compactQ --k=5/2 --l=243/4 --format=csv":
        (0, "75b22fbbf7b0f5982ef3bd19c39e91c83a95ffefd1590727d08db94919cf427f"),
    "diffcheck --kind=noncompactQ --k=5/2 --l=3/4 --size=120 --format=json":
        (0, "236620ad7104a8fa5a143fd710b32829c1dec178f2afe6ed5e6db62b4d06f7fb"),
    "diffcheck --kind=noncompactQ --k=5/2 --l=3/4 --size=120 --format=csv":
        (0, "75b22fbbf7b0f5982ef3bd19c39e91c83a95ffefd1590727d08db94919cf427f"),
    "spectrum --from=1990 --to=2000 --format=json":
        (0, "03f567cad788f6714f9d1dbdc2279820d60db3fa11bb222ab9569765c3d484db"),
    "spectrum --from=1990 --to=2000 --format=csv":
        (0, "aa4fc32a6f6f78dff00d6cf90511b2f91a2e83a3def13d056c80b08a44b1f6ae"),
    "measure --check=kummer --a=3 --b=1 --c=2 --format=json":
        (0, "dc8cc1632576c383db96e6c89db7c5bedcb47dfc0012d9af6ea6a0178049e43b"),
    "measure --check=kummer --a=3 --b=1 --c=2 --format=csv":
        (0, "a127750f8055fd9ab1abb30b4adbcd7c815594aa971191ac52619a5dad84052c"),
    "measure --check=kummer --a=3 --b=1 --c=2 --tol=0 --format=json":
        (3, "dc8cc1632576c383db96e6c89db7c5bedcb47dfc0012d9af6ea6a0178049e43b"),
    "measure --check=kummer --a=3 --b=1 --c=2 --tol=0 --format=csv":
        (3, "a127750f8055fd9ab1abb30b4adbcd7c815594aa971191ac52619a5dad84052c"),
    "measure --check=kummer --a=7.5 --b=2.5 --c=3.2 --format=json":
        (0, "42ae94a6011fce6306770f5e0d7a5d9212d77d04230d748a8e234e87b832e73b"),
    "measure --check=kummer --a=7.5 --b=2.5 --c=3.2 --format=csv":
        (0, "e06d9906eb86ac49326983f9730c9929359f040455c57b5349d877e6f766b0b0"),
    "measure --check=kummer --a=6 --b=0.6 --c=5.5 --format=json":
        (0, "5816a58a43935d6921a22624ea729b191e108b185d24cede14a127d7541353db"),
    "measure --check=kummer --a=6 --b=0.6 --c=5.5 --format=csv":
        (0, "5a173ec61c45d03be090eea3d3ebf79f4fc3dc01e109e9753796a2ab0eb9eae3"),
    "measure --check=resolution --k=2 --l=7 --format=json":
        (0, "5c97171bf220d8135e49af254109136c49b26cf5b26cd41694427a4485617d31"),
    "measure --check=resolution --k=2 --l=7 --format=csv":
        (0, "c71ad72345d51bc25636d662bfb7c535b0c6f57ee30837c4b46dbe4409ad0fec"),
    "measure --check=resolution --k=1/2 --l=27/4 --format=json":
        (0, "c4e2acd591acfd0a70cb3285f64773a31dc780fab6b55b573e93f0574206e044"),
    "measure --check=resolution --k=1/2 --l=27/4 --format=csv":
        (0, "a219104c7780bc004e5f29c0638adb0acb482ef72366c92590f99123964f0cc3"),
    "measure --check=bg-moments --k=1/2 --l=1/4 --format=json":
        (0, "8c47df966428f2993a54ade1c67376a12e5e62e5a46c81f1e1f3854239a8ea51"),
    "measure --check=bg-moments --k=1/2 --l=1/4 --format=csv":
        (0, "82f3133415fbf8883999ce266e7fe62c79bec2e3906a7e096e55757bc50357d6"),
    "measure --check=perelomov-moments --k=3/2 --l=-1/4 --max-n=7 --format=json":
        (0, "421f19b0de6b948f61ea0f40f669e31e6bd7dbb1c1650219b6291067212079fd"),
    "measure --check=perelomov-moments --k=3/2 --l=-1/4 --max-n=7 --format=csv":
        (0, "a3198c6a0d3c065dafc79fad6f856a16c973c0f00ae600e5fe33579c6beb64dd"),
    "measure --k=1/2 --l=9/4 --format=json":
        (0, "ea98ff158e0f688c767e33e3a6b0598b43d08d9c8e67ecb9f6b231f9f7ec8482"),
    "measure --k=1/2 --l=9/4 --format=csv":
        (0, "40bb88dabcb674a5ea2ec04448298be1871e9f65717a38370f49e3e38d691017"),
    "measure --k=1/2 --l=9/4 --tol=0 --format=json":
        (3, "ea98ff158e0f688c767e33e3a6b0598b43d08d9c8e67ecb9f6b231f9f7ec8482"),
    "measure --k=1/2 --l=9/4 --tol=0 --format=csv":
        (3, "40bb88dabcb674a5ea2ec04448298be1871e9f65717a38370f49e3e38d691017"),
    "coherent --family=perelomov-nc --k=1/2 --l=1/4 --param=0.4+0.2j --dim=24 --format=json":
        (0, "1333e5f9ffcb22fb24ccbd174114441977649d372d065316ba4a8ebd24bc212b"),
    "coherent --family=perelomov-nc --k=1/2 --l=1/4 --param=0.4+0.2j --dim=24 --format=csv":
        (0, "2d98ad84bd048204d6bbba4101d9200f37535e0abcdc7d84128c6b06de813e15"),
    "coherent --family=perelomov-c --k=1/2 --l=9/4 --param=0.3-0.5j --format=json":
        (0, "7065ccd3114e698c9a91dba83d5ac397578ae33d2fcd0e655def3459a38990eb"),
    "coherent --family=perelomov-c --k=1/2 --l=9/4 --param=0.3-0.5j --format=csv":
        (0, "0e4e5673717b862b5929dd04ce10edda11e4edcc98a4757aa64012d4901ce355"),
    "coherent --family=perelomov-c --k=3/2 --l=17/4 --param=2+1j --gamma-form --format=json":
        (0, "f08e972a864318f52ef7924d1fe61bdcd3bd1ce29d1b3414ebc33f30b471843b"),
    "coherent --family=perelomov-c --k=3/2 --l=17/4 --param=2+1j --gamma-form --format=csv":
        (0, "854b5f19cbab399ecedd2711d720138da9b9e3ee704243fe2f181ca2f13991d7"),
    "rep --sector=noncompact --k=1/2 --l=1/4 --dim=2048 --format=json":
        (0, "c3edd37d8e00cd2fc7c755a155595deda7f837cd261a560bc6daf0cc9923bc96"),
    "rep --sector=su2 --j=2047/2 --format=json":
        (0, "fa912f7d458b167bbc72a739701c33229837370160d2c55f02024228f5e6d8eb"),
    # |q0| > 2^53: each diagonal entry is its own rounded Fraction, not float(q0_0) + n
    "rep --sector=noncompact --k=1/2 --l=-100000000000000001/4 --dim=4 --format=json":
        (0, "f828133654d57fb022bb268a425e43dc10a007dff78131542487a39b641a575e"),
    "rep --sector=noncompact --k=1/2 --l=-100000000000000001/4 --dim=4 --format=csv":
        (0, "ee8e1a9efac236e9e21951c0599becce903b3caadf9c392c649912cdb98a019d"),
    "casimir --sector=noncompact --k=1/2 --l=-100000000000000001/4 --dim=4 --format=json":
        (0, "c8db88a64a36fff1a95e9beba44be5109b45700f6975ac38ed9376ac99e835d2"),
    "casimir --sector=noncompact --k=1/2 --l=-100000000000000001/4 --dim=4 --format=csv":
        (0, "1c59b0887105d2fd35a75e9a71834a09e922ff90b580809eebc11ed475b7543c"),
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_stdout_bytes(argv, capsys):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[argv]


# argv -> sha256 of the help text at COLUMNS=80
HELP = {
    "--help": "78a925626fee5b009cbcf9c695d8436dfb439f264b554f7f80e6a4aecdcba608",
    "rep --help": "8bb87b66b7b8789c8d8eb46ecfac4eb479dba0c3086850ef0ddcf8aceb87925b",
    "casimir --help": "9a3e5ee75f17b9d827c0df0dc11cbe6024cef858f64e38a815d8c790fc083fc7",
    "verify --help": "7282c1caabb18170826ad89828c4c131e1fc44891fe7ed4bb23fa76a41b56b55",
    "diffcheck --help": "16ddd2aff38642c5963956d3f96ca078c5da96f33f8545c1137b54ef29e8a7ce",
    "coherent --help": "88dfcf43ed18f8e9ceeff7a3aefea07189327328d3309b9e06847f1bb2aa7419",
    "measure --help": "c8f4d24f0aa32a87bc3f76b644fd6fd2104a4f0944dce6ea2909aef41b5f5978",
    "spectrum --help": "ec45be8e416049eb00f6eae9f07a1c6c2836ff9fe15f4f5f4fe38b1b824b6e4a",
    "deform --help": "d20b1d7374af66dbaf5da95bf7c0d7c6d8fa4f3d0a2542393fc094b83845ba2d",
}


@pytest.mark.parametrize("argv", list(HELP))
def test_help_text_bytes(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, HELP[argv])


@pytest.mark.parametrize("argv", [argv for argv in GOLDEN if "--format=csv" in argv])
def test_csv_rows_as_wide_as_header(argv, capsys):
    main(argv.split())
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)


def _refuse_dense(build):
    """``build`` (numpy.diag or numpy.zeros), failing when quadalg code calls it
    for a square result wider than 2 x 2 (scipy's own calls, made when
    ``measures`` first imports it, pass)."""
    def guarded(*args, **kwargs):
        out = build(*args, **kwargs)
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith("quadalg") and out.ndim == 2 and out.shape[0] == out.shape[1] > 2:
            raise AssertionError(f"{caller} built a {out.shape} matrix with numpy.{build.__name__}")
        return out
    return guarded


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_builds_no_dense_matrix(argv, capsys, monkeypatch):
    # the canonical fermion's 2 x 2 matrices are the only dense ones allowed
    for name in ("diag", "zeros"):
        monkeypatch.setattr(np, name, _refuse_dense(getattr(np, name)))
    test_stdout_bytes(argv, capsys)
