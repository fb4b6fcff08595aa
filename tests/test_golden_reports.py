"""The oracle that a faster path changes no report.  Each of the
benchmark's four mixes (`poly`, `elliptic`, `uq`, `prime`) replays at seeds
1 and 2 through `cli.run_one`, and every canonical report must hash to its
golden digest in benchmarks/goldens.json (the mutated `singular`, `uq`
entry 9, has none: its digests are in `PINNED`).  Every other pinned report
is a row of `TABLES`, (config, verdict, sha256, length): config is a
`qident suite` manifest entry, and the run it names must end in the verdict
and print the report of that digest and length.  One body checks every
row, under the test name of the table the row came from and an id made of
that table's key options, so every case keeps the id it has always had.
To pin a configuration, run it at the parent and add the row this prints:

    PYTHONPATH=src:benchmarks python3 -c 'import json, sys
    from qident.cli import run_one; from qident.reporting import RunConfig
    from worker import digest; config = json.loads(sys.argv[1])
    report = run_one(RunConfig.from_dict(config))
    print((config, report.verdict, *digest(report)))' \\
        '{"check": "pp", "ell": 6, "n": 4, "trials": 1, "seed": 1}'
"""

import json
import os
import pathlib
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks")
sys.path.insert(0, BENCH)

from worker import build_manifest, digest, load_goldens   # noqa: E402

from qident.cli import run_one   # noqa: E402
from qident.reporting import (   # noqa: E402
    CONDITION_NOT_SATISFIED, FALSIFIED, VERIFIED, RunConfig)

RUNS = [(mix, seed) for seed in (1, 2) for mix in ("poly", "elliptic", "uq", "prime")]
MANIFESTS = {run: build_manifest(*run, smoke=False) for run in RUNS}
GOLDENS = {run: load_goldens(*run, smoke=False) for run in RUNS}
# (mix, seed, entry) -> (digest, length) for the entries without a golden
PINNED = {
    ("uq", 1, 9): ("afa1046e7c58932542c24887e690967acf4e21ba2125c43f3cb590c7f1173ee8", 81037),
    ("uq", 2, 9): ("4597fd047c8a853866b48e9bd73efe3839b5df7f1054c46e5567e8681c968c0c", 86769),
}
# test name -> the (mix, seed) it replays
REPLAYS = {"test_%s%s_report_matches_golden_digest" % (mix, "_seed_2" * (seed == 2)): (mix, seed)
           for mix, seed in RUNS}

# test name -> (the options that make a row's id, None for all but trials
# and seed; its rows).  A config leaves out the defaults field="rational",
# mutate=False and no_constraint=False.
TABLES = {
    # PINNED_MUTATED: mutated mn and xt at seeds 1 and 2; recorded from the
    # entry-by-entry product loops that `linalg.mat_mul` replaced
    "test_mutated_report_matches_pinned_digest": (("check", "field", "seed"), [
        (dict(check="mn", ell=3, n=3, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "9084bf8952813883eadab696822efebffdf651dd7a7658e42b23776d640b73e7", 1345),
        (dict(check="mn", ell=3, n=3, trials=1, seed=2, field="prime", mutate=True), FALSIFIED, "d87c989cb70eaafb6f9d70c1f80a71f8fa0a10538e2b68a5e026da332c3bd333", 1346),
        (dict(check="mn", ell=3, n=3, trials=1, seed=1, mutate=True), FALSIFIED, "a1a1b5bf6c1e3a9d846cb937cfb9b1ebf6bb6bf5515b68c370bfbdb820fd2a2f", 1616),
        (dict(check="mn", ell=3, n=3, trials=1, seed=2, mutate=True), FALSIFIED, "0c10e4dd82d5055543531dffb35a20f7b27a5d3c75ac17e7306f90274fa955ff", 1596),
        (dict(check="xt", ell=2, n=3, k=8, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "090d09d8ff4b7a7c87e1e2f1c65b84a83b1fa55a10dff26c3b22b1c63306641f", 2262),
        (dict(check="xt", ell=2, n=3, k=8, trials=1, seed=2, field="prime", mutate=True), FALSIFIED, "7084106531863573d8f8f395acc6ba277cc87ebac9efac6c92e5766beaa9ac5f", 2258),
        (dict(check="xt", ell=2, n=3, k=8, trials=1, seed=1, mutate=True), FALSIFIED, "9a4fcac6390a5a79834429d4283b7373cd0931f4f3f80f028dc8f806ff95ccaf", 4462),
        (dict(check="xt", ell=2, n=3, k=8, trials=1, seed=2, mutate=True), FALSIFIED, "18484bab5ff5e74dd1c0fa05caef1228e9d2365ed4ab7a497a1bc0b4548e466e", 4512)]),
    # PINNED_FRONTIER: elimination and products at sizes no workload reaches;
    # recorded from the Fraction and PrimeScalar elimination before the
    # bare-integer paths of `linalg`
    "test_frontier_report_matches_pinned_digest": (("check", "field", "mutate"), [
        (dict(check="deta", ell=4, n=4, trials=1, seed=1, field="prime"), VERIFIED, "3ff12032b3a5369235670c0e9cbeca13b79fe933bc7f6a215512c8c9e959fbe2", 852),
        (dict(check="deta", ell=4, n=4, trials=1, seed=1), VERIFIED, "8b412836f5590d9a0e26395b4eaa6a7dc16cdf4fdd7e85b24f2dcb07c03b7f07", 705),
        (dict(check="detq", ell=5, n=4, trials=1, seed=1, field="prime"), VERIFIED, "b316948f0f253608b0804ae13b1c4d0c9f98059956c49961ffbf6f1a944179fd", 852),
        (dict(check="detq", ell=5, n=4, trials=1, seed=1), VERIFIED, "5e0e51a98789db9650a9c30fc731a95ff1e894adfe6297bb2950e8c0f1678dcf", 705),
        (dict(check="mn", ell=4, n=3, trials=1, seed=1, field="prime"), VERIFIED, "54b0b269f151a6f26a590d2f5a89957e68904923e12cf15646c0608ccb2e530d", 820),
        (dict(check="mn", ell=4, n=3, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "7a1d751ca78d72c316b7acd1f6baa7f1c662249bc2f29013b9d554e691d19f89", 1610),
        (dict(check="mn", ell=4, n=3, trials=1, seed=1), VERIFIED, "9b38fa8b727234ae4c34751c975ea416937f2d562a3e70482edd8a72c935326e", 697),
        (dict(check="mn", ell=4, n=3, trials=1, seed=1, mutate=True), FALSIFIED, "95c2ca7b1dbd5bbc572c1bf6158a9bacfab37085ec55e659f34b53b05760e3cc", 2749)]),
    # PINNED_TENSOR: tensor checks at sizes no workload reaches, and mutated
    # ones; recorded from the operator sweep that applied each entry to whole
    # vectors (mutated kbi and bc1: from the sweep that rebuilt each slot's
    # diagonal values per target state)
    "test_tensor_report_matches_pinned_digest": (("check", "field", "mutate"), [
        (dict(check="bc1", ell=5, n=4, i=1, j=4, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "391e3189d8e51da7c43f02d8e38ba3af8f5f93a2dc3f2324815f4975d88c03ef", 135167),
        (dict(check="bc1", ell=5, n=4, i=1, j=4, trials=1, seed=1, mutate=True), FALSIFIED, "83c9fdeefaa45c73e4970f1290978eb4d78b0747f3ec721dbf03d4eb5931bdb1", 3356055),
        (dict(check="bc2", ell=6, n=5, i=1, j=5, trials=1, seed=1, field="prime"), VERIFIED, "35f0ad0b74e5cd33d229c7057efaafcc515ef9aeee544b7491b4185caa1bbb16", 1009),
        (dict(check="bc2", ell=6, n=5, i=1, j=5, trials=1, seed=1), VERIFIED, "8dccd217de47591dfa2de32c6c50cb01ae6dc18637201f4e4cca200fc28d4150", 886),
        (dict(check="kbi", ell=6, n=4, trials=1, seed=1, field="prime"), VERIFIED, "4d478c1af011fc1ef66bb593fe57ae5b34284f3a3d2939d98bfd45bd3da31ccb", 1089),
        (dict(check="kbi", ell=6, n=4, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "b3c2c57e7a6d0ec32821e81c7caec02c61fa00f0e202ed18a6bf0d6aa86ba463", 14291),
        (dict(check="kbi", ell=6, n=4, trials=1, seed=1), VERIFIED, "24e7d7ee759e07299b666d246818ca0859de1d74e28630232462bc919b6959dd", 964),
        (dict(check="kbi", ell=6, n=4, trials=1, seed=1, mutate=True), FALSIFIED, "f05c66fa4536e18838d7d855743e4e362b267156f380f2369f89604779834598", 98042),
        (dict(check="rll", n=5, trials=1, seed=1, field="prime"), VERIFIED, "24b59d597d7708096cefd16589368cb55e47495e25d1927a38382ef0be723483", 883),
        (dict(check="rll", n=4, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "7c3d3dcc0df12470f882b23bb543cf7fa9dc9a3beda1db8eea3edb3e06b1fc0c", 28616),
        (dict(check="rll", n=5, trials=1, seed=1), VERIFIED, "1dd6ebb3ae746931119c11664f1cd4dfd8cdd0e95b029893b12f89eeaac2c433", 760),
        (dict(check="rll", n=4, trials=1, seed=1, mutate=True), FALSIFIED, "23a2dd726d5c79f6fe2849c7bd9a5128f56257faebcf39cebcb6cf29ccfb078f", 69358),
        (dict(check="singular", ell=4, n=4, i=1, j=4, trials=1, seed=1, field="prime"), VERIFIED, "a1466355ec57e67736814c28b39f42a33ce545e68fbb334a88d2fd97e55eb39c", 13606),
        (dict(check="singular", ell=4, n=3, i=1, j=3, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "2c461837aa414a9d3c969b0dd5a88c3e76d1ae3858b8f11589165c510f186780", 27705),
        (dict(check="singular", ell=4, n=4, i=1, j=4, trials=1, seed=1), VERIFIED, "2564d4285abc9c3cd17103abf1b1608f8f37bce8356c0ae008dd8026c2c43679", 13481),
        (dict(check="singular", ell=4, n=3, i=1, j=3, trials=1, seed=1, mutate=True), FALSIFIED, "4cc7cd1e282d0be9eb2175d2d260686088d1f0c0819debc60c2a8c52efdbafee", 128771)]),
    # PINNED_TENSOR_LIFTED: singular with the resonance lifted; recorded from
    # the sweep that rebuilt each slot's diagonal values per target state
    "test_lifted_tensor_report_matches_pinned_digest": (("check", "field"), [
        (dict(check="singular", ell=4, n=4, i=1, j=4, trials=1, seed=1, field="prime", no_constraint=True), CONDITION_NOT_SATISFIED, "540ab3a772099acd6e417405d1549c5d1ec8453df77fe1589d5caf1443973f69", 28350),
        (dict(check="singular", ell=4, n=4, i=1, j=4, trials=1, seed=1, no_constraint=True), CONDITION_NOT_SATISFIED, "5eb6baea24e3be5fecebda6820b2505d4b06b763a492207e9213a7071283ddb1", 186045)]),
    # PINNED_RESIDUE: residue sums at sizes no workload reaches; recorded from
    # the step-by-step pole cancellation and the separate theta residue
    "test_residue_report_matches_pinned_digest": (("check", "field"), [
        (dict(check="mn", ell=4, n=4, trials=1, seed=1, field="prime"), VERIFIED, "9920d7f4ee5bd584cf52426bcfc9b59cdc64d0762f6d37df80bbdb8bff867174", 852),
        (dict(check="mn", ell=4, n=4, trials=1, seed=1), VERIFIED, "60507467cd8dee0f6d7ba191c11af7a4e3037accbe54886ef777b4f5b7e967d7", 729),
        (dict(check="pp", ell=5, n=4, trials=1, seed=1, field="prime"), VERIFIED, "8b1a2bf1082b1727a1b16ad783c91a0dbf2554a20e80a91a585a4d6a846ab3e9", 825),
        (dict(check="pp", ell=5, n=4, trials=1, seed=1), VERIFIED, "0811f9f9cef777d8aa45b224c329d59c4307f655bd33c96e4929ff90626f849f", 702),
        (dict(check="resI", ell=4, n=3, trials=1, seed=1, field="prime"), VERIFIED, "2b9de8e556338a73f790920d78bdd9c4a10a4f18d63a87bbad177b3b3c67434b", 3921),
        (dict(check="resI", ell=4, n=3, trials=1, seed=1), VERIFIED, "cb5d8ea5ab8d88d68cf6c63d6fc01bb5dec99cdf702c74be6055a0067347c938", 3796),
        (dict(check="xx", ell=3, n=3, k=6, trials=1, seed=1, field="prime"), VERIFIED, "2488bad8fb3a559abe04c0f23fb2f9b9b929ac262251240d4dcd7f1b5c32aab0", 856),
        (dict(check="xx", ell=3, n=3, k=6, trials=1, seed=1), VERIFIED, "c47b948c41db6ffa02460be7832b373c596201f9ae08e76373fa3a3d9e2038af", 733)]),
    # PINNED_SERIES: mutated xx and xt print every coefficient of (p; p)^3
    # and (p^5; p^5)_inf; recorded from truncated q-Pochhammer products
    "test_series_report_matches_pinned_digest": (("check", "field"), [
        (dict(check="xt", ell=1, n=5, k=16, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "f1cb1d16d3ba3fd6c45dda18bd9353c4ab64ac5ffb648bde1a202ec420455cc3", 3396),
        (dict(check="xt", ell=1, n=5, k=16, trials=1, seed=1, mutate=True), FALSIFIED, "a2e28dad7b158dc20f4174152c255d1dadcde1dcf10b0b5ef875cfba71b9634d", 7865),
        (dict(check="xx", ell=2, n=3, k=20, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "83a4350407bd1b050156b334ea4b95225e1f5dbda70ddddea5f5e1d93b54e621", 1843),
        (dict(check="xx", ell=2, n=3, k=20, trials=1, seed=1, mutate=True), FALSIFIED, "ac73d4f07e21831810ad2be312c92d04bb65fc26e837d0010ca8bef168a73304", 9341)]),
    # PINNED_FORMULA: negative controls that print a whole window sum or
    # det A; recorded from the products written once per layer
    "test_formula_report_matches_pinned_digest": (("check", "field"), [
        (dict(check="deta", ell=4, n=3, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "594b551a0a08339e4533060d266e63fe9bdeacc18c7eb2c47526e7a1904061ff", 839),
        (dict(check="deta", ell=4, n=3, trials=1, seed=1, mutate=True), FALSIFIED, "4334c04f3506158953744f2f79bb6e95e597c82cf036ba3d799336a4d4344d2c", 1398),
        (dict(check="detprod", ell=3, n=3, k=6, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "5a8078990824d8a2fc9bd12572edb266ae49119675a538055dc8fe82a7d07f53", 1322),
        (dict(check="detprod", ell=3, n=3, k=6, trials=1, seed=1, mutate=True), FALSIFIED, "8f0990eecd8c9b7c25106921678901d129eb133280530d9d867c5b136dbac542", 10444),
        (dict(check="id1", ell=4, n=3, i=1, j=3, trials=1, seed=1, field="prime", no_constraint=True), CONDITION_NOT_SATISFIED, "bbcbf0b957bed07286948946c14bdb1772bfe26c42bb6bad8932bf3ae9440d58", 996),
        (dict(check="id1", ell=4, n=3, i=1, j=3, trials=1, seed=1, no_constraint=True), CONDITION_NOT_SATISFIED, "75d1dfb886f63bd3bd7ae8a640ce5b91b981d46f38591700b539b82a1284ef61", 998),
        (dict(check="idp1", ell=2, n=4, i=1, j=4, k=6, trials=1, seed=1, field="prime", no_constraint=True), CONDITION_NOT_SATISFIED, "d5ec01b6604de5b82465596d9feb78db6d9cb58e13feb7cf880ba585c0215d11", 1294),
        (dict(check="idp1", ell=2, n=4, i=1, j=4, k=6, trials=1, seed=1, no_constraint=True), CONDITION_NOT_SATISFIED, "ca4dfd64d89b9c0d2e2f4c7fe7068766086334a05ab518d67f605067f074134a", 3545)]),
    # PINNED_DRIVER: mutated value checks; recorded from the drivers that
    # formatted their own values, before `reporting` wrote every exact value
    "test_driver_report_matches_pinned_digest": (("check", "field"), [
        (dict(check="detq", ell=4, n=3, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "15ffa18b1237260ed17ec1746502777d2a4b18bdecd4a906f46d5e67b6d6f700", 839),
        (dict(check="detq", ell=4, n=3, trials=1, seed=1, mutate=True), FALSIFIED, "02dbb3249c93a0f6dadc27909a3f23e02d038304518665815f8dbe2f98316e0c", 1779),
        (dict(check="id1", ell=4, n=3, i=1, j=3, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "a3a8fc67b20925e2855f05a6c0b5b03ba95e9b021dabf6f45fc9c8a19bc7991b", 974),
        (dict(check="id1", ell=4, n=3, i=1, j=3, trials=1, seed=1, mutate=True), FALSIFIED, "049eb6a5cbfc02a987370cfe89c6d23523414078437b846077cccab55691fe23", 1010),
        (dict(check="id2", ell=4, n=3, i=1, j=3, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "736bab2df9b3780f90c60704190657080cb7cec72311b155e70d1c694e42b4f7", 975),
        (dict(check="id2", ell=4, n=3, i=1, j=3, trials=1, seed=1, mutate=True), FALSIFIED, "5acc1750da650ca9c21246b723729806dc04faefb6dbe9d621e1c6b136c41b4c", 1157),
        (dict(check="idp1", ell=2, n=3, i=1, j=3, k=6, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "5710dc030b0a4bb5eb855613acc297db10dc382a55dd2579837b1992b8b93678", 1240),
        (dict(check="idp1", ell=2, n=3, i=1, j=3, k=6, trials=1, seed=1, mutate=True), FALSIFIED, "e0601506ecd38270278626760f2aaf22d60fbd02dedb4bea34bdb78dbc5fd64a", 2700),
        (dict(check="idp2", ell=3, n=2, k=6, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "ccd29a196c1cd887d31e604cd05ef31890b10f5adf74c8bd4e9bbe5774b742b4", 1305),
        (dict(check="idp2", ell=3, n=2, k=6, trials=1, seed=1, mutate=True), FALSIFIED, "ab9217a42df6f6f7f08fcae934dc532c367346dcaed595fdbb742e630aebc239", 3415),
        (dict(check="pp", ell=3, n=3, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "6ecab131f3e6704a91da858d7ee9715b0da6a632eaf474ac708086bef6f70ba7", 844),
        (dict(check="pp", ell=3, n=3, trials=1, seed=1, mutate=True), FALSIFIED, "7b8f02808b815eb2afe7430b912c39f1d6765cd4ebc6cb0c91ec69d4bf8e9674", 727)]),
    # PINNED_ROWS: prime-field and lifted-constraint value checks; recorded
    # from the per-module drivers before each check became a row.  idp2
    # depends on the parameters only through beta, so lifting its window
    # constraint leaves it verified
    "test_row_report_matches_pinned_digest": (("check", "field", "no_constraint"), [
        (dict(check="detprod", ell=3, n=3, k=6, trials=1, seed=1, field="prime"), VERIFIED, "ce72b8022e850febcbf302e946698c07b18c5d77dcb204d76a4e76738eb7af89", 1199),
        (dict(check="id1", ell=4, n=3, i=1, j=3, trials=1, seed=1, field="prime"), VERIFIED, "d685358fddab9bd32aab8a5c9f5aec0d8c99af9d0de7baa2ede5a2636311ebd2", 956),
        (dict(check="id2", ell=4, n=3, i=1, j=3, trials=1, seed=1, field="prime"), VERIFIED, "49b1f7005d778ab960a4cdc97bfe49d3bdd4fbda389d06323eba0f61f50907ff", 956),
        (dict(check="id2", ell=4, n=3, i=1, j=3, trials=1, seed=1, field="prime", no_constraint=True), CONDITION_NOT_SATISFIED, "a96c35cbf5124695f07b9ddcc498eb024a55d85b7491b46e32ea72b021261570", 996),
        (dict(check="idp1", ell=2, n=3, i=1, j=3, k=6, trials=1, seed=1, field="prime"), VERIFIED, "4a3700d4e8caf622e5a261a03a6677d7a49e349b5697369a3693b97c7f212f36", 1115),
        (dict(check="idp2", ell=3, n=2, k=6, trials=1, seed=1, field="prime"), VERIFIED, "1d698e5d6ee126988929435c5dedef85e7a40c432df6bc27301fb441349e9f10", 1180),
        (dict(check="idp2", ell=3, n=2, k=6, trials=1, seed=1, field="prime", no_constraint=True), VERIFIED, "9cd758b30f6be331f2eeba24b7a460becd0b809fdd6a5267148da7e13c7cf61a", 1186),
        (dict(check="idp2", ell=3, n=2, k=6, trials=1, seed=1, no_constraint=True), VERIFIED, "0f1df18ff43248b9c90d5afba86f5817593e946e95025fb6c4a5fdd555afd6d5", 893),
        (dict(check="xt", ell=2, n=3, k=8, trials=1, seed=1, field="prime"), VERIFIED, "2bf0e746a2b3a80dfd7b73e5c64254471ca370c8dc0a7280157a7740b2340889", 961)]),
    # PINNED_POINTS: the callers of the per-point weight and residue tables at
    # seed 3; recorded from tables built by field operations, before cleared
    # integer coordinates
    "test_point_table_report_matches_pinned_digest": (("check", "field", "mutate"), [
        (dict(check="deta", ell=4, n=4, trials=1, seed=3, field="prime"), VERIFIED, "3fb47f005c3269528e2aa183d4bfee6f344abc1bedfb48d0d6fe627c73c25268", 852),
        (dict(check="deta", ell=4, n=4, trials=1, seed=3, field="prime", mutate=True), FALSIFIED, "e40ce8d1f8c42286a020bab28214745f8e727c20ba06b34641b6b74624c4c4e2", 871),
        (dict(check="deta", ell=4, n=4, trials=1, seed=3), VERIFIED, "42d205db3a8592099baf8438d8af5463ef087870035c47205f27cd25cec58424", 705),
        (dict(check="deta", ell=4, n=4, trials=1, seed=3, mutate=True), FALSIFIED, "18beb6bd38c93162cb4db1b2e6870ff499f2d8cdcf29edba1831962c57e7573e", 2969),
        (dict(check="id2", ell=4, n=3, i=1, j=3, trials=1, seed=3, field="prime"), VERIFIED, "dbb34a41b5dc831357800935fcf39b2b9412c400c30f0434ae0bb8694a37455d", 956),
        (dict(check="id2", ell=4, n=3, i=1, j=3, trials=1, seed=3, field="prime", mutate=True), FALSIFIED, "1e552cc1cc5dc7477a89876b4c1d7c210c513f051201a6125bd266dac206fc10", 974),
        (dict(check="id2", ell=4, n=3, i=1, j=3, trials=1, seed=3), VERIFIED, "98812d42cdc08c7883c84b048b9a552d5900776d3c7abf4d07f8508326fc3b3f", 809),
        (dict(check="id2", ell=4, n=3, i=1, j=3, trials=1, seed=3, mutate=True), FALSIFIED, "b634f9dab15292163bd12da6e50ddbf4899c4e8671c89c944d28ec6753f7f169", 1136),
        (dict(check="jing", ell=8, trials=1, seed=3, field="prime"), VERIFIED, "35eb44d04ffc57682f830a4f831ef027f431ec84315382de4267030fe8801994", 857),
        (dict(check="jing", ell=8, trials=1, seed=3, field="prime", mutate=True), FALSIFIED, "6e7de6d37fe53eae5be872a1fed7978491414fbfacb751c8b77ce7ae07219c9f", 876),
        (dict(check="jing", ell=8, trials=1, seed=3), VERIFIED, "4637e6f649472751f7c12b780a0e65fce683ad1ec03fb97e2f37fe334f47cae0", 710),
        (dict(check="jing", ell=8, trials=1, seed=3, mutate=True), FALSIFIED, "d31f9300a5545e5a9cca0ba03d8328306109342495278a649bbb172b9907b5ee", 1094),
        (dict(check="kbi", ell=5, n=3, trials=1, seed=3, field="prime"), VERIFIED, "909e59ef2fbbfa2b8cdba256bf9c46da1751dc70e0cf90b5ecf8bcc71c27abd8", 1040),
        (dict(check="kbi", ell=5, n=3, trials=1, seed=3, field="prime", mutate=True), FALSIFIED, "9c6516af94459c229a2aebe5fd2214d36d77dce9b4ac5ca477b5955a6001b7f4", 4147),
        (dict(check="kbi", ell=5, n=3, trials=1, seed=3), VERIFIED, "bd994deb110411ba122d4441d52442dd8d8ccfb3f24ebc35e8b0cdba86444d69", 915),
        (dict(check="kbi", ell=5, n=3, trials=1, seed=3, mutate=True), FALSIFIED, "edc8b93ef6fd26ae57a694c3d42507f1e04cccd0dc3bd993969fe9bd2bff2baf", 16165),
        (dict(check="pp", ell=3, n=3, trials=1, seed=3, field="prime"), VERIFIED, "4b9d72ecc09f13d6e24e71127f7dd7c3bc0c3dde8823d992e20f9f90e310598f", 794),
        (dict(check="pp", ell=3, n=3, trials=1, seed=3, field="prime", mutate=True), FALSIFIED, "7abc92a28d6147463f5a928a05f1d0cfa6664d6977c850593e3d65915f314d6b", 845),
        (dict(check="pp", ell=3, n=3, trials=1, seed=3), VERIFIED, "ca16308554913a82edf6c28b4c3f3e6a8240bc03f374ab1c7a66e24e487b3337", 671),
        (dict(check="pp", ell=3, n=3, trials=1, seed=3, mutate=True), FALSIFIED, "dc34a7b67febb96e44e3616043dc95e2b4d4a4e2abf4d9051b3d80ca3303d5c3", 733)]),
    # PINNED_THETA_POINTS: the callers of the theta layer's per-point tables
    # at seed 3; recorded from `PSeries` ring operations, before integer
    # coefficient lists over one denominator per point
    "test_theta_point_table_report_matches_pinned_digest": (("check", "field", "mutate"), [
        (dict(check="detprod", ell=4, n=3, k=6, trials=1, seed=3, field="prime"), VERIFIED, "c6135ee1860d86f387247ec6b618d33fd89b2b98f96753709c8e2300ea45f0b9", 1201),
        (dict(check="detprod", ell=4, n=3, k=6, trials=1, seed=3, field="prime", mutate=True), FALSIFIED, "3c35a737c92e1b04858c36cd5b170e3d9b92f2283ab329d1a8ad230f7083feaa", 1326),
        (dict(check="detprod", ell=4, n=3, k=6, trials=1, seed=3), VERIFIED, "65b08670396d8482555eada3c17d7343efd5b4802ee91fbe264f303153d6e579", 908),
        (dict(check="detprod", ell=4, n=3, k=6, trials=1, seed=3, mutate=True), FALSIFIED, "c767f976e98bee51528242b2c7d01d496d967301e984dc842ff85995c5b70c12", 21535),
        (dict(check="idp1", ell=3, n=3, i=1, j=3, k=8, trials=1, seed=3, field="prime"), VERIFIED, "43d21a90365da32a993169225989ef78589e12e57f9fa2b5f5106572c2cea2e8", 1190),
        (dict(check="idp1", ell=3, n=3, i=1, j=3, k=8, trials=1, seed=3, field="prime", mutate=True), FALSIFIED, "1eb7746f52acb28d31bbf328e4ecfbf579e94e2b8e0f5a946580219e349de50f", 1350),
        (dict(check="idp1", ell=3, n=3, i=1, j=3, k=8, trials=1, seed=3), VERIFIED, "2b74617063b6c6e45a23d60ef507f15bbbbb4a96977061fc5f874a65b0802c03", 851),
        (dict(check="idp1", ell=3, n=3, i=1, j=3, k=8, trials=1, seed=3, mutate=True), FALSIFIED, "dc81a4e5c4cc4fb6c1e69e681286b5e3668736dae932a89335454cdecce6b1e0", 5408),
        (dict(check="idp2", ell=4, n=2, k=8, trials=1, seed=3, field="prime"), VERIFIED, "d2a2f5de8c97886f9734252390ad50bd935224d94ded722c217e164e50bb5f5c", 1254),
        (dict(check="idp2", ell=4, n=2, k=8, trials=1, seed=3, field="prime", mutate=True), FALSIFIED, "faf0b639595c43ef50cbb7fe29c2332c602a64e0ae8925727270b0f5fb961224", 1411),
        (dict(check="idp2", ell=4, n=2, k=8, trials=1, seed=3), VERIFIED, "f282b5d9a3c6edd50ebedfe9d9411937abd3ca98561b89fa250c8963fc15a65c", 913),
        (dict(check="idp2", ell=4, n=2, k=8, trials=1, seed=3, mutate=True), FALSIFIED, "148106fa639ad44392dc8e0e65b7e6ef22896298fec0a3a12381cd9d49a2f162", 6477),
        (dict(check="xt", ell=2, n=3, k=10, trials=1, seed=3, field="prime"), VERIFIED, "a30d1da2902f2443574abaf4982bc7ab74172808634d727f6d814916ce8783bc", 965),
        (dict(check="xt", ell=2, n=3, k=10, trials=1, seed=3, field="prime", mutate=True), FALSIFIED, "d316f3d60cc8af89179ca4f0c0f65ee95ec70775305379e932640c70e0283e12", 2538),
        (dict(check="xt", ell=2, n=3, k=10, trials=1, seed=3), VERIFIED, "b67385fe6902af883d71b26ea11fccfd6b14288f18c31ed5e23638c13eea6fad", 842),
        (dict(check="xt", ell=2, n=3, k=10, trials=1, seed=3, mutate=True), FALSIFIED, "eef6e682b38ebc75975c2c061b94b1506afe23fffd4667bfe2ded385972f3d5e", 6377),
        (dict(check="xx", ell=3, n=3, k=8, trials=1, seed=3, field="prime"), VERIFIED, "daa6bc9cb0dd2265f84eec6912f949e8220ca1b60a0b934ceee6b1b0d8548392", 858),
        (dict(check="xx", ell=3, n=3, k=8, trials=1, seed=3, field="prime", mutate=True), FALSIFIED, "ddc55f0daccf46ef8563305e7b73f214228b0d86220f7b007782113289d25eb5", 1288),
        (dict(check="xx", ell=3, n=3, k=8, trials=1, seed=3), VERIFIED, "389875a1398aaade10500be25eff4f74ef5fcbf0e5c47b001bd0eca9b643a05f", 735),
        (dict(check="xx", ell=3, n=3, k=8, trials=1, seed=3, mutate=True), FALSIFIED, "d9bde7751e0d00f21c7fbad4254599238c3af3cc6d2fb3e07d665b699b95366e", 3904)]),
    # PINNED_LAST_DRIVERS: prime-field, mutated and lifted bc1, bc2 and resI;
    # recorded from the last per-check drivers.  bc1 vanishes by depth
    # grading alone, so it stays verified with the resonance lifted
    "test_last_driver_report_matches_pinned_digest": (("check", "field", "variant"), [
        (dict(check="bc1", ell=5, n=4, i=1, j=4, trials=1, seed=1, field="prime", no_constraint=True), VERIFIED, "c3501f85c74c5b99f9274321eab8ceaf4ecb3e7aeb6866aa587322870b131309", 1194),
        (dict(check="bc1", ell=5, n=4, i=1, j=4, trials=1, seed=1, field="prime"), VERIFIED, "fc535ce183d2d2a93af319281cb22af3150b46f747a840ff015532bb3de20da0", 1200),
        (dict(check="bc1", ell=5, n=4, i=1, j=4, trials=1, seed=1, no_constraint=True), VERIFIED, "989a23826ecc4f290e32b95ba2a245a0b6b528bb889d90d6844a3c95ab0e83ae", 1069),
        (dict(check="bc2", ell=3, n=3, i=1, j=3, trials=1, seed=1, field="prime", no_constraint=True), CONDITION_NOT_SATISFIED, "cb000a8b533c9031ae4b14e985d009793d8b09ae86a2f39342a3abd214a25a5f", 1071),
        (dict(check="bc2", ell=3, n=3, i=1, j=3, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "d3e9726de1cdf2a48356f0a9f5267530aebbf407e7f64259c2190103c8297075", 8132),
        (dict(check="bc2", ell=3, n=3, i=1, j=3, trials=1, seed=1, mutate=True), FALSIFIED, "5d56ef0074cf24cf714e45c5b58e3b50731fe835360bdf6c09e8de9d59ad3ec2", 64928),
        (dict(check="resI", ell=3, n=3, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "6a63e5013d4a1c94bfbb41fbdfde149eee3e05462f1c7273f6a30a0506374838", 2144),
        (dict(check="resI", ell=3, n=3, trials=1, seed=1, mutate=True), FALSIFIED, "3c521fad0709f72c9658db0687ebe975dfbe9a83de85c494c86785598333ed73", 2019)]),
    # PINNED_PREFACTORS: the smallest sizes of the two alternating sums, two
    # trials; recorded from the sums that rebuilt every prefactor per k,
    # before the prefactors went through the scales of `symmetrize`
    "test_prefactor_report_matches_pinned_digest": (("check", "ell", "field", "mutate"), [
        (dict(check="idp2", ell=1, n=2, k=0, trials=2, seed=1, field="prime"), VERIFIED, "a0014a182b4dad7b0b9329fb1ecbbc2ac3cfd057b6d502e9544f9ba46a6203f8", 1316),
        (dict(check="idp2", ell=1, n=2, k=0, trials=2, seed=1, field="prime", mutate=True), FALSIFIED, "f8cb8dc45d7ec3df2a3bc32f7d4974dfae9778093d2e8ed9673dba4dae540d50", 1353),
        (dict(check="idp2", ell=1, n=2, k=0, trials=2, seed=1), VERIFIED, "2b393a9e5d74f2a06a5f5d90fbd5721436e737142453931f68b30c4207436a99", 1143),
        (dict(check="idp2", ell=1, n=2, k=0, trials=2, seed=1, mutate=True), FALSIFIED, "8fc5d426d1c56da5dde2c2f969e291f0e4825ddcd9738b1f2436af0b327eac3b", 1213),
        (dict(check="idp2", ell=2, n=2, k=3, trials=2, seed=1, field="prime"), VERIFIED, "9753a686f24a2cb6051106c976929f0bfdca31d9852bca9f1084a35eab90db13", 1524),
        (dict(check="idp2", ell=2, n=2, k=3, trials=2, seed=1, field="prime", mutate=True), FALSIFIED, "06e29a8722fed6256e6097230c3d15fc50c6bcaa9e09b426316e440d6821691a", 1669),
        (dict(check="idp2", ell=2, n=2, k=3, trials=2, seed=1), VERIFIED, "34cad2eacc7a06d4dd9929632dd56c66d9b43ae6f337bad0f62ef0527e1c5373", 1207),
        (dict(check="idp2", ell=2, n=2, k=3, trials=2, seed=1, mutate=True), FALSIFIED, "e785f361ff467e7cd328b511698931ff8f5c1cdbb35a4d2ae7f9acdbd43babd1", 2767),
        (dict(check="jing", ell=1, trials=2, seed=1, field="prime"), VERIFIED, "3c8bd25953dd2fb417f824aba7e373f4a32dd045aae2075b9ea5a6db343ad10d", 936),
        (dict(check="jing", ell=1, trials=2, seed=1, field="prime", mutate=True), FALSIFIED, "175344753ce999987c7c459ca51b39012168fbc7494b1eb76ce1c6cd32da6c64", 972),
        (dict(check="jing", ell=1, trials=2, seed=1), VERIFIED, "04e15d1b558ea60dd5ff09aecf3b7c97741574e3d9067eda13af8b802ce34d70", 765),
        (dict(check="jing", ell=1, trials=2, seed=1, mutate=True), FALSIFIED, "59f1ec2b711c807b43da28c6bd25219f1cb7b33d4d12983f8a4b8eac23f8bcc4", 780),
        (dict(check="jing", ell=2, trials=2, seed=1, field="prime"), VERIFIED, "6233b4265718bb20e439aeca23621e71481daa38fc34c72414936385bc330cd1", 968),
        (dict(check="jing", ell=2, trials=2, seed=1, field="prime", mutate=True), FALSIFIED, "0b06c4df7bcea9aca49d18020a5839564e822634bcf74adda88c3a59cfa30aac", 1005),
        (dict(check="jing", ell=2, trials=2, seed=1), VERIFIED, "02fe4d00b675b13eac033615b164af500549711c34cb268f23f212068e71be7e", 797),
        (dict(check="jing", ell=2, trials=2, seed=1, mutate=True), FALSIFIED, "53605141f634c1e9bf16a31e4a9a1e5172a759fc792f2ec1cd1d7753f8cf10de", 842)]),
    # PINNED_PAIR_FREE: the pair-free sums of the theta basis products and
    # the monomials; recorded from the subset trie, before sub-multiset layers
    "test_pair_free_report_matches_pinned_digest": (("check", "ell", "n", "k", "field", "mutate"), [
        (dict(check="detq", ell=5, n=5, trials=1, seed=1, field="prime"), VERIFIED, "820fbbfd5e33a7953ee4c0d451e9d056e99fc0b0e4f2ef54c96baf9e5bedc6bd", 886),
        (dict(check="resI", ell=5, n=2, trials=1, seed=1, field="prime"), VERIFIED, "e1e4c3ed64d18a322b2240f23b213daa4651bebe8436413368d0b8dfc136ac10", 2426),
        (dict(check="resI", ell=5, n=2, trials=1, seed=1), VERIFIED, "de034a8682f44b6ae3ac204b537861dcfd7a8683027029067b68c972ab87eb53", 2301),
        (dict(check="xt", ell=3, n=3, k=6, trials=1, seed=1, field="prime"), VERIFIED, "7a44e5e814f9c1bac0b51cbe49822ca6dc82c73ed87105ca234390ff37b9101d", 1012),
        (dict(check="xt", ell=3, n=3, k=6, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "37e9087ecdb3f0d6a10ecbd28a1da640824682ea05672484d6e0a10085f988fc", 2035),
        (dict(check="xt", ell=3, n=3, k=6, trials=1, seed=1), VERIFIED, "c7656c4399371d2697f633c993b28947447012671d42d93f152419f8f41c8c55", 889),
        (dict(check="xt", ell=3, n=3, k=6, trials=1, seed=1, mutate=True), FALSIFIED, "0762ab6f29d81925358aa3800457bca2e737efa16431c152a027994f51b14995", 4681),
        (dict(check="xt", ell=4, n=2, k=6, trials=1, seed=1, field="prime"), VERIFIED, "8b9a844e9a53a016305a65b00472b256fd557d7fc255b584d32db41b5a026bed", 1028),
        (dict(check="xt", ell=4, n=2, k=6, trials=1, seed=1), VERIFIED, "215fbf9a5f885db34321b80349334d5b14ceb56c2a7589b88b861f9a14387b10", 905)]),
    # PINNED_HOT_LOOPS: the theta subset layers, the series solve and the
    # integer subset layers; recorded before one normalization per series
    # result and one multiply per shared move
    "test_hot_loop_report_matches_pinned_digest": (("check", "field", "mutate"), [
        (dict(check="detprod", ell=4, n=3, k=6, trials=1, seed=1, field="prime"), VERIFIED, "ec8cdaa84f924b23cb20368d541f2f73cb19d67384655fa2f84fbad93cfb68fd", 1199),
        (dict(check="detprod", ell=4, n=3, k=6, trials=1, seed=1), VERIFIED, "f7c85c1223a9b53ef3b54983eb4a3afc7875604ae898dab016df3a2b08160b55", 906),
        (dict(check="jing", ell=12, trials=1, seed=1, field="prime"), VERIFIED, "1df10f0aa6e1e120573c47beadb381888bec7b5c00c30850d03775339f47657b", 924),
        (dict(check="jing", ell=12, trials=1, seed=1), VERIFIED, "c1d1a5674751e9d461d3dd10a10f33b9fe437073d9f36e78fc032c632db38af0", 777),
        (dict(check="xt", ell=2, n=4, k=8, trials=1, seed=1, field="prime"), VERIFIED, "6f3feac93caf7e0b240d7992aaf8e21ffdbb3e69192ce5c6179eb5d96524c4f6", 995),
        (dict(check="xt", ell=2, n=4, k=8, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "1558392d9a7a91be4ec8f1ec138baf123520fe7ebda876e5c09d0caa83c05c89", 2191),
        (dict(check="xt", ell=2, n=4, k=8, trials=1, seed=1), VERIFIED, "747ea8f15205c184373117dde73b819a8128da595550923d42b8cae7a82dd6d3", 872),
        (dict(check="xt", ell=2, n=4, k=8, trials=1, seed=1, mutate=True), FALSIFIED, "f9b99d15ab23f436e0c600cbdb2b40530553d736ff0bfd811bb35c09ce406c23", 3937)]),
    # PINNED_CHAINS: the two-chain subset layers above ell 3; recorded from
    # the depth-first trie walk, before the walk one depth at a time
    "test_chain_report_matches_pinned_digest": (("check", "field", "mutate"), [
        (dict(check="idp1", ell=4, n=3, i=1, j=3, k=6, trials=1, seed=1, field="prime"), VERIFIED, "dab8c83ef7ef37db73705e5bff06ab4f7a384ddf9cad7143e2e65447e1d4b014", 1149),
        (dict(check="idp1", ell=4, n=3, i=1, j=3, k=6, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "a49ef6ea58b564fe4195c7785fa95db25dd82f61ea9855d2832cb0b2dde7aaf0", 1272),
        (dict(check="idp1", ell=4, n=3, i=1, j=3, k=6, trials=1, seed=1), VERIFIED, "d9162807e0ee81520e7807299c0e80482abd8fb367d0ba7d021de7482b195e77", 858),
        (dict(check="idp1", ell=4, n=3, i=1, j=3, k=6, trials=1, seed=1, mutate=True), FALSIFIED, "0be9d4dde199cf6e63a4bdc860a3467bc56e448d52e07c2f74d71e8f663985c2", 5151),
        (dict(check="idp2", ell=6, n=2, k=8, trials=1, seed=1, field="prime"), VERIFIED, "6498879b5e75bbe55293b380579ff963502f3ff20b3139f9d144c9d29f6be7cb", 1289),
        (dict(check="idp2", ell=6, n=2, k=8, trials=1, seed=1, field="prime", mutate=True), FALSIFIED, "cafc1bc3cdecb317646e073c61274b1c8ada45f17bd6c3a311b74a714b240359", 1448),
        (dict(check="idp2", ell=6, n=2, k=8, trials=1, seed=1), VERIFIED, "a74721604e2c17f7423a3158f66f39449f69f92d5bb0a99356380a429c3b16fa", 948),
        (dict(check="idp2", ell=6, n=2, k=8, trials=1, seed=1, mutate=True), FALSIFIED, "10c89b608a7f2ce59f93709f5de989ff37b33e8560481ca15bc63f46eb65cbb9", 9850)]),
    # PINNED_DETQ_FRONTIER and the full-size pins: each tests/frontier.json
    # entry that no row above pins, as the manifest lists it.  detq (5, 5)
    # was recorded from the rational elimination before `RatRows.load` made
    # each row primitive, the others from the subset layers that kept every
    # layer of the level above until the level was done
    "test_frontier_manifest_report_matches_pinned_digest": (None, [
        (dict(check="pp", ell=6, n=4, trials=1, seed=1), VERIFIED, "7b5f43af56758eac1989c028308500d9c5a6247e08e6703f5a40cad0ba33cfa4", 702),
        (dict(check="detq", ell=5, n=5, trials=1, seed=1), VERIFIED, "dd78f66a491505d058b08add9ff90eecce0e84faf1a2572993171ccd5538095e", 739),
        (dict(check="resI", ell=4, n=4, trials=1, seed=1), VERIFIED, "902fd21632ce661c344c5713d0d427a4d0b59177f2a38919553b4df5cb72b02d", 8584),
        (dict(check="jing", ell=14, trials=1, seed=1), VERIFIED, "a477252df4c0da66fd85af82fcd9fb280cc669d835073cd6779f4eb3868a965d", 812),
        (dict(check="xx", ell=4, n=3, k=6, trials=1, seed=1), VERIFIED, "b70d66dfd0e420bb398496ca1cf6402e2a34d9a9e835c389cbfb69a8c2eafa92", 733),
        (dict(check="xx", ell=2, n=3, k=30, trials=1, seed=1), VERIFIED, "9347770e3b5d5fd69d8e986749f44489b9bfd0beadd36d97bb80672d2a9c0972", 734),
        (dict(check="detprod", ell=5, n=3, k=6, trials=1, seed=1), VERIFIED, "ab5ce685f8afe20be83025581bda3d3b67b92b5cda0a1cbc4a61756d745ccd4c", 906),
        (dict(check="idp2", ell=8, n=2, k=8, trials=1, seed=1), VERIFIED, "8b7a8c9f237a74470fe9bdcdd4dd8b381d6f2bf88b1cdb1c66de288894dcc2d0", 981),
        (dict(check="singular", ell=5, n=5, i=1, j=5, trials=1, seed=1), VERIFIED, "b1f8a4f2bbd112b99199a04f74730a3210dc1e5be259d8bc9ff2dca1461d2a9c", 48237),
        (dict(check="kbi", ell=8, n=4, trials=1, seed=1), VERIFIED, "1fe474e021779f35b3e4804c3c9683196f246f9f1874fa5f0d33f4cbab2e3a35", 998),
        (dict(check="rll", n=8, trials=1, seed=1), VERIFIED, "b1d840d5c2b1a373b609ed46f2304af6220c504a88019abcb545e16d812f526b", 862),
        (dict(check="pp", ell=6, n=4, trials=1, seed=1, field="prime"), VERIFIED, "278f13ebc4b3cb261b3bd08f473257b74b12883dac1ebf02307179e72f1ce814", 825),
        (dict(check="singular", ell=5, n=5, i=1, j=5, trials=1, seed=1, field="prime"), VERIFIED, "1158c59539228d16eb7c03ee5d1e6c3d234d865ffe68f349b44554608d76e7df", 48362)]),
}

PINS = [row for _, rows in TABLES.values() for row in rows]
# how an id reads an option its row leaves unset, as the tables keyed it
UNSET = {"field": "rational", "k": 0, "mutate": False, "no_constraint": False}


def row_id(fields, config):
    """The values of `fields` in config, `variant` the plain, lifted (no
    constraint) or mutated run; with no fields, every value but trials and
    seed."""
    if fields is None:
        return "-".join(str(value) for key, value in config.items()
                        if key not in ("trials", "seed"))
    seen = {**UNSET, **config}
    seen["variant"] = ("mutated" if seen["mutate"]
                       else "lifted" if seen["no_constraint"] else "plain")
    return "-".join(str(seen[key]) for key in fields)


def pytest_generate_tests(metafunc):
    """Parametrize each name of `check_pin` over its table's rows and each
    name of `check_replay` over its run's entries."""
    name = metafunc.definition.name
    if name in TABLES:
        fields, rows = TABLES[name]
        metafunc.parametrize("row", rows, ids=[row_id(fields, row[0]) for row in rows])
    elif name in REPLAYS:
        run = REPLAYS[name]
        metafunc.parametrize("entry", [(*run, index) for index in range(len(MANIFESTS[run]))],
                             ids=lambda entry: str(entry[2]))


def check_pin(row):
    config, verdict, *pinned = row
    report = run_one(RunConfig.from_dict(config))
    assert report.verdict == verdict
    assert digest(report) == tuple(pinned)


def check_replay(entry):
    mix, seed, index = entry
    cfg, expect = MANIFESTS[mix, seed][index]
    report = run_one(cfg)
    assert report.verdict == expect
    golden, pinned = GOLDENS[mix, seed][index], PINNED.get(entry)
    if pinned is None:
        assert golden is not None and digest(report)[0] == golden
    else:
        assert golden is None and digest(report) == pinned


# one body for every row and one for every replay, bound under the test
# names their cases have always had
globals().update(dict.fromkeys(TABLES, check_pin), **dict.fromkeys(REPLAYS, check_replay))


def test_no_configuration_is_pinned_twice():
    configs = [repr(RunConfig.from_dict(config)) for config, *_ in PINS]
    assert len(set(configs)) == len(configs)


def test_every_frontier_entry_is_pinned():
    pinned = [RunConfig.from_dict(config) for config, *_ in PINS]
    frontier = pathlib.Path(__file__).with_name("frontier.json")
    for entry in json.loads(frontier.read_text()):
        assert RunConfig.from_dict(entry) in pinned
