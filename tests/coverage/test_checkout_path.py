"""A campaign's trajectory must not depend on where the checkout lives.

Bitmap cells are hashed from source locations. Hashing the absolute
filename made the AFL bitmap, and through it queue decisions and whole
trajectories, differ between two copies of identical code. The campaign
fingerprint hashed absolute covered-line paths the same way.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Prints the digest of a short kvm/intel campaign, virgin map included,
#: and its ``campaign_fingerprint``, run from whichever ``repro`` package
#: is first on the path. One inline worker is the serial campaign, with
#: its virgin map exposed.
CAMPAIGN = """
import hashlib, json, os
from dataclasses import asdict
import repro
from repro import Vendor
from repro.parallel import ParallelCampaign
from repro.resilience import campaign_fingerprint

root = os.path.dirname(repro.__file__)
result = ParallelCampaign(hypervisor="kvm", vendor=Vendor.INTEL, seed=23000,
                          workers=1, mode="inline").run(150)
payload = {
    "lines": sorted((os.path.relpath(f, root), n)
                    for f, n in result.covered_lines),
    "reports": sorted(r.anomaly.signature() for r in result.reports),
    "stats": asdict(result.engine_stats),
    "virgin": result.virgin.snapshot().hex(),
}
print(hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest())
print(campaign_fingerprint(result))
"""


def _campaign_digests(src: Path) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", CAMPAIGN], env=env,
                          cwd=src.parent, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_campaign_digest_is_independent_of_checkout_path(tmp_path):
    copy = tmp_path / "another" / "checkout" / "src"
    shutil.copytree(SRC, copy,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    moved, in_place = _campaign_digests(copy), _campaign_digests(SRC)
    assert moved[0] == in_place[0], "campaign digest"
    assert moved[1] == in_place[1], "campaign_fingerprint"


def test_line_ids_hash_the_package_relative_path():
    from repro.coverage.bitmap import package_path, stable_line_id

    package = Path(repro.__file__).parent
    target = os.path.join(str(package), "hypervisors", "kvm", "nested_vmx.py")
    assert package_path(target) == "hypervisors/kvm/nested_vmx.py"
    assert package_path("elsewhere/x.py") == "elsewhere/x.py"
    assert stable_line_id(target, 10) == stable_line_id(
        "hypervisors/kvm/nested_vmx.py", 10)
